"""Correctness of every timed iteration and job.

An outcome fails when the run raised, when Restruct did not recover the
generator's ground-truth schema exactly, or when its result digest
differs from the reference digest of the same input within the run.
The digest covers ``F``, ``IND``, ``RIC`` and the rendered EER schema,
the artifacts a user of the method reads.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional

from repro.eer.render import render_text
from repro.evaluation.schema_match import score_schema_recovery


def result_digest(result) -> str:
    """A stable hash of the run's F, IND, RIC and rendered EER."""
    document = {
        "F": sorted(repr(fd) for fd in result.fds),
        "IND": sorted(repr(ind) for ind in result.inds),
        "RIC": sorted(repr(ric) for ric in result.ric),
        "EER": render_text(result.eer) if result.eer is not None else None,
    }
    payload = json.dumps(document, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


class Tally:
    """Attempted and failed outcomes, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        #: input key -> digest of the first result seen for that input
        self.reference: Dict[str, str] = {}

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)

    def check(self, key: str, truth, result) -> Optional[str]:
        """Count one outcome; returns the failure reason, or None."""
        reason = None
        recovery = score_schema_recovery(truth, result.restructured).recovery_rate
        if recovery < 1.0:
            reason = f"{key}: schema recovery {recovery:.3f} < 1.0"
        else:
            digest = result_digest(result)
            expected = self.reference.setdefault(key, digest)
            if digest != expected:
                reason = f"{key}: result digest {digest[:12]} != {expected[:12]}"
        if reason is None:
            self.attempted += 1
        else:
            self.fail(reason)
        return reason
