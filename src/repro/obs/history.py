"""Cross-run analytics: trends and drift over archived runs and bench history.

One run tells you what the method did; a *series* of runs tells you
what changed.  This module reads the two persistent evidence stores
the repo accumulates —

- the ``repro/archive@1`` run archive (``repro serve --archive``),
  grouped by the database/workload fingerprints the results cache keys
  on, and
- the ``repro/bench-history@1`` trajectory that
  ``benchmarks/regression.py`` appends per run —

and renders trend tables (per-phase latency, primitive cache hit-rate,
pool incidents, per-head wall time) with **robust drift detection**:
each series is scored with the median/MAD z-score

    z_i = 0.6745 * (x_i - median) / MAD

which, unlike a mean/stddev score, is not dragged toward the outlier it
is trying to flag — one anomalous run in ten leaves the median and MAD
almost untouched, so the outlier scores high instead of inflating its
own yardstick.  ``|z| >= 3.5`` (Iglewicz & Hoaglin's conventional cut)
flags a run as drifted.  When MAD is zero (over half the series is
identical) the mean absolute deviation stands in; a series that never
varies at all cannot drift.

Surfaced as ``repro history`` (tables + flags) and as an *advisory*
drift report inside the regression gate — advisory because drift is a
question ("did something change?"), not a verdict; the ratio gate
stays the only thing that fails CI.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.stats import RunStats
from repro.util.text import format_table

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.archive import RunArchive

__all__ = [
    "DRIFT_THRESHOLD",
    "SeriesDrift",
    "archive_trends",
    "bench_drift_report",
    "detect_drift",
    "load_bench_history",
    "render_archive_trends",
    "render_bench_trends",
    "robust_zscores",
]

#: the conventional modified-z-score outlier cut (Iglewicz & Hoaglin)
DRIFT_THRESHOLD = 3.5

#: series shorter than this cannot meaningfully drift
_MIN_SERIES = 4

_HISTORY_FORMAT = "repro/bench-history@1"


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def robust_zscores(values: Sequence[float]) -> List[float]:
    """Modified z-scores (median/MAD) for *values*.

    ``0.6745 * (x - median) / MAD`` — the 0.6745 factor rescales MAD to
    the standard deviation of a normal distribution, so the 3.5 cut
    means the same thing it would for a classic z-score.  Falls back to
    the mean absolute deviation (scaled by 0.7979) when MAD is zero;
    returns all zeros when the series has no spread at all.
    """
    if not values:
        return []
    center = _median(values)
    deviations = [abs(v - center) for v in values]
    mad = _median(deviations)
    if mad > 0:
        return [0.6745 * (v - center) / mad for v in values]
    mean_ad = sum(deviations) / len(deviations)
    if mean_ad > 0:
        return [0.7979 * (v - center) / mean_ad for v in values]
    return [0.0 for _ in values]


def detect_drift(
    values: Sequence[float], threshold: float = DRIFT_THRESHOLD
) -> List[Tuple[int, float]]:
    """``(index, z)`` for every drifted point in *values*.

    Series shorter than four points are never flagged — with two or
    three samples the median *is* the data and every deviation looks
    enormous.
    """
    if len(values) < _MIN_SERIES:
        return []
    scores = robust_zscores(values)
    return [
        (index, round(score, 2))
        for index, score in enumerate(scores)
        if abs(score) >= threshold
    ]


@dataclass
class SeriesDrift:
    """One metric series over runs, with its drift verdict."""

    name: str
    values: List[float] = field(default_factory=list)
    flagged: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def drifted(self) -> bool:
        return bool(self.flagged)

    @property
    def latest_drifted(self) -> bool:
        """Did the *most recent* run drift? (The actionable case.)"""
        return any(index == len(self.values) - 1 for index, _ in self.flagged)


def _series(name: str, values: Sequence[float], threshold: float) -> SeriesDrift:
    values = [float(v) for v in values]
    return SeriesDrift(
        name=name, values=values, flagged=detect_drift(values, threshold)
    )


# ----------------------------------------------------------------------
# the bench-history side
# ----------------------------------------------------------------------
def load_bench_history(
    path: str, mode: Optional[str] = None
) -> List[Dict[str, Any]]:
    """The ``repro/bench-history@1`` records in *path*, oldest first.

    Filters to *mode* (``quick``/``full``) when given — drift across
    modes would compare different scenario sizes.  Unreadable lines
    and foreign formats are skipped (the history file is append-only
    and may span harness versions).
    """
    if not os.path.exists(path):
        return []
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if record.get("format") != _HISTORY_FORMAT:
                continue
            if mode is not None and record.get("mode") != mode:
                continue
            records.append(record)
    return records


def _bench_series(
    records: Sequence[Dict[str, Any]], threshold: float
) -> Dict[str, Dict[str, SeriesDrift]]:
    """head name → metric name → its series across *records*."""
    heads: Dict[str, Dict[str, List[float]]] = {}
    for record in records:
        for name, head in (record.get("heads") or {}).items():
            metrics = heads.setdefault(
                name, {"wall_ms": [], "queries": [], "cache_hits": []}
            )
            metrics["wall_ms"].append(float(head.get("wall_ms", 0.0)))
            metrics["queries"].append(float(head.get("queries", 0)))
            metrics["cache_hits"].append(float(head.get("cache_hits", 0)))
    return {
        name: {
            metric: _series(metric, values, threshold)
            for metric, values in metrics.items()
        }
        for name, metrics in heads.items()
    }


def render_bench_trends(
    records: Sequence[Dict[str, Any]], threshold: float = DRIFT_THRESHOLD
) -> str:
    """The per-head trend table over a bench-history series."""
    if not records:
        return "no bench history\n"
    rows = []
    drifted_any = False
    for name, metrics in sorted(_bench_series(records, threshold).items()):
        wall = metrics["wall_ms"]
        if not wall.values:
            continue
        scores = robust_zscores(wall.values)
        flags = []
        for metric, series in sorted(metrics.items()):
            if series.latest_drifted:
                flags.append(metric)
                drifted_any = True
        rows.append([
            name,
            str(len(wall.values)),
            f"{_median(wall.values):.1f}",
            f"{wall.values[-1]:.1f}",
            f"{scores[-1]:+.2f}" if scores else "-",
            f"{metrics['queries'].values[-1]:.0f}",
            f"{metrics['cache_hits'].values[-1]:.0f}",
            "DRIFT:" + ",".join(flags) if flags else "ok",
        ])
    lines = [
        f"bench history: {len(records)} runs "
        f"(drift = |median/MAD z| >= {threshold})",
        format_table(
            ["head", "runs", "median ms", "last ms", "z(last)",
             "queries", "hits", "verdict"],
            rows,
        ),
    ]
    if drifted_any:
        lines.append(
            "drifted series are advisory: check the flagged run before "
            "trusting its figures"
        )
    return "\n".join(lines) + "\n"


def bench_drift_report(
    records: Sequence[Dict[str, Any]], threshold: float = DRIFT_THRESHOLD
) -> List[str]:
    """Advisory messages for heads whose *latest* run drifted.

    Only the latest run is reported — the gate runs after appending the
    current run, so "the newest point is anomalous against its own
    history" is the case a CI log can act on.
    """
    messages: List[str] = []
    for name, metrics in sorted(_bench_series(records, threshold).items()):
        for metric, series in sorted(metrics.items()):
            if not series.latest_drifted:
                continue
            z = next(
                z for i, z in series.flagged if i == len(series.values) - 1
            )
            messages.append(
                f"{name}: {metric} {series.values[-1]:g} drifts from its "
                f"history (median {_median(series.values):g}, "
                f"robust z {z:+.2f}, cut {threshold})"
            )
    return messages


# ----------------------------------------------------------------------
# the archive side
# ----------------------------------------------------------------------
def archive_trends(
    archive: "RunArchive", threshold: float = DRIFT_THRESHOLD
) -> List[Dict[str, Any]]:
    """Per-fingerprint trend rows over every archived run.

    Runs are grouped by (database fingerprint, workload fingerprint) —
    the same pair the results cache keys on — so a group holds the
    *same discovery problem* run under possibly different configs, and
    differences within a group are attributable to config or code, not
    input.  Each row carries the group's per-phase latency series,
    primitive cache hit-rate, and pool-incident counts, with the
    group's wall-time drift verdict.
    """
    groups: Dict[Tuple[str, str], List[Any]] = {}
    for run in archive.runs():
        groups.setdefault(run.cache_key[:2], []).append(run)
    rows: List[Dict[str, Any]] = []
    for (db_fp, wl_fp), runs in sorted(groups.items()):
        total = RunStats()
        for run in runs:
            total.merge(run.stats)
        walls = [sum(run.stats.phase_ms.values()) for run in runs]
        calls, hits = total.queries, sum(total.primitive_cache_hits.values())
        rows.append({
            "database_fingerprint": db_fp,
            "workload_fingerprint": wl_fp,
            "runs": len(runs),
            "states": [run.state for run in runs],
            "labels": [run.record.get("label", "") for run in runs],
            "phase_ms": {k: round(v, 3) for k, v in sorted(total.phase_ms.items())},
            "wall_ms": [round(w, 3) for w in walls],
            "cache_hit_rate": round(hits / calls, 4) if calls else 0.0,
            "pool_incidents": sum(total.pool_events.values()),
            "drift": detect_drift(walls, threshold),
        })
    return rows


def render_archive_trends(
    archive: "RunArchive", threshold: float = DRIFT_THRESHOLD
) -> str:
    """The one-screen archive trend table (``repro history --archive``)."""
    rows = archive_trends(archive, threshold)
    if not rows:
        return "archive is empty\n"
    table = []
    for row in rows:
        slowest = max(
            row["phase_ms"].items(), key=lambda kv: kv[1], default=("-", 0.0)
        )
        table.append([
            row["database_fingerprint"][:10],
            row["workload_fingerprint"][:10],
            str(row["runs"]),
            ",".join(row["labels"][-3:]),
            f"{slowest[0]}={slowest[1]:.1f}ms",
            f"{100 * row['cache_hit_rate']:.0f}%",
            str(row["pool_incidents"]),
            "DRIFT" if row["drift"] else "ok",
        ])
    lines = [
        f"archive: {sum(r['runs'] for r in rows)} runs over "
        f"{len(rows)} fingerprint group(s)",
        format_table(
            ["database", "workload", "runs", "labels", "slowest phase",
             "hit-rate", "pool", "verdict"],
            table,
        ),
    ]
    return "\n".join(lines) + "\n"
