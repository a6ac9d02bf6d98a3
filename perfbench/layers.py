"""Per-layer attribution for the traced benchmark run.

The wrappers live here, in the benchmark, not in the program: ``install``
replaces public methods on the classes (and the module-level names that
callers look up) with timing shims, and the returned function puts the
originals back.  Patching classes rather than instances matters twice:
``Database.copy`` builds the pipeline's working database on a *spawned*
sibling backend the benchmark never sees, and Restruct calls
``certify_decomposition`` through the name it imported into
``repro.core.restruct``.

Every shim opens a frame on a per-thread stack.  A frame's *self* time
is its duration minus the frames nested directly inside it, so the self
times of one pipeline run add up to its wall time and the root frame's
self time is the part no layer explains (``pipeline.unattributed_ms``).
A backend method called from inside another backend method is the
backend's own business and is folded into the outer call, with one
exception: the rows a ``rows()`` scan yields to a caller outside the
backend (``Database.copy`` feeding ``insert_many``) are timed as scan
work wherever they are consumed.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

#: which end-to-end metric each layer should move, on which workload;
#: "-" marks a pairing predicted to move nothing
LAYER_MAP: Dict[str, Dict[str, str]] = {
    "programs": {"wide-sqlite": "run_s", "scale-memory": "-",
                 "paged-outofcore": "-", "service-mixed": "-"},
    "relational": {"scale-memory": "run_s", "paged-outofcore": "peak_rss_mb",
                   "wide-sqlite": "-", "service-mixed": "fresh_job_p50_ms"},
    "core.rhs_discovery": {"scale-memory": "run_s",
                           "paged-outofcore": "run_s", "wide-sqlite": "-"},
    "core.restruct": {"wide-sqlite": "run_s", "scale-memory": "-",
                      "paged-outofcore": "-"},
    "normalization": {"wide-sqlite": "run_s", "scale-memory": "-",
                      "paged-outofcore": "-"},
    "backends.scan": {"scale-memory": "run_s", "paged-outofcore": "run_s",
                      "wide-sqlite": "-"},
    "backends.primitives": {"scale-memory": "run_s",
                            "paged-outofcore": "run_s",
                            "wide-sqlite": "run_s"},
    "backends.write": {"wide-sqlite": "run_s", "scale-memory": "-",
                       "paged-outofcore": "-"},
    "engine": {"wide-sqlite": "run_s", "scale-memory": "-",
               "paged-outofcore": "-", "service-mixed": "-"},
    "storage": {"paged-outofcore": "run_s, peak_rss_mb",
                "scale-memory": "-", "wide-sqlite": "-",
                "service-mixed": "-"},
    "obs.provenance": {"wide-sqlite": "run_s", "scale-memory": "-",
                       "paged-outofcore": "-"},
    "obs.archive": {"service-mixed": "fresh_job_p50_ms",
                    "scale-memory": "-", "paged-outofcore": "-",
                    "wide-sqlite": "-"},
    # the pipeline workloads also time cache hits on their own input,
    # after their pipeline loop (traced too, see ``_cache_hits``)
    "service.fingerprint": {"service-mixed": "cached_job_p50_ms",
                            "scale-memory": "cached_job_p50_ms",
                            "paged-outofcore": "cached_job_p50_ms",
                            "wide-sqlite": "cached_job_p50_ms"},
    "service.queue_wait": {"service-mixed": "fresh_job_p50_ms"},
}

#: frame keys of the five phases, by the class whose ``run`` opens them
PHASES = (
    ("repro.core.ind_discovery", "INDDiscovery", "core.ind_discovery"),
    ("repro.core.lhs_discovery", "LHSDiscovery", "core.lhs_discovery"),
    ("repro.core.rhs_discovery", "RHSDiscovery", "core.rhs_discovery"),
    ("repro.core.restruct", "Restruct", "core.restruct"),
    ("repro.core.translate", "Translate", "core.translate"),
)

#: backend method -> frame key
BACKEND_METHODS = {
    "count_distinct": "backends.count_distinct",
    "join_count": "backends.join_count",
    "fd_holds": "backends.fd_holds",
    "inclusion_holds": "backends.inclusion_holds",
    "execute_batch": "backends.execute_batch",
    "table": "backends.scan",
    "insert": "backends.write",
    "insert_many": "backends.write",
    "create_relation": "backends.write",
    "replace_relation": "backends.write",
    "drop_relation": "backends.write",
    # the observability hook the instrumented wrapper calls before each
    # primitive; framed so its table lookups are not counted as scans
    "probe": "backends.probe",
}

PROVENANCE_METHODS = ("node", "link", "decision", "last_decision",
                      "attach_evidence")


class _Frame:
    __slots__ = ("key", "start", "child")

    def __init__(self, key: str, start: float) -> None:
        self.key = key
        self.start = start
        self.child = 0.0


class LayerRecorder:
    """Calls, inclusive and self seconds per frame key, across threads.

    Figures of frames opened while a pipeline run is on the thread's
    stack are kept apart (``run``) from the rest (``other``: submission
    fingerprints, archive writes, the benchmark's own set-up), so the
    self times of the ``run`` scope add up to the pipeline wall time.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.backend_depth = 0
            local.pipeline_depth = 0
        return local

    def in_backend(self) -> bool:
        return self._state().backend_depth > 0

    def in_pipeline(self) -> bool:
        return self._state().pipeline_depth > 0

    def enter(self, key: str, backend: bool = False) -> _Frame:
        state = self._state()
        if backend:
            state.backend_depth += 1
        if key == "pipeline":
            state.pipeline_depth += 1
        frame = _Frame(key, time.perf_counter())
        state.stack.append(frame)
        return frame

    def leave(self, frame: _Frame, backend: bool = False, call: bool = True) -> None:
        elapsed = time.perf_counter() - frame.start
        state = self._state()
        stack = state.stack
        stack.pop()
        if backend:
            state.backend_depth -= 1
        if frame.key == "pipeline":
            state.pipeline_depth -= 1
        scoped = ("run" if frame.key == "pipeline" or state.pipeline_depth
                  else "other", frame.key)
        if stack:
            stack[-1].child += elapsed
        reentered = any(f.key == frame.key for f in stack)
        with self._lock:
            if call:
                self.calls[scoped] += 1
            if not reentered:
                self.inclusive[scoped] += elapsed
            self.self_time[scoped] += elapsed - frame.child

    def record_scan(self, seconds: float) -> None:
        """One ``rows()`` scan that spent *seconds* inside the backend."""
        scoped = ("run" if self.in_pipeline() else "other", "backends.scan")
        with self._lock:
            self.calls[scoped] += 1
            self.inclusive[scoped] += seconds
            self.self_time[scoped] += seconds

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def reset(self) -> None:
        with self._lock:
            for counter in (self.calls, self.inclusive, self.self_time,
                            self.counts):
                counter.clear()


# ----------------------------------------------------------------------
# shims
# ----------------------------------------------------------------------
def _layer_shim(recorder: LayerRecorder, key: str, original: Callable) -> Callable:
    def shim(*args, **kwargs):
        frame = recorder.enter(key)
        try:
            return original(*args, **kwargs)
        finally:
            recorder.leave(frame)

    shim.__wrapped__ = original
    return shim


def _backend_shim(recorder: LayerRecorder, key: str, original: Callable,
                  table_read: bool = False) -> Callable:
    def shim(*args, **kwargs):
        if recorder.in_backend():
            return original(*args, **kwargs)
        if table_read and recorder.in_pipeline():
            recorder.count("relational.table_reads")
        frame = recorder.enter(key, backend=True)
        try:
            return original(*args, **kwargs)
        finally:
            recorder.leave(frame, backend=True)

    shim.__wrapped__ = original
    return shim


def _rows_shim(recorder: LayerRecorder, original: Callable) -> Callable:
    def shim(*args, **kwargs):
        if recorder.in_backend():
            return original(*args, **kwargs)
        return _timed_rows(recorder, original(*args, **kwargs))

    shim.__wrapped__ = original
    return shim


def _timed_rows(recorder: LayerRecorder, rows):
    """Yield from a backend scan, timing only the time spent inside it.

    Per row this is lighter than a frame: the time inside ``next`` is
    summed here and subtracted from whatever frame consumes the rows,
    and the scan is recorded as one call when it ends.
    """
    state = recorder._state()
    clock = time.perf_counter
    inside = 0.0
    try:
        while True:
            state.backend_depth += 1
            start = clock()
            try:
                item = next(rows)
            except StopIteration:
                return
            finally:
                elapsed = clock() - start
                state.backend_depth -= 1
                inside += elapsed
                if state.stack:
                    state.stack[-1].child += elapsed
            yield item
    finally:
        recorder.record_scan(inside)


def install(recorder: LayerRecorder) -> Callable[[], None]:
    """Install every shim; returns the function that removes them."""
    import repro.core.restruct as restruct_module
    import repro.service.jobs as jobs_module
    from importlib import import_module

    from repro.backends.memory import MemoryBackend
    from repro.backends.paged import PagedBackend
    from repro.backends.sqlite import SQLiteBackend
    from repro.core.pipeline import DBREPipeline
    from repro.engine.executor import BatchExecutor
    from repro.obs.archive import RunArchive
    from repro.obs.provenance import ProvenanceLedger
    from repro.programs.extractor import EquiJoinExtractor
    from repro.relational.database import Database

    saved: List[Tuple[object, str, object]] = []

    def patch(owner, name: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def layer(key):
        return lambda original: _layer_shim(recorder, key, original)

    patch(DBREPipeline, "run", layer("pipeline"))
    patch(Database, "copy", layer("relational.copy"))
    patch(EquiJoinExtractor, "extract_from_corpus", layer("programs.extract"))
    for module, cls, key in PHASES:
        patch(getattr(import_module(module), cls), "run", layer(key))
    patch(restruct_module, "certify_decomposition", layer("normalization.certify"))
    patch(BatchExecutor, "run", layer("engine.run"))
    for name in PROVENANCE_METHODS:
        patch(ProvenanceLedger, name, layer("obs.provenance"))
    patch(RunArchive, "store", layer("obs.archive.store"))
    patch(jobs_module, "database_fingerprint", layer("service.fingerprint"))
    patch(jobs_module, "workload_fingerprint", layer("service.fingerprint"))
    for backend in (MemoryBackend, PagedBackend, SQLiteBackend):
        for name, key in BACKEND_METHODS.items():
            if name in backend.__dict__:
                patch(backend, name, lambda original, key=key, name=name: _backend_shim(
                    recorder, key, original, table_read=(name == "table")))
        patch(backend, "rows", lambda original: _rows_shim(recorder, original))

    def uninstall() -> None:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
        saved.clear()

    return uninstall


# ----------------------------------------------------------------------
# the per-layer metrics
# ----------------------------------------------------------------------
def pipeline_layers(recorder: LayerRecorder, runs: int) -> Dict[str, float]:
    """Per-run means of the figures recorded inside pipeline runs."""
    per = 1.0 / max(1, runs)

    def self_ms(key):
        return recorder.self_time["run", key] * 1000.0 * per

    def incl_ms(key):
        return recorder.inclusive["run", key] * 1000.0 * per

    def calls(key):
        return recorder.calls["run", key] * per

    wall = incl_ms("pipeline")
    unattributed = self_ms("pipeline")
    out = {
        "programs.extract_ms": incl_ms("programs.extract"),
        "relational.copy_ms": incl_ms("relational.copy"),
        "relational.table_reads": recorder.counts["relational.table_reads"] * per,
        "normalization.certify_ms": incl_ms("normalization.certify"),
        "normalization.certificates": calls("normalization.certify"),
        "engine.run_ms": incl_ms("engine.run"),
        "obs.provenance.calls": calls("obs.provenance"),
        "obs.provenance.ms": self_ms("obs.provenance"),
        "backends.probe.calls": calls("backends.probe"),
        "backends.probe.ms": self_ms("backends.probe"),
        "pipeline.traced_run_ms": wall,
        "pipeline.unattributed_ms": unattributed,
        "pipeline.attributed_share": (1.0 - unattributed / wall) if wall else 0.0,
    }
    for _module, _cls, key in PHASES:
        out[f"{key}.self_ms"] = self_ms(key)
    for key in sorted(set(BACKEND_METHODS.values()) - {"backends.probe"}):
        out[f"{key}.calls"] = calls(key)
        out[f"{key}.ms"] = self_ms(key)
    return out


def other_ms(recorder: LayerRecorder, key: str) -> float:
    """Inclusive milliseconds of *key* outside pipeline runs."""
    return recorder.inclusive["other", key] * 1000.0


def other_calls(recorder: LayerRecorder, key: str) -> int:
    """Calls of *key* outside pipeline runs."""
    return recorder.calls["other", key]


def layer_table(workload: str, recorder: LayerRecorder, runs: int) -> str:
    """Self time per layer inside the traced pipeline runs.

    The rows add up to the wall time of the runs; the last one is the
    pipeline's own self time, the part no wrapped layer explains.
    """
    per = 1000.0 / max(1, runs)
    wall = recorder.inclusive["run", "pipeline"] * per
    rows = sorted(
        ((key, seconds * per) for (scope, key), seconds
         in recorder.self_time.items() if scope == "run" and key != "pipeline"),
        key=lambda row: -row[1],
    )
    rows.append(("pipeline.unattributed", recorder.self_time["run", "pipeline"] * per))
    lines = [f"layer table: {workload}, self ms per traced run "
             f"(wall {wall:.1f} ms, {runs} runs)"]
    for key, value in rows:
        share = 100.0 * value / wall if wall else 0.0
        calls = recorder.calls["run", key] / max(1, runs)
        lines.append(f"  {key:<28} {value:10.2f} ms {share:5.1f}%  {calls:9.1f} calls")
    predictions = [
        f"{layer} -> {moves[workload]}"
        for layer, moves in LAYER_MAP.items() if workload in moves
    ]
    lines.append("  predicted: " + "; ".join(predictions))
    return "\n".join(lines)
