"""The four benchmark workloads, driven through the public API.

Three *pipeline* workloads time ``DBREPipeline.run(corpus=...)`` on one
loaded scenario, again and again, for the run's seconds; each run is one
fresh job of the method.  After the loop, once the peak RSS is read,
they time cache hits on the same input on a ``JobManager``.
``service-mixed`` drives an in-process ``JobManager`` in a closed loop.
Every workload reports the same end-to-end metrics (see ``run.py``); a
traced run (``--trace 1``) first measures untraced for half its
seconds, then with the layer wrappers of ``layers.py`` installed for
the other half.
"""

from __future__ import annotations

import bisect
import gc
import os
import random
import re
import shutil
import sqlite3
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import layers
import scenarios
from checks import Tally

from repro.backends.paged import PagedBackend
from repro.backends.sqlite import SQLiteBackend
from repro.core.pipeline import DBREPipeline
from repro.obs.archive import RunArchive
from repro.service.jobs import JobManager

PIPELINE_SHAPES = {
    "scale-memory": scenarios.S5_SHAPE,
    "paged-outofcore": scenarios.PAGED_SHAPE,
    "wide-sqlite": scenarios.WIDE_SHAPE,
}
WORKLOADS = tuple(PIPELINE_SHAPES) + ("service-mixed",)

#: set-up is repeated in an untraced run (``setup_s`` is the median) at
#: least SETUP_REPEATS times, and while the repeats take under
#: SETUP_SECONDS, up to SETUP_MAX_REPEATS times
SETUP_REPEATS = 5
SETUP_SECONDS = 5.0
SETUP_MAX_REPEATS = 25
#: a timed sample is rescaled by this many reference samples on each side
LOCAL_REFERENCE = 2
#: fewest timed iterations, whatever the seconds
MIN_ITERATIONS = 3
#: share of a pipeline run's seconds spent timing results-cache hits
HIT_SHARE = 0.1
#: fewest cache hits timed in an untraced pipeline run
MIN_HITS = 10
#: each service scenario is submitted this many times per round, so
#: (SERVICE_REPEATS - 1) / SERVICE_REPEATS of the submissions hit the
#: cache.  The share and the order (each hit right after its fresh twin)
#: are assumed traffic, not measured: no recorded service traffic backs
#: them.  In this order a hit's fingerprinting overlaps the twin's
#: ``RunArchive.store``, which the runner thread does after ``result()``
#: has returned, so ``cached_job_p50_ms`` depends on that overlap.
SERVICE_REPEATS = 2
#: fewest untraced service rounds, so the fresh-job tail is a p75 or higher
MIN_ROUNDS = 10
#: no single job may take longer than this
JOB_TIMEOUT_S = 120.0

#: the counts that must repeat exactly between runs of one input
STABLE_COUNTS = (
    "backends.count_distinct.calls", "backends.join_count.calls",
    "backends.fd_holds.calls", "backends.inclusion_holds.calls",
    "backends.execute_batch.calls", "backends.scan.calls",
    "backends.write.calls", "core.expert.decisions", "engine.backend_calls",
    "storage.pages_read",
)


# ----------------------------------------------------------------------
# process measurements
# ----------------------------------------------------------------------
def reset_peak_rss() -> bool:
    """Reset the kernel's resident high-water mark to the current RSS.

    Returns False where the kernel refuses; the peak then also covers
    set-up, and the run's input properties say so.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        match = re.search(r"VmHWM:\s+(\d+)\s+kB", handle.read())
    return int(match.group(1)) / 1024.0


def reference_seconds() -> float:
    """Seconds for a fixed pure-Python job: the host's speed right now.

    The job builds and intersects sets of tuples, the kind of work the
    primitives and the fingerprints do (half the calibration job of
    ``benchmarks/regression.py``).  Sampled throughout a run, at points
    where no other thread of the process is busy; ``host_scaled``
    rescales the run's times by it.
    """
    # the collector would charge the job for whatever garbage the
    # workload left behind; the job measures the host, not the heap
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        left = {(i % 997, i % 31) for i in range(25_000)}
        right = {(i % 991, i % 29) for i in range(25_000)}
        _ = len(left & right) + len(left | right)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def sample_reference(out: "Outcome", count: int) -> float:
    """Take *count* reference samples; returns the seconds they took."""
    start = time.perf_counter()
    for _ in range(count):
        begun = time.perf_counter()
        out.reference.add(reference_seconds(), begun, time.perf_counter())
    return time.perf_counter() - start


@dataclass
class Samples:
    """Timed values, each with the ``perf_counter`` span it covers."""

    values: List[float] = field(default_factory=list)
    spans: List[Tuple[float, float]] = field(default_factory=list)

    def add(self, value: float, start: float, end: float) -> None:
        self.values.append(value)
        self.spans.append((start, end))

    def clear(self) -> None:
        self.values.clear()
        self.spans.clear()

    def __len__(self) -> int:
        return len(self.values)


def local_reference(samples: Samples, reference: Samples) -> List[float]:
    """The host's reference time while each of *samples* was taken.

    That is the fastest of the LOCAL_REFERENCE reference samples taken
    last before the sample and the LOCAL_REFERENCE taken first after
    it.  The host is shared and its speed swings by tens of percent
    within seconds, so a run-wide median of the reference would stand
    for the wrong moment; and one short sample is itself slowed at
    random by the other tenants, so the fastest of the few nearest
    tracks the host better than any one of them.
    """
    ends = [end for _, end in reference.spans]
    starts = [start for start, _ in reference.spans]
    local = []
    for start, end in samples.spans:
        before = bisect.bisect_right(ends, start)
        after = bisect.bisect_left(starts, end)
        local.append(min(reference.values[max(0, before - LOCAL_REFERENCE):before]
                         + reference.values[after:after + LOCAL_REFERENCE]))
    return local


def host_scaled(samples: Samples, reference: Samples) -> List[float]:
    """Each of *samples* in units of its :func:`local_reference`."""
    return [value / local for value, local
            in zip(samples.values, local_reference(samples, reference))]


def tail(samples: List[float]) -> tuple:
    """``(label, value)`` of the highest of the 75th, 90th, 95th and
    99th percentiles with at least ten samples beyond it.

    With fewer than 40 samples no tail percentile is supported, and the
    median stands in for it (labelled ``p50``).
    """
    best = 50
    for pct in (75, 90, 95, 99):
        if len(samples) * (100 - pct) / 100.0 >= 10:
            best = pct
    if best == 50:
        return "p50", statistics.median(samples)
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return f"p{best}", cuts[best - 1]


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
@dataclass
class Loaded:
    """One workload input, loaded into the workload's backend."""

    key: str
    database: Any
    corpus: Any
    expert: Any
    truth: Any
    props: Dict[str, Any] = field(default_factory=dict)

    def close(self) -> None:
        self.database.close()
        # a connection handed to SQLiteBackend stays the caller's to close
        connection = getattr(self.database.backend, "connection", None)
        if connection is not None:
            connection.close()


def _props(seed: int, database, corpus) -> Dict[str, Any]:
    names = database.schema.relation_names
    return {
        "seed": seed,
        "relations": len(names),
        "rows": sum(database.backend.row_count(n) for n in names),
        "programs": len(list(corpus)),
    }


def load_pipeline(workload: str, seed: int, scratch: str) -> Loaded:
    """Generate the workload's scenario and load it into its backend.

    Only the loaded database survives: for the paged and SQLite
    workloads the generator's in-memory copy is closed here.
    """
    scenario = scenarios.build(PIPELINE_SHAPES[workload], seed)
    generated = scenario.database
    if workload == "paged-outofcore":
        directory = os.path.join(scratch, f"paged-{time.perf_counter_ns()}")
        os.makedirs(directory)
        database = generated.copy(backend=PagedBackend(directory=directory))
        generated.close()
    elif workload == "wide-sqlite":
        # the job service runs the pipeline on its runner thread
        connection = sqlite3.connect(":memory:", isolation_level=None,
                                     check_same_thread=False)
        database = generated.copy(backend=SQLiteBackend(connection=connection))
        generated.close()
    else:
        database = generated
    loaded = Loaded(workload, database, scenario.corpus, scenario.expert,
                    scenario.truth)
    loaded.props = _props(seed, database, scenario.corpus)
    if workload == "paged-outofcore":
        files = database.backend.files.files()
        loaded.props["extension_pages"] = sum(f.page_count for f in files.values())
        loaded.props["pool_pages"] = database.backend.pool.capacity
    return loaded


def load_service(seed: int) -> List[Loaded]:
    pool = []
    for index, shape in enumerate(scenarios.SERVICE_SHAPES):
        scenario = scenarios.build(shape, seed + 10 * index)
        loaded = Loaded(f"scenario-{index}", scenario.database, scenario.corpus,
                        scenario.expert, scenario.truth)
        loaded.props = _props(seed + 10 * index, scenario.database, scenario.corpus)
        pool.append(loaded)
    return pool


def timed_setup(load, out: "Outcome"):
    """Run one set-up, *load*, and return what it loaded.

    Its wall time goes to ``out.setup``, with reference samples taken
    on both sides of it.
    """
    sample_reference(out, LOCAL_REFERENCE)
    start = time.perf_counter()
    loaded = load()
    end = time.perf_counter()
    out.setup.add(end - start, start, end)
    sample_reference(out, LOCAL_REFERENCE)
    return loaded


def repeat_setups(load, out: "Outcome") -> None:
    """More set-ups after the run's own, discarded once timed.

    *load* returns the list of inputs one set-up builds.
    """
    while len(out.setup) < SETUP_MAX_REPEATS and (
        len(out.setup) < SETUP_REPEATS or sum(out.setup.values) < SETUP_SECONDS
    ):
        for loaded in timed_setup(load, out):
            loaded.close()
        gc.collect()


# ----------------------------------------------------------------------
# pipeline workloads
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run measured."""

    tally: Tally = field(default_factory=Tally)
    #: ``reference_seconds()`` samples taken through the run, between
    #: the timed samples below (see ``host_scaled``)
    reference: Samples = field(default_factory=Samples)
    #: set-up and pipeline-run seconds, job latencies in milliseconds
    setup: Samples = field(default_factory=Samples)
    run: Samples = field(default_factory=Samples)
    fresh: Samples = field(default_factory=Samples)
    cached: Samples = field(default_factory=Samples)
    loop_s: float = 0.0
    jobs: int = 0
    peak_rss_mb: float = 0.0
    props: Dict[str, Any] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    drift: List[str] = field(default_factory=list)
    table: str = ""


def _storage(backend) -> Dict[str, int]:
    hook = getattr(backend, "telemetry", None)
    return hook() if hook is not None else {}


def _iteration_counts(loaded: Loaded, result, before: Dict[str, int]) -> Dict[str, float]:
    """Counts and storage deltas of one pipeline run."""
    after = _storage(loaded.database.backend)
    storage = {k: after[k] - before.get(k, 0) for k in after}
    for k, v in _storage(result.restructured.backend).items():
        storage[k] = storage.get(k, 0) + v
    stats = result.engine_stats
    probes = stats.logical_probes if stats else 0
    calls = stats.backend_calls if stats else 0
    hits = storage.get("pool_hits", 0)
    misses = storage.get("pool_misses", 0)
    return {
        "core.expert.decisions": result.expert_decisions,
        "engine.probes": probes,
        "engine.backend_calls": calls,
        "engine.probes_per_backend_call": probes / calls if calls else 0.0,
        "storage.pool_hits": hits,
        "storage.pool_misses": misses,
        "storage.pool_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "storage.evictions": storage.get("pool_evictions", 0),
        "storage.pages_read": storage.get("pages_read", 0),
        "storage.pages_written": storage.get("pages_written", 0),
        "programs.statements": result.extraction.statements_seen if result.extraction else 0,
        "programs.equijoins": len(result.equijoins),
    }


def _pipeline_loop(loaded: Loaded, engine: str, seconds: float, out: Outcome,
                   recorder: Optional[layers.LayerRecorder] = None
                   ) -> List[Dict[str, float]]:
    """Run the pipeline for *seconds*; returns per-iteration counts.

    Reference samples are left out of the loop time behind ``jobs_per_s``.
    """
    per_iteration: List[Dict[str, float]] = []
    loop_start = time.perf_counter()
    deadline = loop_start + seconds
    excluded = 0.0
    while len(per_iteration) < MIN_ITERATIONS or time.perf_counter() < deadline:
        excluded += sample_reference(out, 2)
        before = _storage(loaded.database.backend)
        if recorder is not None:
            snapshot = dict(recorder.calls)
        start = time.perf_counter()
        try:
            result = DBREPipeline(loaded.database, loaded.expert, engine=engine).run(
                corpus=loaded.corpus
            )
        except Exception as exc:  # a failed run is a counted outcome
            out.tally.fail(f"{loaded.key}: {type(exc).__name__}: {exc}")
            per_iteration.append({})
            continue
        end = time.perf_counter()
        out.run.add(end - start, start, end)
        out.fresh.add((end - start) * 1000.0, start, end)
        counts = _iteration_counts(loaded, result, before)
        if recorder is not None:
            for (scope, key), value in recorder.calls.items():
                if scope == "run" and key.startswith("backends."):
                    counts[f"{key}.calls"] = value - snapshot.get((scope, key), 0)
        per_iteration.append(counts)
        out.tally.check(loaded.key, loaded.truth, result)
        result.restructured.close()
        del result
    out.loop_s += time.perf_counter() - loop_start - excluded
    out.jobs += sum(1 for counts in per_iteration if counts)
    sample_reference(out, LOCAL_REFERENCE)
    return per_iteration


def _submit(manager: JobManager, loaded: Loaded, config: Dict[str, Any],
            out: Outcome, cached: bool):
    """Submit *loaded* once, wait for it and check it.

    Returns ``(job, result, start, end)``, the ``perf_counter`` span
    from submit to result, or None when the job raised or *cached*
    mispredicted a results-cache hit (counted failures).
    """
    start = time.perf_counter()
    try:
        job = manager.submit(loaded.database, corpus=loaded.corpus, config=config)
        result = manager.result(job.id, timeout=JOB_TIMEOUT_S)
    except Exception as exc:
        out.tally.fail(f"{loaded.key} job: {type(exc).__name__}: {exc}")
        return None
    end = time.perf_counter()
    if job.cached != cached:
        out.tally.fail(f"{loaded.key}: job cached={job.cached}, expected {cached}")
        return None
    out.tally.check(loaded.key, loaded.truth, result)
    return job, result, start, end


def _host_scaled(out: Outcome) -> float:
    """Median host-scaled run time, then clears the runs and references.

    The traced and untraced halves of a run are compared this way, so
    host drift between the halves does not show as tracing overhead.
    """
    scaled = statistics.median(host_scaled(out.run, out.reference))
    out.run.clear()
    out.reference.clear()
    return scaled


def _drift(per_iteration: List[Dict[str, float]]) -> List[str]:
    """The stable counts that did not repeat exactly across iterations."""
    varied = []
    for key in STABLE_COUNTS:
        values = {it[key] for it in per_iteration if key in it}
        if len(values) > 1:
            varied.append(f"{key} {sorted(values)}")
    return varied


def _median_counts(per_iteration: List[Dict[str, float]]) -> Dict[str, float]:
    keys = {k for it in per_iteration for k in it}
    return {
        k: statistics.median([it[k] for it in per_iteration if k in it])
        for k in keys
    }


def _cache_hits(loaded: Loaded, engine: str, seconds: float, count: int,
                out: Outcome, recorder: Optional[layers.LayerRecorder] = None) -> int:
    """Time results-cache hits on *loaded*; returns the hits submitted.

    One fresh job on a new ``JobManager`` fills the cache, then the
    input is submitted again for *seconds*, at least *count* times.
    Runs after ``peak_rss_mb`` is read, since the manager holds the
    seeded job's result, trace and live-bus history.  A *recorder* is
    installed for the hits only, so its figures are the submissions'
    own (fingerprinting and the cache lookup).
    """
    config = {"expert": loaded.expert, "engine": engine}
    hits = 0
    with JobManager(runners=1) as manager:
        if _submit(manager, loaded, config, out, cached=False) is None:
            return 0
        uninstall = layers.install(recorder) if recorder is not None else None
        try:
            deadline = time.perf_counter() + seconds
            while hits < count or time.perf_counter() < deadline:
                sample_reference(out, 1)
                hits += 1
                submitted = _submit(manager, loaded, config, out, cached=True)
                if submitted is not None:
                    _job, _result, start, end = submitted
                    out.cached.add((end - start) * 1000.0, start, end)
            sample_reference(out, LOCAL_REFERENCE)
        finally:
            if uninstall is not None:
                uninstall()
    return hits


def run_pipeline(workload: str, seed: int, seconds: float, trace: bool,
                 scratch: str) -> Outcome:
    out = Outcome()
    engine = "batched" if workload == "wide-sqlite" else "serial"
    loaded = timed_setup(lambda: load_pipeline(workload, seed, scratch), out)
    out.props = dict(loaded.props)
    gc.collect()
    out.props["peak_rss_covers_setup"] = not reset_peak_rss()
    loop_seconds = seconds * (1.0 - HIT_SHARE)
    untraced = _pipeline_loop(
        loaded, engine, loop_seconds / 2 if trace else loop_seconds, out
    )
    out.peak_rss_mb = peak_rss_mb()
    out.props["equijoins"] = untraced[-1].get("programs.equijoins", 0)
    if trace:
        recorder = layers.LayerRecorder()
        untraced_scaled = _host_scaled(out)
        uninstall = layers.install(recorder)
        try:
            traced = _pipeline_loop(loaded, engine, loop_seconds / 2, out, recorder)
        finally:
            uninstall()
        runs = len(out.run)
        out.layers = layers.pipeline_layers(recorder, runs)
        out.layers.update(_median_counts(traced))
        out.layers["obs.trace_overhead"] = _host_scaled(out) / untraced_scaled
        hit_recorder = layers.LayerRecorder()
        hits = _cache_hits(loaded, engine, 0.0, MIN_ITERATIONS, out, hit_recorder)
        out.layers.update(_service_layers(hit_recorder, hits, [], 0.0))
        out.drift = _drift(untraced) + _drift(traced)
        out.table = layers.layer_table(workload, recorder, runs)
    else:
        _cache_hits(loaded, engine, seconds * HIT_SHARE,
                    max(MIN_HITS, len(untraced)), out)
        out.drift = _drift(untraced)
    loaded.close()
    del loaded
    gc.collect()
    if not trace:
        repeat_setups(lambda: [load_pipeline(workload, seed, scratch)], out)
    return out


# ----------------------------------------------------------------------
# service-mixed
# ----------------------------------------------------------------------
def _service_layers(recorder: layers.LayerRecorder, submissions: int,
                    queue_wait_ms: List[float], hit_ratio: float) -> Dict[str, float]:
    stores = layers.other_calls(recorder, "obs.archive.store")
    return {
        "service.fingerprint_ms": (
            layers.other_ms(recorder, "service.fingerprint") / submissions
            if submissions else 0.0
        ),
        "obs.archive.store_ms": (
            layers.other_ms(recorder, "obs.archive.store") / stores if stores else 0.0
        ),
        "service.queue_wait_ms": statistics.median(queue_wait_ms) if queue_wait_ms else 0.0,
        "service.cache_hit_ratio": hit_ratio,
    }


def _service_rounds(pool: List[Loaded], rng: random.Random, seconds: float,
                    scratch: str, out: Outcome, queue_wait_ms: List[float],
                    ratios: List[float], per_run: Optional[List[Dict[str, float]]],
                    min_rounds: int) -> None:
    """Closed-loop rounds, each on a fresh manager and archive."""
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < deadline:
        rounds += 1
        # a shuffled scenario order, each submitted SERVICE_REPEATS times
        # in a row: every cache hit follows the fresh run of its twin,
        # whatever the seed, so the seed changes no timing pattern
        order = list(range(len(pool)))
        rng.shuffle(order)
        sequence = [i for i in order for _ in range(SERVICE_REPEATS)]
        directory = os.path.join(scratch, f"archive-{time.perf_counter_ns()}")
        hits = 0
        sample_reference(out, 3)
        round_start = time.perf_counter()
        with JobManager(runners=1, archive=RunArchive(directory)) as manager:
            for position, index in enumerate(sequence):
                loaded = pool[index]
                submitted = _submit(manager, loaded, {"expert": loaded.expert}, out,
                                    cached=bool(position % SERVICE_REPEATS))
                if submitted is None:
                    continue
                job, result, start, end = submitted
                out.jobs += 1
                if job.cached:
                    hits += 1
                    out.cached.add((end - start) * 1000.0, start, end)
                    continue
                out.fresh.add((end - start) * 1000.0, start, end)
                out.run.add(job.finished_at - job.started_at, start, end)
                queue_wait_ms.append((job.started_at - job.submitted_at) * 1000.0)
                out.props.setdefault("equijoins_per_scenario", {})[
                    loaded.key] = len(result.equijoins)
                if per_run is not None:
                    per_run.append(_iteration_counts(loaded, result, {}))
        out.loop_s += time.perf_counter() - round_start
        ratios.append(hits / len(sequence))
        shutil.rmtree(directory, ignore_errors=True)
    sample_reference(out, LOCAL_REFERENCE)


def run_service(seed: int, seconds: float, trace: bool, scratch: str) -> Outcome:
    out = Outcome()
    pool = timed_setup(lambda: load_service(seed), out)
    out.props = {
        "seed": seed,
        "scenarios": len(pool),
        "relations": sum(p.props["relations"] for p in pool),
        "rows": sum(p.props["rows"] for p in pool),
        "rows_per_scenario": [p.props["rows"] for p in pool],
        "programs": sum(p.props["programs"] for p in pool),
        "submissions_per_round": len(pool) * SERVICE_REPEATS,
        "cache_hit_share": (SERVICE_REPEATS - 1) / SERVICE_REPEATS,
        "traffic": "assumed: each hit right after its fresh twin, "
                   "overlapping the twin's archive write",
    }
    rng = random.Random(seed)
    gc.collect()
    out.props["peak_rss_covers_setup"] = not reset_peak_rss()
    queue_wait: List[float] = []
    ratios: List[float] = []
    _service_rounds(pool, rng, seconds / 2 if trace else seconds, scratch, out,
                    queue_wait, ratios, None, 1 if trace else MIN_ROUNDS)
    out.peak_rss_mb = peak_rss_mb()
    if trace:
        untraced_scaled = _host_scaled(out)
        submissions_before = out.jobs
        queue_wait.clear()
        recorder = layers.LayerRecorder()
        uninstall = layers.install(recorder)
        try:
            traced: List[Dict[str, float]] = []
            _service_rounds(pool, rng, seconds / 2, scratch, out, queue_wait,
                            ratios, traced, 1)
        finally:
            uninstall()
        runs = len(out.run)
        out.layers = layers.pipeline_layers(recorder, runs)
        out.layers.update(_median_counts(traced))
        out.layers["obs.trace_overhead"] = _host_scaled(out) / untraced_scaled
        out.layers.update(_service_layers(
            recorder, out.jobs - submissions_before, queue_wait,
            statistics.median(ratios),
        ))
        out.table = layers.layer_table("service-mixed", recorder, runs)
    if len(set(ratios)) > 1:
        out.drift.append(f"service.cache_hit_ratio {sorted(set(ratios))}")
    for loaded in pool:
        loaded.close()
    del pool
    gc.collect()
    if not trace:
        repeat_setups(lambda: load_service(seed), out)
    return out
