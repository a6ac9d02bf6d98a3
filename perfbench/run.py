"""The repository benchmark: one workload, one seed, one JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scale-memory --seed 1 --seconds 20 --trace 0

Workloads: ``scale-memory``, ``paged-outofcore``, ``wide-sqlite`` and
``service-mixed`` (``workloads.py`` says what each one drives and
``BENCHMARK.json`` why it was chosen).  The last line of standard output
is the result object ``{"correct", "attempted", "failed", "metrics"}``;
with ``--trace 0`` its metrics are the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` the per-layer ones.  The lines
before it give every metric with its unit, the sample counts, the input
properties of the run and, when traced, the layer table.  Any file the
run writes goes to a scratch directory inside the checkout, removed on
exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


#: ``reference_seconds()`` on the host the figures are scaled to
REFERENCE_S = 0.020


def speed_factor(outcome) -> float:
    """How much faster than the reference host this run's host was,
    by the median reference time around its pipeline runs."""
    from workloads import local_reference

    return REFERENCE_S / statistics.median(
        local_reference(outcome.run, outcome.reference)
    )


def end_to_end(outcome) -> dict:
    """The end-to-end metrics of one untraced outcome.

    Times are wall times rescaled to the reference host.  Each timed
    sample is divided by the host's reference time while it was taken
    (``workloads.local_reference``) and multiplied by ``REFERENCE_S``;
    ``jobs_per_s``, a rate over the whole loop, is rescaled by
    :func:`speed_factor`.  The benchmark shares a 2-core host whose
    speed swings by tens of percent within seconds; the rescaling takes
    that out of the figures, and ``report`` prints the raw wall times
    beside them.
    """
    from workloads import host_scaled, tail

    def scaled(samples):
        return [v * REFERENCE_S for v in host_scaled(samples, outcome.reference)]

    _, tail_ms = tail(scaled(outcome.fresh))
    return {
        "setup_s": statistics.median(scaled(outcome.setup)),
        "run_s": statistics.median(scaled(outcome.run)),
        "peak_rss_mb": outcome.peak_rss_mb,
        "jobs_per_s": outcome.jobs / outcome.loop_s / speed_factor(outcome),
        "fresh_job_p50_ms": statistics.median(scaled(outcome.fresh)),
        "fresh_job_tail_ms": tail_ms,
        "cached_job_p50_ms": statistics.median(scaled(outcome.cached)),
    }


def report(workload: str, outcome, trace: bool) -> None:
    """The human-readable lines printed before the result object."""
    from workloads import tail

    tally = outcome.tally
    print(f"workload {workload}: inputs {json.dumps(outcome.props, sort_keys=True)}")
    if not trace:
        label, tail_ms = tail(outcome.fresh.values)
        print(f"  samples: run_s n={len(outcome.run)}, fresh jobs "
              f"n={len(outcome.fresh)} (tail = {label}), cached jobs "
              f"n={len(outcome.cached)}, set-ups n={len(outcome.setup)}, "
              f"reference n={len(outcome.reference)}")
        print(f"  raw wall times (speed factor {speed_factor(outcome):.4f}): "
              f"setup {statistics.median(outcome.setup.values):.4f} s, run "
              f"{statistics.median(outcome.run.values):.4f} s, fresh job p50 "
              f"{statistics.median(outcome.fresh.values):.2f} ms, {label} "
              f"{tail_ms:.2f} ms, cached job p50 "
              f"{statistics.median(outcome.cached.values):.2f} ms, "
              f"{outcome.jobs / outcome.loop_s:.4f} jobs/s")
    print(f"  error_rate {tally.error_rate:.6f} ratio "
          f"({tally.failed} failed of {tally.attempted})")
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    for drift in outcome.drift:
        print(f"  COUNT DRIFT (should repeat exactly): {drift}")
    if outcome.table:
        print(outcome.table)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: no src/repro package next to the benchmark", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    spec = _spec()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]

    scratch_root = os.path.join(ROOT, ".perfbench-scratch")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=scratch_root)
    # the program's own temporary files (spawned paged backends) land
    # inside the checkout too
    tempfile.tempdir = scratch
    try:
        if args.workload == "service-mixed":
            outcome = workloads.run_service(args.seed, args.seconds, trace, scratch)
        else:
            outcome = workloads.run_pipeline(
                args.workload, args.seed, args.seconds, trace, scratch
            )
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass

    values = dict(outcome.layers) if trace else end_to_end(outcome)
    values["bench.count_drift"] = len(outcome.drift)
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    report(args.workload, outcome, trace)
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    tally = outcome.tally
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
