#!/usr/bin/env python
"""Round-trip validation of every observability export (the CI step).

Runs the paper demo once through the real CLI with every export enabled,
then proves the artifacts are usable by a consumer that only has the
files:

1. the trace JSONL re-reads to exactly the records the run produced,
   and the metrics JSON equals the metrics re-derived from those
   records (``repro/trace@1`` / ``repro/metrics@1``);
1b. ``repro profile`` renders the hotspot view of that trace and its
    flamegraph exports are well-formed: every collapsed-stack line is
    ``stack <integer>``, and the speedscope JSON (``repro/profile@1``)
    has balanced, properly nested open/close events over valid frames;
    ``repro trace diff`` of the trace against itself exits cleanly;
2. the provenance JSONL re-reads to exactly the ledger's records, its
   header counts match, and every edge endpoint resolves to a node
   (``repro/provenance@1``);
2b. the decomposition certificates (``repro/normalization@1``) re-read
    to equal objects, every one of them re-verifies from scratch, and a
    deliberately mutated certificate is rejected by the verifier;
3. ``repro explain`` renders a complete derivation chain — ending at a
   source query — for every referential integrity constraint;
4. the DOT export and the HTML audit report are written and
   well-formed;
5. a second demo run on the paged backend (pool smaller than the
   extension) re-derives its metrics the same way and exports nonzero
   buffer-pool counters (hits, misses, evictions, pages read) under
   ``backends.paged.counters``;
6. ``repro jobs run`` executes a spec file through the job manager —
   one serial demo, a duplicate that must be served from the results
   cache, and a process-engine run — and the ``repro/jobs@1`` ledger
   export re-reads with matching header counts, every job ``done`` and
   exactly the duplicate flagged ``cached``;
7. a live service round-trip: a demo job submitted over HTTP is watched
   through the real SSE endpoint, the captured stream carries every
   phase boundary and ends with the ``end`` sentinel, it re-reads from
   a ``repro/live@1`` JSONL capture byte-for-byte, and the ``/metrics``
   exposition both lints clean and reflects the finished job: its
   per-primitive calls and per-phase runs and latency equal the job's
   archived ``repro/metrics@1`` document;
8. a durable-archive round-trip: a demo job runs under a manager
   writing through to a ``repro/archive@1`` directory, a fresh manager
   restores from it, the restored ``repro/jobs@1`` ledger is
   byte-identical to the archived one, the exposition of both managers
   agrees with the archived metrics document as in step 7, and a
   repeat of the same spec is answered from the restored results cache
   (summary included).

Exit status is non-zero on the first violation, so CI fails loudly.
The artifacts are left in ``--outdir`` for upload.

Usage::

    PYTHONPATH=src python scripts/validate_exports.py --outdir obs-exports
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def fail(message: str) -> None:
    raise SystemExit(f"validate_exports: FAILED — {message}")


def check_exposition(exposition: str, metrics: dict, where: str) -> None:
    """/metrics and a one-run metrics document must count alike."""
    import re

    def family(name: str, label: str) -> dict:
        sample = re.compile(rf'^{name}{{{label}="([^"]*)"}} (\S+)$')
        found = {}
        for line in exposition.splitlines():
            match = sample.match(line)
            if match:
                found[match.group(1)] = float(match.group(2))
        return found

    calls = family("repro_primitive_calls_total", "primitive")
    runs = family("repro_phase_runs_total", "phase")
    latency = family("repro_phase_latency_ms_total", "phase")
    expected = {
        "primitive calls": (
            calls, {p: s["calls"] for p, s in metrics["primitives"].items()}
        ),
        "phase runs": (runs, {p: 1 for p in metrics["phases"]}),
        "phase latency": (
            {p: round(ms, 6) for p, ms in latency.items()},
            {p: s["duration_ms"] for p, s in metrics["phases"].items()},
        ),
    }
    for what, (got, want) in expected.items():
        if got != want:
            fail(
                f"{where}: /metrics {what} {got} disagree with the job's "
                f"archived repro/metrics@1 {want}"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="round-trip every observability export of a demo run"
    )
    parser.add_argument(
        "--outdir",
        default="obs-exports",
        help="directory to leave the validated artifacts in",
    )
    args = parser.parse_args(argv)
    os.makedirs(args.outdir, exist_ok=True)

    from repro.cli import main as repro
    from repro.obs import (
        metrics_from_records,
        read_provenance_jsonl,
        read_trace_jsonl,
        summarize_trace,
    )

    trace_path = os.path.join(args.outdir, "demo.trace.jsonl")
    metrics_path = os.path.join(args.outdir, "demo.metrics.json")
    collapsed_path = os.path.join(args.outdir, "demo.collapsed")
    speedscope_path = os.path.join(args.outdir, "demo.speedscope.json")
    prov_path = os.path.join(args.outdir, "demo.provenance.jsonl")
    dot_path = os.path.join(args.outdir, "demo.lineage.dot")
    report_path = os.path.join(args.outdir, "demo.report.html")
    certs_path = os.path.join(args.outdir, "demo.certificates.jsonl")

    # 0. one demo run, every export enabled ----------------------------
    code = repro(
        [
            "demo",
            "--trace", trace_path,
            "--metrics", metrics_path,
            "--provenance", prov_path,
            "--provenance-dot", dot_path,
            "--certificates", certs_path,
        ]
    )
    if code != 0:
        fail(f"demo run exited {code}")

    # 1. trace + metrics round-trip ------------------------------------
    trace = read_trace_jsonl(trace_path)
    header = trace[0]
    spans = [r for r in trace if r.get("type") == "span"]
    events = [r for r in trace if r.get("type") == "event"]
    if header["spans"] != len(spans) or header["events"] != len(events):
        fail("trace header counts disagree with the record stream")
    if not events:
        fail("the demo run recorded no primitive events")
    with open(metrics_path, encoding="utf-8") as handle:
        metrics = json.load(handle)
    if metrics != metrics_from_records(trace):
        fail("metrics JSON does not re-derive from the trace records")
    summarize_trace(trace)  # must render without raising

    # 1b. profile + flamegraph exports ---------------------------------
    code = repro(
        [
            "profile", trace_path,
            "--flame", collapsed_path,
            "--speedscope", speedscope_path,
        ]
    )
    if code != 0:
        fail(f"profile command exited {code}")
    with open(collapsed_path, encoding="utf-8") as handle:
        stacks = handle.read().splitlines()
    if not stacks:
        fail("collapsed-stack export is empty")
    for line in stacks:
        stack, _, value = line.rpartition(" ")
        if not stack or not value.isdigit():
            fail(f"malformed collapsed-stack line: {line!r}")
    if not any(";" in line for line in stacks):
        fail("collapsed stacks have no nested frames")
    with open(speedscope_path, encoding="utf-8") as handle:
        speedscope = json.load(handle)
    if speedscope.get("exporter") != "repro/profile@1":
        fail("speedscope export is not tagged repro/profile@1")
    frames = speedscope["shared"]["frames"]
    open_frames = []
    for entry in speedscope["profiles"][0]["events"]:
        if not 0 <= entry["frame"] < len(frames):
            fail("speedscope event references a missing frame")
        if entry["type"] == "O":
            open_frames.append(entry["frame"])
        elif not open_frames or open_frames.pop() != entry["frame"]:
            fail("speedscope events are not properly nested")
    if open_frames:
        fail("speedscope open/close events are unbalanced")
    code = repro(["trace", "diff", trace_path, trace_path])
    if code != 0:
        fail(f"self trace diff exited {code}")

    # 2. provenance round-trip -----------------------------------------
    provenance = read_provenance_jsonl(prov_path)
    pheader = provenance[0]
    nodes = {r["id"]: r for r in provenance if r.get("type") == "node"}
    edges = [r for r in provenance if r.get("type") == "edge"]
    if pheader["nodes"] != len(nodes) or pheader["edges"] != len(edges):
        fail("provenance header counts disagree with the record stream")
    dangling = [
        e for e in edges if e["src"] not in nodes or e["dst"] not in nodes
    ]
    if dangling:
        fail(f"{len(dangling)} edge(s) reference missing nodes: {dangling[:3]}")

    # 2b. decomposition certificates: round-trip, verify, reject -------
    import dataclasses

    from repro.normalization import (
        certificate_from_dict,
        certificate_to_dict,
        read_certificates_jsonl,
        verify_certificate,
    )

    certificates = read_certificates_jsonl(certs_path)
    if not certificates:
        fail("the demo run emitted no decomposition certificates")
    for certificate in certificates:
        round_tripped = certificate_from_dict(certificate_to_dict(certificate))
        if round_tripped != certificate:
            fail(f"certificate for {certificate.source} does not round-trip")
        violations = verify_certificate(certificate)
        if violations:
            fail(
                f"certificate for {certificate.source} does not verify: "
                f"{violations}"
            )
    mutated = dataclasses.replace(
        certificates[0], lossless=not certificates[0].lossless
    )
    if not verify_certificate(mutated):
        fail("the verifier accepted a mutated certificate")

    # 3. every RIC explains down to a source query ---------------------
    from repro.obs import explain

    rics = [n for n in nodes.values() if n["kind"] == "ric"]
    if not rics:
        fail("the demo run derived no referential integrity constraint")
    for ric in rics:
        chain = explain(provenance, ric["id"])
        if "source query" not in chain:
            fail(f"chain of {ric['id']} does not reach a source query")
    decisions = [n for n in nodes.values() if n["kind"] == "decision"]
    if not decisions:
        fail("the demo run recorded no expert decision")

    # 4. DOT + HTML audit report ---------------------------------------
    with open(dot_path, encoding="utf-8") as handle:
        dot = handle.read()
    if not dot.startswith("digraph provenance"):
        fail("lineage DOT export is malformed")
    code = repro(
        [
            "report",
            "--trace", trace_path,
            "--provenance", prov_path,
            "--output", report_path,
        ]
    )
    if code != 0:
        fail(f"report command exited {code}")
    with open(report_path, encoding="utf-8") as handle:
        document = handle.read()
    for needle in ("<!DOCTYPE html>", "Expert dialogue", "Derivation chains"):
        if needle not in document:
            fail(f"audit report is missing {needle!r}")

    # 5. paged backend: pool counters flow into the exports ------------
    paged_trace_path = os.path.join(args.outdir, "demo-paged.trace.jsonl")
    paged_metrics_path = os.path.join(args.outdir, "demo-paged.metrics.json")
    code = repro(
        [
            "demo",
            "--backend", "paged",
            "--pool-pages", "8",
            "--page-size", "256",
            "--trace", paged_trace_path,
            "--metrics", paged_metrics_path,
        ]
    )
    if code != 0:
        fail(f"paged demo run exited {code}")
    paged_trace = read_trace_jsonl(paged_trace_path)
    with open(paged_metrics_path, encoding="utf-8") as handle:
        paged_metrics = json.load(handle)
    if paged_metrics != metrics_from_records(paged_trace):
        fail("paged metrics JSON does not re-derive from the trace records")
    counters = (
        paged_metrics.get("backends", {}).get("paged", {}).get("counters", {})
    )
    for key in ("pool_hits", "pool_misses", "pool_evictions", "pages_read"):
        if not counters.get(key):
            fail(
                f"paged run exported no {key}: buffer-pool telemetry "
                f"is not reaching repro/metrics@1 (counters: {counters})"
            )

    # 6. job service: repro/jobs@1 ledger round-trip -------------------
    from repro.service.export import JOBS_FORMAT, read_jobs_jsonl

    specs_path = os.path.join(args.outdir, "demo.jobs-spec.json")
    jobs_path = os.path.join(args.outdir, "demo.jobs.jsonl")
    specs = [
        {"demo": True, "label": "demo-serial"},
        # byte-identical spec: must be answered from the results cache
        {"demo": True, "label": "demo-serial"},
        {
            "demo": True,
            "label": "demo-process",
            "config": {"engine": "process", "engine_workers": 2},
        },
    ]
    with open(specs_path, "w", encoding="utf-8") as handle:
        json.dump(specs, handle, indent=2)
        handle.write("\n")
    code = repro(["jobs", "run", specs_path, "--export", jobs_path])
    if code != 0:
        fail(f"jobs run exited {code}")
    ledger = read_jobs_jsonl(jobs_path)
    jobs_header, job_records = ledger[0], ledger[1:]
    if jobs_header["format"] != JOBS_FORMAT:
        fail(f"jobs export is not tagged {JOBS_FORMAT}")
    if jobs_header["jobs"] != len(specs):
        fail(
            f"jobs header claims {jobs_header['jobs']} jobs, "
            f"{len(specs)} were submitted"
        )
    not_done = [r["id"] for r in job_records if r["state"] != "done"]
    if not_done:
        fail(f"job(s) did not finish done: {not_done}")
    cached = [r["id"] for r in job_records if r["cached"]]
    if jobs_header["cached"] != 1 or len(cached) != 1:
        fail(
            f"expected exactly the duplicate spec to be cached, "
            f"got {cached} (header says {jobs_header['cached']})"
        )

    # 7. live service: SSE capture + repro/live@1 + /metrics lint ------
    import threading
    import urllib.request

    import time as time_mod

    from repro.obs.archive import RunArchive
    from repro.obs.live import read_live_jsonl, write_live_jsonl
    from repro.service import JobManager, lint_exposition, sse_events
    from repro.service.metrics import render_metrics
    from repro.service.server import build_server

    def wait_archived(job):
        deadline = time_mod.monotonic() + 30
        while job.archived is None and time_mod.monotonic() < deadline:
            time_mod.sleep(0.05)
        if not job.archived:
            fail("the finished demo job never reached the archive")
        return job.archived

    live_path = os.path.join(args.outdir, "demo.live.jsonl")
    exposition_path = os.path.join(args.outdir, "demo.metrics.prom")
    serve_archive = RunArchive(os.path.join(args.outdir, "demo.serve-archive"))
    with JobManager(runners=1, archive=serve_archive) as manager:
        server = build_server(manager, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address
            base = f"http://{host}:{port}"
            for probe in ("/healthz", "/readyz"):
                if urllib.request.urlopen(base + probe, timeout=10).status != 200:
                    fail(f"{probe} did not answer 200")
            request = urllib.request.Request(
                base + "/jobs",
                data=json.dumps({"demo": True}).encode("utf-8"),
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                job = json.loads(response.read())
            stream = list(
                sse_events(f"{base}/jobs/{job['id']}/events", timeout=60)
            )
            if not stream or stream[-1]["type"] != "end":
                fail("the SSE stream did not finish with an end sentinel")
            if stream[-1]["state"] != "done":
                fail(f"the watched demo job ended {stream[-1]['state']!r}")
            phase_opens = [
                r["name"] for r in stream
                if r["type"] == "span-open" and r.get("kind") == "phase"
            ]
            for phase in ("IND-Discovery", "LHS-Discovery", "RHS-Discovery",
                          "Restruct", "Translate"):
                if phase not in phase_opens:
                    fail(f"the SSE capture is missing the {phase} boundary")
            if not any(r["type"] == "progress" for r in stream):
                fail("the SSE capture carries no progress event")
            written = write_live_jsonl(stream, live_path)
            if read_live_jsonl(live_path) != written:
                fail("the live capture does not round-trip as repro/live@1")
            with urllib.request.urlopen(base + "/metrics", timeout=10) as got:
                exposition = got.read().decode("utf-8")
            problems = lint_exposition(exposition)
            if problems:
                fail(f"/metrics fails its own lint: {problems[:3]}")
            if 'repro_jobs_total{state="done"} 1' not in exposition:
                fail("/metrics does not report the finished demo job")
            key = wait_archived(manager.job(job["id"]))
            check_exposition(
                exposition, serve_archive.read_metrics(key), "step 7"
            )
            with open(exposition_path, "w", encoding="utf-8") as handle:
                handle.write(exposition)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    # 8. durable archive: write -> restore -> byte-compare -------------
    from repro.service.export import jobs_to_records
    from repro.service.specs import submit_spec

    archive_dir = os.path.join(args.outdir, "demo.archive")
    with JobManager(runners=1, archive=RunArchive(archive_dir)) as manager:
        job = submit_spec(manager, {"demo": True, "label": "demo-archive"})
        manager.result(job.id, timeout=120)
        archived_metrics = RunArchive(archive_dir).read_metrics(wait_archived(job))
        check_exposition(render_metrics(manager), archived_metrics, "step 8")
        ledger_before = json.dumps(
            jobs_to_records(manager), sort_keys=True, default=str
        )
    with JobManager(runners=1, archive=RunArchive(archive_dir)) as restored:
        if restored.restored()["jobs"] != 1:
            fail("the archive did not restore the demo job's ledger entry")
        check_exposition(
            render_metrics(restored), archived_metrics, "step 8, restored"
        )
        ledger_after = json.dumps(
            jobs_to_records(restored), sort_keys=True, default=str
        )
        if ledger_before != ledger_after:
            fail(
                "the restored ledger is not byte-identical to the one "
                "that was archived"
            )
        hit = submit_spec(
            restored, {"demo": True, "label": "demo-archive-again"}
        )
        if not hit.cached or hit.state != "done":
            fail(
                "the restored results cache did not answer the repeat "
                "demo spec as a cache hit"
            )
        if hit.as_record().get("summary") != job.as_record().get("summary"):
            fail(
                "the restored cache hit does not carry the archived "
                "run's summary"
            )

    print(
        f"validate_exports: OK — {len(spans)} spans, {len(events)} events, "
        f"{len(stacks)} collapsed stacks, "
        f"{len(nodes)} lineage nodes, {len(edges)} edges, "
        f"{len(rics)} constraint chain(s) verified, "
        f"{len(certificates)} decomposition certificate(s) verified, "
        f"paged pool counters {counters}, "
        f"{jobs_header['jobs']} jobs ({jobs_header['cached']} cached), "
        f"{len(stream)} live SSE records captured, /metrics lint clean, "
        f"archive restore byte-identical (cache re-seeded); "
        f"artifacts in {args.outdir}/"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
