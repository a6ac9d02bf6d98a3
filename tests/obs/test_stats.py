"""RunStats: the one fold every telemetry consumer reads."""

import json
import os
import shutil

import pytest

from repro.core import DBREPipeline
from repro.core.expert import ScriptedExpert
from repro.obs import (
    RunStats,
    Tracer,
    fold_records,
    metrics_from_records,
    metrics_summary,
    read_trace_jsonl,
    summarize_trace,
    trace_records,
)
from repro.obs.export import metrics_document
from repro.obs.live import live_records, read_live_jsonl
from repro.obs.profile import collapsed_stacks, profile_from_records, profile_summary
from repro.obs.stats import normalize, rounded_ms
from repro.workloads.paper_example import (
    build_paper_database,
    paper_expert_script,
    paper_program_corpus,
)

#: a repro/archive@1 directory written by the release before RunStats:
#: three demo jobs (serial, batched, paged backend), provenance pruned.
#: expected-metrics.prom is the /metrics exposition that release
#: rendered after restoring it; expected-views.json holds the profile,
#: collapsed stacks and summarize text it derived from each trace.
ARCHIVE_V1 = os.path.join(os.path.dirname(__file__), "data", "archive_v1")


def run_demo(tracer):
    DBREPipeline(
        build_paper_database(), ScriptedExpert(paper_expert_script()), tracer=tracer
    ).run(corpus=paper_program_corpus())


def subtree_events(tracer, span):
    """Events under *span*, counted by walking the tracer's lists."""
    ids = {span.span_id}
    for record in tracer.spans:  # parents start (and are listed) first
        if record.parent_id in ids:
            ids.add(record.span_id)
    return sum(1 for event in tracer.events if event.span_id in ids)


class TestOneTracerTwoRuns:
    """A tracer reused for two demo runs: every consumer counts both."""

    @pytest.fixture(scope="class")
    def tracer(self):
        tracer = Tracer()
        tracer.live()
        run_demo(tracer)
        run_demo(tracer)
        return tracer

    def test_phase_queries_add_up_to_the_total(self, tracer):
        metrics = metrics_summary(tracer)
        assert metrics["totals"]["queries"] == len(tracer.events) == 52
        assert (
            sum(phase["queries"] for phase in metrics["phases"].values())
            == metrics["totals"]["queries"]
        )

    def test_metrics_and_profile_read_the_fold_metrics_serves(self, tracer):
        stats = tracer.stats
        metrics = metrics_summary(tracer)
        profile = profile_summary(tracer)
        assert set(metrics["phases"]) == set(profile["phases"]) == set(stats.phase_runs)
        for name in stats.phase_runs:
            assert metrics["phases"][name] == {
                "duration_ms": rounded_ms(stats.phase_ms[name]),
                "queries": stats.phase_queries[name],
            }
            assert profile["phases"][name]["inclusive_ms"] == rounded_ms(
                stats.phase_ms[name]
            )
            assert profile["phases"][name]["queries"] == stats.phase_queries[name]
        assert profile["totals"]["queries"] == stats.queries

    def test_phases_sum_across_runs(self, tracer):
        stats = tracer.stats
        phases = [s for s in tracer.spans if s.kind == "phase"]
        for name in stats.phase_runs:
            runs = [s for s in phases if s.name == name]
            assert stats.phase_runs[name] == len(runs) == 2
            assert stats.phase_queries[name] == sum(
                subtree_events(tracer, s) for s in runs
            )
            assert rounded_ms(stats.phase_ms[name]) == rounded_ms(
                sum(rounded_ms(s.duration * 1000.0) for s in runs)
            )

    def test_files_fold_to_the_same_figures(self, tracer):
        live = metrics_summary(tracer)
        assert metrics_from_records(trace_records(tracer)) == live
        assert metrics_document(fold_records(live_records(tracer.live_bus))) == live


class TestNormalize:
    def test_trace_spans_close_children_first_after_every_event(self):
        tracer = Tracer()
        with tracer.span("pipeline", kind="pipeline"):
            with tracer.span("IND-Discovery", kind="phase"):
                tracer.record_event(
                    primitive="count_distinct", backend="memory",
                    relations=("r",), attributes=(("a",),),
                    start=tracer.now(), duration=0.001,
                    cache_hit=False, rows_touched=3,
                )
        normalized = list(normalize(trace_records(tracer)))
        assert [r["type"] for r in normalized] == [
            "primitive", "span-close", "span-close",
        ]
        assert [r["name"] for r in normalized[1:]] == ["IND-Discovery", "pipeline"]
        assert normalized[1]["parent"] == normalized[2]["span"]

    def test_live_close_records_gain_their_parent(self):
        tracer = Tracer()
        subscription = tracer.subscribe()
        with tracer.span("pipeline", kind="pipeline") as root:
            with tracer.span("IND-Discovery", kind="phase"):
                pass
        closes = [
            r for r in normalize(subscription.drain()) if r["type"] == "span-close"
        ]
        assert [r["parent"] for r in closes] == [root.span_id, None]

    def test_headers_are_skipped(self):
        assert list(normalize([{"type": "trace", "format": "repro/trace@1"}])) == []


class TestRunStats:
    def test_as_dict_round_trips(self):
        tracer = Tracer()
        run_demo(tracer)
        document = tracer.stats.as_dict()
        assert RunStats.from_dict(json.loads(json.dumps(document))).as_dict() == document

    def test_from_dict_reads_the_seven_slot_document(self):
        stats = RunStats.from_dict({
            "events": {"span-close": 2},
            "phase_runs": {"Restruct": 1},
            "phase_ms": {"Restruct": 1.5},
            "primitive_calls": {"fd_holds": 3},
            "primitive_cache_hits": {"fd_holds": 1},
            "storage_counters": {"pool_hits": 4},
            "pool_events": {"respawn": 1},
        })
        assert stats.phase_runs == {"Restruct": 1}
        assert stats.phase_ms == {"Restruct": 1.5}
        assert stats.queries == 3
        assert stats.storage_counters == {"pool_hits": 4}
        assert metrics_document(stats)["phases"] == {
            "Restruct": {"duration_ms": 1.5, "queries": 0},
        }

    def test_merge_adds_whole_runs(self):
        one = Tracer()
        run_demo(one)
        merged = RunStats()
        merged.merge(one.stats)
        merged.merge(one.stats)
        assert merged.queries == 2 * one.stats.queries
        assert merged.phase_queries == {
            name: 2 * n for name, n in one.stats.phase_queries.items()
        }

    def test_copy_keeps_open_subtrees_apart(self):
        stats = RunStats()
        stats.primitive(7, "fd_holds", "memory", 1.0, False, 2)
        twin = stats.copy()
        stats.primitive(7, "fd_holds", "memory", 1.0, False, 2)
        stats.close_span(7, None, "Restruct", "phase", 5.0)
        twin.close_span(7, None, "Restruct", "phase", 5.0)
        assert stats.phase_queries == {"Restruct": 2}
        assert twin.phase_queries == {"Restruct": 1}
        assert twin.phase_self_ms == {"Restruct": 4.0}

    def test_concurrent_feeding_and_scraping_lose_nothing(self):
        """Runner threads feed one fold while a scraper copies and merges it."""
        import sys
        import threading

        stats, feeders, per_feeder = RunStats(), 6, 2000
        scraped, errors = [], []

        def feed(span_id):
            for _ in range(per_feeder):
                stats.primitive(span_id, "fd_holds", "memory", 0.5, False, 1)
            stats.close_span(span_id, None, "Restruct", "phase", 1.0)

        def scrape(done):
            while not done.is_set():
                try:
                    total = RunStats()
                    total.merge(stats.copy())
                    scraped.append(total.queries)
                except Exception as exc:  # a torn read is the failure
                    errors.append(exc)
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            done = threading.Event()
            scraper = threading.Thread(target=scrape, args=(done,))
            scraper.start()
            threads = [
                threading.Thread(target=feed, args=(n,)) for n in range(feeders)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            done.set()
            scraper.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads + [scraper])
        assert errors == []
        assert scraped and scraped == sorted(scraped)
        assert stats.queries == feeders * per_feeder
        assert stats.phase_queries == {"Restruct": feeders * per_feeder}

    def test_pool_incidents_fold_without_a_subscriber(self):
        tracer = Tracer()
        tracer.pool_event("respawn", worker=1)
        assert tracer.live_bus is None
        assert tracer.stats.pool_events == {"respawn": 1}


def archived_runs():
    return sorted(os.listdir(os.path.join(ARCHIVE_V1, "runs")))


class TestEarlierFiles:
    """Files the release before RunStats wrote read back unchanged."""

    @pytest.fixture(scope="class")
    def views(self):
        with open(os.path.join(ARCHIVE_V1, "expected-views.json")) as handle:
            return json.load(handle)

    @pytest.mark.parametrize("key", archived_runs())
    def test_trace_rederives_its_archived_metrics(self, key):
        run = os.path.join(ARCHIVE_V1, "runs", key)
        with open(os.path.join(run, "metrics.json")) as handle:
            archived = json.load(handle)
        records = read_trace_jsonl(os.path.join(run, "trace.jsonl"))
        assert metrics_from_records(records) == archived

    @pytest.mark.parametrize("key", archived_runs())
    def test_trace_views_are_unchanged(self, key, views):
        records = read_trace_jsonl(os.path.join(ARCHIVE_V1, "runs", key, "trace.jsonl"))
        assert profile_from_records(records) == views[key]["profile"]
        assert collapsed_stacks(records) == views[key]["collapsed"]
        assert summarize_trace(records) == views[key]["summary"]

    @pytest.mark.parametrize("key", archived_runs())
    def test_live_capture_folds_to_the_archived_stats(self, key):
        run = os.path.join(ARCHIVE_V1, "runs", key)
        with open(os.path.join(run, "record.json")) as handle:
            archived = json.load(handle)["stats"]
        folded = fold_records(read_live_jsonl(os.path.join(run, "live.jsonl"))).as_dict()
        assert {slot: folded[slot] for slot in archived} == archived

    def test_restored_metrics_exposition_is_unchanged(self, tmp_path):
        from repro.obs.archive import RunArchive
        from repro.service import JobManager
        from repro.service.metrics import render_metrics

        root = str(tmp_path / "archive")
        shutil.copytree(ARCHIVE_V1, root)
        with JobManager(runners=1, archive=RunArchive(root)) as manager:
            exposition = render_metrics(manager)
        with open(os.path.join(ARCHIVE_V1, "expected-metrics.prom")) as handle:
            expected = handle.read()

        def samples(text):
            # the build identity names the release; everything else must match
            return [
                line for line in text.splitlines()
                if not line.startswith("repro_build_info")
            ]

        assert samples(exposition) == samples(expected)
