"""The live bus: ordering, snapshots, bounded queues, the file format."""

import pytest

from repro.obs.live import (
    LIVE_FORMAT,
    LiveBus,
    live_records,
    read_live_jsonl,
    write_live_jsonl,
)
from repro.obs.stats import RunStats
from repro.obs.tracer import Tracer


def run_traced(tracer):
    """A tiny two-phase run on *tracer*."""
    with tracer.span("pipeline", kind="pipeline"):
        with tracer.span("IND-Discovery", kind="phase"):
            tracer.progress("probing", current=1, total=2)
            tracer.record_event(
                primitive="count_distinct", backend="memory",
                relations=("PERSON",), attributes=(("ssn",),),
                start=0.0, duration=0.001, cache_hit=False, rows_touched=4,
            )
        with tracer.span("LHS-Discovery", kind="phase"):
            pass


class TestBusSemantics:
    def test_sequence_is_monotonic_and_total(self):
        tracer = Tracer()
        subscription = tracer.subscribe()
        run_traced(tracer)
        records = subscription.drain()
        sequences = [record["seq"] for record in records]
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == len(sequences)
        assert tracer.live_bus.last_seq == max(sequences)

    def test_stream_carries_every_phase_boundary_and_progress(self):
        tracer = Tracer()
        subscription = tracer.subscribe()
        run_traced(tracer)
        records = subscription.drain()
        opens = [r["name"] for r in records
                 if r["type"] == "span-open" and r["kind"] == "phase"]
        closes = [r["name"] for r in records
                  if r["type"] == "span-close" and r["kind"] == "phase"]
        assert opens == ["IND-Discovery", "LHS-Discovery"]
        assert closes == ["IND-Discovery", "LHS-Discovery"]
        progress = [r for r in records if r["type"] == "progress"]
        assert progress and progress[0]["phase"] == "IND-Discovery"
        primitive = [r for r in records if r["type"] == "primitive"]
        assert primitive[0]["primitive"] == "count_distinct"
        assert primitive[0]["rows_touched"] == 4

    def test_zero_overhead_without_subscribers(self):
        tracer = Tracer()
        run_traced(tracer)
        # no bus was ever attached: the hot path stayed a None test
        assert tracer.live_bus is None
        tracer.progress("ignored")
        tracer.pool_event("ignored")
        assert tracer.live_bus is None

    def test_unsubscribe_stops_delivery(self):
        tracer = Tracer()
        subscription = tracer.subscribe()
        with tracer.span("pipeline", kind="pipeline"):
            pass
        subscription.close()
        before = len(subscription.drain())
        with tracer.span("again", kind="pipeline"):
            pass
        assert len(subscription.drain()) == 0
        assert before >= 0
        assert tracer.live_bus.subscribers == 0


class TestMidRunAttach:
    """The satellite regression: already-open spans arrive on subscribe."""

    def test_subscriber_attached_mid_run_gets_open_span_snapshot(self):
        tracer = Tracer()
        tracer.live()  # bus attached from the start
        with tracer.span("pipeline", kind="pipeline"):
            with tracer.span("RHS-Discovery", kind="phase"):
                subscription = tracer.subscribe()
                snapshot = subscription.drain()
                # both open spans, in stack order, flagged as snapshot
                assert [r["name"] for r in snapshot] == [
                    "pipeline", "RHS-Discovery",
                ]
                assert all(r["type"] == "span-open" for r in snapshot)
                assert all(r["snapshot"] for r in snapshot)
                # ...then the tail: the close events still arrive
                tracer.progress("mid-run tick")
        tail = subscription.drain()
        assert [r["type"] for r in tail] == [
            "progress", "span-close", "span-close",
        ]
        assert not any(r.get("snapshot") for r in tail)

    def test_bus_attached_mid_run_synthesizes_open_spans(self):
        tracer = Tracer()
        with tracer.span("pipeline", kind="pipeline"):
            with tracer.span("Restruct", kind="phase"):
                # nothing was ever subscribed; live() attaches now and
                # must reconstruct the open stack into the history
                bus = tracer.live()
                history = bus.history()
                assert [r["name"] for r in history] == [
                    "pipeline", "Restruct",
                ]
                assert all(r["snapshot"] for r in history)

    def test_replay_from_resumes_after_a_gap(self):
        tracer = Tracer()
        tracer.live()
        run_traced(tracer)
        full = tracer.live_bus.history()
        cut = full[3]["seq"]
        resumed = tracer.subscribe(replay_from=cut).drain()
        assert [r["seq"] for r in resumed] == [
            r["seq"] for r in full if r["seq"] > cut
        ]


class TestBoundedQueues:
    def test_slow_subscriber_drops_and_counts_without_stalling(self):
        tracer = Tracer()
        subscription = tracer.subscribe(maxsize=3)
        with tracer.span("pipeline", kind="pipeline"):
            for tick in range(50):
                tracer.progress("tick", current=tick, total=50)
        # the queue stayed bounded, the excess was counted, and the
        # publishing side never blocked
        assert len(subscription.drain()) == 3
        assert subscription.dropped > 0
        assert tracer.live_bus.dropped() == subscription.dropped
        # the history is complete: a re-sync by replay recovers the gap
        assert tracer.live_bus.last_seq == len(tracer.live_bus.history())

    def test_dropped_records_recoverable_by_replay(self):
        tracer = Tracer()
        subscription = tracer.subscribe(maxsize=2)
        with tracer.span("pipeline", kind="pipeline"):
            for tick in range(10):
                tracer.progress("tick", current=tick)
        seen = subscription.drain()
        last_seen = seen[-1]["seq"]
        recovered = tracer.subscribe(replay_from=last_seen).drain()
        assert recovered
        assert recovered[0]["seq"] == last_seen + 1
        assert recovered[-1]["seq"] == tracer.live_bus.last_seq


class TestBoundedHistory:
    """The history bound: oldest records trim, totals keep counting."""

    def test_history_trims_oldest_but_stats_keep_counting(self):
        bus = LiveBus(history_limit=10)
        for tick in range(25):
            bus.publish("progress", message="tick", current=tick)
        assert bus.trimmed == 15
        retained = bus.history()
        assert len(retained) == 10
        assert [r["seq"] for r in retained] == list(range(16, 26))
        # the aggregates never forget what the history shed
        assert bus.stats.events["progress"] == 25

    def test_history_since_respects_the_trim_watermark(self):
        bus = LiveBus(history_limit=10)
        for _ in range(25):
            bus.publish("progress", message="tick")
        assert [r["seq"] for r in bus.history(since=20)] == [
            21, 22, 23, 24, 25,
        ]
        # a cursor predating the trim gets the retained tail — the
        # jump from cursor+1 to the first seq is the detectable gap
        page = bus.history(since=3)
        assert page[0]["seq"] == 16
        assert bus.history(since=25) == []
        assert bus.history(since=99) == []

    def test_dropped_total_survives_unsubscribe(self):
        tracer = Tracer()
        subscription = tracer.subscribe(maxsize=2)
        with tracer.span("pipeline", kind="pipeline"):
            for tick in range(10):
                tracer.progress("tick", current=tick)
        dropped = subscription.dropped
        assert dropped > 0
        subscription.close()
        assert tracer.live_bus.dropped() == dropped


class TestLiveStats:
    """The run's RunStats fold, as a live run and live records feed it."""

    def test_stats_aggregate_phases_primitives_and_pool(self):
        tracer = Tracer()
        tracer.live()
        run_traced(tracer)
        tracer.pool_event("respawn")
        stats = tracer.stats
        assert stats.phase_runs == {"IND-Discovery": 1, "LHS-Discovery": 1}
        assert stats.phase_ms["IND-Discovery"] >= 0.0
        assert stats.primitive_calls == {"count_distinct": 1}
        assert stats.primitive_cache_hits == {}
        assert stats.pool_events == {"respawn": 1}
        assert stats.events["span-open"] == 3
        assert stats.events["progress"] == 1

    def test_merge_folds_and_copy_is_independent(self):
        a = RunStats()
        a.observe({"type": "pool", "event": "respawn"})
        b = a.copy()
        b.observe({"type": "pool", "event": "respawn"})
        assert a.pool_events == {"respawn": 1}
        assert b.pool_events == {"respawn": 2}
        a.merge(b)
        assert a.pool_events == {"respawn": 3}

    def test_cache_hits_and_storage_counters(self):
        stats = RunStats()
        stats.observe({
            "type": "primitive", "primitive": "join_count",
            "cache_hit": True, "counters": {"pool_hits": 3},
        })
        stats.observe({
            "type": "primitive", "primitive": "join_count",
            "cache_hit": False, "counters": {"pool_hits": 2},
        })
        assert stats.primitive_calls == {"join_count": 2}
        assert stats.primitive_cache_hits == {"join_count": 1}
        assert stats.storage_counters == {"pool_hits": 5}


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        tracer = Tracer()
        tracer.live()
        run_traced(tracer)
        path = str(tmp_path / "live.jsonl")
        written = write_live_jsonl(tracer.live_bus, path)
        read = read_live_jsonl(path)
        assert read == written
        assert read[0]["format"] == LIVE_FORMAT
        assert read[0]["events"] == len(read) - 1
        assert read[0]["counts"]["span-open"] == 3

    def test_records_from_a_plain_iterable(self):
        body = [{"type": "progress", "seq": 1, "ts_ms": 0.0, "message": "x"}]
        records = live_records(body)
        assert records[0]["counts"] == {"progress": 1}

    def test_reader_rejects_foreign_and_corrupt_streams(self, tmp_path):
        from repro.util.jsonl import save_jsonl

        wrong = str(tmp_path / "wrong.jsonl")
        save_jsonl([{"format": "repro/trace@1"}], wrong)
        with pytest.raises(ValueError, match="not a repro/live@1"):
            read_live_jsonl(wrong)

        short = str(tmp_path / "short.jsonl")
        save_jsonl(
            [{"type": "header", "format": LIVE_FORMAT, "events": 2},
             {"type": "progress", "seq": 1, "ts_ms": 0.0}],
            short,
        )
        with pytest.raises(ValueError, match="claims 2"):
            read_live_jsonl(short)

        alien = str(tmp_path / "alien.jsonl")
        save_jsonl(
            [{"type": "header", "format": LIVE_FORMAT, "events": 1},
             {"type": "martian", "seq": 1, "ts_ms": 0.0}],
            alien,
        )
        with pytest.raises(ValueError, match="unknown type"):
            read_live_jsonl(alien)


class TestBusClock:
    def test_timestamps_are_relative_and_monotonic(self):
        ticks = iter(float(i) for i in range(100))
        bus = LiveBus(clock=lambda: next(ticks))
        first = bus.publish("progress", message="a")
        second = bus.publish("progress", message="b")
        assert first["ts_ms"] >= 0.0
        assert second["ts_ms"] > first["ts_ms"]
