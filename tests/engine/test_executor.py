"""Unit tests of the batch executor: strategies, events, accounting."""

import pytest

from repro.backends import MemoryBackend, SQLiteBackend
from repro.engine import BatchExecutor, Probe
from repro.workloads.paper_example import build_paper_database


def paper_probes():
    """A representative mixed batch over the §5 database."""
    return [
        Probe.distinct("Person", ("id",)),
        Probe.distinct("HEmployee", ("no",)),
        Probe.join("HEmployee", ("no",), "Person", ("id",)),
        Probe.fd("Department", ("emp",), ("skill",)),
        Probe.inclusion("Department", ("emp",), "HEmployee", ("no",)),
        Probe.distinct("Person", ("id",)),          # duplicate
        Probe.fd("HEmployee", ("no",), ("salary",)),
    ]


def serial_answers(probes):
    """The ground truth: each probe on a fresh database, one call each."""
    db = build_paper_database()
    out = []
    for p in probes:
        if p.primitive == "count_distinct":
            out.append(db.count_distinct(p.relations[0], p.attributes[0]))
        elif p.primitive == "join_count":
            out.append(db.join_count(p.relations[0], p.attributes[0],
                                     p.relations[1], p.attributes[1]))
        elif p.primitive == "fd_holds":
            out.append(db.fd_holds(p.relations[0], p.attributes[0],
                                   p.attributes[1]))
        else:
            out.append(db.inclusion_holds(p.relations[0], p.attributes[0],
                                          p.relations[1], p.attributes[1]))
    return out


class TestStrategies:
    def test_serial_fallback_on_memory(self):
        db = build_paper_database()
        engine = BatchExecutor(db)
        probes = paper_probes()
        assert engine.run(probes) == serial_answers(probes)
        assert engine.stats.batched_calls == 0
        assert engine.stats.backend_calls == 6      # 7 logical, 6 unique

    def test_pushdown_on_sqlite(self):
        db = build_paper_database(backend=SQLiteBackend())
        engine = BatchExecutor(db)
        probes = paper_probes()
        assert engine.run(probes) == serial_answers(probes)
        assert engine.stats.batched_calls == 1      # 6 unique < chunk of 32
        assert engine.stats.backend_calls == 1

    def test_fallback_when_hook_hidden(self):
        """A backend without execute_batch keeps working unchanged."""

        class NoBatch:
            """Duck-typed view of a backend minus the optional hook."""

            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                if name == "execute_batch":
                    raise AttributeError(name)
                return getattr(self._inner, name)

        db = build_paper_database(backend=SQLiteBackend())
        proxy = type("ProxyDB", (), {
            "backend": NoBatch(db.backend), "tracer": db.tracer,
        })()
        engine = BatchExecutor(proxy)
        probes = paper_probes()
        assert engine.run(probes) == serial_answers(probes)
        assert engine.stats.batched_calls == 0
        assert engine.stats.backend_calls == 6

    def test_chunking_splits_large_batches(self):
        db = build_paper_database(backend=SQLiteBackend())
        engine = BatchExecutor(db, chunk_size=2)
        probes = paper_probes()
        assert engine.run(probes) == serial_answers(probes)
        assert engine.stats.batched_calls == 3      # ceil(6 / 2)

    def test_empty_batch(self):
        db = build_paper_database()
        engine = BatchExecutor(db)
        assert engine.run([]) == []
        assert engine.stats.batches == 0
        assert len(db.tracer.events) == 0


class TestObservability:
    @pytest.mark.parametrize("backend", [MemoryBackend, SQLiteBackend])
    def test_one_event_per_logical_probe(self, backend):
        db = build_paper_database(backend=backend())
        engine = BatchExecutor(db)
        probes = paper_probes()
        engine.run(probes)
        events = db.tracer.events
        assert len(events) == len(probes)
        assert [e.primitive for e in events] == [p.primitive for p in probes]
        assert [e.relations for e in events] == [p.relations for p in probes]

    def test_counter_parity_with_serial(self):
        db = build_paper_database()
        BatchExecutor(db).run(paper_probes())
        assert db.counter.total() == len(paper_probes())
        assert db.counter.count_distinct == 3
        assert db.counter.join_count == 1
        assert db.counter.fd_checks == 2
        assert db.counter.inclusion_checks == 1

    def test_duplicates_recorded_as_zero_cost_cache_hits(self):
        db = build_paper_database()
        BatchExecutor(db).run(paper_probes())
        dup = db.tracer.events[5]   # the repeated Person.id distinct
        assert dup.cache_hit is True
        assert dup.duration == 0.0
        assert dup.rows_touched == 0

    def test_engine_span_nested_and_annotated(self):
        db = build_paper_database()
        engine = BatchExecutor(db)
        with db.tracer.span("phase-like", kind="phase") as outer:
            engine.run(paper_probes())
        (child,) = [s for s in db.tracer.spans if s.parent_id == outer.span_id]
        assert child.name == "engine" and child.kind == "engine"
        assert child.attributes["logical"] == 7
        assert child.attributes["unique"] == 6

    def test_stats_accumulate_across_batches(self):
        db = build_paper_database()
        engine = BatchExecutor(db)
        engine.run(paper_probes())
        engine.run(paper_probes())
        assert engine.stats.batches == 2
        assert engine.stats.logical_probes == 14
        assert engine.stats.deduped_probes == 2
