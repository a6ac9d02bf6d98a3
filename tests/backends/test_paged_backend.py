"""Paged-backend specifics: out-of-core behavior, telemetry, diagnostics.

The cross-backend semantics (primitive answers, NULL conventions,
lifecycle invalidation, batch fallback) are covered by the contract
suite in ``test_contract.py``, which the registry-driven conftest runs
over this backend too.  Here live the properties only the paged backend
has: bounded residency under a pool smaller than the extension,
buffer-pool counters surfacing in traces and metrics, storage-error
diagnostics, and the end-to-end differential acceptance run.
"""

from __future__ import annotations

import pytest

from repro.backends import MemoryBackend, PagedBackend
from repro.core.expert import ScriptedExpert
from repro.core.pipeline import DBREPipeline
from repro.eer.render import render_text
from repro.exceptions import StorageError
from repro.obs.export import metrics_summary, trace_records
from repro.relational.database import Database
from repro.relational.domain import INTEGER
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.workloads.paper_example import (
    build_paper_database,
    paper_equijoins,
    paper_expert_script,
)

#: a pool of 8 frames of 256-byte pages — far smaller than the paper
#: extension, so every scan pays eviction and re-read
SMALL = {"pool_pages": 8, "page_size": 256}


def run_pipeline(backend, engine="serial"):
    db = build_paper_database(backend=backend)
    pipeline = DBREPipeline(
        db, ScriptedExpert(paper_expert_script()), engine=engine
    )
    result = pipeline.run(equijoins=paper_equijoins())
    return pipeline, result


def outcome(result):
    return {
        "inds": [repr(i) for i in result.inds],
        "fds": [repr(f) for f in result.fds],
        "ric": [repr(i) for i in result.ric],
        "schema": [repr(r) for r in result.restructured.schema],
        "eer": render_text(result.eer),
        "queries": result.extension_queries,
    }


class TestAcceptance:
    """The issue's acceptance run: pool smaller than the extension."""

    @pytest.mark.parametrize("engine", ["serial", "batched"])
    def test_paper_run_bit_identical_to_memory(self, engine):
        _, memory_result = run_pipeline(MemoryBackend(), engine)
        paged = PagedBackend(**SMALL)
        _, paged_result = run_pipeline(paged, engine)
        assert outcome(paged_result) == outcome(memory_result)
        # the run genuinely went out of core: the pool stayed at its
        # capacity and had to evict
        assert len(paged.pool) <= SMALL["pool_pages"]
        assert paged.pool.stats.evictions > 0

    def test_batched_engine_takes_the_serial_fallback(self):
        """No execute_batch: probes run one by one."""
        db = build_paper_database(backend=PagedBackend(**SMALL))
        pipeline = DBREPipeline(
            db, ScriptedExpert(paper_expert_script()), engine="batched"
        )
        result = pipeline.run(equijoins=paper_equijoins())
        stats = result.engine_stats
        assert stats is not None
        assert stats.batched_calls == 0
        assert stats.backend_calls == stats.unique_probes


class TestBoundedResidency:
    def _bulk_db(self, rows=200):
        schema = DatabaseSchema([
            RelationSchema.build("big", ["a", "b"], types={"a": INTEGER}),
        ])
        db = Database(schema, backend=PagedBackend(**SMALL))
        db.insert_many(
            "big", [[i, f"value-{i % 17}"] for i in range(rows)]
        )
        return db

    def test_primitives_never_hydrate_the_mirror(self):
        db = self._bulk_db()
        backend = db.backend
        assert db.count_distinct("big", ("a",)) == 200
        assert db.count_distinct("big", ("b",)) == 17
        assert db.fd_holds("big", ("a",), ("b",))
        assert db.inclusion_holds("big", ("b",), "big", ("b",))
        assert backend._mirrors == {}
        assert len(backend.pool) <= SMALL["pool_pages"]
        # the extension really is bigger than the pool
        assert backend.files.open("big").page_count > SMALL["pool_pages"]

    def test_row_count_comes_from_the_header_not_a_scan(self):
        db = self._bulk_db()
        read_before = db.backend.files.pages_read
        assert db.backend.row_count("big") == 200
        assert db.backend.files.pages_read == read_before

    def test_rows_stream_in_insertion_order(self):
        db = self._bulk_db(rows=50)
        values = list(db.backend.rows("big"))
        assert values == [(i, f"value-{i % 17}") for i in range(50)]
        assert db.backend._mirrors == {}


class TestTelemetry:
    def test_metrics_carry_nonzero_pool_counters(self):
        pipeline, _ = run_pipeline(PagedBackend(**SMALL))
        metrics = metrics_summary(pipeline.tracer)
        counters = metrics["backends"]["paged"]["counters"]
        assert counters["pool_hits"] > 0
        assert counters["pool_misses"] > 0
        assert counters["pool_evictions"] > 0
        assert counters["pages_read"] > 0

    def test_trace_events_carry_counter_deltas(self):
        pipeline, _ = run_pipeline(PagedBackend(**SMALL))
        events = [
            r for r in trace_records(pipeline.tracer) if r.get("type") == "event"
        ]
        assert any(r.get("counters", {}).get("pool_misses") for r in events)

    def test_memory_backend_traces_are_unchanged(self):
        """No telemetry hook — no counters key anywhere in the trace."""
        pipeline, _ = run_pipeline(MemoryBackend())
        records = trace_records(pipeline.tracer)
        assert all("counters" not in r for r in records)
        metrics = metrics_summary(pipeline.tracer)
        assert "counters" not in metrics["backends"]["memory"]

    def test_telemetry_counters_are_monotonic(self):
        db = build_paper_database(backend=PagedBackend(**SMALL))
        before = db.backend.telemetry()
        db.count_distinct("Person", ("id",))
        after = db.backend.telemetry()
        assert all(after[k] >= before[k] for k in before)
        # the scan had to touch the pool either way: hits if the
        # relation was still resident, misses otherwise
        traffic = ("pool_hits", "pool_misses")
        assert sum(after[k] for k in traffic) > sum(before[k] for k in traffic)


class TestDiagnostics:
    def test_truncated_page_file_is_a_one_line_error(self, tmp_path):
        backend = PagedBackend(
            directory=str(tmp_path), pool_pages=4, page_size=128
        )
        schema = DatabaseSchema([
            RelationSchema.build("r", ["a"], types={"a": INTEGER}),
        ])
        db = Database(schema, backend=backend)
        db.insert_many("r", [[i] for i in range(40)])
        backend.close()

        path = backend.files.path_for("r")
        with open(path, "r+b") as handle:
            handle.truncate(200)
        fresh = PagedBackend(directory=str(tmp_path), pool_pages=4, page_size=128)
        with pytest.raises(StorageError) as excinfo:
            Database(schema, backend=fresh)
        message = str(excinfo.value)
        assert "truncated page file" in message and path in message
        assert "\n" not in message

    def test_corrupt_magic_names_the_file(self, tmp_path):
        path = tmp_path / "junk.pages"
        path.write_bytes(b"\xff" * 256)
        backend = PagedBackend(directory=str(tmp_path), pool_pages=4)
        schema = DatabaseSchema([
            RelationSchema.build("junk", ["a"], types={"a": INTEGER}),
        ])
        with pytest.raises(StorageError, match="not a paged relation file"):
            Database(schema, backend=backend)

    def test_missing_db_file_stays_a_one_line_cli_error(self, capsys):
        from repro.cli import main

        code = main(["inspect", "/nonexistent/x.db"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "no such database file" in err
        assert "Traceback" not in err

    def test_truncated_page_file_stays_a_one_line_cli_error(
        self, tmp_path, capsys, monkeypatch
    ):
        """A damaged store surfaces as `error: ...`, never a traceback."""
        from repro import cli

        def boom(*args, **kwargs):
            raise StorageError(
                "truncated page file /data/r.pages: expected 256 bytes "
                "at offset 256, got 12"
            )

        monkeypatch.setattr(cli, "load_database", boom)
        code = cli.main(["inspect", "whatever.sql"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: truncated page file")
        assert "Traceback" not in err


class TestLifecycle:
    def test_close_is_idempotent_and_removes_scratch_dir(self):
        import os

        backend = PagedBackend(**SMALL)
        directory = backend.directory
        schema = DatabaseSchema([
            RelationSchema.build("r", ["a"], types={"a": INTEGER}),
        ])
        Database(schema, backend=backend).insert("r", [1])
        assert os.path.isdir(directory)
        backend.close()
        backend.close()
        assert not os.path.isdir(directory)

    def test_caller_owned_directory_survives_close_and_reopens(self, tmp_path):
        schema = DatabaseSchema([
            RelationSchema.build("r", ["a", "b"], types={"a": INTEGER}),
        ])
        backend = PagedBackend(directory=str(tmp_path), **{"pool_pages": 4, "page_size": 128})
        db = Database(schema, backend=backend)
        db.insert_many("r", [[i, f"s{i}"] for i in range(25)])
        backend.close()

        reopened = PagedBackend(directory=str(tmp_path), pool_pages=4, page_size=128)
        db2 = Database(schema, backend=reopened)
        assert db2.backend.row_count("r") == 25
        assert db2.count_distinct("r", ("a",)) == 25
        assert list(db2.backend.rows("r")) == [(i, f"s{i}") for i in range(25)]

    def test_spawn_is_isolated(self):
        backend = PagedBackend(**SMALL)
        clone = backend.spawn()
        assert clone.directory != backend.directory
        assert clone.pool.capacity == backend.pool.capacity
        assert clone.files.page_size == backend.files.page_size
        clone.close()
        backend.close()
