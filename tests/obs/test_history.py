"""Cross-run analytics: robust drift scores, bench trends, archive trends."""

import json

from repro.obs.archive import RunArchive
from repro.obs.history import (
    DRIFT_THRESHOLD,
    archive_trends,
    bench_drift_report,
    detect_drift,
    load_bench_history,
    render_archive_trends,
    render_bench_trends,
    robust_zscores,
)
from repro.obs.stats import RunStats


def history_record(mode="quick", wall_ms=10.0, queries=30, hits=5):
    return {
        "format": "repro/bench-history@1",
        "mode": mode,
        "gate": "pass",
        "heads": {
            "s1-head": {
                "wall_ms": wall_ms,
                "queries": queries,
                "cache_hits": hits,
                "latency_units": {},
            }
        },
    }


class TestRobustScores:
    def test_outlier_scores_high_without_inflating_its_own_yardstick(self):
        values = [10, 11, 10, 10.5, 11, 10, 30]
        scores = robust_zscores(values)
        assert scores[-1] > 10  # mean/stddev would give ~2.2 here
        assert all(abs(score) < 1.5 for score in scores[:-1])

    def test_mad_zero_falls_back_to_mean_absolute_deviation(self):
        flagged = detect_drift([1, 1, 1, 1, 1, 50])
        assert flagged and flagged[0][0] == 5

    def test_constant_series_cannot_drift(self):
        assert robust_zscores([3, 3, 3, 3]) == [0.0, 0.0, 0.0, 0.0]
        assert detect_drift([3, 3, 3, 3]) == []

    def test_short_series_are_never_flagged(self):
        assert detect_drift([1, 100]) == []
        assert detect_drift([1, 1, 100]) == []

    def test_threshold_is_respected(self):
        values = [10, 11, 10, 10.5, 11, 10, 14]
        assert detect_drift(values, threshold=100.0) == []
        assert detect_drift(values, threshold=1.0)

    def test_empty_series(self):
        assert robust_zscores([]) == []
        assert detect_drift([]) == []


class TestBenchHistory:
    def test_load_filters_mode_and_skips_garbage(self, tmp_path):
        path = tmp_path / "history.jsonl"
        lines = [
            json.dumps(history_record(mode="quick")),
            "not json at all {",
            json.dumps({"format": "something-else@1"}),
            json.dumps(history_record(mode="full")),
            json.dumps(history_record(mode="quick", wall_ms=11.0)),
        ]
        path.write_text("\n".join(lines) + "\n")
        records = load_bench_history(str(path), mode="quick")
        assert len(records) == 2
        assert load_bench_history(str(path)) and len(
            load_bench_history(str(path))
        ) == 3

    def test_missing_file_is_empty_history(self, tmp_path):
        assert load_bench_history(str(tmp_path / "absent.jsonl")) == []

    def test_drift_report_flags_only_the_latest_run(self, tmp_path):
        records = [history_record(wall_ms=w) for w in
                   (10.0, 10.5, 40.0, 10.2, 10.4, 10.1, 10.3)]
        # the index-2 spike is history, not news: not reported
        assert bench_drift_report(records) == []
        records.append(history_record(wall_ms=45.0))
        messages = bench_drift_report(records)
        assert len(messages) == 1
        assert "s1-head" in messages[0] and "wall_ms" in messages[0]

    def test_render_marks_drift(self):
        records = [history_record(wall_ms=w) for w in
                   (10.0, 10.5, 10.2, 10.4, 10.1, 45.0)]
        rendered = render_bench_trends(records)
        assert "DRIFT:wall_ms" in rendered
        assert "s1-head" in rendered
        assert render_bench_trends([]) == "no bench history\n"


def archived_run(archive, job_id, key, phase_ms, calls=10, hits=5, pool=0):
    stats = RunStats()
    for phase, ms in phase_ms.items():
        stats.phase_runs[phase] = 1
        stats.phase_ms[phase] = ms
    stats.primitive_calls["count_distinct"] = calls
    stats.primitive_cache_hits["count_distinct"] = hits
    if pool:
        stats.pool_events["respawn"] = pool
    archive.store(
        {"type": "job", "id": job_id, "label": job_id, "state": "done"},
        key,
        stats=stats,
    )


class TestArchiveTrends:
    def test_groups_by_fingerprint_pair(self, tmp_path):
        archive = RunArchive(str(tmp_path))
        archived_run(archive, "job-1", ("db1", "wl1", "a"), {"IND": 10.0})
        archived_run(archive, "job-2", ("db1", "wl1", "b"), {"IND": 12.0},
                     pool=2)
        archived_run(archive, "job-3", ("db2", "wl1", "a"), {"IND": 50.0})
        rows = archive_trends(archive)
        assert len(rows) == 2
        first = next(r for r in rows if r["database_fingerprint"] == "db1")
        assert first["runs"] == 2
        assert first["phase_ms"]["IND"] == 22.0
        assert first["cache_hit_rate"] == 0.5
        assert first["pool_incidents"] == 2

    def test_drift_flags_an_anomalous_run_on_the_same_fingerprint(
        self, tmp_path
    ):
        archive = RunArchive(str(tmp_path))
        walls = (10.0, 10.5, 10.2, 10.4, 10.1, 60.0)
        for index, wall in enumerate(walls):
            archived_run(
                archive, f"job-{index}", ("db", "wl", str(index)),
                {"IND": wall},
            )
        rows = archive_trends(archive)
        assert len(rows) == 1
        assert rows[0]["drift"], "the 6x run on the same fingerprint " \
                                 "was not flagged"
        rendered = render_archive_trends(archive)
        assert "DRIFT" in rendered

    def test_empty_archive_renders(self, tmp_path):
        assert render_archive_trends(
            RunArchive(str(tmp_path))
        ) == "archive is empty\n"
        assert DRIFT_THRESHOLD == 3.5
