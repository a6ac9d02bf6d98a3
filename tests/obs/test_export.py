"""Exporters: JSONL round-trip, derived metrics, human rendering."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    METRICS_FORMAT,
    TRACE_FORMAT,
    Tracer,
    metrics_from_records,
    metrics_summary,
    read_trace_jsonl,
    summarize_trace,
    trace_records,
    write_trace_jsonl,
)


class TickClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 0.001
        return self.t


@pytest.fixture
def traced():
    """A tracer with a root span, two phases and three events."""
    tracer = Tracer(clock=TickClock())
    with tracer.span("pipeline", kind="pipeline"):
        with tracer.span("IND-Discovery", kind="phase"):
            tracer.record_event(
                primitive="count_distinct", backend="memory",
                relations=("r",), attributes=(("a",),),
                start=tracer.now(), duration=0.002,
                cache_hit=False, rows_touched=10,
            )
            tracer.record_event(
                primitive="count_distinct", backend="memory",
                relations=("r",), attributes=(("a",),),
                start=tracer.now(), duration=0.0,
                cache_hit=True, rows_touched=0,
            )
        with tracer.span("LHS-Discovery", kind="phase"):
            tracer.record_event(
                primitive="fd_holds", backend="sqlite",
                relations=("r",), attributes=(("a",), ("b",)),
                start=tracer.now(), duration=0.001,
                cache_hit=False, rows_touched=4,
            )
    return tracer


class TestJsonlRoundTrip:
    def test_records_survive_write_and_reread_exactly(self, traced, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_trace_jsonl(traced, path)
        assert read_trace_jsonl(path) == trace_records(traced)

    def test_header_line_carries_format_and_counts(self, traced, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_trace_jsonl(traced, path)
        with open(path) as handle:
            header = json.loads(handle.readline())
        assert header == {
            "type": "trace", "format": TRACE_FORMAT, "spans": 3, "events": 3,
        }

    def test_records_are_ordered_by_start(self, traced):
        records = trace_records(traced)[1:]
        starts = [r["start_ms"] for r in records]
        assert starts == sorted(starts)
        assert records[0]["name"] == "pipeline"

    def test_reading_a_non_trace_file_is_a_value_error(self, tmp_path):
        path = tmp_path / "not-a-trace.jsonl"
        path.write_text('{"format": "something/else@9"}\n')
        with pytest.raises(ValueError):
            read_trace_jsonl(str(path))

    def test_reading_an_empty_file_is_a_value_error(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            read_trace_jsonl(str(path))

    def test_truncated_line_reports_file_and_line_number(self, traced, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(traced, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:1] + [lines[1][: len(lines[1]) // 2]]))
        with pytest.raises(ValueError, match=r"trace\.jsonl:2: invalid JSON"):
            read_trace_jsonl(str(path))


    def test_lines_cut_off_the_end_are_a_value_error(self, traced, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(traced, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ValueError, match=r"header claims 3 span\(s\) and 3 event"):
            read_trace_jsonl(str(path))

    def test_header_counts_must_match_the_body(self, traced, tmp_path):
        path = tmp_path / "trace.jsonl"
        records = trace_records(traced)
        records[0]["events"] += 1
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(ValueError, match="file carries 3 and 3"):
            read_trace_jsonl(str(path))


class TestOpenSpans:
    @pytest.fixture
    def half_open(self):
        """A tracer whose run was exported before the root span closed."""
        tracer = Tracer(clock=TickClock())
        tracer.start_span("pipeline", kind="pipeline")
        with tracer.span("IND-Discovery", kind="phase"):
            pass
        return tracer

    def test_open_spans_are_flagged_in_records(self, half_open):
        spans = {r["name"]: r for r in trace_records(half_open) if r.get("type") == "span"}
        assert spans["pipeline"]["open"] is True
        assert "open" not in spans["IND-Discovery"]

    def test_open_span_duration_is_elapsed_so_far(self, half_open):
        spans = {r["name"]: r for r in trace_records(half_open) if r.get("type") == "span"}
        assert spans["pipeline"]["duration_ms"] > 0

    def test_summarize_marks_open_spans(self, half_open):
        text = summarize_trace(trace_records(half_open))
        assert "- pipeline [pipeline]" in text
        assert "(open)" in text
        assert text.count("(open)") == 1


class TestMetrics:
    def test_live_and_reread_summaries_agree(self, traced, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_trace_jsonl(traced, path)
        assert metrics_from_records(read_trace_jsonl(path)) == metrics_summary(traced)

    def test_totals_summarize_the_event_stream(self, traced):
        metrics = metrics_summary(traced)
        assert metrics["format"] == METRICS_FORMAT
        assert metrics["totals"]["queries"] == 3
        assert metrics["totals"]["cache_hits"] == 1
        assert metrics["totals"]["rows_touched"] == 14
        assert metrics["totals"]["spans"] == 3

    def test_per_phase_queries_count_subtree_events(self, traced):
        phases = metrics_summary(traced)["phases"]
        assert phases["IND-Discovery"]["queries"] == 2
        assert phases["LHS-Discovery"]["queries"] == 1

    def test_per_primitive_and_per_backend_rollups(self, traced):
        metrics = metrics_summary(traced)
        cd = metrics["primitives"]["count_distinct"]
        assert cd["calls"] == 2
        assert cd["cache_hits"] == 1 and cd["cache_misses"] == 1
        assert cd["rows_touched"] == 10
        assert metrics["backends"]["memory"]["calls"] == 2
        assert metrics["backends"]["sqlite"]["calls"] == 1

    def test_nested_span_events_roll_up_to_the_enclosing_phase(self):
        tracer = Tracer(clock=TickClock())
        with tracer.span("pipeline", kind="pipeline"):
            with tracer.span("Restruct", kind="phase"):
                with tracer.span("fd-narrowing"):  # an inner, non-phase span
                    tracer.record_event(
                        primitive="fd_holds", backend="memory",
                        relations=("r",), attributes=(("a",), ("b",)),
                        start=tracer.now(), duration=0.0,
                        cache_hit=False, rows_touched=1,
                    )
        assert metrics_summary(tracer)["phases"]["Restruct"]["queries"] == 1


class TestSummarize:
    def test_renders_span_tree_and_primitive_table(self, traced):
        text = summarize_trace(trace_records(traced))
        assert "- pipeline [pipeline]" in text
        assert "  - IND-Discovery [phase]" in text
        assert "# Primitives" in text
        assert "count_distinct" in text and "fd_holds" in text

    def test_empty_tracer_renders_header_only(self):
        text = summarize_trace(trace_records(Tracer()))
        assert text.startswith("# Trace — 0 span(s), 0 event(s)")
