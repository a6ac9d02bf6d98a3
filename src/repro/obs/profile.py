"""Profiling and regression attribution over the trace streams.

A regression-gate failure that only says "2x slower" is not actionable;
this module turns the span/event streams of :mod:`repro.obs.tracer`
into *attribution*:

- **hotspot profiles** (:func:`profile_from_records`) — per-span-name
  inclusive vs. exclusive (self) time and per-phase primitive
  breakdowns (calls, wall time, cache hit-rate, rows scanned), rendered
  from a :class:`~repro.obs.stats.RunStats`: an in-memory
  :class:`~repro.obs.tracer.Tracer`'s own fold, or a new fold of a
  re-read ``repro/trace@1`` JSONL file;
- **flamegraph exporters** — collapsed-stack lines for ``flamegraph.pl``
  (:func:`collapsed_stacks`) and a speedscope-compatible JSON document
  (:func:`speedscope_document`, tagged ``repro/profile@1`` in its
  ``exporter`` field), both built from the span tree with the primitive
  events folded in as leaf frames;
- **trace diffing** (:func:`diff_views` / :func:`render_diff`) — two
  traces (or two ``repro/metrics@1`` files) compared, regressions
  ranked by absolute self-time delta, with cache-hit-rate, call-count
  and rows-scanned deltas as the explanation column.

Everything here is a *pure view* over recorded data — like
:func:`repro.evaluation.counters.cost_report_from_trace`, profiling a
run issues zero extension queries (``benchmarks/bench_s9_profile.py``
enforces this).

Exclusive (self) time is the span's duration minus the durations of its
direct child spans and of the primitive events recorded directly under
it, clamped at zero (the fold computes it as spans close): a still-open
parent exported mid-run reports its elapsed-so-far, which may be
smaller than the sum of finished children, and must not go negative.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple, TYPE_CHECKING

from repro.obs.export import (
    METRICS_FORMAT,
    TRACE_FORMAT,
    check_trace_records,
    span_tree,
)
from repro.obs.live import LIVE_FORMAT, check_live_records
from repro.obs.provenance import PROVENANCE_FORMAT
from repro.obs.stats import RunStats, fold_records, rounded_ms as _ms
from repro.util.jsonl import load_jsonl
from repro.util.text import format_table

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracer import Tracer

__all__ = [
    "PROFILE_FORMAT",
    "SPEEDSCOPE_SCHEMA",
    "profile_from_records",
    "profile_summary",
    "render_profile",
    "collapsed_stacks",
    "write_collapsed",
    "speedscope_document",
    "write_speedscope",
    "detect_export_kind",
    "load_export",
    "view_from_export",
    "diff_views",
    "render_diff",
]

PROFILE_FORMAT = "repro/profile@1"
SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


def _hit_rate(hits: int, calls: int) -> float:
    return round(hits / calls, 4) if calls else 0.0


# ----------------------------------------------------------------------
# hotspot aggregation
# ----------------------------------------------------------------------
def _with_hit_rate(rollup: Dict[str, Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    for row in rollup.values():
        row["hit_rate"] = _hit_rate(row.get("cache_hits", 0), row.get("calls", 0))
    return rollup


def profile_document(stats: RunStats) -> Dict[str, Any]:
    """The hotspot profile of one fold.

    ``spans`` has one row per span name (count, inclusive and self ms,
    any occurrence open); ``phases`` the inclusive/self ms and the
    per-primitive breakdown (calls, ms, cache hits/misses, hit-rate,
    rows) of each phase's subtree; ``primitives`` that breakdown over
    the run; ``totals`` the run-level rollups.
    """
    return {
        "spans": {
            name: {
                "kind": stats.span_kind[name],
                "count": count,
                "inclusive_ms": _ms(stats.span_ms[name]),
                "self_ms": _ms(stats.span_self_ms[name]),
                "open": bool(stats.span_open.get(name)),
            }
            for name, count in stats.span_runs.items()
        },
        "phases": {
            name: {
                "inclusive_ms": _ms(stats.phase_ms[name]),
                "self_ms": _ms(stats.phase_self_ms.get(name, 0.0)),
                "queries": stats.phase_queries.get(name, 0),
                "primitives": _with_hit_rate(stats.primitive_rollup(name)),
            }
            for name in stats.phase_runs
        },
        "primitives": _with_hit_rate(stats.primitive_rollup()),
        "totals": {
            "duration_ms": _ms(stats.root_ms),
            "queries": stats.queries,
            "spans": stats.spans,
            "query_duration_ms": _ms(sum(stats.primitive_ms.values())),
        },
    }


def profile_from_records(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The hotspot profile of one trace's records."""
    return profile_document(fold_records(records))


def profile_summary(tracer: "Tracer") -> Dict[str, Any]:
    """The hotspot profile of *tracer*'s own fold (open spans included)."""
    return profile_document(tracer.snapshot())


def render_profile(profile: Dict[str, Any]) -> str:
    """Render a hotspot profile as hotspot + per-phase tables."""
    total = profile["totals"]["duration_ms"] or 1.0
    lines = [
        f"# Hotspots — {profile['totals']['spans']} span(s), "
        f"{profile['totals']['queries']} quer"
        f"{'y' if profile['totals']['queries'] == 1 else 'ies'}, "
        f"{profile['totals']['duration_ms']:.3f} ms total"
    ]
    rows = []
    ranked = sorted(profile["spans"].items(), key=lambda kv: kv[1]["self_ms"], reverse=True)
    for name, stats in ranked:
        open_mark = " (open)" if stats["open"] else ""
        rows.append(
            [
                f"{name}{open_mark}",
                stats["kind"],
                stats["count"],
                f"{stats['inclusive_ms']:.3f}",
                f"{stats['self_ms']:.3f}",
                f"{100.0 * stats['self_ms'] / total:.1f}%",
            ]
        )
    lines.append(format_table(["span", "kind", "count", "incl ms", "self ms", "% self"], rows))
    if profile["primitives"]:
        lines.append("")
        lines.append("# Primitives by phase")
        rows = []
        sections = list(profile["phases"].items())
        sections.append(("(run total)", {"primitives": profile["primitives"]}))
        for phase, stats in sections:
            for primitive, p in sorted(
                stats["primitives"].items(),
                key=lambda kv: kv[1]["duration_ms"],
                reverse=True,
            ):
                rows.append(
                    [
                        phase,
                        primitive,
                        p["calls"],
                        f"{p['duration_ms']:.3f}",
                        f"{100.0 * p['hit_rate']:.0f}%",
                        p["rows_touched"],
                    ]
                )
        lines.append(
            format_table(["phase", "primitive", "calls", "total ms", "hit rate", "rows"], rows)
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# flamegraph exporters
# ----------------------------------------------------------------------
def collapsed_stacks(records: List[Dict[str, Any]]) -> List[str]:
    """The trace as collapsed-stack lines for ``flamegraph.pl``.

    One line per unique stack — span names root-to-leaf joined by
    ``;``, primitive events folded in as leaf frames — with the stack's
    total *self* time in integer microseconds as the sample value.
    Zero-weight stacks are kept (weight 1 µs minimum would lie; a zero
    line is valid collapsed-stack input and keeps the frame visible).
    """
    self_ms = fold_records(records).self_ms_by_span
    children, by_span = span_tree(records)
    weights: Dict[str, int] = {}

    def add(stack: str, ms: float) -> None:
        weights[stack] = weights.get(stack, 0) + int(round(ms * 1000))

    def walk(span: Dict[str, Any], stack: str) -> None:
        add(stack, self_ms[span["id"]])
        for event in by_span.get(span["id"], ()):
            add(f"{stack};{event['primitive']}", event["duration_ms"])
        for child in children.get(span["id"], ()):
            walk(child, f"{stack};{child['name']}")

    for root in children.get(None, ()):
        walk(root, root["name"])
    # events recorded outside any span still show up, under a synthetic root
    for event in by_span.get(None, ()):
        add(f"(no span);{event['primitive']}", event["duration_ms"])
    return [f"{stack} {weight}" for stack, weight in sorted(weights.items())]


def write_collapsed(records: List[Dict[str, Any]], path: str) -> None:
    """Write the collapsed-stack lines to *path*."""
    with open(path, "w", encoding="utf-8") as handle:
        for line in collapsed_stacks(records):
            handle.write(line)
            handle.write("\n")


def speedscope_document(
    records: List[Dict[str, Any]], name: str = "repro trace"
) -> Dict[str, Any]:
    """The trace as a speedscope-compatible *evented* profile.

    Open/close events are emitted by a pre-order walk of the span tree
    (children in start order, primitive events interleaved at their
    start time), so the stream is properly nested by construction even
    when recorded timestamps jitter at the rounding edge; child frames
    are clamped into their parent's window.  The document carries
    ``exporter: repro/profile@1`` — load it at https://speedscope.app.
    """
    children, by_span = span_tree(records)
    frames: List[Dict[str, Any]] = []
    frame_index: Dict[str, int] = {}

    def frame(label: str) -> int:
        if label not in frame_index:
            frame_index[label] = len(frames)
            frames.append({"name": label})
        return frame_index[label]

    out: List[Dict[str, Any]] = []
    end_value = 0.0

    def emit(kind: str, label: str, at: float) -> None:
        nonlocal end_value
        end_value = max(end_value, at)
        out.append({"type": kind, "frame": frame(label), "at": _ms(at)})

    def walk(span: Dict[str, Any], lo: float, hi: float) -> None:
        start = min(max(span["start_ms"], lo), hi)
        end = min(max(start, span["start_ms"] + span["duration_ms"]), hi)
        emit("O", span["name"], start)
        cursor = start
        leaves = [(e["start_ms"], "event", e) for e in by_span.get(span["id"], ())]
        leaves += [(c["start_ms"], "span", c) for c in children.get(span["id"], ())]
        for _, node_kind, node in sorted(leaves, key=lambda item: item[0]):
            if node_kind == "span":
                walk(node, cursor, end)
                cursor = min(max(cursor, node["start_ms"] + node["duration_ms"]), end)
            else:
                at = min(max(node["start_ms"], cursor), end)
                leave = min(max(at, node["start_ms"] + node["duration_ms"]), end)
                emit("O", node["primitive"], at)
                emit("C", node["primitive"], leave)
                cursor = leave
        emit("C", span["name"], end)

    for root in children.get(None, []):
        walk(root, root["start_ms"], root["start_ms"] + root["duration_ms"])

    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "exporter": PROFILE_FORMAT,
        "name": name,
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "evented",
                "name": name,
                "unit": "milliseconds",
                "startValue": 0.0,
                "endValue": _ms(end_value),
                "events": out,
            }
        ],
    }


def write_speedscope(
    records: List[Dict[str, Any]], path: str, name: str = "repro trace"
) -> None:
    """Write the speedscope JSON document to *path*."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(speedscope_document(records, name=name), handle, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# export-kind detection (shared by profile / summarize / diff verbs)
# ----------------------------------------------------------------------
#: schema tag → human label, for one-line wrong-file-kind errors
_KIND_LABELS = {
    TRACE_FORMAT: "trace",
    METRICS_FORMAT: "metrics",
    PROVENANCE_FORMAT: "provenance",
    PROFILE_FORMAT: "profile",
    LIVE_FORMAT: "live-capture",
    "repro/bench@1": "bench-metrics",
    "repro/bench-baseline@1": "bench-baseline",
    "repro/bench-history@1": "bench-history",
}


def detect_export_kind(path: str) -> Tuple[str, Any]:
    """Sniff which export format *path* holds.

    Returns ``(kind, payload)`` where *kind* is a ``repro/...@N``
    schema tag (or ``"unknown"``) and *payload* is the parsed document
    — the record list for JSONL exports, the JSON document otherwise.
    Raises :class:`ValueError` for files that parse as neither.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except json.JSONDecodeError:
        document = None
    except UnicodeDecodeError:
        raise ValueError(f"{path!r} is not a JSON or JSONL export")
    if isinstance(document, dict):
        tag = document.get("format") or document.get("exporter")
        return (tag if tag in _KIND_LABELS else "unknown", document)
    if document is not None:
        return ("unknown", document)
    records = load_jsonl(path)  # raises ValueError with the line number
    tag = records[0].get("format") if records else None
    # a truncated trace or capture must fail here, not report fewer
    # queries than the run issued
    if tag == TRACE_FORMAT:
        check_trace_records(records, path)
    elif tag == LIVE_FORMAT:
        check_live_records(records, path)
    return (tag if tag in _KIND_LABELS else "unknown", records)


def load_export(path: str, expected: str) -> Any:
    """Load *path*, requiring the *expected* schema tag.

    On a mismatch, raises :class:`ValueError` with a one-line message
    naming what the file actually is — handing ``repro profile`` a
    metrics file fails with "is a repro/metrics@1 metrics file", not a
    traceback.
    """
    kind, payload = detect_export_kind(path)
    if kind != expected:
        actual = (
            f"a {kind} {_KIND_LABELS[kind]} file"
            if kind in _KIND_LABELS
            else "not a recognized repro export"
        )
        raise ValueError(
            f"{path!r} is {actual}; expected a {expected} "
            f"{_KIND_LABELS.get(expected, 'export')}"
        )
    return payload


# ----------------------------------------------------------------------
# trace diffing
# ----------------------------------------------------------------------
def view_from_export(kind: str, payload: Any) -> Dict[str, Any]:
    """Reduce a trace or metrics export to one comparable *view*.

    A view has ``spans`` (name → self/inclusive ms; traces only, empty
    for metrics files), ``phases`` (name → duration) and ``primitives``
    (name → calls/duration/hit-rate/rows) — the common denominator the
    diff engine ranks over.
    """
    if kind == TRACE_FORMAT:
        profile = profile_from_records(payload)
        return {
            "source": "trace",
            "spans": profile["spans"],
            "phases": {name: stats["inclusive_ms"] for name, stats in profile["phases"].items()},
            "primitives": profile["primitives"],
        }
    if kind == METRICS_FORMAT:
        primitives = _with_hit_rate(
            {name: dict(stats) for name, stats in payload.get("primitives", {}).items()}
        )
        return {
            "source": "metrics",
            "spans": {},
            "phases": {
                name: stats["duration_ms"] for name, stats in payload.get("phases", {}).items()
            },
            "primitives": primitives,
        }
    raise ValueError(f"cannot diff a {kind} export")


def _delta_row(name: str, a: float, b: float) -> Dict[str, Any]:
    return {"name": name, "a_ms": _ms(a), "b_ms": _ms(b), "delta_ms": _ms(b - a)}


def diff_views(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Compare two views; rank every section by absolute time delta.

    ``spans`` ranks per-span-name *self*-time deltas (present only when
    both sides came from full traces), ``phases`` ranks inclusive
    phase-duration deltas, and ``primitives`` ranks per-primitive wall
    deltas with cache-hit-rate, call-count and rows-scanned deltas
    attached as the explanation.
    """
    spans: List[Dict[str, Any]] = []
    if a["spans"] and b["spans"]:
        for name in sorted(set(a["spans"]) | set(b["spans"])):
            sa = a["spans"].get(name, {})
            sb = b["spans"].get(name, {})
            row = _delta_row(name, sa.get("self_ms", 0.0), sb.get("self_ms", 0.0))
            row["kind"] = sb.get("kind", sa.get("kind", "span"))
            spans.append(row)
        spans.sort(key=lambda r: abs(r["delta_ms"]), reverse=True)

    phases = [
        _delta_row(name, a["phases"].get(name, 0.0), b["phases"].get(name, 0.0))
        for name in sorted(set(a["phases"]) | set(b["phases"]))
    ]
    phases.sort(key=lambda r: abs(r["delta_ms"]), reverse=True)

    primitives: List[Dict[str, Any]] = []
    for name in sorted(set(a["primitives"]) | set(b["primitives"])):
        pa = a["primitives"].get(name, {})
        pb = b["primitives"].get(name, {})
        row = _delta_row(name, pa.get("duration_ms", 0.0), pb.get("duration_ms", 0.0))
        row.update(
            calls_a=pa.get("calls", 0),
            calls_b=pb.get("calls", 0),
            hit_rate_a=pa.get("hit_rate", 0.0),
            hit_rate_b=pb.get("hit_rate", 0.0),
            rows_a=pa.get("rows_touched", 0),
            rows_b=pb.get("rows_touched", 0),
        )
        row["explanation"] = _explain_primitive(row)
        primitives.append(row)
    primitives.sort(key=lambda r: abs(r["delta_ms"]), reverse=True)

    return {"spans": spans, "phases": phases, "primitives": primitives}


def _explain_primitive(row: Dict[str, Any]) -> str:
    """Why did this primitive's cost move?  Best-effort, data-driven."""
    reasons: List[str] = []
    hit_delta = row["hit_rate_b"] - row["hit_rate_a"]
    if abs(hit_delta) >= 0.005:
        reasons.append(
            f"cache hit-rate {100 * row['hit_rate_a']:.0f}% -> "
            f"{100 * row['hit_rate_b']:.0f}% ({100 * hit_delta:+.0f} pts)"
        )
    call_delta = row["calls_b"] - row["calls_a"]
    if call_delta:
        reasons.append(f"calls {row['calls_a']} -> {row['calls_b']} ({call_delta:+d})")
    rows_delta = row["rows_b"] - row["rows_a"]
    if rows_delta:
        reasons.append(f"rows scanned {row['rows_a']} -> {row['rows_b']} ({rows_delta:+d})")
    return "; ".join(reasons) if reasons else "same calls, same cache behavior"


def render_diff(diff: Dict[str, Any], a_label: str = "A", b_label: str = "B") -> str:
    """Render a diff as ranked regression tables (worst delta first)."""
    lines = [f"# Trace diff — {a_label} vs {b_label} (ranked by |delta|)"]
    if diff["spans"]:
        rows = [
            [r["name"], r["kind"], f"{r['a_ms']:.3f}", f"{r['b_ms']:.3f}", f"{r['delta_ms']:+.3f}"]
            for r in diff["spans"]
        ]
        lines.append("")
        lines.append("## Self time by span")
        lines.append(
            format_table(["span", "kind", f"{a_label} ms", f"{b_label} ms", "delta ms"], rows)
        )
    elif diff["phases"]:
        rows = [
            [r["name"], f"{r['a_ms']:.3f}", f"{r['b_ms']:.3f}", f"{r['delta_ms']:+.3f}"]
            for r in diff["phases"]
        ]
        lines.append("")
        lines.append("## Phase durations")
        lines.append(format_table(["phase", f"{a_label} ms", f"{b_label} ms", "delta ms"], rows))
    if diff["primitives"]:
        rows = [
            [
                r["name"],
                f"{r['a_ms']:.3f}",
                f"{r['b_ms']:.3f}",
                f"{r['delta_ms']:+.3f}",
                r["explanation"],
            ]
            for r in diff["primitives"]
        ]
        lines.append("")
        lines.append("## Primitives")
        lines.append(
            format_table(
                ["primitive", f"{a_label} ms", f"{b_label} ms", "delta ms", "explanation"],
                rows,
            )
        )
    if len(lines) == 1:
        lines.append("(both sides are empty — nothing to compare)")
    return "\n".join(lines)
