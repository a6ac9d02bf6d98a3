"""Trace and metrics exporters, and their file formats.

Two artifacts can be written from one :class:`~repro.obs.tracer.Tracer`:

- **JSONL trace** (``repro/trace@1``) — one JSON object per line.  The
  first line is a header; every further line is a ``span`` or ``event``
  record, ordered by start time.  Timestamps are milliseconds relative
  to the earliest record, so traces are diffable across runs and
  machines.
- **metrics JSON** (``repro/metrics@1``) — one flat document with
  per-phase durations and query counts, per-primitive call/latency/
  cache/row rollups, per-backend totals, and run totals.

The metrics document renders a :class:`~repro.obs.stats.RunStats` —
the tracer's own fold (:func:`metrics_summary`) or a new fold of a
file's records (:func:`metrics_from_records`) — so a summary computed
live and one from a re-read JSONL file agree by construction.  ``repro
trace summarize FILE`` renders the records as a span tree plus
primitive table.  :func:`read_trace_jsonl` checks the header's counts
against the body, so a truncated trace fails loudly.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.obs.stats import RunStats, fold_records, rounded_ms, to_ms as _ms
from repro.util.jsonl import load_jsonl, save_jsonl
from repro.util.text import format_table

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracer import Tracer

__all__ = [
    "TRACE_FORMAT",
    "METRICS_FORMAT",
    "trace_records",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "check_trace_records",
    "span_tree",
    "metrics_document",
    "metrics_from_records",
    "metrics_summary",
    "write_metrics_json",
    "summarize_trace",
]

TRACE_FORMAT = "repro/trace@1"
METRICS_FORMAT = "repro/metrics@1"


def trace_records(tracer: "Tracer") -> List[Dict[str, Any]]:
    """The tracer's streams as JSON-ready records (header first)."""
    starts = [s.start for s in tracer.spans] + [e.start for e in tracer.events]
    base = min(starts) if starts else 0.0
    rows: List[Dict[str, Any]] = []
    for span in tracer.spans:
        row = {
            "type": "span",
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "kind": span.kind,
            "start_ms": _ms(span.start - base),
            "duration_ms": _ms(span.duration),
            "attributes": dict(span.attributes),
        }
        if span.open:
            # a crashed or still-running scope: duration is elapsed-so-far
            row["open"] = True
        rows.append(row)
    for event in tracer.events:
        row = {
            "type": "event",
            "span": event.span_id,
            "primitive": event.primitive,
            "backend": event.backend,
            "relations": list(event.relations),
            "attributes": [list(a) for a in event.attributes],
            "start_ms": _ms(event.start - base),
            "duration_ms": _ms(event.duration),
            "cache_hit": event.cache_hit,
            "rows_touched": event.rows_touched,
        }
        if event.counters:
            # storage telemetry deltas (buffer pool / page I/O); omitted
            # when empty so traces from other backends are unchanged
            row["counters"] = dict(event.counters)
        rows.append(row)
    rows.sort(key=lambda r: (r["start_ms"], 0 if r["type"] == "span" else 1))
    header = {
        "type": "trace",
        "format": TRACE_FORMAT,
        "spans": len(tracer.spans),
        "events": len(tracer.events),
    }
    return [header] + rows


def write_trace_jsonl(tracer: "Tracer", path: str) -> None:
    """Write the trace as JSONL (header line + one record per line)."""
    save_jsonl(trace_records(tracer), path)


def read_trace_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL trace back into its records (header included).

    Raises :class:`ValueError` for a malformed line (with its line
    number), when the header is not a ``repro/trace@1`` header, or when
    the body does not carry the spans and events the header counts.
    """
    records = load_jsonl(path)
    if not records or records[0].get("format") != TRACE_FORMAT:
        raise ValueError(f"not a {TRACE_FORMAT} trace: {path!r}")
    check_trace_records(records, path)
    return records


def check_trace_records(records: List[Dict[str, Any]], path: str) -> None:
    """Raise :class:`ValueError` unless the body matches its header."""
    header, body = records[0], records[1:]
    spans = sum(1 for r in body if r.get("type") == "span")
    events = sum(1 for r in body if r.get("type") == "event")
    if (header.get("spans"), header.get("events")) != (spans, events):
        raise ValueError(
            f"{path}: header claims {header.get('spans')} span(s) and "
            f"{header.get('events')} event(s), file carries {spans} and "
            f"{events} (truncated?)"
        )


def span_tree(records: List[Dict[str, Any]]) -> Tuple[Dict, Dict]:
    """(parent id -> child spans in start order, span id -> events)."""
    children: Dict[Optional[int], List[Dict[str, Any]]] = {}
    events: Dict[Optional[int], List[Dict[str, Any]]] = {}
    for record in records:
        if record.get("type") == "span":
            children.setdefault(record["parent"], []).append(record)
        elif record.get("type") == "event":
            events.setdefault(record["span"], []).append(record)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s["start_ms"], s["id"]))
    return children, events


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def metrics_document(stats: RunStats) -> Dict[str, Any]:
    """The flat metrics document of one fold."""
    backends: Dict[str, Dict[str, Any]] = {}
    for name, calls in stats.backend_calls.items():
        backends[name] = {
            "calls": calls,
            "duration_ms": rounded_ms(stats.backend_ms[name]),
        }
        if stats.backend_counters.get(name):
            backends[name]["counters"] = dict(stats.backend_counters[name])
    return {
        "format": METRICS_FORMAT,
        "phases": {
            name: {
                "duration_ms": rounded_ms(stats.phase_ms[name]),
                "queries": stats.phase_queries.get(name, 0),
            }
            for name in stats.phase_runs
        },
        "primitives": stats.primitive_rollup(),
        "backends": backends,
        "totals": {
            "queries": stats.queries,
            "cache_hits": sum(stats.primitive_cache_hits.values()),
            "rows_touched": sum(stats.primitive_rows.values()),
            "query_duration_ms": rounded_ms(sum(stats.primitive_ms.values())),
            "duration_ms": rounded_ms(stats.root_ms),
            "spans": stats.spans,
        },
    }


def metrics_from_records(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The flat metrics document for one trace's records."""
    return metrics_document(fold_records(records))


def metrics_summary(tracer: "Tracer") -> Dict[str, Any]:
    """The metrics document of *tracer*'s own fold (open spans included)."""
    return metrics_document(tracer.snapshot())


def write_metrics_json(tracer: "Tracer", path: str) -> None:
    """Write the flat metrics summary as one JSON document."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(metrics_summary(tracer), handle, indent=2, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# human-readable rendering (repro trace summarize)
# ----------------------------------------------------------------------
def summarize_trace(records: List[Dict[str, Any]]) -> str:
    """Render a trace as a span tree plus per-primitive rollup table."""
    stats = fold_records(records)
    children, _ = span_tree(records)
    lines = [f"# Trace — {stats.spans} span(s), {stats.queries} event(s)"]

    def walk(span: Dict[str, Any], depth: int) -> None:
        queries = stats.queries_by_span[span["id"]]
        extra = "".join(
            f" {k}={v}" for k, v in sorted(span.get("attributes", {}).items())
        )
        open_mark = " (open)" if span.get("open") else ""
        lines.append(
            f"{'  ' * depth}- {span['name']} [{span['kind']}]{open_mark} "
            f"{span['duration_ms']:.3f} ms, {queries} quer{'y' if queries == 1 else 'ies'}{extra}"
        )
        for child in children.get(span["id"], []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)

    primitives = stats.primitive_rollup()
    if primitives:
        rows = [
            [
                name,
                row["calls"],
                f"{row['duration_ms']:.3f}",
                row["cache_hits"],
                row["rows_touched"],
            ]
            for name, row in sorted(primitives.items())
        ]
        lines.append("")
        lines.append("# Primitives")
        lines.append(
            format_table(
                ["primitive", "calls", "total ms", "cache hits", "rows touched"],
                rows,
            )
        )
    return "\n".join(lines)
