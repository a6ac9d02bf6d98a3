"""One fold over one record stream: :class:`RunStats`.

Every figure reported about a run — the metrics and profile documents,
``/metrics``, the archive's stats, the cost report — is read from one
incremental fold of closed spans, primitive events, pool incidents and
a census of records by type.  A :class:`~repro.obs.tracer.Tracer` feeds
its ``stats`` as the run goes; a file goes through :func:`normalize`,
which maps ``repro/trace@1`` and ``repro/live@1`` records onto the same
calls.  Subtree figures move from child to parent when a span closes,
so a span must close after its children and the events under it.
Durations are milliseconds as the exports round them; renderers round
every sum again (:func:`rounded_ms`), so input order never shows.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, Iterator, Optional

__all__ = ["RunStats", "normalize", "fold_records", "rounded_ms", "to_ms"]

#: the additive slots, name -> number maps (phase_primitives and
#: backend_counters nest one level deeper); the first seven are what
#: archives written before this fold carry
_SUMS = (
    "events", "phase_runs", "phase_ms", "primitive_calls",
    "primitive_cache_hits", "storage_counters", "pool_events",
    "phase_self_ms", "phase_queries", "phase_primitives", "primitive_ms",
    "primitive_rows", "backend_calls", "backend_ms", "backend_counters",
    "span_runs", "span_ms", "span_self_ms", "span_open",
)


def rounded_ms(value: float) -> float:
    """Milliseconds at the exports' resolution (six decimals)."""
    return round(value, 6)


def to_ms(seconds: float) -> float:
    """Seconds → milliseconds at the exports' resolution."""
    return round(seconds * 1000.0, 6)


def _add(target: Dict[str, Any], key: str, value: Any) -> None:
    target[key] = target.get(key, 0) + value


def _add_all(target: Dict[str, Any], source: Dict[str, Any]) -> Dict[str, Any]:
    """Add *source* into *target* key by key, recursing into dicts."""
    for key, value in source.items():
        if isinstance(value, dict):
            _add_all(target.setdefault(key, {}), value)
        else:
            _add(target, key, value)
    return target


class RunStats:
    """The running figures of one or more runs (thread-safe).

    Besides the :data:`_SUMS` slots: ``span_kind``, ``root_ms`` (the
    root spans' summed duration), and the by-span-id maps the tree views
    read, which :meth:`merge` and :meth:`as_dict` leave out.  Each open
    span's subtree holds its ``queries``, ``child_ms`` (direct children
    and events) and ``primitives`` (per-primitive rows) so far.
    """

    def __init__(self) -> None:
        for slot in _SUMS:
            setattr(self, slot, {})
        self.span_kind: Dict[str, str] = {}
        self.root_ms = 0.0
        self.queries_by_span: Dict[int, int] = {}
        self.self_ms_by_span: Dict[int, float] = {}
        self._open: Dict[int, Dict[str, Any]] = {}
        self._lock = threading.Lock()

    # -- the fold ------------------------------------------------------
    def close_span(
        self, span_id: int, parent_id: Optional[int], name: str, kind: str,
        duration_ms: float, open: bool = False,
    ) -> None:
        """Fold one closed span (*open*: a running span's elapsed time)."""
        with self._lock:
            subtree = self._open.pop(span_id, {})
            queries = subtree.get("queries", 0)
            primitives = subtree.get("primitives", {})
            # an open parent may report less than its finished children
            # sum to: self time is clamped, never negative
            self_ms = max(0.0, duration_ms - subtree.get("child_ms", 0.0))
            self.queries_by_span[span_id] = queries
            self.self_ms_by_span[span_id] = self_ms
            _add(self.span_runs, name, 1)
            _add(self.span_ms, name, duration_ms)
            _add(self.span_self_ms, name, self_ms)
            self.span_kind.setdefault(name, kind)
            if open:
                _add(self.span_open, name, 1)
            if kind == "phase":
                _add(self.phase_runs, name, 1)
                _add(self.phase_ms, name, duration_ms)
                _add(self.phase_self_ms, name, self_ms)
                _add(self.phase_queries, name, queries)
                _add_all(self.phase_primitives.setdefault(name, {}), primitives)
            if parent_id is None:
                self.root_ms += duration_ms
            else:
                _add_all(self._open.setdefault(parent_id, {}), {
                    "queries": queries, "child_ms": duration_ms,
                    "primitives": primitives,
                })

    def primitive(
        self, span_id: Optional[int], primitive: str, backend: str,
        duration_ms: float, cache_hit: bool, rows_touched: int,
        counters: Optional[Dict[str, int]] = None,
    ) -> None:
        """Fold one extension-primitive event."""
        with self._lock:
            _add(self.primitive_calls, primitive, 1)
            _add(self.primitive_ms, primitive, duration_ms)
            _add(self.primitive_rows, primitive, rows_touched)
            if cache_hit:
                _add(self.primitive_cache_hits, primitive, 1)
            _add(self.backend_calls, backend, 1)
            _add(self.backend_ms, backend, duration_ms)
            if counters:
                _add_all(self.storage_counters, counters)
                _add_all(self.backend_counters.setdefault(backend, {}), counters)
            if span_id is not None:
                row = {
                    "calls": 1, "duration_ms": duration_ms,
                    "cache_hits": int(cache_hit), "cache_misses": int(not cache_hit),
                    "rows_touched": rows_touched,
                }
                _add_all(self._open.setdefault(span_id, {}), {
                    "queries": 1, "child_ms": duration_ms, "primitives": {primitive: row},
                })

    def pool(self, event: str) -> None:
        """Fold one worker-pool incident."""
        with self._lock:
            _add(self.pool_events, event, 1)

    def count(self, record_type: str) -> None:
        """Count one record of *record_type* (the census)."""
        with self._lock:
            _add(self.events, record_type, 1)

    def observe(self, record: Dict[str, Any]) -> None:
        """Fold one live-shaped record (see :func:`normalize`)."""
        kind = record.get("type", "unknown")
        self.count(kind)
        if kind == "span-close":
            self.close_span(
                record["span"], record.get("parent"), record["name"],
                record.get("kind", "span"), record.get("duration_ms", 0.0),
                bool(record.get("open")),
            )
        elif kind == "primitive":
            self.primitive(
                record.get("span"), record["primitive"],
                record.get("backend", "unknown"), record.get("duration_ms", 0.0),
                bool(record.get("cache_hit")), record.get("rows_touched", 0),
                record.get("counters"),
            )
        elif kind == "pool":
            self.pool(record.get("event", "unknown"))

    # -- reading -------------------------------------------------------
    @property
    def queries(self) -> int:
        """Primitive events folded."""
        return sum(self.primitive_calls.values())

    @property
    def spans(self) -> int:
        """Spans folded, open ones included."""
        return sum(self.span_runs.values())

    def primitive_rollup(self, phase: Optional[str] = None) -> Dict[str, Dict[str, Any]]:
        """Per primitive calls, ms, cache hits/misses, rows — run or phase."""
        if phase is not None:
            return {
                name: dict(row, duration_ms=rounded_ms(row["duration_ms"]))
                for name, row in self.phase_primitives.get(phase, {}).items()
            }
        return {
            name: {
                "calls": calls,
                "duration_ms": rounded_ms(self.primitive_ms.get(name, 0.0)),
                "cache_hits": self.primitive_cache_hits.get(name, 0),
                "cache_misses": calls - self.primitive_cache_hits.get(name, 0),
                "rows_touched": self.primitive_rows.get(name, 0),
            }
            for name, calls in self.primitive_calls.items()
        }

    # -- combining and persistence ---------------------------------------
    def _load(self, document: Dict[str, Any]) -> None:
        for slot in _SUMS:
            _add_all(getattr(self, slot), document.get(slot) or {})
        for name, kind in (document.get("span_kind") or {}).items():
            self.span_kind.setdefault(name, kind)
        self.root_ms += document.get("root_ms") or 0.0

    def as_dict(self) -> Dict[str, Any]:
        """The run-level figures as one JSON-ready document."""
        with self._lock:
            document = {slot: _add_all({}, getattr(self, slot)) for slot in _SUMS}
            document.update(span_kind=dict(self.span_kind), root_ms=self.root_ms)
            return document

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "RunStats":
        """Rebuild from :meth:`as_dict` output; missing slots stay empty."""
        stats = cls()
        stats._load(document)
        return stats

    def merge(self, other: "RunStats") -> None:
        """Add *other*'s run-level figures into this one."""
        document = other.as_dict()
        with self._lock:
            self._load(document)

    def copy(self) -> "RunStats":
        """An independent snapshot, open-span subtrees included."""
        twin = RunStats.from_dict(self.as_dict())
        with self._lock:
            twin.queries_by_span = dict(self.queries_by_span)
            twin.self_ms_by_span = dict(self.self_ms_by_span)
            twin._open = {key: _add_all({}, sub) for key, sub in self._open.items()}
        return twin

    def __repr__(self) -> str:
        return f"RunStats(spans={self.spans}, queries={self.queries})"


def normalize(records: Iterable[Dict[str, Any]]) -> Iterator[Dict[str, Any]]:
    """Map ``repro/trace@1`` or ``repro/live@1`` records onto the fold.

    Yields live-shaped records: a trace ``event`` becomes a
    ``primitive``, a ``span`` a ``span-close``; every ``span-close``
    names its parent.  Trace spans follow every event, latest start
    first, so children close before their parents.
    """
    spans, parents = [], {}
    for record in records:
        kind = record.get("type")
        if kind == "span":
            spans.append(record)
        elif kind == "event":
            yield dict(record, type="primitive")
        elif kind == "span-close":
            yield dict(record, parent=parents.get(record["span"]))
        elif kind not in (None, "trace", "header"):
            if kind == "span-open":
                parents[record["span"]] = record.get("parent")
            yield record
    for span in sorted(spans, key=lambda s: (s["start_ms"], s["id"]), reverse=True):
        yield {
            "type": "span-close", "span": span["id"], "parent": span["parent"],
            "name": span["name"], "kind": span["kind"],
            "duration_ms": span["duration_ms"], "open": bool(span.get("open")),
        }


def fold_records(records: Iterable[Dict[str, Any]]) -> RunStats:
    """A new :class:`RunStats` folded from a file's records."""
    stats = RunStats()
    for record in normalize(records):
        stats.observe(record)
    return stats
