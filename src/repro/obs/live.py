"""Live telemetry: the ``repro/live@1`` event bus over one tracer.

The tracer's spans and primitive events were, until now, visible only
post-hoc — a JSONL export after the run.  This module makes the *same*
one-event-stream design observable while the run is still going:

- :class:`LiveBus` — a thread-safe publish/subscribe hub one
  :class:`~repro.obs.tracer.Tracer` can attach.  Every span open, span
  close, primitive call, progress tick and worker-pool incident becomes
  one ``repro/live@1`` dict with a monotonically increasing ``seq``;
  the bus keeps a **bounded** record history (``history_limit``, oldest
  first to go) so late consumers can replay from a sequence number (the
  SSE endpoint's ``Last-Event-ID``) without the bus growing without
  bound on a long-lived service.
- the record census — every publish counts its record type into the
  tracer's :class:`~repro.obs.stats.RunStats` (the fold that also holds
  the run's phase, primitive, storage and pool figures), so a metrics
  scrape reads totals without rescanning the history, and the totals
  survive history trimming.
- :class:`LiveSubscription` — one consumer's **bounded** queue.  A slow
  consumer never stalls the pipeline: when the queue is full the bus
  drops the record and counts it (``subscription.dropped``), and the
  retained history lets the consumer re-sync by replay.  Replaying a
  long backlog should page :meth:`LiveBus.history` directly (as the
  SSE endpoint does) rather than funnel it through the bounded queue.
- **Snapshot-then-tail** — a subscriber that attaches mid-run first
  receives a ``span-open`` record for every span still open (in stack
  order), so its view of the run starts consistent, then tails new
  records as they are published.

The bus costs nothing when unused: a tracer without subscribers carries
``_live = None`` and every publishing hook is a single attribute test —
the S13 benchmark and the ``s13-live-head`` regression gate enforce
that the no-subscriber pipeline stays within noise of the pre-bus
baseline.

Record shapes (all carry ``type``, ``seq`` and ``ts_ms`` — milliseconds
since the bus attached):

- ``span-open`` — ``span``, ``parent``, ``name``, ``kind``,
  ``attributes`` (+ ``snapshot: true`` when synthesized for a mid-run
  attach or subscribe);
- ``span-close`` — ``span``, ``name``, ``kind``, ``duration_ms``,
  ``attributes`` (the attributes as of close, counts included);
- ``primitive`` — ``span``, ``primitive``, ``backend``, ``relations``,
  ``duration_ms``, ``cache_hit``, ``rows_touched``;
- ``progress`` — ``span``, ``phase``, ``message``, optional
  ``current``/``total`` plus any caller attributes;
- ``pool`` — ``event`` (``respawn`` / ``timeout`` / ``crash`` /
  ``fallback``), plus the incident's details;
- ``end`` — the clean end-of-run sentinel the job manager publishes
  (``job``, ``state``); consumers stop tailing when they see it.

:func:`write_live_jsonl` / :func:`read_live_jsonl` round-trip a
captured stream with the same JSONL discipline as every other export
(header record first); ``scripts/validate_exports.py`` exercises the
round-trip in CI.  :func:`summarize_live` renders a capture from the
same fold: :func:`repro.obs.stats.fold_records` over its records.
"""

from __future__ import annotations

import time
from collections import deque
from itertools import islice
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional

import threading

from repro.obs.stats import RunStats, fold_records, to_ms as _ms
from repro.util.jsonl import load_jsonl, save_jsonl

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracer import SpanRecord

__all__ = [
    "LIVE_FORMAT",
    "LIVE_EVENT_TYPES",
    "DEFAULT_QUEUE_SIZE",
    "DEFAULT_HISTORY_LIMIT",
    "LiveSubscription",
    "LiveBus",
    "live_records",
    "write_live_jsonl",
    "read_live_jsonl",
    "check_live_records",
    "summarize_live",
]

#: the versioned format tag of the live-event stream
LIVE_FORMAT = "repro/live@1"

#: every record type the bus publishes
LIVE_EVENT_TYPES = (
    "span-open",
    "span-close",
    "primitive",
    "progress",
    "pool",
    "end",
)

#: per-subscriber queue bound; past it the bus drops (and counts) records
DEFAULT_QUEUE_SIZE = 1024

#: per-bus history bound; past it the oldest records are trimmed (the
#: census in the bus's :class:`~repro.obs.stats.RunStats` keeps counting)
DEFAULT_HISTORY_LIMIT = 65536


class LiveSubscription:
    """One consumer's bounded view of a :class:`LiveBus`.

    Records arrive in publication order.  :meth:`get` blocks up to a
    timeout; :meth:`drain` empties the queue without blocking.  When the
    queue is full the *bus* drops the newest record and increments
    :attr:`dropped` — the producing pipeline never waits on a consumer.
    A dropped record is recoverable while the bounded bus history still
    retains it: page :meth:`LiveBus.history` from the last seen seq (as
    the SSE endpoint does when it detects a gap).
    """

    def __init__(self, bus: "LiveBus", maxsize: int = DEFAULT_QUEUE_SIZE) -> None:
        self._bus = bus
        self.maxsize = max(1, maxsize)
        self._queue: deque = deque()
        self._ready = threading.Condition(threading.Lock())
        #: records the bus dropped because this queue was full
        self.dropped = 0
        self.closed = False

    # -- bus side ------------------------------------------------------
    def _offer(self, record: Dict[str, Any]) -> None:
        """Enqueue *record*, or count a drop when the queue is full."""
        with self._ready:
            if self.closed:
                return
            if len(self._queue) >= self.maxsize:
                self.dropped += 1
                return
            self._queue.append(record)
            self._ready.notify()

    # -- consumer side -------------------------------------------------
    def get(self, timeout: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """The next record, or None when *timeout* elapses first."""
        with self._ready:
            if not self._queue:
                self._ready.wait(timeout)
            if self._queue:
                return self._queue.popleft()
            return None

    def drain(self) -> List[Dict[str, Any]]:
        """Every queued record, without blocking."""
        with self._ready:
            records = list(self._queue)
            self._queue.clear()
            return records

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        """Iterate queued records until the queue is momentarily empty."""
        while True:
            record = self.get(timeout=0)
            if record is None:
                return
            yield record

    def close(self) -> None:
        """Detach from the bus; pending records are discarded."""
        self._bus.unsubscribe(self)

    def __enter__(self) -> "LiveSubscription":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"{len(self._queue)} queued"
        return f"LiveSubscription({state}, dropped={self.dropped})"


class LiveBus:
    """Thread-safe fan-out of one tracer's live telemetry.

    Publication assigns each record a ``seq`` (1-based, monotonic) and a
    ``ts_ms`` relative to the bus' attach time, appends it to the
    history, counts its type into :attr:`stats` (the attaching tracer's
    fold), and offers it to every subscription.  All of that happens
    under one lock, so subscribers observe a single total order — the
    same order the history records.

    The history is bounded by *history_limit*: past it the oldest
    records are trimmed (``seq`` stays contiguous among the retained
    tail, :attr:`trimmed` counts what is gone), so a long-lived service
    holds at most *history_limit* raw records per run while the census
    keeps the full totals.
    """

    def __init__(
        self,
        clock=time.perf_counter,
        history_limit: int = DEFAULT_HISTORY_LIMIT,
        stats: Optional[RunStats] = None,
    ) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._subscriptions: List[LiveSubscription] = []
        self._history: deque = deque()
        self._history_limit = max(1, history_limit)
        self._trimmed = 0
        #: the fold the census lands in (the tracer's, once attached)
        self.stats = stats if stats is not None else RunStats()
        self._open: Dict[int, Dict[str, Any]] = {}
        self._seq = 0
        self._dropped_detached = 0
        self._base = clock()

    # -- publication (the tracer side) ---------------------------------
    def publish(self, type: str, **fields: Any) -> Dict[str, Any]:
        """Publish one record; returns it with ``seq``/``ts_ms`` set."""
        with self._lock:
            self._seq += 1
            record = {
                "type": type,
                "seq": self._seq,
                "ts_ms": _ms(self._clock() - self._base),
            }
            record.update(fields)
            self._history.append(record)
            self.stats.count(type)
            while len(self._history) > self._history_limit:
                self._history.popleft()
                self._trimmed += 1
            if type == "span-open":
                self._open[record["span"]] = record
            elif type == "span-close":
                self._open.pop(record["span"], None)
            for subscription in self._subscriptions:
                subscription._offer(record)
            return record

    def span_opened(self, span: "SpanRecord", snapshot: bool = False) -> None:
        """Publish the ``span-open`` record of *span*."""
        record = {
            "span": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "kind": span.kind,
            "attributes": dict(span.attributes),
        }
        if snapshot:
            record["snapshot"] = True
        self.publish("span-open", **record)

    def span_closed(self, span: "SpanRecord") -> None:
        """Publish the ``span-close`` record of *span*."""
        self.publish(
            "span-close",
            span=span.span_id,
            name=span.name,
            kind=span.kind,
            duration_ms=_ms(span.duration),
            attributes=dict(span.attributes),
        )

    # -- subscription (the consumer side) ------------------------------
    def subscribe(
        self,
        maxsize: int = DEFAULT_QUEUE_SIZE,
        replay_from: Optional[int] = None,
    ) -> LiveSubscription:
        """Attach one consumer; snapshot-then-tail by default.

        With ``replay_from=N`` the subscription is pre-filled with every
        history record whose ``seq`` exceeds *N* (the SSE endpoint's
        ``Last-Event-ID`` resume).  Without it, the subscription is
        pre-filled with the ``span-open`` records of every span still
        open — a consistent starting view for a mid-run attach — and
        then tails.
        """
        with self._lock:
            subscription = LiveSubscription(self, maxsize=maxsize)
            if replay_from is not None:
                backlog = [
                    record
                    for record in self._history
                    if record["seq"] > replay_from
                ]
            else:
                backlog = [
                    dict(record, snapshot=True)
                    for record in sorted(
                        self._open.values(), key=lambda r: r["seq"]
                    )
                ]
            for record in backlog:
                subscription._offer(record)
            self._subscriptions.append(subscription)
            return subscription

    def unsubscribe(self, subscription: LiveSubscription) -> None:
        """Detach *subscription*; publishing to it stops immediately."""
        with self._lock:
            subscription.closed = True
            try:
                self._subscriptions.remove(subscription)
            except ValueError:
                pass
            else:
                # keep the detached consumer's drops in the bus total
                self._dropped_detached += subscription.dropped

    # -- introspection -------------------------------------------------
    @property
    def subscribers(self) -> int:
        """How many subscriptions are currently attached."""
        with self._lock:
            return len(self._subscriptions)

    @property
    def last_seq(self) -> int:
        """The sequence number of the latest published record (0 = none)."""
        with self._lock:
            return self._seq

    @property
    def trimmed(self) -> int:
        """Records the bounded history has trimmed (lowest seqs first)."""
        with self._lock:
            return self._trimmed

    def history(self, since: int = 0) -> List[Dict[str, Any]]:
        """Every *retained* record with ``seq > since``, oldest first.

        Records already trimmed by the history bound are gone for good:
        when ``since`` predates :attr:`trimmed`, the returned page
        starts at the oldest retained record (its ``seq`` exceeds
        ``since + 1`` — a detectable gap).
        """
        with self._lock:
            # retained seqs are contiguous: _trimmed+1 .. _seq
            start = max(0, since - self._trimmed)
            if start == 0:
                return list(self._history)
            if start >= len(self._history):
                return []
            return list(islice(self._history, start, None))

    def dropped(self) -> int:
        """Records dropped across every subscription, ever attached."""
        with self._lock:
            return self._dropped_detached + sum(
                s.dropped for s in self._subscriptions
            )

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"LiveBus(seq={self._seq}, "
                f"subscribers={len(self._subscriptions)})"
            )


# ----------------------------------------------------------------------
# the repro/live@1 file format
# ----------------------------------------------------------------------
def live_records(source) -> List[Dict[str, Any]]:
    """A captured stream as JSON-ready records, header first.

    *source* is a :class:`LiveBus`, or any iterable of already-published
    record dicts (e.g. records parsed back out of an SSE capture).
    """
    records = source.history() if isinstance(source, LiveBus) else list(source)
    counts: Dict[str, int] = {}
    for record in records:
        counts[record["type"]] = counts.get(record["type"], 0) + 1
    header = {
        "type": "header",
        "format": LIVE_FORMAT,
        "events": len(records),
        "counts": counts,
    }
    return [header] + records


def write_live_jsonl(source, path: str) -> List[Dict[str, Any]]:
    """Write a captured stream to *path*; returns the records written."""
    records = live_records(source)
    save_jsonl(records, path)
    return records


def summarize_live(records: List[Dict[str, Any]]) -> str:
    """Render a captured ``repro/live@1`` stream as a readable summary.

    *records* may include the header record.  The summary is the
    capture's fold: records per type, each phase's runs and summed
    duration, and the terminal ``end`` record when the capture carries
    one — the live-stream analogue of ``repro trace summarize``.
    """
    from repro.util.text import format_table

    body = [r for r in records if r.get("type") in LIVE_EVENT_TYPES]
    stats = fold_records(body)
    span = (
        f"{body[0].get('ts_ms', 0.0):.0f}..{body[-1].get('ts_ms', 0.0):.0f} ms"
        if body
        else "empty"
    )
    lines = [f"# Live capture — {len(body)} record(s), {span}"]
    if stats.events:
        lines.append(
            format_table(["type", "records"], sorted(stats.events.items()))
        )
    if stats.phase_runs:
        lines.append("")
        lines.append("# Phases")
        lines.append(
            format_table(
                ["phase", "runs", "duration ms"],
                [
                    [name, runs, f"{stats.phase_ms[name]:.3f}"]
                    for name, runs in stats.phase_runs.items()
                ],
            )
        )
    if body and body[-1]["type"] == "end":
        end = body[-1]
        lines.append("")
        lines.append(
            f"# End — {end.get('job', '?')} finished {end.get('state') or 'unknown'}"
        )
    return "\n".join(lines)


def read_live_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read a ``repro/live@1`` stream back, validating the header.

    Raises :class:`ValueError` when the header tag or its event count
    disagrees with the stream, or a record carries an unknown type.
    """
    records = load_jsonl(path)
    if not records or records[0].get("format") != LIVE_FORMAT:
        raise ValueError(f"not a {LIVE_FORMAT} stream: {path!r}")
    check_live_records(records, path)
    return records


def check_live_records(records: List[Dict[str, Any]], path: str) -> None:
    """Raise :class:`ValueError` unless the body matches its header.

    Catches a truncated capture (fewer records than the header counts)
    and records of a type the format does not define.
    """
    header, body = records[0], records[1:]
    if header.get("events") != len(body):
        raise ValueError(
            f"{path}: header claims {header.get('events')} event(s), "
            f"file carries {len(body)}"
        )
    for index, record in enumerate(body, start=1):
        if record.get("type") not in LIVE_EVENT_TYPES:
            raise ValueError(
                f"{path}: record {index} has unknown type "
                f"{record.get('type')!r}"
            )
