"""The extension-backend protocol.

§2 of the paper phrases every question the method asks the extension as
a query an SQL DBMS answers natively: ``select count distinct X from R``
(``||r[X]||``), equi-join cardinalities, FD satisfaction and inclusion
tests.  :class:`ExtensionBackend` abstracts *where* those questions are
answered — the in-memory engine that ships with the reproduction
(:class:`~repro.backends.memory.MemoryBackend`) or a live DBMS that
executes them as pushed-down SQL
(:class:`~repro.backends.sqlite.SQLiteBackend`).

The :class:`~repro.relational.database.Database` owns the schema ``R``,
the dependency set ``Δ`` and the :class:`QueryCounter`; the backend owns
the extension ``E``.  Every backend must implement

- the four instrumented primitives — ``count_distinct``, ``join_count``,
  ``fd_holds``, ``inclusion_holds`` — with identical semantics (NULLs
  skipped by distinct counts and joins, NULL treated as one marked value
  on FD right-hand sides);
- row access — ``table`` (a live :class:`~repro.relational.table.Table`
  view), ``insert``/``insert_many`` and ``rows``/``row_count`` scans;
- relation lifecycle — ``create_relation``, ``drop_relation``,
  ``replace_relation`` — each of which must invalidate any derived
  caches for the touched relation;
- the observability hook — a ``kind`` label and ``probe``, which
  reports (without side effects on the answer) whether a primitive call
  would be served from the backend's own cache and how many stored rows
  a cold evaluation would scan.  The
  :class:`~repro.obs.instrument.InstrumentedBackend` wrapper calls it
  before each primitive so exported traces carry cache hit/miss and
  rows-touched figures; the backends themselves never see the tracer.

Two further members are **optional** — the
:class:`~repro.engine.executor.BatchExecutor` sniffs for them and falls
back to serial primitive calls when they are absent, so third-party
backends that only implement the required surface keep working:

- ``execute_batch(probes)`` (see :class:`BatchCapableBackend`) answers
  a sequence of :class:`~repro.engine.probes.Probe` requests in one
  pass — :class:`~repro.backends.sqlite.SQLiteBackend` compiles a chunk
  into a single grouped statement of scalar subqueries.

The contract is executable: ``tests/backends/test_contract.py`` runs the
same assertions over every registered backend, including the batch hook
and its serial fallback.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Protocol, Sequence, Tuple, Union, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.probes import Probe
    from repro.relational.schema import DatabaseSchema, RelationSchema
    from repro.relational.table import Table

RowValues = Union[Sequence[Any], Mapping[str, Any]]


@runtime_checkable
class ExtensionBackend(Protocol):
    """Where the extension ``E`` lives and how it is queried.

    Implementations are interchangeable: the reverse-engineering method
    never touches tuples except through this interface, so pointing the
    pipeline at another storage engine is a constructor argument, not a
    refactor.
    """

    #: short label stamped on every exported trace event ("memory", ...)
    kind: str

    # -- lifecycle -----------------------------------------------------
    def attach(self, schema: "DatabaseSchema") -> None:
        """Bind to *schema*, creating storage for any missing relation.

        Called once by :class:`~repro.relational.database.Database` at
        construction.  Relations that already exist in the underlying
        store (e.g. a pre-populated ``.db`` file) are left untouched.
        """

    def spawn(self) -> "ExtensionBackend":
        """A fresh, empty sibling backend of the same kind.

        Used by :meth:`Database.copy` so a pipeline run against a SQLite
        extension restructures a SQLite extension, not an in-memory one.
        """

    def close(self) -> None:
        """Release any underlying resources (connections, caches)."""

    # -- relation lifecycle --------------------------------------------
    def create_relation(self, relation: "RelationSchema") -> "Table":
        """Create empty storage for *relation*; return its table view."""

    def drop_relation(self, name: str) -> None:
        """Drop the relation's storage and every cache entry about it."""

    def replace_relation(self, relation: "RelationSchema") -> "Table":
        """Swap in a modified schema, projecting the stored extension."""

    # -- row access ----------------------------------------------------
    def table(self, name: str) -> "Table":
        """The live :class:`Table` view of one relation's extension."""

    def insert(self, relation: str, values: RowValues) -> None:
        """Append one typed tuple (positional or by attribute name)."""

    def insert_many(self, relation: str, rows: Iterable[RowValues]) -> None:
        """Bulk append; semantically a loop over :meth:`insert`."""

    def rows(self, relation: str) -> Iterator[Tuple[Any, ...]]:
        """Scan the extension in insertion order as value tuples."""

    def row_count(self, relation: str) -> int:
        """``|r|`` — the extension's cardinality (duplicates counted)."""

    # -- the paper's instrumented query primitives ---------------------
    def count_distinct(self, relation: str, attrs: Sequence[str]) -> int:
        """``||r[X]||`` — select count distinct X from R (NULLs skipped)."""

    def join_count(
        self,
        left: str,
        left_attrs: Sequence[str],
        right: str,
        right_attrs: Sequence[str],
    ) -> int:
        """``||r_k[A_k] ⋈ r_l[A_l]||`` — distinct matching combinations."""

    def fd_holds(
        self, relation: str, lhs: Sequence[str], rhs: Sequence[str]
    ) -> bool:
        """Does ``lhs -> rhs`` hold in the stored extension?"""

    def inclusion_holds(
        self,
        left: str,
        left_attrs: Sequence[str],
        right: str,
        right_attrs: Sequence[str],
    ) -> bool:
        """Does ``R_left[A] ≪ R_right[B]`` hold in the stored extension?"""

    # -- observability hook --------------------------------------------
    def probe(
        self,
        primitive: str,
        relations: Tuple[str, ...],
        attributes: Tuple[Tuple[str, ...], ...],
    ) -> Tuple[bool, int]:
        """``(cache hit?, rows touched)`` for an imminent primitive call.

        *primitive* is one of the four primitive method names;
        *relations*/*attributes* mirror the call's arguments (for
        ``fd_holds`` one relation with the ``(lhs, rhs)`` tuples).  The
        probe must not change what the primitive will answer.  ``rows
        touched`` is the number of stored rows a cold evaluation scans,
        and 0 when the answer will come from a cache.
        """


@runtime_checkable
class BatchCapableBackend(ExtensionBackend, Protocol):
    """The optional batch hook of the counting-primitive engine.

    A backend that can answer many probes in one pass — a grouped SQL
    statement, a vectorized scan — implements :meth:`execute_batch` on
    top of the base contract.  The hook is discovered structurally
    (``callable(getattr(backend, "execute_batch", None))``); backends
    that omit it are driven probe-by-probe through the four primitives.
    """

    def execute_batch(self, probes: Sequence["Probe"]) -> "Sequence[Any]":
        """Answer every probe; results align with *probes* by position.

        Each result must be **identical** to what the corresponding
        serial primitive call would return (``int`` for counting
        probes, ``bool`` for ``fd_holds``/``inclusion_holds``), and any
        result memoization must honor the same invalidation rules as
        the serial path — the differential suite asserts both.
        """
