"""The in-memory extension backend.

Adapts the existing :class:`~repro.relational.table.Table` machinery to
the :class:`~repro.backends.base.ExtensionBackend` protocol.  This is
the seed engine of the reproduction: extensions are Python lists of
typed rows, primitives are answered by :mod:`repro.relational.algebra`,
and repeated ``||r[X]||`` probes are served from a distinct-value cache
guarded by each table's ``(generation, version)`` pair — the generation
guard is what makes a dropped-and-recreated relation (which can reach
the very same version as its predecessor) unable to alias a stale cache
entry.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Sequence, Tuple

from repro.exceptions import UnknownRelationError
from repro.relational import algebra
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.table import Table
from repro.backends.base import RowValues


class MemoryBackend:
    """Extension storage backed by in-process :class:`Table` objects."""

    kind = "memory"

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        # distinct-value cache, keyed by (relation, attrs) and guarded by
        # the table's (generation, version) — the engine's answer to the
        # many repeated ||r[X]|| probes the method issues.  The database
        # layer still counts every *logical* query; the cache only avoids
        # repeated physical scans.
        self._distinct_cache: Dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self, schema: DatabaseSchema) -> None:
        """Create an empty table for every relation not yet stored."""
        for relation in schema:
            if relation.name not in self._tables:
                self._tables[relation.name] = Table(relation)

    def spawn(self) -> "MemoryBackend":
        """A fresh, empty in-memory backend."""
        return MemoryBackend()

    def close(self) -> None:
        """Drop all tables and caches."""
        self._tables.clear()
        self._distinct_cache.clear()

    # ------------------------------------------------------------------
    # relation lifecycle
    # ------------------------------------------------------------------
    def create_relation(self, relation: RelationSchema) -> Table:
        """Create empty storage for *relation*; return its table."""
        self._invalidate(relation.name)
        table = Table(relation)
        self._tables[relation.name] = table
        return table

    def drop_relation(self, name: str) -> None:
        """Drop the table and every cache entry about it."""
        self.table(name)  # raises UnknownRelationError
        self._invalidate(name)
        del self._tables[name]

    def replace_relation(self, relation: RelationSchema) -> Table:
        """Swap a relation's schema, projecting its extension (Restruct)."""
        self._invalidate(relation.name)
        old = self.table(relation.name)
        table = old.with_schema(relation)
        self._tables[relation.name] = table
        return table

    # ------------------------------------------------------------------
    # row access
    # ------------------------------------------------------------------
    def table(self, name: str) -> Table:
        """The live table holding one relation's extension."""
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def insert(self, relation: str, values: RowValues) -> None:
        """Append one typed tuple to the relation's table."""
        self.table(relation).insert(values)

    def insert_many(self, relation: str, rows: Iterable[RowValues]) -> None:
        """Append many tuples to the relation's table."""
        self.table(relation).insert_many(rows)

    def rows(self, relation: str) -> Iterator[Tuple[Any, ...]]:
        """Scan the extension in insertion order."""
        for row in self.table(relation):
            yield row.values

    def row_count(self, relation: str) -> int:
        """``|r|`` for one relation."""
        return len(self.table(relation))

    # ------------------------------------------------------------------
    # the paper's query primitives
    # ------------------------------------------------------------------
    def _distinct(self, relation: str, attrs: Sequence[str]) -> frozenset:
        """Cached distinct non-NULL projections (generation+version guarded)."""
        table = self.table(relation)
        key = (relation, tuple(attrs))
        token = (table.generation, table.version)
        cached = self._distinct_cache.get(key)
        if cached is not None and cached[0] == token:
            return cached[1]
        values = frozenset(algebra.distinct_values(table, tuple(attrs)))
        self._distinct_cache[key] = (token, values)
        return values

    def count_distinct(self, relation: str, attrs: Sequence[str]) -> int:
        """``||r[X]||`` via the cached distinct set."""
        return len(self._distinct(relation, attrs))

    def join_count(
        self,
        left: str,
        left_attrs: Sequence[str],
        right: str,
        right_attrs: Sequence[str],
    ) -> int:
        """``||r_k[A_k] ⋈ r_l[A_l]||`` as a distinct-set intersection."""
        return len(
            self._distinct(left, left_attrs) & self._distinct(right, right_attrs)
        )

    def fd_holds(self, relation: str, lhs: Sequence[str], rhs: Sequence[str]) -> bool:
        """Single-pass partition check over the stored rows."""
        return algebra.functional_maps(self.table(relation), lhs, rhs)

    def inclusion_holds(
        self,
        left: str,
        left_attrs: Sequence[str],
        right: str,
        right_attrs: Sequence[str],
    ) -> bool:
        """Distinct-set containment test."""
        return self._distinct(left, left_attrs) <= self._distinct(
            right, right_attrs
        )

    # ------------------------------------------------------------------
    # observability hook
    # ------------------------------------------------------------------
    def probe(
        self,
        primitive: str,
        relations: Tuple[str, ...],
        attributes: Tuple[Tuple[str, ...], ...],
    ) -> Tuple[bool, int]:
        """``(cache hit?, rows touched)`` for an imminent primitive call.

        ``fd_holds`` is never cached (it is a single-pass partition
        check); the other three are hits exactly when every projection
        they need is in the distinct-value cache.  A cold side costs one
        scan of its table.
        """
        if primitive == "fd_holds":
            return False, self.row_count(relations[0])
        rows = 0
        for relation, attrs in zip(relations, attributes):
            if not self._distinct_cached(relation, attrs):
                rows += self.row_count(relation)
        return rows == 0, rows

    def _distinct_cached(self, relation: str, attrs: Sequence[str]) -> bool:
        """Is the distinct set for (relation, attrs) cached and fresh?"""
        table = self.table(relation)
        cached = self._distinct_cache.get((relation, tuple(attrs)))
        return cached is not None and cached[0] == (table.generation, table.version)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _invalidate(self, relation: str) -> None:
        """Purge cache entries for one relation (any schema mutation)."""
        stale = [k for k in self._distinct_cache if k[0] == relation]
        for k in stale:
            del self._distinct_cache[k]
