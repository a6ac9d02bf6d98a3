"""SQLite backend specifics: introspection, persistence, caching, e2e.

The contract suite (test_contract.py) proves the primitives agree with
the in-memory engine; this module covers what only the SQLite backend
does — reading ``K``/``N`` from the data dictionary, the ``.db``
round trip, statement/result caching against the engine, and the
acceptance path: reverse-engineering a ``.db`` file produces the same
3NF schema, RIC set and EER diagram as the in-memory seed.
"""

import sqlite3

import pytest

from repro.backends import (
    SQLiteBackend,
    dtype_from_declared,
    introspect_schema,
    open_sqlite,
)
from repro.core import DBREPipeline, ScriptedExpert
from repro.exceptions import DataError
from repro.relational.domain import BOOLEAN, DATE, INTEGER, NULL, REAL, TEXT
from repro.storage.sqlite_io import declared_table_sql, save_sqlite
from repro.workloads.paper_example import (
    PAPER_EXPECTED,
    build_paper_database,
    paper_expert_script,
    paper_program_corpus,
)


class TestDtypeFromDeclared:
    @pytest.mark.parametrize(
        "declared, expected",
        [
            ("INTEGER", INTEGER),
            ("int", INTEGER),
            ("BIGINT", INTEGER),
            ("TEXT", TEXT),
            ("VARCHAR(40)", TEXT),
            ("NCHAR(10)", TEXT),
            ("CLOB", TEXT),
            ("REAL", REAL),
            ("DOUBLE PRECISION", REAL),
            ("FLOAT", REAL),
            ("NUMERIC(9, 2)", REAL),
            ("DECIMAL", REAL),
            ("DATE", DATE),
            ("DATETIME", DATE),
            ("TIMESTAMP", DATE),
            ("BOOLEAN", BOOLEAN),
            ("BOOL", BOOLEAN),
            (None, TEXT),
            ("", TEXT),
            ("BLOB", TEXT),
        ],
    )
    def test_affinity_mapping(self, declared, expected):
        assert dtype_from_declared(declared) == expected

    def test_bool_and_date_win_over_numeric_affinity(self):
        # 'BOOLEAN' contains no INT, but 'DATETIME' would match nothing
        # numeric either — the real traps are the combined names
        assert dtype_from_declared("BOOLEAN DEFAULT 0") == BOOLEAN
        assert dtype_from_declared("DATE NOT NULL") == DATE


class TestIntrospectSchema:
    @pytest.fixture
    def conn(self):
        conn = sqlite3.connect(":memory:")
        yield conn
        conn.close()

    def test_table_info_maps_to_k_and_n(self, conn):
        conn.execute(
            'CREATE TABLE "t" ('
            '"id" INTEGER NOT NULL, "name" VARCHAR(40), '
            '"born" DATE, "score" REAL NOT NULL, '
            'PRIMARY KEY ("id"))'
        )
        schema = introspect_schema(conn)
        rel = schema.relation("t")
        assert tuple(rel.attribute_names) == ("id", "name", "born", "score")
        assert rel.primary_key().names == ("id",)
        non_null = {a.name for a in rel.attributes if not a.nullable}
        assert non_null == {"id", "score"}
        assert rel.attribute("born").dtype == DATE

    def test_unique_indexes_join_the_key_set(self, conn):
        conn.execute(
            "CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT, c TEXT)"
        )
        conn.execute("CREATE UNIQUE INDEX u_bc ON t (b, c)")
        conn.execute("CREATE INDEX plain_c ON t (c)")  # not unique: ignored
        rel = introspect_schema(conn).relation("t")
        uniques = {u.attributes.names for u in rel.uniques}
        assert uniques == {("a",), ("b", "c")}

    def test_partial_and_expression_indexes_are_skipped(self, conn):
        conn.execute("CREATE TABLE t (a INTEGER, b TEXT)")
        conn.execute(
            "CREATE UNIQUE INDEX part ON t (a) WHERE b IS NOT NULL"
        )
        conn.execute("CREATE UNIQUE INDEX expr ON t (lower(b))")
        rel = introspect_schema(conn).relation("t")
        assert rel.uniques == ()

    def test_internal_sqlite_tables_are_ignored(self, conn):
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("CREATE UNIQUE INDEX u_a ON t (a)")  # sqlite_autoindex
        schema = introspect_schema(conn)
        assert list(schema.relation_names) == ["t"]

    def test_multi_column_pk_keeps_declared_order(self, conn):
        conn.execute(
            "CREATE TABLE t (x TEXT, y INTEGER, z DATE, "
            "PRIMARY KEY (y, x))"
        )
        rel = introspect_schema(conn).relation("t")
        assert rel.primary_key().names == ("y", "x")


class TestSaveAndOpen:
    def test_declared_table_sql_carries_the_dictionary(self):
        db = build_paper_database()
        sql = declared_table_sql(db.schema.relation("Person"))
        assert 'PRIMARY KEY ("id")' in sql
        assert '"id" INTEGER NOT NULL' in sql
        assert '"zip-code"' in sql  # hyphenated names survive quoting

    def test_round_trip_recovers_k_and_n(self, tmp_path):
        path = str(tmp_path / "paper.db")
        save_sqlite(build_paper_database(), path)
        db = open_sqlite(path)
        try:
            assert tuple(db.schema.key_set()) == PAPER_EXPECTED.key_set
            assert (
                tuple(db.schema.not_null_set()) == PAPER_EXPECTED.not_null_set
            )
            assert db.count_distinct("Person", ("id",)) == 22
        finally:
            db.close()

    def test_round_trip_preserves_values_and_nulls(self, tmp_path):
        path = str(tmp_path / "paper.db")
        original = build_paper_database()
        save_sqlite(original, path)
        db = open_sqlite(path)
        try:
            assert list(db.backend.rows("Department")) == list(
                original.backend.rows("Department")
            )
            assert any(
                values[1] is NULL for values in db.backend.rows("Department")
            )
        finally:
            db.close()

    def test_dirty_extension_refuses_to_save(self, tmp_path):
        db = build_paper_database()
        first = next(db.backend.rows("Person"))
        db.insert("Person", first)  # duplicate declared key
        with pytest.raises(DataError):
            save_sqlite(db, str(tmp_path / "dirty.db"))

    def test_dirty_save_leaves_no_half_written_file(self, tmp_path):
        db = build_paper_database()
        db.insert("Person", next(db.backend.rows("Person")))
        path = tmp_path / "dirty.db"
        with pytest.raises(DataError):
            save_sqlite(db, str(path))
        assert not path.exists()

    def test_missing_file_is_an_error_not_an_empty_database(self, tmp_path):
        path = tmp_path / "nope.db"
        with pytest.raises(DataError):
            open_sqlite(str(path))
        assert not path.exists()  # and nothing was created as a side effect

    def test_non_sqlite_file_is_a_clean_error(self, tmp_path):
        path = tmp_path / "garbage.db"
        path.write_bytes(b"\x00\x01not a database\xff" * 10)
        with pytest.raises(DataError):
            open_sqlite(str(path))

    def test_open_from_connection(self):
        conn = sqlite3.connect(":memory:")
        conn.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b BOOLEAN)")
        conn.execute("INSERT INTO t VALUES (1, 1), (2, 0), (3, NULL)")
        db = open_sqlite(conn)
        try:
            values = [row[1] for row in db.backend.rows("t")]
            assert values == [True, False, NULL]
            assert db.count_distinct("t", ("b",)) == 2
        finally:
            db.close()
            conn.close()  # open_sqlite does not own a passed connection


class TestFork:
    """``copy()`` forks a ``.db`` extension inside SQLite, keeping only
    the schema's relations, each as a constraint-free backend table."""

    def test_fork_holds_exactly_the_schema_relations(self, tmp_path):
        path = str(tmp_path / "paper.db")
        save_sqlite(build_paper_database(), path)
        db = open_sqlite(path)
        conn = db.backend.connection
        conn.execute("CREATE TABLE stray (x INTEGER)")
        conn.execute('CREATE VIEW people AS SELECT "id" FROM "Person"')
        conn.execute('CREATE INDEX person_name ON "Person" ("name")')
        conn.commit()
        try:
            clone = db.copy()
            stored = dict(
                clone.backend.connection.execute(
                    "SELECT name, sql FROM sqlite_master"
                ).fetchall()
            )
            assert set(stored) == set(db.schema.relation_names)
            for relation in db.schema:
                assert stored[relation.name] == (
                    clone.backend._create_table_sql(relation)
                )
                assert list(clone.backend.rows(relation.name)) == list(
                    db.backend.rows(relation.name)
                )
            # the declared key is gone from the fork: dirty data fits
            clone.insert("Person", next(db.backend.rows("Person")))
            assert clone.backend.row_count("Person") == 23
            assert db.backend.row_count("Person") == 22
        finally:
            db.close()

    def test_without_rowid_table_keeps_its_rows(self):
        conn = sqlite3.connect(":memory:")
        conn.execute("CREATE TABLE w (a INTEGER PRIMARY KEY, b TEXT) WITHOUT ROWID")
        conn.execute("INSERT INTO w VALUES (2, 'y'), (1, 'x')")
        db = open_sqlite(conn)
        try:
            clone = db.copy()
            assert list(clone.backend.rows("w")) == list(db.backend.rows("w"))
        finally:
            db.close()
            conn.close()


class TestStatementCaching:
    @pytest.fixture
    def db(self):
        return build_paper_database(backend=SQLiteBackend())

    def _traced(self, db):
        statements = []
        db.backend.connection.set_trace_callback(statements.append)
        return statements

    def test_repeat_query_hits_the_result_memo(self, db):
        db.count_distinct("Person", ("id",))
        statements = self._traced(db)
        assert db.count_distinct("Person", ("id",)) == 22
        assert statements == []  # answered from the memo, engine untouched

    def test_write_invalidates_result_but_reuses_statement(self, db):
        assert db.count_distinct("Person", ("id",)) == 22
        db.insert("Person", [99, "x", "y", 1, "69100", "Rhone"])
        statements = self._traced(db)
        assert db.count_distinct("Person", ("id",)) == 23
        distinct_queries = [s for s in statements if "DISTINCT" in s]
        assert len(distinct_queries) == 1  # recompiled? no — re-executed once

    def test_write_to_one_relation_keeps_other_memos(self, db):
        db.count_distinct("Person", ("id",))
        db.count_distinct("Department", ("dep",))
        db.insert("Person", [99, "x", "y", 1, "69100", "Rhone"])
        statements = self._traced(db)
        assert db.count_distinct("Department", ("dep",)) == 8
        assert statements == []  # Department memo survived the Person write

    def test_join_memo_guards_both_relations(self, db):
        assert db.join_count("HEmployee", ("no",), "Person", ("id",)) == 15
        db.insert("Person", [200, "x", "y", 1, "69100", "Rhone"])
        db.insert("HEmployee", {"no": 200, "date": "1996-02-26", "salary": 1})
        statements = self._traced(db)
        assert db.join_count("HEmployee", ("no",), "Person", ("id",)) == 16
        assert any("INTERSECT" in s for s in statements)

    def test_ddl_purges_compiled_statements(self, db):
        db.count_distinct("Person", ("id",))
        assert any(
            "Person" in key for key in db.backend._statements
        )
        db.drop_relation("Person")
        assert not any(
            "Person" in key for key in db.backend._statements
        )
        assert not any("Person" in key for key in db.backend._results)


class TestEndToEnd:
    """The acceptance criterion: a ``.db`` file reverse-engineers to the
    same 3NF schema, RIC set and EER diagram as the in-memory path, with
    ``K``/``N`` taken from SQLite's data dictionary."""

    @pytest.fixture(scope="class")
    def memory_result(self):
        return DBREPipeline(
            build_paper_database(), ScriptedExpert(paper_expert_script())
        ).run(corpus=paper_program_corpus())

    @pytest.fixture(scope="class")
    def sqlite_result(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("e2e") / "paper.db")
        save_sqlite(build_paper_database(), path)
        db = open_sqlite(path)
        result = DBREPipeline(
            db, ScriptedExpert(paper_expert_script())
        ).run(corpus=paper_program_corpus())
        db.close()
        return result

    def test_dictionary_k_n_match_the_declared_inputs(self, sqlite_result):
        assert tuple(sqlite_result.key_set) == PAPER_EXPECTED.key_set
        assert tuple(sqlite_result.not_null_set) == PAPER_EXPECTED.not_null_set

    def test_same_dependencies(self, memory_result, sqlite_result):
        assert set(sqlite_result.inds) == set(memory_result.inds)
        assert set(sqlite_result.fds) == set(memory_result.fds)
        assert set(sqlite_result.hidden) == set(memory_result.hidden)

    def test_same_3nf_schema_and_ric(self, memory_result, sqlite_result):
        assert {
            r.name: tuple(r.attribute_names)
            for r in sqlite_result.restructured.schema
        } == {
            r.name: tuple(r.attribute_names)
            for r in memory_result.restructured.schema
        }
        assert set(sqlite_result.ric) == set(memory_result.ric)
        assert set(sqlite_result.ric) == set(PAPER_EXPECTED.ric)

    def test_same_eer_diagram(self, memory_result, sqlite_result):
        assert {e.name for e in sqlite_result.eer.entities} == {
            e.name for e in memory_result.eer.entities
        }
        assert {
            (l.sub, l.sup) for l in sqlite_result.eer.isa_links
        } == {(l.sub, l.sup) for l in memory_result.eer.isa_links}

    def test_same_query_budget(self, memory_result, sqlite_result):
        """Pushdown changes where queries run, never how many are asked."""
        assert (
            sqlite_result.extension_queries == memory_result.extension_queries
        )
