"""The end-to-end pipeline: wiring, instrumentation, input validation."""

import pytest

from repro.core import DBREPipeline
from repro.core.expert import AutoExpert


class TestInputs:
    def test_needs_exactly_one_source_of_q(self, paper_db, paper_corpus, paper_q):
        pipeline = DBREPipeline(paper_db)
        with pytest.raises(ValueError):
            pipeline.run()
        with pytest.raises(ValueError):
            pipeline.run(corpus=paper_corpus, equijoins=paper_q)

    def test_equijoins_path_equals_corpus_path(
        self, paper_db, paper_corpus, paper_q, paper_expert
    ):
        from repro.core import ScriptedExpert
        from repro.workloads.paper_example import paper_expert_script

        by_corpus = DBREPipeline(paper_db, paper_expert).run(corpus=paper_corpus)
        by_q = DBREPipeline(
            paper_db, ScriptedExpert(paper_expert_script())
        ).run(equijoins=paper_q)
        assert set(by_corpus.inds) == set(by_q.inds)
        assert set(by_corpus.fds) == set(by_q.fds)
        assert set(by_corpus.ric) == set(by_q.ric)


class TestNonDestructive:
    def test_original_database_untouched(self, paper_db, paper_corpus, paper_expert):
        before = {r.name: tuple(r.attribute_names) for r in paper_db.schema}
        DBREPipeline(paper_db, paper_expert).run(corpus=paper_corpus)
        after = {r.name: tuple(r.attribute_names) for r in paper_db.schema}
        assert before == after
        assert "Employee" not in paper_db.schema

    @pytest.mark.parametrize("backend", ["memory", "paged", "sqlite"])
    def test_original_extension_untouched(self, backend, paper_corpus, paper_expert):
        """Restruct's writes land on the pipeline's fork, never on the
        caller's extension: rows and distinct counts stay as they were."""
        from repro.backends import create_backend
        from repro.workloads.paper_example import build_paper_database

        options = {"pool_pages": 8, "page_size": 256} if backend == "paged" else {}
        db = build_paper_database(backend=create_backend(backend, **options))

        def extension():
            return {
                r.name: (
                    list(db.backend.rows(r.name)),
                    [db.count_distinct(r.name, (a,)) for a in r.attribute_names],
                )
                for r in db.schema
            }

        before = extension()
        result = DBREPipeline(db, paper_expert).run(corpus=paper_corpus)
        assert result.restructured.schema.relation_names != db.schema.relation_names
        assert extension() == before
        db.close()

    def test_restructured_is_a_new_database(self, paper_db, paper_corpus, paper_expert):
        result = DBREPipeline(paper_db, paper_expert).run(corpus=paper_corpus)
        assert result.restructured is not paper_db
        assert "Employee" in result.restructured.schema


class TestInstrumentation:
    def test_counts_populated(self, paper_db, paper_corpus, paper_expert):
        result = DBREPipeline(paper_db, paper_expert).run(corpus=paper_corpus)
        assert result.extension_queries > 0
        assert result.expert_decisions > 0

    def test_translate_can_be_skipped(self, paper_db, paper_corpus, paper_expert):
        result = DBREPipeline(paper_db, paper_expert).run(
            corpus=paper_corpus, translate=False
        )
        assert result.eer is None
        assert result.ric      # restruct still ran

    def test_translation_notes_exposed(self, paper_db, paper_corpus, paper_expert):
        result = DBREPipeline(paper_db, paper_expert).run(corpus=paper_corpus)
        assert any("is-a" in note for note in result.translation_notes)
        assert any(
            "relationship-type" in note for note in result.translation_notes
        )

    def test_k_n_computed_first(self, paper_db, paper_corpus, paper_expert):
        from repro.workloads.paper_example import PAPER_EXPECTED

        result = DBREPipeline(paper_db, paper_expert).run(corpus=paper_corpus)
        assert tuple(result.key_set) == PAPER_EXPECTED.key_set
        assert tuple(result.not_null_set) == PAPER_EXPECTED.not_null_set


class TestAutoExpertRun:
    def test_pipeline_runs_fully_automatic(self, paper_db, paper_corpus):
        """Without any scripted knowledge the pipeline still terminates,
        eliciting only what the data supports unambiguously."""
        result = DBREPipeline(paper_db, AutoExpert()).run(corpus=paper_corpus)
        # the NEI join is ignored (overlap 6/8 < 0.95): 5 INDs minus
        # the conceptualization path
        assert len(result.inds) == 4
        assert result.eer is not None
