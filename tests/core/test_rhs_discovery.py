"""RHS-Discovery (§6.2.2): pruning rules, extension tests, expert paths."""

import pytest

from repro.core.expert import AutoExpert, Expert, ScriptedExpert
from repro.core.rhs_discovery import RHSDiscovery, discover_rhs
from repro.dependencies.fd import FunctionalDependency as FD
from repro.relational.attribute import AttributeRef
from repro.relational.database import Database
from repro.relational.domain import INTEGER, NULL
from repro.relational.schema import DatabaseSchema, RelationSchema


@pytest.fixture
def db():
    """R(k*, f, dep1, dep2, mand!) with f -> dep1 and f -> mand holding."""
    schema = DatabaseSchema(
        [
            RelationSchema.build(
                "R",
                ["k", "f", "dep1", "dep2", "mand"],
                key=["k"],
                not_null=["mand"],
                types={"k": INTEGER, "f": INTEGER},
            )
        ]
    )
    db = Database(schema)
    db.insert_many(
        "R",
        [
            [1, 10, "a", "p", "m1"],
            [2, 10, "a", "q", "m1"],
            [3, 11, "b", "p", "m2"],
            [4, NULL, "c", "r", "m3"],
        ],
    )
    return db


REF_F = AttributeRef("R", "f")


class TestPruning:
    def test_key_attributes_pruned(self, db):
        result = discover_rhs(db, [REF_F], [])
        outcome = result.outcomes[0]
        assert "k" in outcome.pruned_keys

    def test_nullable_lhs_prunes_not_null_candidates(self, db):
        # f is nullable -> the not-null attribute mand leaves T
        result = discover_rhs(db, [REF_F], [])
        outcome = result.outcomes[0]
        assert "mand" in outcome.pruned_not_null
        assert "mand" not in outcome.candidates

    def test_not_null_lhs_keeps_not_null_candidates(self):
        schema = DatabaseSchema(
            [
                RelationSchema.build(
                    "R", ["k", "f", "mand"], key=["k"], not_null=["f", "mand"],
                    types={"k": INTEGER, "f": INTEGER},
                )
            ]
        )
        db = Database(schema)
        db.insert_many("R", [[1, 10, "a"], [2, 10, "a"]])
        result = discover_rhs(db, [AttributeRef("R", "f")], [])
        assert "mand" in result.outcomes[0].candidates


class TestElicitation:
    def test_holding_fd_elicited(self, db):
        result = discover_rhs(db, [REF_F], [])
        assert result.fds == [FD("R", ("f",), ("dep1",))]
        assert result.outcomes[0].action == "fd"

    def test_failing_candidate_excluded(self, db):
        result = discover_rhs(db, [REF_F], [])
        assert all("dep2" not in fd.rhs for fd in result.fds)

    def test_expert_can_enforce_failure(self, db):
        expert = ScriptedExpert({"enforce:R: f -> dep2": True})
        result = discover_rhs(db, [REF_F], [], expert)
        assert result.fds == [FD("R", ("f",), ("dep1", "dep2"))]
        assert result.outcomes[0].enforced == ("dep2",)

    def test_expert_can_reject_validation(self, db):
        expert = ScriptedExpert({"validate:R: f -> dep1": False})
        result = discover_rhs(db, [REF_F], [], expert)
        assert result.fds == []
        assert result.outcomes[0].action == "rejected"


class TestPruningAblationFlags:
    def test_disable_key_pruning(self, db):
        step = RHSDiscovery(db, prune_keys=False)
        result = step.run([REF_F], [])
        outcome = result.outcomes[0]
        assert outcome.pruned_keys == ()
        # the key attribute is not-null (unique implies not null), so
        # with a nullable LHS it is now caught by the *other* rule
        assert "k" in outcome.pruned_not_null

    def test_disable_both_rules_tests_everything(self, db):
        step = RHSDiscovery(db, prune_keys=False, prune_not_null=False)
        result = step.run([REF_F], [])
        outcome = result.outcomes[0]
        assert set(outcome.candidates) == {"k", "dep1", "dep2", "mand"}

    def test_disable_not_null_pruning(self, db):
        step = RHSDiscovery(db, prune_not_null=False)
        result = step.run([REF_F], [])
        outcome = result.outcomes[0]
        assert outcome.pruned_not_null == ()
        assert "mand" in outcome.candidates
        # f -> mand holds in the fixture, so the unpruned run widens B
        assert "mand" in next(iter(result.fds)).rhs

    def test_defaults_prune_both(self, db):
        result = RHSDiscovery(db).run([REF_F], [])
        outcome = result.outcomes[0]
        assert outcome.pruned_keys and outcome.pruned_not_null


class TestHiddenObjects:
    @pytest.fixture
    def empty_rhs_db(self):
        """R(k*, f, other): f determines nothing."""
        schema = DatabaseSchema(
            [
                RelationSchema.build(
                    "R", ["k", "f", "other"], key=["k"],
                    types={"k": INTEGER, "f": INTEGER},
                )
            ]
        )
        db = Database(schema)
        db.insert_many("R", [[1, 10, "a"], [2, 10, "b"], [3, 11, "c"]])
        return db

    def test_empty_rhs_default_ignored(self, empty_rhs_db):
        result = discover_rhs(empty_rhs_db, [AttributeRef("R", "f")], [])
        assert result.hidden == []
        assert result.outcomes[0].action == "ignored"

    def test_empty_rhs_conceptualized_on_request(self, empty_rhs_db):
        expert = AutoExpert(conceptualize_hidden=True)
        result = discover_rhs(empty_rhs_db, [AttributeRef("R", "f")], [], expert)
        assert result.hidden == [AttributeRef("R", "f")]
        assert result.outcomes[0].action == "hidden"

    def test_preexisting_hidden_stays_without_question(self, empty_rhs_db):
        asked = []

        class Spy(Expert):
            def conceptualize_hidden_object(self, ref):
                asked.append(ref)
                return False

        result = discover_rhs(
            empty_rhs_db, [], [AttributeRef("R", "f")], Spy()
        )
        assert result.hidden == [AttributeRef("R", "f")]
        assert result.outcomes[0].action == "kept-hidden"
        assert asked == []

    def test_hidden_promoted_to_fd_when_rhs_found(self, db):
        # Assignment.dep-style: in H, but an FD is found -> moves to F
        result = discover_rhs(db, [], [REF_F])
        assert result.fds == [FD("R", ("f",), ("dep1",))]
        assert result.hidden == []


class TestDegenerateCandidates:
    def test_identifier_covering_all_non_key_attrs(self):
        """When A ∪ K = X_i, T is empty: straight to the hidden-object
        question without touching the extension."""
        schema = DatabaseSchema(
            [RelationSchema.build("r", ["k", "f"], key=["k"], types={"k": INTEGER, "f": INTEGER})]
        )
        db = Database(schema)
        db.insert_many("r", [[1, 5], [2, 5]])
        db.counter.reset()
        result = discover_rhs(db, [AttributeRef("r", "f")], [])
        outcome = result.outcomes[0]
        assert outcome.candidates == ()
        assert outcome.action == "ignored"
        assert db.counter.fd_checks == 0

    def test_identifier_equal_to_whole_relation(self):
        schema = DatabaseSchema(
            [RelationSchema.build("r", ["a", "b"], types={"a": INTEGER, "b": INTEGER})]
        )
        db = Database(schema)
        db.insert_many("r", [[1, 2]])
        result = discover_rhs(db, [AttributeRef("r", ("a", "b"))], [])
        assert result.fds == []
        assert result.outcomes[0].candidates == ()


class TestPaperExample:
    def test_paper_f_and_h(self, paper_db, paper_q, paper_expert):
        from repro.core.ind_discovery import INDDiscovery
        from repro.core.lhs_discovery import LHSDiscovery
        from repro.workloads.paper_example import PAPER_EXPECTED

        ind_result = INDDiscovery(paper_db, paper_expert).run(paper_q)
        lhs_result = LHSDiscovery(paper_db.schema, ind_result.s_names).run(
            ind_result.inds
        )
        result = RHSDiscovery(paper_db, paper_expert).run(
            lhs_result.lhs, lhs_result.hidden
        )
        assert set(result.fds) == set(PAPER_EXPECTED.fds)
        assert set(result.hidden) == set(PAPER_EXPECTED.hidden_after_rhs)

    def test_paper_department_narrative(self, paper_db, paper_q, paper_expert):
        """§6.2.2's narration: for Department.emp, dep and location are
        pruned, skill and proj remain and both hold."""
        from repro.core.ind_discovery import INDDiscovery
        from repro.core.lhs_discovery import LHSDiscovery

        ind_result = INDDiscovery(paper_db, paper_expert).run(paper_q)
        lhs_result = LHSDiscovery(paper_db.schema, ind_result.s_names).run(
            ind_result.inds
        )
        result = RHSDiscovery(paper_db, paper_expert).run(
            lhs_result.lhs, lhs_result.hidden
        )
        outcome = next(
            o for o in result.outcomes if o.ref == AttributeRef("Department", "emp")
        )
        assert outcome.pruned_keys == ("dep",)
        assert outcome.pruned_not_null == ("location",)
        assert set(outcome.candidates) == {"skill", "proj"}
        assert set(outcome.accepted) == {"skill", "proj"}


def identifiers(db, expert, equijoins):
    """``LHS`` and ``H`` as RHS-Discovery gets them from the phases before."""
    from repro.core.ind_discovery import INDDiscovery
    from repro.core.lhs_discovery import LHSDiscovery

    ind_result = INDDiscovery(db, expert).run(equijoins)
    lhs_result = LHSDiscovery(db.schema, ind_result.s_names).run(ind_result.inds)
    return lhs_result.lhs, lhs_result.hidden


def paper_problem(backend=None):
    """The paper database, its scripted expert and its ``LHS``/``H``."""
    from repro.workloads.paper_example import (
        build_paper_database,
        paper_equijoins,
        paper_expert_script,
    )

    db = build_paper_database(backend=backend)
    lhs, hidden = identifiers(
        db, ScriptedExpert(paper_expert_script()), paper_equijoins()
    )
    return db, lhs, hidden


def oracle_problem(backend=None):
    """A synthetic scenario, its ground-truth expert and its ``LHS``/``H``."""
    from repro.programs.extractor import EquiJoinExtractor
    from repro.workloads.scenario import build_scenario

    scenario = build_scenario()
    db = scenario.database
    if backend is not None:
        db = db.copy(backend=backend)
    equijoins = EquiJoinExtractor(db.schema).extract_from_corpus(scenario.corpus).joins
    lhs, hidden = identifiers(db, scenario.expert, equijoins)
    return db, scenario.expert, lhs, hidden


class TestLazyEvidence:
    """Failed-FD evidence is computed only when an expert reads it."""

    @pytest.fixture
    def reads(self, monkeypatch):
        import repro.core.expert as expert_module

        calls = []

        def spy(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(Database, "table", spy("table", Database.table))
        for name in ("satisfaction_ratio", "violation_witnesses"):
            monkeypatch.setattr(
                expert_module, name, spy(name, getattr(expert_module, name))
            )
        return calls

    @pytest.mark.parametrize("backend", ["memory", "paged"])
    @pytest.mark.parametrize("policy", ["auto", "oracle"])
    def test_automatic_experts_read_no_evidence(self, reads, policy, backend):
        from repro.backends import PagedBackend
        from repro.core.expert import RecordingExpert

        store = PagedBackend(pool_pages=8, page_size=256) if backend == "paged" else None
        if policy == "auto":
            db, lhs, hidden = paper_problem(store)
            inner = AutoExpert()
        else:
            db, inner, lhs, hidden = oracle_problem(store)
        expert = RecordingExpert(inner)
        del reads[:]                    # only RHS-Discovery's reads count
        RHSDiscovery(db, expert).run(lhs, hidden)
        assert any(i.kind == "enforce" for i in expert.log)   # FDs did fail
        assert reads == []
        db.close()

    def test_interactive_output_matches_the_eager_evidence(self):
        from repro.core.expert import InteractiveExpert
        from repro.dependencies.inference import (
            satisfaction_ratio,
            violation_witnesses,
        )

        db, lhs, hidden = paper_problem()
        printed, asked = [], []

        class Asking(InteractiveExpert):
            def enforce_fd(self, context):
                asked.append(context.fd)
                return super().enforce_fd(context)

        expert = Asking(input_fn=lambda prompt: "n", print_fn=printed.append)
        RHSDiscovery(db, expert).run(lhs, hidden)

        expected = []
        for fd in asked:
            table = db.table(fd.relation)
            expected.append(
                f"{fd!r} fails on the extension "
                f"(clean groups: {satisfaction_ratio(table, fd):.0%})"
            )
            for a, b in violation_witnesses(table, fd, limit=3):
                expected.append(f"  counterexample: {a!r} / {b!r}")
        assert len(asked) == 8
        assert printed == expected
