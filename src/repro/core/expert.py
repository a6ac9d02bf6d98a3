"""The expert user, as a typed protocol.

The paper's method is interactive: "an expert user has to validate the
presumptions on the elicited dependencies".  Every point where the
algorithms defer to a human is modelled as one method of :class:`Expert`:

====================================  =======================================
Algorithm step                        Expert method
====================================  =======================================
IND-Discovery, non-empty intersection  :meth:`Expert.decide_nei`
RHS-Discovery (ii), enforce an FD      :meth:`Expert.enforce_fd`
RHS-Discovery (iii), validate an FD    :meth:`Expert.validate_fd`
RHS-Discovery (iv), hidden object      :meth:`Expert.conceptualize_hidden_object`
Restruct, naming a hidden object       :meth:`Expert.name_hidden_object`
Restruct, naming an FD-split relation  :meth:`Expert.name_fd_relation`
====================================  =======================================

Implementations: :class:`AutoExpert` (deterministic policy, no human),
:class:`ScriptedExpert` (answers keyed by stable question strings — used
to replay the paper's choices exactly), :class:`RecordingExpert` (wrapper
that counts and logs every interaction), :class:`InteractiveExpert`
(stdin prompts, for actual use).  Workload code adds an OracleExpert that
answers from synthetic ground truth
(:mod:`repro.workloads.oracle`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.dependencies.fd import FunctionalDependency
from repro.dependencies.inference import satisfaction_ratio, violation_witnesses
from repro.programs.equijoin import EquiJoin
from repro.relational.attribute import AttributeRef
from repro.util.naming import merge_name, unique_name

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.provenance import ProvenanceLedger
    from repro.relational.database import Database
    from repro.relational.table import Table


# ----------------------------------------------------------------------
# decision value objects
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NEIContext:
    """What the expert sees when IND-Discovery finds a non-empty intersection.

    ``n_left``/``n_right`` are the distinct counts of the two sides of the
    equi-join, ``n_common`` the count of shared values — the three numbers
    the algorithm computed.  ``overlap`` is ``n_common / min(n_left,
    n_right)``, the paper's informal "amount of data implied in this
    intersection in comparison with these two sets of values".
    """

    join: EquiJoin
    n_left: int
    n_right: int
    n_common: int

    @property
    def overlap(self) -> float:
        smaller = min(self.n_left, self.n_right)
        if smaller == 0:
            return 0.0
        return self.n_common / smaller

    def question_key(self) -> str:
        return f"nei:{self.join!r}"


@dataclass(frozen=True)
class ConceptualizeIntersection:
    """Case (iv): create a new relation holding the shared identifiers."""

    name: str


@dataclass(frozen=True)
class ForceInclusion:
    """Cases (v)/(vi): assert an inclusion despite the dirty extension.

    ``direction`` is ``"left_in_right"`` for ``left ≪ right`` (case (vi),
    with the join's canonical left side as LHS) or ``"right_in_left"``
    for the converse (case (v)).
    """

    direction: str

    def __post_init__(self) -> None:
        if self.direction not in ("left_in_right", "right_in_left"):
            raise ValueError(f"bad direction {self.direction!r}")


@dataclass(frozen=True)
class IgnoreIntersection:
    """Case (vii): give the interrelation dependency up."""


NEIDecision = Union[ConceptualizeIntersection, ForceInclusion, IgnoreIntersection]


class FDContext:
    """What the expert sees when asked to enforce a failed FD test.

    The evidence is the share of clean LHS groups
    (``satisfaction_ratio``) and up to three counterexample pairs
    (``witnesses``).  Only a human weighs it, so a context built by
    :meth:`from_extension` computes each part on first read, from the
    relation's table as it stands then: an expert that decides without
    looking (every automatic policy) costs no scan.  Given explicitly
    (``FDContext(fd, ratio, witnesses)``), the evidence is just stored.
    """

    def __init__(
        self,
        fd: FunctionalDependency,
        satisfaction_ratio: float,
        witnesses: Sequence[str] = (),
    ) -> None:
        self.fd = fd
        self._ratio: Optional[float] = satisfaction_ratio
        self._witnesses: Optional[Tuple[str, ...]] = tuple(witnesses)
        self._database: Optional["Database"] = None

    @classmethod
    def from_extension(
        cls, fd: FunctionalDependency, database: "Database"
    ) -> "FDContext":
        """A context whose evidence is read from *database* on demand."""
        context = cls(fd, 0.0)
        context._ratio = context._witnesses = None
        context._database = database
        return context

    @property
    def satisfaction_ratio(self) -> float:
        if self._ratio is None:
            self._ratio = satisfaction_ratio(self._table(), self.fd)
        return self._ratio

    @property
    def witnesses(self) -> Tuple[str, ...]:
        if self._witnesses is None:
            self._witnesses = tuple(
                f"{a!r} / {b!r}"
                for a, b in violation_witnesses(self._table(), self.fd, limit=3)
            )
        return self._witnesses

    def _table(self) -> "Table":
        return self._database.table(self.fd.relation)

    def question_key(self) -> str:
        return f"enforce:{self.fd!r}"

    def __repr__(self) -> str:
        return f"FDContext({self.fd!r})"


# ----------------------------------------------------------------------
# the protocol
# ----------------------------------------------------------------------
class Expert:
    """Base expert: the paper's most cautious user.

    Defaults: never conceptualize an intersection, never force an
    inclusion, never enforce a failed FD, validate every FD the data
    supports, never conceptualize an empty-RHS hidden object, accept the
    proposed default names.  Subclasses override what they care about.
    """

    # -- IND-Discovery --------------------------------------------------
    def decide_nei(self, context: NEIContext) -> NEIDecision:
        """Answer the non-empty-intersection question (cases iv-vii)."""
        return IgnoreIntersection()

    # -- RHS-Discovery ---------------------------------------------------
    def enforce_fd(self, context: FDContext) -> bool:
        """Step (ii): assert ``A -> b`` although the extension violates it."""
        return False

    def validate_fd(self, fd: FunctionalDependency) -> bool:
        """Step (iii): confirm an extension-supported FD is meaningful."""
        return True

    def conceptualize_hidden_object(self, ref: AttributeRef) -> bool:
        """Step (iv): conceptualize an identifier with an empty RHS."""
        return False

    # -- naming -----------------------------------------------------------
    def name_intersection(self, context: NEIContext, taken: Tuple[str, ...]) -> str:
        """Default name for a conceptualized intersection relation."""
        return unique_name(
            merge_name(context.join.left_relation, context.join.right_relation),
            taken,
        )

    def name_hidden_object(self, ref: AttributeRef, taken: Tuple[str, ...]) -> str:
        """Name for the relation materializing hidden object *ref*."""
        default = "-".join(ref.attributes.names).capitalize() + "-Object"
        return unique_name(default, taken)

    def name_fd_relation(
        self, fd: FunctionalDependency, taken: Tuple[str, ...]
    ) -> str:
        """Name for the relation split off along *fd*."""
        default = fd.relation + "-" + "-".join(sorted(fd.lhs))
        return unique_name(default, taken)


class AutoExpert(Expert):
    """A deterministic, threshold-driven policy — runs with no human.

    When a non-empty intersection covers at least *force_threshold* of the
    smaller side, the smaller side is presumed included in the larger (the
    extension is presumed dirty); below *conceptualize_threshold* nothing
    is elicited; in between, the intersection is conceptualized when
    *conceptualize* is set.  Hidden objects with an empty RHS are
    conceptualized when *conceptualize_hidden* is set.
    """

    def __init__(
        self,
        force_threshold: float = 0.95,
        conceptualize: bool = False,
        conceptualize_threshold: float = 0.5,
        conceptualize_hidden: bool = False,
        validate: bool = True,
    ) -> None:
        self.force_threshold = force_threshold
        self.conceptualize = conceptualize
        self.conceptualize_threshold = conceptualize_threshold
        self.conceptualize_hidden = conceptualize_hidden
        self.validate = validate

    def decide_nei(self, context: NEIContext) -> NEIDecision:
        if context.overlap >= self.force_threshold:
            if context.n_left <= context.n_right:
                return ForceInclusion("left_in_right")
            return ForceInclusion("right_in_left")
        if self.conceptualize and context.overlap >= self.conceptualize_threshold:
            return ConceptualizeIntersection(self.name_intersection(context, ()))
        return IgnoreIntersection()

    def validate_fd(self, fd: FunctionalDependency) -> bool:
        return self.validate

    def conceptualize_hidden_object(self, ref: AttributeRef) -> bool:
        return self.conceptualize_hidden


class ScriptedExpert(Expert):
    """Answers read from a dictionary of question keys — exact replays.

    Keys (all produced by ``question_key`` methods or the naming hooks):

    - ``"nei:<join repr>"`` -> an :data:`NEIDecision`
    - ``"enforce:<fd repr>"`` -> bool
    - ``"validate:<fd repr>"`` -> bool
    - ``"hidden:<ref repr>"`` -> bool
    - ``"name_hidden:<ref repr>"`` -> str
    - ``"name_fd:<fd repr>"`` -> str

    Unanswered questions fall through to *fallback* (default: the cautious
    base :class:`Expert`).
    """

    def __init__(
        self,
        answers: Dict[str, object],
        fallback: Optional[Expert] = None,
    ) -> None:
        self.answers = dict(answers)
        self.fallback = fallback or Expert()
        self.unmatched: List[str] = []

    def _lookup(self, key: str):
        if key in self.answers:
            return self.answers[key]
        self.unmatched.append(key)
        return None

    def decide_nei(self, context: NEIContext) -> NEIDecision:
        answer = self._lookup(context.question_key())
        if answer is None:
            return self.fallback.decide_nei(context)
        return answer  # type: ignore[return-value]

    def enforce_fd(self, context: FDContext) -> bool:
        answer = self._lookup(context.question_key())
        if answer is None:
            return self.fallback.enforce_fd(context)
        return bool(answer)

    def validate_fd(self, fd: FunctionalDependency) -> bool:
        answer = self._lookup(f"validate:{fd!r}")
        if answer is None:
            return self.fallback.validate_fd(fd)
        return bool(answer)

    def conceptualize_hidden_object(self, ref: AttributeRef) -> bool:
        answer = self._lookup(f"hidden:{ref!r}")
        if answer is None:
            return self.fallback.conceptualize_hidden_object(ref)
        return bool(answer)

    def name_intersection(self, context: NEIContext, taken: Tuple[str, ...]) -> str:
        answer = self._lookup(f"name_intersection:{context.join!r}")
        if answer is None:
            return self.fallback.name_intersection(context, taken)
        return str(answer)

    def name_hidden_object(self, ref: AttributeRef, taken: Tuple[str, ...]) -> str:
        answer = self._lookup(f"name_hidden:{ref!r}")
        if answer is None:
            return self.fallback.name_hidden_object(ref, taken)
        return str(answer)

    def name_fd_relation(self, fd: FunctionalDependency, taken: Tuple[str, ...]) -> str:
        answer = self._lookup(f"name_fd:{fd!r}")
        if answer is None:
            return self.fallback.name_fd_relation(fd, taken)
        return str(answer)


@dataclass
class Interaction:
    """One logged expert interaction."""

    kind: str
    question: str
    answer: str
    value: object = None        # the actual answer object, for replay


class RecordingExpert(Expert):
    """Wrapper that logs and counts every question asked of *inner*.

    The S4 benchmark reports these counts as the method's interactive
    cost; :meth:`to_script` turns a recorded session (e.g. an
    interactive one) into a :class:`ScriptedExpert` answer dictionary so
    the run can be replayed exactly.  Naming calls are logged but not
    counted as *decisions*.

    With a :class:`~repro.obs.provenance.ProvenanceLedger` attached,
    every interaction additionally becomes a ``decision`` node of the
    lineage DAG, so the phases can link the artifacts an answer
    justified to the exact prompt/answer pair (via
    ``ledger.last_decision()``).
    """

    def __init__(
        self, inner: Expert, ledger: Optional["ProvenanceLedger"] = None
    ) -> None:
        self.inner = inner
        self.log: List[Interaction] = []
        self.ledger = ledger

    @property
    def decision_count(self) -> int:
        return sum(1 for i in self.log if i.kind != "naming")

    def to_script(self) -> Dict[str, object]:
        """The recorded answers, keyed for :class:`ScriptedExpert`.

        A later answer to the same question overwrites an earlier one
        (the replay keeps the final decision).
        """
        return {i.question: i.value for i in self.log}

    def _record(self, kind: str, question: str, answer: object):
        self.log.append(Interaction(kind, question, repr(answer), answer))
        if self.ledger is not None:
            self.ledger.decision(kind, question, answer)
        return answer

    def decide_nei(self, context: NEIContext) -> NEIDecision:
        return self._record(
            "nei", context.question_key(), self.inner.decide_nei(context)
        )

    def enforce_fd(self, context: FDContext) -> bool:
        return self._record(
            "enforce", context.question_key(), self.inner.enforce_fd(context)
        )

    def validate_fd(self, fd: FunctionalDependency) -> bool:
        return self._record("validate", f"validate:{fd!r}", self.inner.validate_fd(fd))

    def conceptualize_hidden_object(self, ref: AttributeRef) -> bool:
        return self._record(
            "hidden", f"hidden:{ref!r}", self.inner.conceptualize_hidden_object(ref)
        )

    def name_intersection(self, context: NEIContext, taken: Tuple[str, ...]) -> str:
        return self._record(
            "naming",
            f"name_intersection:{context.join!r}",
            self.inner.name_intersection(context, taken),
        )

    def name_hidden_object(self, ref: AttributeRef, taken: Tuple[str, ...]) -> str:
        return self._record(
            "naming", f"name_hidden:{ref!r}", self.inner.name_hidden_object(ref, taken)
        )

    def name_fd_relation(self, fd: FunctionalDependency, taken: Tuple[str, ...]) -> str:
        return self._record(
            "naming", f"name_fd:{fd!r}", self.inner.name_fd_relation(fd, taken)
        )


class InteractiveExpert(Expert):
    """Prompt a human on stdin — the paper's actual setting.

    *input_fn*/*print_fn* are injectable for testing.
    """

    def __init__(
        self,
        input_fn: Callable[[str], str] = input,
        print_fn: Callable[[str], None] = print,
    ) -> None:
        self._input = input_fn
        self._print = print_fn

    def _ask_yes_no(self, prompt: str) -> bool:
        while True:
            answer = self._input(f"{prompt} [y/n] ").strip().lower()
            if answer in ("y", "yes"):
                return True
            if answer in ("n", "no"):
                return False
            self._print("please answer y or n")

    def decide_nei(self, context: NEIContext) -> NEIDecision:
        j = context.join
        self._print(
            f"Non-empty intersection for {j!r}: "
            f"|left|={context.n_left}, |right|={context.n_right}, "
            f"|common|={context.n_common} (overlap {context.overlap:.0%})"
        )
        while True:
            choice = self._input(
                "  (c)onceptualize new relation / force (l)eft<<right / "
                "force (r)ight<<left / (i)gnore? "
            ).strip().lower()
            if choice == "c":
                name = self._input("  name for the new relation: ").strip()
                if name:
                    return ConceptualizeIntersection(name)
            elif choice == "l":
                return ForceInclusion("left_in_right")
            elif choice == "r":
                return ForceInclusion("right_in_left")
            elif choice == "i":
                return IgnoreIntersection()

    def enforce_fd(self, context: FDContext) -> bool:
        self._print(
            f"{context.fd!r} fails on the extension "
            f"(clean groups: {context.satisfaction_ratio:.0%})"
        )
        for w in context.witnesses:
            self._print(f"  counterexample: {w}")
        return self._ask_yes_no("enforce the dependency anyway?")

    def validate_fd(self, fd: FunctionalDependency) -> bool:
        return self._ask_yes_no(f"{fd!r} holds in the data; is it meaningful?")

    def conceptualize_hidden_object(self, ref: AttributeRef) -> bool:
        return self._ask_yes_no(f"conceptualize {ref!r} as a hidden object?")

    def name_hidden_object(self, ref: AttributeRef, taken: Tuple[str, ...]) -> str:
        name = self._input(f"name for the object identified by {ref!r}: ").strip()
        return name or super().name_hidden_object(ref, taken)

    def name_fd_relation(self, fd: FunctionalDependency, taken: Tuple[str, ...]) -> str:
        name = self._input(f"name for the relation split off by {fd!r}: ").strip()
        return name or super().name_fd_relation(fd, taken)
