"""Hilbert-style proof checker over the arithmetic syntax.

A proof is a linear sequence of steps, each justified by one rule with
back-references to earlier steps. Checking is local, deterministic and
total: every byte sequence that deserializes at all gets a verdict. The
walks over terms and formulas that checking uses run on explicit stacks, so
this holds at any depth without raising the interpreter's recursion limit.

The rules, and the binary and text forms of their steps, are listed in
`RULE_SHAPES`.

There is one stepped checker, `check_units`, and every verifier in the
package drains or wraps it. It checks steps in order and yields once
between metered units: each proof step is one unit, and a machine-premise
step (see `omega`) takes one more unit between consecutive instances 0..k.
The one stepped oracle, `dovetail.OmegaVerifierOracle`, adds one unit in
front for deserializing the candidate; with no instance bound it decodes
finitary proofs only. A machine-premise step is only ever checked up to an
instance bound k; with no bound it is rejected, never accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Iterable, NamedTuple, Optional, Sequence

from .syntax import (
    And,
    Eq,
    Exists,
    ForAll,
    Formula,
    Implies,
    Le,
    Mul,
    Not,
    NotBounded,
    Or,
    Succ,
    Term,
    Var,
    ZERO,
    Add,
    eval_bounded,
    free_vars,
    is_identifier,
    substitute,
)

RULE_PA_AXIOM = "pa-axiom"
RULE_EQ_AXIOM = "eq-axiom"
RULE_LOGIC = "logic"
RULE_INDUCTION = "induction"
RULE_MP = "mp"
RULE_GEN = "gen"
RULE_INST = "inst"
RULE_EVAL_TRUE = "eval-true"
RULE_PREMISE = "premise"

REASON_BAD_PREMISE = "bad-premise-index"
REASON_RULE_MISMATCH = "rule-mismatch"
REASON_EVAL_FALSE = "eval-false"
REASON_TARGET_MISMATCH = "target-mismatch"
REASON_BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class ProofStep:
    conclusion: Formula
    rule: str
    premises: tuple[int, ...] = ()
    payload: object = None


@dataclass(frozen=True)
class Proof:
    steps: tuple  # ProofSteps, and any machine-premise steps (see check_units)
    target: Formula

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a proof has at least one step")
        if self.steps[-1].conclusion != self.target:
            raise ValueError("target must equal the last step's conclusion")


def make_proof(steps: Iterable[ProofStep]) -> Proof:
    steps = tuple(steps)
    return Proof(steps, steps[-1].conclusion)


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    step: Optional[int] = None
    reason: Optional[str] = None
    detail: Optional[str] = None
    instance: Optional[int] = None  # failing instance of a machine-premise step

    @staticmethod
    def reject(step: int, reason: str, detail: str = "") -> "Verdict":
        return Verdict(False, step, reason, detail or None)


# ---------------------------------------------------------------------------
# Axioms

_x, _y, _z = Var("x"), Var("y"), Var("z")

_PA_AXIOMS: tuple[Formula, ...] = (
    ForAll("x", Not(Eq(Succ(_x), ZERO))),
    ForAll("x", ForAll("y", Implies(Eq(Succ(_x), Succ(_y)), Eq(_x, _y)))),
    ForAll("x", Eq(Add(_x, ZERO), _x)),
    ForAll("x", ForAll("y", Eq(Add(_x, Succ(_y)), Succ(Add(_x, _y))))),
    ForAll("x", Eq(Mul(_x, ZERO), ZERO)),
    ForAll("x", ForAll("y", Eq(Mul(_x, Succ(_y)), Add(Mul(_x, _y), _x)))),
    ForAll("x", Implies(Le(_x, ZERO), Eq(_x, ZERO))),
    ForAll("x", Implies(Eq(_x, ZERO), Le(_x, ZERO))),
    ForAll(
        "x",
        ForAll(
            "y",
            Implies(Le(_x, Succ(_y)), Or(Le(_x, _y), Eq(_x, Succ(_y)))),
        ),
    ),
    ForAll(
        "x",
        ForAll(
            "y",
            Implies(Or(Le(_x, _y), Eq(_x, Succ(_y))), Le(_x, Succ(_y))),
        ),
    ),
    ForAll("x", ForAll("y", Or(Le(_x, _y), Le(_y, _x)))),
)

_EQUALITY_AXIOMS: tuple[Formula, ...] = (
    ForAll("x", Eq(_x, _x)),
    ForAll("x", ForAll("y", Implies(Eq(_x, _y), Eq(_y, _x)))),
    ForAll(
        "x",
        ForAll(
            "y", ForAll("z", Implies(Eq(_x, _y), Implies(Eq(_y, _z), Eq(_x, _z))))
        ),
    ),
    ForAll("x", ForAll("y", Implies(Eq(_x, _y), Eq(Succ(_x), Succ(_y))))),
    ForAll(
        "x",
        ForAll("y", ForAll("z", Implies(Eq(_x, _y), Eq(Add(_x, _z), Add(_y, _z))))),
    ),
    ForAll(
        "x",
        ForAll("y", ForAll("z", Implies(Eq(_x, _y), Eq(Add(_z, _x), Add(_z, _y))))),
    ),
    ForAll(
        "x",
        ForAll("y", ForAll("z", Implies(Eq(_x, _y), Eq(Mul(_x, _z), Mul(_y, _z))))),
    ),
    ForAll(
        "x",
        ForAll("y", ForAll("z", Implies(Eq(_x, _y), Eq(Mul(_z, _x), Mul(_z, _y))))),
    ),
    ForAll(
        "x",
        ForAll(
            "y",
            ForAll("z", Implies(Eq(_x, _y), Implies(Le(_x, _z), Le(_y, _z)))),
        ),
    ),
    ForAll(
        "x",
        ForAll(
            "y",
            ForAll("z", Implies(Eq(_x, _y), Implies(Le(_z, _x), Le(_z, _y)))),
        ),
    ),
)

_AXIOMS = {RULE_PA_AXIOM: _PA_AXIOMS, RULE_EQ_AXIOM: _EQUALITY_AXIOMS}


def pa_axioms() -> tuple[Formula, ...]:
    """The finite arithmetic axioms over 0, S, +, *, <= (all closed)."""
    return _PA_AXIOMS


def equality_axioms() -> tuple[Formula, ...]:
    return _EQUALITY_AXIOMS


def induction_axiom(phi: Formula, var: str) -> Formula:
    """[phi(0) & forall v (phi(v) -> phi(S v))] -> forall v phi(v)."""
    base = substitute(phi, var, ZERO)
    step = ForAll(var, Implies(phi, substitute(phi, var, Succ(Var(var)))))
    return Implies(And(base, step), ForAll(var, phi))


# ---------------------------------------------------------------------------
# Logical axiom schemes

class Scheme(NamedTuple):
    """One logical axiom scheme; see LOGIC_SCHEMES."""

    kinds: str  # item kinds: 'f' a formula, 't' a term, 'v' a variable name
    instance: Callable[..., Formula]  # the items -> the instance


def _vacuous_forall(var: str, phi: Formula) -> Formula:
    if var in free_vars(phi):
        raise ValueError(f"{var!r} occurs free in vacuous-forall body")
    return Implies(phi, ForAll(var, phi))


# The one definition of each logical axiom scheme, as RULE_SHAPES is of each
# rule: scheme name -> its row. The wire ids number the names in sorted order.
LOGIC_SCHEMES: dict[str, Scheme] = {
    "k": Scheme("ff", lambda a, b: Implies(a, Implies(b, a))),
    "s": Scheme(
        "fff",
        lambda a, b, c: Implies(
            Implies(a, Implies(b, c)), Implies(Implies(a, b), Implies(a, c))
        ),
    ),
    "contra": Scheme(
        "ff", lambda a, b: Implies(Implies(Not(a), Not(b)), Implies(b, a))
    ),
    "and-intro": Scheme("ff", lambda a, b: Implies(a, Implies(b, And(a, b)))),
    "and-left": Scheme("ff", lambda a, b: Implies(And(a, b), a)),
    "and-right": Scheme("ff", lambda a, b: Implies(And(a, b), b)),
    "or-left": Scheme("ff", lambda a, b: Implies(a, Or(a, b))),
    "or-right": Scheme("ff", lambda a, b: Implies(b, Or(a, b))),
    "or-elim": Scheme(
        "fff",
        lambda a, b, c: Implies(
            Implies(a, c), Implies(Implies(b, c), Implies(Or(a, b), c))
        ),
    ),
    "exists-intro": Scheme(
        "vft",
        lambda var, phi, term: Implies(substitute(phi, var, term), Exists(var, phi)),
    ),
    "vacuous-forall": Scheme("vf", _vacuous_forall),
    "forall-mono": Scheme(
        "vff",
        lambda var, phi, psi: Implies(
            ForAll(var, Implies(phi, psi)), Implies(ForAll(var, phi), ForAll(var, psi))
        ),
    ),
}


# ---------------------------------------------------------------------------
# Step shapes


class StepShape(NamedTuple):
    """How one rule's steps are written; see RULE_SHAPES."""

    rule: str
    tag: int
    layout: str
    kinds: str  # field kinds in layout order: the payload's, then premises
    premises: int

    def values(self, step: ProofStep) -> tuple:
        """The step's fields in layout order."""
        n = len(self.kinds) - self.premises
        payload = (step.payload,) if n == 1 else tuple(step.payload or ())
        return payload + tuple(step.premises)

    def step(self, values: list, conclusion: Formula) -> ProofStep:
        """The step with these fields, in layout order, and this conclusion."""
        n = len(self.kinds) - self.premises
        payload = values[0] if n == 1 else tuple(values[:n]) or None
        return ProofStep(conclusion, self.rule, tuple(values[n:]), payload)


def _shape(rule: str, tag: int, layout: str) -> StepShape:
    kinds = "".join(layout.split()[1:]).replace(";", "")
    return StepShape(rule, tag, layout, kinds, kinds.count("p"))


# The one definition of both forms of a step. Its text form is the layout:
# the rule's keyword, then fields, with ` ; ` between groups of fields. Field
# kinds: i an axiom index, v a variable name, t a term, f a formula, L a logic
# scheme and then its items, one group each, and p a premise. Premises come
# last; the fields before them are the payload: nothing, the bare value of
# one field, or a tuple of two. The binary form is the tag, the fields in
# layout order (premises as big-endian u16), then the conclusion.
RULE_SHAPES: dict[str, StepShape] = {
    rule: _shape(rule, tag, layout)
    for rule, tag, layout in (
        (RULE_PA_AXIOM, 0x20, "axiom i"),  # the i-th arithmetic axiom
        (RULE_EQ_AXIOM, 0x21, "eq-axiom i"),  # the i-th equality axiom
        (RULE_LOGIC, 0x22, "logic L"),  # an instance of a logical axiom scheme
        (RULE_INDUCTION, 0x23, "induction v ; f"),  # induction on v for f
        (RULE_MP, 0x24, "mp p p"),  # modus ponens: from A -> B and A, B
        (RULE_GEN, 0x25, "gen v p"),  # forall v, if v is free in no assumption used
        (RULE_INST, 0x26, "inst t ; p"),  # a forall's body at the term t
        (RULE_EVAL_TRUE, 0x27, "eval"),  # a closed bounded sentence that evaluates true
        (RULE_PREMISE, 0x28, "premise"),  # a member of the assumption set
    )
}


def logical_axiom_instance(scheme: str, items: tuple) -> Formula:
    """Build the scheme instance; raises ValueError on a malformed payload."""
    row = LOGIC_SCHEMES.get(scheme)
    if row is None:
        raise ValueError(f"unknown scheme {scheme!r}")
    if len(items) != len(row.kinds):
        raise ValueError(f"scheme {scheme!r} takes {len(row.kinds)} items")
    instance = row.instance(*items)  # refuses an item that is not a node
    for i, (kind, item) in enumerate(zip(row.kinds, items)):
        if not isinstance(item, {"f": Formula, "t": Term, "v": str}[kind]):
            raise ValueError(f"item {i} of scheme {scheme!r} has the wrong sort")
    return instance


# ---------------------------------------------------------------------------
# Step checking

def check_step(
    step: ProofStep,
    index: int,
    conclusions: list[Formula],
    gamma: frozenset[Formula],
    dependencies: list[frozenset[Formula]],
) -> tuple[Optional[Verdict], frozenset[Formula]]:
    """Validate one step against already-checked history.

    Returns (None, deps) when the step is fine, where deps is the set of
    gamma members the step transitively rests on (used by `gen`), or a
    rejection verdict.
    """
    shape = RULE_SHAPES.get(step.rule)
    if shape is None:
        return Verdict.reject(index, REASON_RULE_MISMATCH, "unknown rule"), frozenset()
    if len(step.premises) != shape.premises:
        return (
            Verdict.reject(index, REASON_RULE_MISMATCH, "wrong premise count"),
            frozenset(),
        )
    for p in step.premises:
        if not (0 <= p < index):
            return Verdict.reject(index, REASON_BAD_PREMISE), frozenset()
    deps = frozenset().union(*(dependencies[p] for p in step.premises))

    def mismatch(detail: str) -> tuple[Verdict, frozenset[Formula]]:
        return Verdict.reject(index, REASON_RULE_MISMATCH, detail), frozenset()

    if step.rule in _AXIOMS:
        axioms = _AXIOMS[step.rule]
        if not isinstance(step.payload, int) or not 0 <= step.payload < len(axioms):
            return mismatch("bad axiom index")
        if step.conclusion != axioms[step.payload]:
            return mismatch("conclusion is not the cited axiom")
    elif step.rule == RULE_LOGIC:
        if not (isinstance(step.payload, tuple) and len(step.payload) == 2):
            return mismatch("logic payload is (scheme, items)")
        scheme, items = step.payload
        try:
            instance = logical_axiom_instance(scheme, tuple(items))
        except (ValueError, TypeError) as exc:
            return mismatch(str(exc))
        if step.conclusion != instance:
            return mismatch("conclusion does not match the scheme instance")
    elif step.rule == RULE_INDUCTION:
        if not (isinstance(step.payload, tuple) and len(step.payload) == 2):
            return mismatch("induction payload is (var, formula)")
        var, phi = step.payload
        try:
            instance = induction_axiom(phi, var)
        except (ValueError, TypeError) as exc:
            return mismatch(str(exc))
        if step.conclusion != instance:
            return mismatch("conclusion is not the induction instance")
    elif step.rule == RULE_MP:
        i, j = step.premises
        impl = conclusions[i]
        if not isinstance(impl, Implies):
            return mismatch("first premise is not an implication")
        if conclusions[j] != impl.left:
            return mismatch("second premise is not the antecedent")
        if step.conclusion != impl.right:
            return mismatch("conclusion is not the consequent")
    elif step.rule == RULE_GEN:
        if not (isinstance(step.payload, str) and is_identifier(step.payload)):
            return mismatch("gen payload is a variable name")
        (i,) = step.premises
        if step.conclusion != ForAll(step.payload, conclusions[i]):
            return mismatch("conclusion is not the generalization")
        for assumption in deps:
            if step.payload in free_vars(assumption):
                return mismatch("generalized variable is free in an assumption")
    elif step.rule == RULE_INST:
        (i,) = step.premises
        quantified = conclusions[i]
        if not isinstance(quantified, ForAll):
            return mismatch("premise is not a forall")
        if step.payload is None:
            return mismatch("inst payload is a term")
        try:
            expected = substitute(quantified.body, quantified.var, step.payload)
        except (ValueError, TypeError) as exc:
            return mismatch(str(exc))
        if step.conclusion != expected:
            return mismatch("conclusion is not the instance")
    elif step.rule == RULE_EVAL_TRUE:
        try:
            truth = eval_bounded(step.conclusion)
        except NotBounded:
            return mismatch("eval-true needs a closed bounded sentence")
        if not truth:
            return Verdict.reject(index, REASON_EVAL_FALSE), frozenset()
    elif step.rule == RULE_PREMISE:
        if step.conclusion not in gamma:
            return mismatch("conclusion is not in the assumption set")
        deps = frozenset({step.conclusion})
    return None, deps


def check_units(
    gamma: Iterable[Formula],
    steps: Sequence,
    target: Formula,
    k: Optional[int] = None,
    per_instance_budget: Optional[int] = None,
) -> Generator[None, None, Verdict]:
    """Check `steps` in order, yielding once between metered units; the
    return value is the verdict.

    A step that is not a `ProofStep` is a machine-premise step: it is
    rejected without an instance bound k or when its assumptions are not in
    gamma, and otherwise checked through its own `instance_units` up to k.
    """
    gamma = frozenset(gamma)
    conclusions: list[Formula] = []
    dependencies: list[frozenset[Formula]] = []
    for index, step in enumerate(steps):
        if index:
            yield
        if isinstance(step, ProofStep):
            bad, deps = check_step(step, index, conclusions, gamma, dependencies)
        elif k is None or not step.gamma <= gamma:
            bad = Verdict.reject(index, REASON_RULE_MISMATCH)
        else:
            bad = yield from step.instance_units(index, k, per_instance_budget)
            deps = step.gamma
        if bad is not None:
            return bad
        conclusions.append(step.conclusion)
        dependencies.append(deps)
    if steps[-1].conclusion != target:
        return Verdict.reject(len(steps) - 1, REASON_TARGET_MISMATCH)
    return Verdict(True)


def _drain(units: Generator[None, None, Verdict]) -> Verdict:
    """Run a stepped check to its verdict."""
    while True:
        try:
            next(units)
        except StopIteration as stop:
            return stop.value


def check_proof(gamma: Iterable[Formula], proof: Proof, target: Formula) -> Verdict:
    """Deterministic, total verdict on a candidate proof of `target`."""
    return _drain(check_units(gamma, proof.steps, target))
