"""Hilbert-style proof checker over the arithmetic syntax.

A proof is a linear sequence of steps, each justified by one rule with
back-references to earlier steps. Checking is local, deterministic and
total: every byte sequence that deserializes at all gets a verdict. The
walks over terms and formulas that checking uses run on explicit stacks, so
this holds at any depth without raising the interpreter's recursion limit.

Rules:
  pa-axiom i      cite the i-th arithmetic axiom
  eq-axiom i      cite the i-th equality axiom
  logic name ...  instance of a propositional/quantifier scheme
  induction v phi the induction instance for phi along v
  mp i j          modus ponens: step i is A -> B, step j is A
  gen v i         universal generalization (v must not be free in any
                  assumption the step depends on)
  inst t i        universal instantiation of step i's forall with term t
  eval-true       any true closed bounded sentence (truth is decided by
                  eval_bounded, which is total on that fragment)
  premise         member of the ambient assumption set

There is one stepped checker, `check_units`, and every verifier in the
package drains or wraps it. It checks steps in order and yields once
between metered units: each proof step is one unit, and a machine-premise
step (see `omega`) takes one more unit between consecutive instances 0..k.
The stepped oracles add one unit in front for deserializing the candidate.
A machine-premise step is only ever checked up to an instance bound k; with
no bound it is rejected, never accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterable, Optional, Sequence

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
    Var,
    ZERO,
    Add,
    eval_bounded,
    free_vars,
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
    steps: tuple[ProofStep, ...]
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
    def accept() -> "Verdict":
        return Verdict(True)

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

# scheme name -> item kinds ('f' formula, 't' term, 'v' variable name)
LOGIC_SCHEMES: dict[str, str] = {
    "k": "ff",
    "s": "fff",
    "contra": "ff",
    "and-intro": "ff",
    "and-left": "ff",
    "and-right": "ff",
    "or-left": "ff",
    "or-right": "ff",
    "or-elim": "fff",
    "exists-intro": "vft",
    "vacuous-forall": "vf",
    "forall-mono": "vff",
}


def logical_axiom_instance(scheme: str, items: tuple) -> Formula:
    """Build the scheme instance; raises ValueError on a malformed payload."""
    kinds = LOGIC_SCHEMES.get(scheme)
    if kinds is None:
        raise ValueError(f"unknown scheme {scheme!r}")
    if len(items) != len(kinds):
        raise ValueError(f"scheme {scheme!r} takes {len(kinds)} items")
    if scheme == "k":
        a, b = items
        return Implies(a, Implies(b, a))
    if scheme == "s":
        a, b, c = items
        return Implies(
            Implies(a, Implies(b, c)), Implies(Implies(a, b), Implies(a, c))
        )
    if scheme == "contra":
        a, b = items
        return Implies(Implies(Not(a), Not(b)), Implies(b, a))
    if scheme == "and-intro":
        a, b = items
        return Implies(a, Implies(b, And(a, b)))
    if scheme == "and-left":
        a, b = items
        return Implies(And(a, b), a)
    if scheme == "and-right":
        a, b = items
        return Implies(And(a, b), b)
    if scheme == "or-left":
        a, b = items
        return Implies(a, Or(a, b))
    if scheme == "or-right":
        a, b = items
        return Implies(b, Or(a, b))
    if scheme == "or-elim":
        a, b, c = items
        return Implies(Implies(a, c), Implies(Implies(b, c), Implies(Or(a, b), c)))
    if scheme == "exists-intro":
        var, phi, term = items
        return Implies(substitute(phi, var, term), Exists(var, phi))
    if scheme == "vacuous-forall":
        var, phi = items
        if var in free_vars(phi):
            raise ValueError(f"{var!r} occurs free in vacuous-forall body")
        return Implies(phi, ForAll(var, phi))
    # forall-mono
    var, phi, psi = items
    return Implies(
        ForAll(var, Implies(phi, psi)), Implies(ForAll(var, phi), ForAll(var, psi))
    )


# ---------------------------------------------------------------------------
# Step checking

_PREMISE_ARITY = {
    RULE_PA_AXIOM: 0,
    RULE_EQ_AXIOM: 0,
    RULE_LOGIC: 0,
    RULE_INDUCTION: 0,
    RULE_MP: 2,
    RULE_GEN: 1,
    RULE_INST: 1,
    RULE_EVAL_TRUE: 0,
    RULE_PREMISE: 0,
}


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
    arity = _PREMISE_ARITY.get(step.rule)
    if arity is None:
        return Verdict.reject(index, REASON_RULE_MISMATCH, "unknown rule"), frozenset()
    if len(step.premises) != arity:
        return (
            Verdict.reject(index, REASON_RULE_MISMATCH, "wrong premise count"),
            frozenset(),
        )
    for p in step.premises:
        if not (0 <= p < index):
            return Verdict.reject(index, REASON_BAD_PREMISE), frozenset()
    deps = frozenset().union(*(dependencies[p] for p in step.premises)) if step.premises else frozenset()

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
        if not isinstance(step.payload, str):
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
    return Verdict.accept()


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
