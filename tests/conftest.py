"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import random

import pytest

from omegacheck import kernel
from omegacheck.syntax import (
    Add,
    And,
    BoundedExists,
    BoundedForAll,
    Eq,
    Exists,
    ForAll,
    Formula,
    Implies,
    Le,
    Mul,
    Not,
    Or,
    Succ,
    Term,
    Var,
    ZERO,
    eval_bounded,
    numeral,
    substitute,
)

VARS = ("x", "y", "z", "u", "v")


# ---------------------------------------------------------------------------
# Independent naive interpreter (substitution-based, no environments) used
# as the truth oracle for eval_bounded.


def naive_term_value(t: Term) -> int:
    if isinstance(t, Succ):
        return 1 + naive_term_value(t.arg)
    if isinstance(t, Add):
        return naive_term_value(t.left) + naive_term_value(t.right)
    if isinstance(t, Mul):
        return naive_term_value(t.left) * naive_term_value(t.right)
    if isinstance(t, Var):
        raise ValueError("open term")
    return 0


def naive_eval(f: Formula) -> bool:
    if isinstance(f, Eq):
        return naive_term_value(f.left) == naive_term_value(f.right)
    if isinstance(f, Le):
        return naive_term_value(f.left) <= naive_term_value(f.right)
    if isinstance(f, Not):
        return not naive_eval(f.body)
    if isinstance(f, And):
        return naive_eval(f.left) and naive_eval(f.right)
    if isinstance(f, Or):
        return naive_eval(f.left) or naive_eval(f.right)
    if isinstance(f, Implies):
        return (not naive_eval(f.left)) or naive_eval(f.right)
    if isinstance(f, BoundedExists):
        limit = naive_term_value(f.bound)
        return any(
            naive_eval(substitute(f.body, f.var, numeral(i)))
            for i in range(limit + 1)
        )
    if isinstance(f, BoundedForAll):
        limit = naive_term_value(f.bound)
        return all(
            naive_eval(substitute(f.body, f.var, numeral(i)))
            for i in range(limit + 1)
        )
    raise ValueError("not a bounded sentence")


# ---------------------------------------------------------------------------
# Random syntax


def random_term(rng: random.Random, depth: int, free_vars=VARS) -> Term:
    if depth <= 0:
        if free_vars and rng.random() < 0.4:
            return Var(rng.choice(free_vars))
        return numeral(rng.randrange(4))
    pick = rng.randrange(4)
    if pick == 0:
        return Succ(random_term(rng, depth - 1, free_vars))
    if pick == 1:
        return Add(
            random_term(rng, depth - 1, free_vars),
            random_term(rng, depth - 1, free_vars),
        )
    if pick == 2:
        return Mul(
            random_term(rng, depth - 1, free_vars),
            random_term(rng, depth - 1, free_vars),
        )
    return random_term(rng, 0, free_vars)


def random_formula(rng: random.Random, depth: int, free_vars=VARS) -> Formula:
    """Arbitrary formula tree; may be open and may mix quantifier kinds."""
    if depth <= 0:
        left = random_term(rng, 1, free_vars)
        right = random_term(rng, 1, free_vars)
        return Eq(left, right) if rng.random() < 0.5 else Le(left, right)
    pick = rng.randrange(8)
    if pick == 0:
        return Not(random_formula(rng, depth - 1, free_vars))
    if pick in (1, 2, 3):
        kind = (And, Or, Implies)[pick - 1]
        return kind(
            random_formula(rng, depth - 1, free_vars),
            random_formula(rng, depth - 1, free_vars),
        )
    var = rng.choice(VARS)
    inner_free = tuple(sorted(set(free_vars) | {var}))
    if pick == 4:
        return ForAll(var, random_formula(rng, depth - 1, inner_free))
    if pick == 5:
        return Exists(var, random_formula(rng, depth - 1, inner_free))
    bound = random_term(rng, 1, tuple(v for v in free_vars if v != var))
    body = random_formula(rng, depth - 1, inner_free)
    if pick == 6:
        return BoundedForAll(var, bound, body)
    return BoundedExists(var, bound, body)


def random_closed_delta0(rng: random.Random, depth: int = 2) -> Formula:
    """Random closed bounded sentence (possibly false)."""
    if depth <= 0 or rng.random() < 0.4:
        left = random_term(rng, 1, ())
        right = random_term(rng, 1, ())
        return Eq(left, right) if rng.random() < 0.5 else Le(left, right)
    pick = rng.randrange(5)
    if pick == 0:
        return Not(random_closed_delta0(rng, depth - 1))
    if pick in (1, 2):
        kind = (And, Or)[pick - 1]
        return kind(
            random_closed_delta0(rng, depth - 1),
            random_closed_delta0(rng, depth - 1),
        )
    var = rng.choice(VARS)
    bound = numeral(rng.randrange(4))
    left = Var(var) if rng.random() < 0.7 else random_term(rng, 1, (var,))
    body_atom = (
        Eq(left, random_term(rng, 1, (var,)))
        if rng.random() < 0.5
        else Le(left, random_term(rng, 1, (var,)))
    )
    if pick == 3:
        return BoundedForAll(var, bound, body_atom)
    return BoundedExists(var, bound, body_atom)


def random_true_delta0(rng: random.Random, depth: int = 2) -> Formula:
    f = random_closed_delta0(rng, depth)
    return f if eval_bounded(f) else Not(f)


# ---------------------------------------------------------------------------
# Random proofs (valid by construction) and mutations


def random_valid_proof(rng: random.Random) -> kernel.Proof:
    pattern = rng.randrange(6)
    if pattern == 0:
        f = random_true_delta0(rng)
        return kernel.make_proof([kernel.ProofStep(f, kernel.RULE_EVAL_TRUE)])
    if pattern == 1:
        a = random_true_delta0(rng)
        b = random_true_delta0(rng)
        scheme = kernel.logical_axiom_instance("and-intro", (a, b))
        return kernel.make_proof(
            [
                kernel.ProofStep(a, kernel.RULE_EVAL_TRUE),
                kernel.ProofStep(b, kernel.RULE_EVAL_TRUE),
                kernel.ProofStep(
                    scheme, kernel.RULE_LOGIC, payload=("and-intro", (a, b))
                ),
                kernel.ProofStep(
                    Implies(b, And(a, b)), kernel.RULE_MP, premises=(2, 0)
                ),
                kernel.ProofStep(And(a, b), kernel.RULE_MP, premises=(3, 1)),
            ]
        )
    if pattern == 2:
        a = random_true_delta0(rng)
        b = random_closed_delta0(rng)
        return kernel.make_proof(
            [
                kernel.ProofStep(a, kernel.RULE_EVAL_TRUE),
                kernel.ProofStep(
                    Implies(a, Or(a, b)),
                    kernel.RULE_LOGIC,
                    payload=("or-left", (a, b)),
                ),
                kernel.ProofStep(Or(a, b), kernel.RULE_MP, premises=(1, 0)),
            ]
        )
    if pattern == 3:
        axioms = kernel.pa_axioms()
        i = rng.randrange(len(axioms))
        return kernel.make_proof(
            [kernel.ProofStep(axioms[i], kernel.RULE_PA_AXIOM, payload=i)]
        )
    if pattern == 4:
        # Universal instantiation of x + 0 = x at a random numeral.
        axioms = kernel.pa_axioms()
        value = numeral(rng.randrange(5))
        instance = Eq(Add(value, ZERO), value)
        return kernel.make_proof(
            [
                kernel.ProofStep(axioms[2], kernel.RULE_PA_AXIOM, payload=2),
                kernel.ProofStep(
                    instance, kernel.RULE_INST, premises=(0,), payload=value
                ),
            ]
        )
    f = random_true_delta0(rng, depth=1)
    var = rng.choice(VARS)
    return kernel.make_proof(
        [
            kernel.ProofStep(f, kernel.RULE_EVAL_TRUE),
            kernel.ProofStep(
                ForAll(var, f), kernel.RULE_GEN, premises=(0,), payload=var
            ),
        ]
    )


def mutate_bytes(rng: random.Random, data: bytes) -> bytes:
    if not data:
        return bytes([rng.randrange(256)])
    kind = rng.randrange(4)
    pos = rng.randrange(len(data))
    if kind == 0:
        return data[:pos] + bytes([rng.randrange(256)]) + data[pos + 1 :]
    if kind == 1:
        return data[:pos]
    if kind == 2:
        return data[:pos] + bytes([rng.randrange(256)]) + data[pos:]
    return data + bytes([rng.randrange(256)])


def answers(run):
    """Every answer of an oracle's run, stepped until it answers: "running"
    for each unit it yields, then "yes" or "no"."""
    seen = []
    while True:
        try:
            next(run)
        except StopIteration as stop:
            return seen + ["yes" if stop.value else "no"]
        seen.append("running")


@pytest.fixture
def rng():
    return random.Random(20260808)
