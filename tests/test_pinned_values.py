"""A bounded existential tries only the values its body pins.

`exists v <= B. phi` tries, through `|` and the left operand of `&`, the
value of each `v = t` leaf (v not free in t) and falls back to every value
at the first leaf of another shape. These tests hold the evaluator to the
naive substitution interpreter of `conftest`, which enumerates every value
and never calls the evaluator, on sentences built around such shapes.
"""

import random
from collections import Counter

from conftest import VARS, naive_eval, random_term
from omegacheck import syntax
from omegacheck.syntax import (
    Add,
    And,
    BoundedExists,
    BoundedForAll,
    Eq,
    Implies,
    Le,
    Mul,
    Not,
    Or,
    Succ,
    Var,
    ZERO,
    eval_bounded,
    numeral,
    parse_formula,
    print_term,
)

SENTENCES = 10_000

# Leaf shapes: the first two pin v, the rest make the evaluator enumerate.
PINNING = ("v=t", "t=v", "above", "duplicate")
OTHER = ("v in t", "<=", "~", "->", "no v", "rebound", "inner")


def _leaf(rng, var, scope, limit, depth, seen: Counter):
    """One formula about `var` in `scope`: a pin of v or a leaf of another
    shape, or a quantifier around more of them. `limit` is the value of
    v's bound when it is a numeral, else None."""
    others = _without(scope, var)
    kind = rng.choice(PINNING + OTHER if depth > 0 else PINNING + OTHER[:5])
    seen[kind] += 1
    v = Var(var)
    t = random_term(rng, 1, others)
    if kind == "v=t":
        return Eq(v, t)
    if kind == "t=v":
        return Eq(t, v)
    if kind == "above":  # a candidate past the bound, which is skipped
        past = (3 if limit is None else limit) + 1 + rng.randrange(3)
        return Eq(v, numeral(past))
    if kind == "duplicate":  # two cases pinning one value
        case = Eq(t, v) if rng.random() < 0.5 else Eq(v, t)
        return Or(Eq(v, t), And(case, Le(v, numeral(rng.randrange(6)))))
    if kind == "v in t":
        grown = rng.choice((Succ(v), Add(t, v), Mul(v, t), Add(v, ZERO)))
        return Eq(v, grown) if rng.random() < 0.5 else Eq(grown, v)
    if kind == "<=":
        return Le(v, t) if rng.random() < 0.5 else Le(t, v)
    if kind == "~":
        return Not(Eq(v, t))
    if kind == "->":
        return Implies(Eq(v, t), Eq(v, random_term(rng, 1, others)))
    if kind == "no v":
        return Eq(t, random_term(rng, 1, others))
    # A quantifier inside the body: of v itself, or of another variable.
    inner = var if kind == "rebound" else rng.choice(VARS)
    cls = rng.choice((BoundedExists, BoundedForAll))
    bound = _bound(rng, _without(scope, inner))
    inner_scope = tuple(sorted({*scope, inner}))
    return cls(inner, bound, _body(rng, inner, inner_scope, None, depth - 1, seen))


def _body(rng, var, scope, limit, depth, seen: Counter):
    """Cases joined by `|` and `&`, each a leaf about `var` (see `_leaf`)."""
    if depth <= 0 or rng.random() < 0.3:
        return _leaf(rng, var, scope, limit, depth, seen)
    kind = rng.choice((Or, Or, And))
    left = _body(rng, var, scope, limit, depth - 1, seen)
    return kind(left, _body(rng, var, scope, limit, depth - 1, seen))


def _without(scope, var):
    return tuple(name for name in scope if name != var)


def _bound(rng, scope):
    if rng.random() < 0.7:
        return numeral(rng.randrange(6))
    return random_term(rng, 1, scope)


def one_point_sentence(rng: random.Random, seen: Counter):
    """A closed bounded sentence: up to two quantifiers of either kind,
    then an existential whose body is built around one-point shapes."""
    scope: tuple = ()
    prefix = []
    for _ in range(rng.randrange(3)):
        name = rng.choice(VARS)
        cls = rng.choice((BoundedExists, BoundedForAll))
        prefix.append((cls, name, _bound(rng, _without(scope, name))))
        scope = tuple(sorted({*scope, name}))
    var = rng.choice(VARS)
    bound = _bound(rng, _without(scope, var))
    scope = tuple(sorted({*scope, var}))
    limit = syntax.numeral_value(bound)
    shape = rng.randrange(10)
    if shape == 0 and limit is not None:  # every case past the bound
        seen["empty"] += 1
        body = Eq(Var(var), numeral(limit + 1))
        for k in range(rng.randrange(3)):
            body = Or(body, Eq(numeral(limit + 2 + k), Var(var)))
        body = And(body, _body(rng, var, scope, limit, 1, seen))
    elif shape == 1:  # a pin beside a leaf that pins nothing, in either order
        seen["mixed |"] += 1
        pin = Eq(Var(var), random_term(rng, 1, _without(scope, var)))
        other = Le(Var(var), numeral(rng.randrange(6)))
        body = Or(pin, other) if rng.random() < 0.5 else Or(other, pin)
        body = Or(body, _body(rng, var, scope, limit, 2, seen))
    else:
        body = _body(rng, var, scope, limit, 3, seen)
    f = BoundedExists(var, bound, body)
    for cls, name, outer in reversed(prefix):
        f = cls(name, outer, f)
    return f


def test_one_point_sentences_agree_with_the_naive_interpreter():
    rng = random.Random(2027)
    seen: Counter = Counter()
    truths = Counter()
    for _ in range(SENTENCES):
        f = one_point_sentence(rng, seen)
        truth = naive_eval(f)
        assert eval_bounded(f) is truth, syntax.print_formula(f)
        truths[truth] += 1
    for kind in PINNING + OTHER + ("empty", "mixed |"):
        assert seen[kind] >= 200, (kind, seen)
    assert min(truths.values()) >= SENTENCES // 5, truths


def test_a_pinned_existential_evaluates_few_terms(monkeypatch):
    # Enumerating 0..1000 would evaluate `7 * 100` once per value.
    def n(k):
        return print_term(numeral(k))

    text = f"exists x <= {n(10)} * {n(100)}. x = {n(7)} * {n(100)} & 0 = 0"
    f = parse_formula(text)
    calls = Counter()
    eval_term = syntax.eval_term

    def counted(t, env):
        calls["eval_term"] += 1
        return eval_term(t, env)

    monkeypatch.setattr(syntax, "eval_term", counted)
    assert eval_bounded(f) is True
    # The bound, the pinned value, and the atom `x = 7 * 100` once.
    assert calls["eval_term"] <= 3
