import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import naive_eval, random_formula
from omegacheck.syntax import (
    Add,
    BoundedExists,
    Eq,
    Exists,
    ForAll,
    NotBounded,
    Succ,
    SyntaxError_,
    Var,
    ZERO,
    _pinned,
    eval_bounded,
    free_vars,
    is_closed,
    is_delta0,
    numeral,
    numeral_value,
    parse_formula,
    print_formula,
    print_term,
    recall,
    substitute,
)


def S(t):
    return Succ(t)


def test_parse_atomic():
    assert parse_formula("0 = 0") == Eq(ZERO, ZERO)


def test_parse_forall():
    assert parse_formula("forall x. x = x") == ForAll("x", Eq(Var("x"), Var("x")))


def test_parse_bounded_exists():
    f = parse_formula("exists x <= S(S(0)). x = S(0)")
    assert f == BoundedExists("x", S(S(ZERO)), Eq(Var("x"), S(ZERO)))
    assert parse_formula(print_formula(f)) == f


def test_parse_reports_position():
    with pytest.raises(SyntaxError_) as info:
        parse_formula("0 = ?")
    assert info.value.position == 4


def test_precedence_and_associativity():
    f = parse_formula("0 = 0 & 0 <= 0 | 0 = 0 -> 0 = 0 -> 0 = 0")
    # -> binds loosest and to the right; | over &.
    assert f == parse_formula("((0 = 0 & 0 <= 0) | 0 = 0) -> (0 = 0 -> 0 = 0)")
    assert parse_formula("S(0) + S(0) * S(S(0)) =S(S(S(0)))") == parse_formula(
        "S(0) + (S(0) * S(S(0))) = S(S(S(0)))"
    )


@pytest.mark.parametrize(
    "text, printed",
    [
        ("x = 0 -> y = 0 -> z = 0", None),
        ("(x = 0 -> y = 0) -> z = 0", None),
        ("x = 0 | y = 0 | z = 0", None),
        ("x = 0 | (y = 0 | z = 0)", None),
        ("x = 0 & y = 0 | z = 0", None),
        ("x = 0 & (y = 0 | z = 0)", None),
        ("(x = 0 & y = 0) | (z = 0 -> x = 0)", "x = 0 & y = 0 | (z = 0 -> x = 0)"),
        ("~(x = 0 & y = 0)", None),
        ("~~(x <= 0)", "~~x <= 0"),
        ("~forall x. x = 0", "~(forall x. x = 0)"),
        ("x = 0 & exists y. y = 0", "x = 0 & (exists y. y = 0)"),
        ("x = 0 -> forall y. y = 0", None),
        ("(forall x. x = 0) -> y = 0", None),
        ("forall x <= (y + z). exists y. x = y", "forall x <= y + z. exists y. x = y"),
        ("x + y + z = x * y * z", None),
        ("x + (y + z) = x * (y * z)", None),
        ("(x + y) * z <= x + y * z", None),
        ("S((x + y)) = S(S(0)) * S(x * y)", "S(x + y) = S(S(0)) * S(x * y)"),
    ],
)
def test_printed_precedence(text, printed):
    assert print_formula(parse_formula(text)) == (printed or text)


def test_numerals():
    assert numeral(0) == ZERO
    assert numeral(3) == S(S(S(ZERO)))
    assert numeral_value(numeral(7)) == 7
    assert numeral_value(Add(ZERO, ZERO)) is None


def test_substitute_instance():
    f = Eq(Var("x"), ZERO)
    assert substitute(f, "x", numeral(2)) == Eq(S(S(ZERO)), ZERO)


def test_substitute_shadowing():
    f = ForAll("x", Eq(Var("x"), Var("x")))
    assert substitute(f, "x", numeral(1)) == f


def test_substitute_capture_avoidance():
    f = Exists("y", Eq(Var("y"), Var("x")))
    g = substitute(f, "x", Var("y"))
    assert isinstance(g, Exists)
    assert g.var != "y"
    assert g.body == Eq(Var(g.var), Var("y"))


def test_substitute_renames_on_bound_term_capture():
    f = BoundedExists("x", Var("y"), Eq(Var("x"), Var("x")))
    g = substitute(f, "y", Var("x"))
    assert isinstance(g, BoundedExists)
    assert g.bound == Var("x")
    assert g.var != "x"


def test_substitute_rename_avoids_the_bound_variables():
    # The fresh name for x must avoid x1, which the bound mentions.
    f = BoundedExists("x", Var("x1"), Eq(Var("x"), Var("y")))
    g = substitute(f, "y", Var("x"))
    assert g == BoundedExists("x2", Var("x1"), Eq(Var("x2"), Var("x")))


def test_eval_examples():
    assert eval_bounded(parse_formula("S(0) + S(0) = S(S(0))")) is True
    # Witness 3 among x <= 4: 3 * 3 = 9.
    nine = "S(S(S(S(S(S(S(S(S(0)))))))))"
    four = "S(S(S(S(0))))"
    f = parse_formula(f"exists x <= {four}. x * x = {nine}")
    assert eval_bounded(f) is True
    assert naive_eval(f) is True
    g = parse_formula(f"forall x <= S(S(0)). x + x <= {four}")
    assert eval_bounded(g) is True
    assert naive_eval(g) is True


def test_eval_rejects_unbounded():
    with pytest.raises(NotBounded):
        eval_bounded(parse_formula("forall x. x = x"))
    with pytest.raises(NotBounded):
        eval_bounded(parse_formula("x = x"))


def test_delta0_recognition_is_syntactic():
    assert is_delta0(parse_formula("forall x <= S(0). exists y <= x. y <= x"))
    assert not is_delta0(parse_formula("forall x <= S(0). exists y. y <= x"))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 4))
def test_print_parse_roundtrip(seed, depth):
    rng = random.Random(seed)
    f = random_formula(rng, depth)
    assert parse_formula(print_formula(f)) == f


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 6))
def test_substitution_removes_variable(seed, value):
    rng = random.Random(seed)
    f = random_formula(rng, 3)
    for var in sorted(free_vars(f)):
        g = substitute(f, var, numeral(value))
        assert var not in free_vars(g)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_eval_agrees_with_naive_interpreter(seed):
    from conftest import random_closed_delta0

    rng = random.Random(seed)
    f = random_closed_delta0(rng, 3)
    assert is_closed(f) and is_delta0(f)
    assert eval_bounded(f) == naive_eval(f)


def _power_of_two(k: int) -> str:
    """2^k as a product of k factors S(S(0)) (k >= 1)."""
    return " * ".join(["S(S(0))"] * k)


def test_a_huge_bound_ends_at_the_first_deciding_instance():
    # 2^64 is past what `len` of a range can report; neither loop sizes it.
    huge = _power_of_two(64)
    assert eval_bounded(parse_formula(f"forall x <= {huge}. x = 0")) is False
    assert eval_bounded(parse_formula(f"exists x <= {huge}. ~(x = 0)")) is True


_BIG = "S(" * 5000 + "0" + ")" * 5000  # past the numeral cache's 4096 entries
_SMALLER = "S(" * 4999 + "0" + ")" * 4999


# Each shape of `=`/`<=` operand the evaluator reads directly (a variable, a
# numeral, zero) or hands to `eval_term` (anything else), on either side.
@pytest.mark.parametrize(
    "text, truth",
    [
        pytest.param("exists x <= S(S(S(0))). x = S(S(0))", True, id="var=num"),
        pytest.param("forall x <= S(S(S(0))). x <= S(S(0))", False, id="var<=num"),
        pytest.param("exists x <= S(S(0)). S(S(S(0))) = x", False, id="num=var"),
        pytest.param("forall x <= S(S(0)). S(0) <= x", False, id="num<=var"),
        pytest.param("exists x <= S(S(0)). 0 = x", True, id="zero=var"),
        pytest.param("forall x <= S(S(0)). x <= 0", False, id="var<=zero"),
        pytest.param("forall x <= S(S(0)). 0 <= x", True, id="zero<=var"),
        pytest.param("0 = 0 & 0 <= 0 & ~S(0) <= 0", True, id="zero-num"),
        pytest.param("exists x <= S(S(0)). S(x) = S(S(S(0)))", True, id="succ=num"),
        pytest.param(
            "forall x <= S(S(0)). x <= S(x) & ~S(S(x)) <= x", True, id="var-succ"
        ),
        pytest.param(
            "exists x <= S(S(0)). S(S(0)) <= S(x) & S(x) <= S(S(0))",
            True,
            id="num-succ",
        ),
        pytest.param(
            "exists x <= S(S(S(0))). x + x = S(S(S(S(0))))", True, id="add=num"
        ),
        pytest.param(
            "forall x <= S(S(0)). x * 0 = 0 & 0 = 0 * x", True, id="mul-zero"
        ),
        pytest.param("forall x <= S(S(0)). x * x <= x + x", True, id="mul<=add"),
        pytest.param("exists x <= S(S(0)). S(S(0)) * x <= x", True, id="mul<=var"),
        pytest.param(
            "exists x <= S(S(0)). x * S(S(0)) = S(S(S(0)))", False, id="mul=num"
        ),
        pytest.param(f"forall x <= S(S(S(0))). x <= {_BIG}", True, id="var<=big"),
        pytest.param(f"{_BIG} <= {_SMALLER}", False, id="big<=big"),
        pytest.param(
            f"exists x <= S(S(0)). x + {_SMALLER} = {_BIG}", True, id="add=big"
        ),
        pytest.param(
            f"exists y <= S(0). {_BIG} = S(y) + {_SMALLER}", True, id="big=add"
        ),
    ],
)
def test_eval_reads_atom_operands_as_the_naive_interpreter(text, truth):
    f = parse_formula(text)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(max(saved, 12_000))  # the naive interpreter recurses
    try:
        assert naive_eval(f) is truth
    finally:
        sys.setrecursionlimit(saved)
    assert eval_bounded(f) is truth


@pytest.mark.parametrize(
    "source", ["0123456789abcdefXY", b"0123456789abcdefXY"], ids=["str", "bytes"]
)
def test_recall_tests_room_and_fit_before_comparing(source):
    # One rule for both readers, over characters or bytes. A span that has no
    # room or does not fit is neither compared nor dropped, so a repeat past
    # the nesting cap costs no comparison at each level it is met.
    entry = (source, 0, 18, "tree")
    memo = {source[:16]: entry}
    other = source[:17] + source[:1]  # the same first 16 units, then a change
    assert recall(memo, source, 1, 18) == (None, 0)  # no span starts so
    assert recall(memo, source, 0, 18) == (entry, 18)
    assert recall(memo, other, 0, 17) == (None, 0)
    assert recall(memo, other, 0, 18, lambda hit: False) == (None, 0)
    assert memo == {source[:16]: entry}
    assert recall(memo, other, 0, 18, lambda hit: hit is entry) == (None, 18)
    assert memo == {}


@pytest.mark.parametrize(
    "text, values",
    [
        # The first leaf pins nothing: every value, in order.
        ("exists x <= 5. S(x) = 3", [0, 1, 2, 3, 4, 5]),
        ("exists x <= 3. x <= 1 | x = 2", [0, 1, 2, 3]),
        # A pin, then a leaf that pins nothing: the pinned value first, then
        # the rest without it.
        ("exists x <= 5. x = 3 | S(x) = 2", [3, 0, 1, 2, 4, 5]),
        ("exists x <= 4. (x = 2 | 4 = x) & 0 = 0 | x <= 1", [2, 4, 0, 1, 3]),
        # Only pins: their values in case order, each once, none past the bound.
        ("exists x <= 5. x = 4 | x = 9 | S(S(0)) = x | x = 4", [4, 2]),
    ],
)
def test_pinned_values_in_order(text, values):
    # Each number in the text stands for its numeral.
    q = parse_formula(re.sub(r"\d+", lambda m: print_term(numeral(int(m[0]))), text))
    assert list(_pinned(q.var, numeral_value(q.bound), q.body, {})) == values
