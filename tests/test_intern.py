"""Hash-consed syntax: every node is built through one weak table, so equal
trees are one object, and the table holds exactly the live nodes."""

import gc
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_formula
from omegacheck import syntax
from omegacheck.arithmetize import (
    halted_by_formula,
    halts_no_formula,
    halts_yes_formula,
)
from omegacheck.dovetail import existence_proof
from omegacheck.kernel import (
    Proof,
    ProofStep,
    RULE_EVAL_TRUE,
    RULE_GEN,
    check_proof,
    make_proof,
)
from omegacheck.machines import CORPUS, LOOP, run
from omegacheck.omega import (
    OmegaProof,
    build_loops_certificate,
    deserialize_omega_proof,
    serialize_omega_proof,
)
from omegacheck.syntax import (
    Add,
    And,
    BoundedExists,
    BoundedForAll,
    Eq,
    Exists,
    ForAll,
    Implies,
    Le,
    Mul,
    Not,
    Or,
    Succ,
    Var,
    ZERO,
    Zero,
    eval_term,
    numeral,
    numeral_value,
    parse_formula,
    print_formula,
    substitute,
)
from omegacheck.wire import (
    Reader,
    decode_formula,
    deserialize_proof,
    encode_formula,
    serialize_proof,
)


def _table_size() -> int:
    gc.collect()
    return len(syntax._INTERNED)


def test_equal_fields_give_one_node():
    assert Var("x") is Var("x")
    assert Zero() is ZERO
    assert Succ(Succ(ZERO)) is numeral(2)
    built = And(Eq(Var("x"), numeral(1)), Not(Le(ZERO, Var("y"))))
    assert parse_formula("x = S(0) & ~0 <= y") is built


def test_nodes_are_immutable():
    node = Var("x")
    with pytest.raises(AttributeError):
        node.name = "y"
    with pytest.raises(AttributeError):
        del node.name
    assert Var("x").name == "x"


_BODY = Eq(Var("x"), ZERO)

# Every place a constructor takes a child node, as a build of a bad child.
_SHAPES = {
    "Succ": Succ,
    "Not": Not,
    **{
        f"{cls.__name__}.{side}": (
            (lambda bad, cls=cls: cls(bad, ZERO))
            if side == "left"
            else (lambda bad, cls=cls: cls(ZERO, bad))
        )
        for cls in (Add, Mul, Eq, Le, And, Or, Implies)
        for side in ("left", "right")
    },
    "ForAll.body": lambda bad: ForAll("x", bad),
    "Exists.body": lambda bad: Exists("x", bad),
    "BoundedForAll.bound": lambda bad: BoundedForAll("x", bad, _BODY),
    "BoundedForAll.body": lambda bad: BoundedForAll("x", ZERO, bad),
    "BoundedExists.bound": lambda bad: BoundedExists("x", bad, _BODY),
    "BoundedExists.body": lambda bad: BoundedExists("x", ZERO, bad),
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_children_must_be_nodes(shape):
    # Every check runs before anything is recorded: a refused call leaves
    # no half-built node in the table, even while its frames are kept.
    before = _table_size()
    for bad in (0, "x", None, (ZERO,)):
        with pytest.raises(TypeError, match="are nodes") as refused:
            _SHAPES[shape](bad)
        assert len(syntax._INTERNED) == before, refused.traceback


@pytest.mark.parametrize("build", [BoundedForAll, BoundedExists])
def test_a_bound_must_not_mention_its_variable(build):
    bounds = [Var("x"), Succ(Var("x")), Add(Var("y"), Mul(Var("x"), ZERO))]
    before = _table_size()
    for bound in bounds:
        with pytest.raises(ValueError, match="mentions x") as refused:
            build("x", bound, _BODY)
        assert len(syntax._INTERNED) == before, refused.traceback
    node = build("y", bounds[0], _BODY)  # the bound of another variable
    assert node.bound is bounds[0]
    assert len(syntax._INTERNED) == before + 1


def test_only_a_term_is_substituted():
    with pytest.raises(TypeError):
        substitute(Eq(Var("x"), ZERO), "x", Eq(ZERO, ZERO))


@pytest.mark.parametrize("name", ["S", "forall", "1x", "x-y", ""])
def test_binders_take_only_variable_names(name):
    body = Eq(Var("x"), ZERO)
    for build in (ForAll, Exists):
        with pytest.raises(ValueError, match="bad variable name"):
            build(name, body)
    for build in (BoundedForAll, BoundedExists):
        with pytest.raises(ValueError, match="bad variable name"):
            build(name, ZERO, body)
    with pytest.raises(TypeError):
        ForAll(5, body)


def test_generalizing_over_a_non_name_is_a_rule_mismatch():
    truth = parse_formula("0 = 0")
    proof = make_proof(
        [
            ProofStep(truth, RULE_EVAL_TRUE),
            ProofStep(ForAll("x", truth), RULE_GEN, premises=(0,), payload="S"),
        ]
    )
    verdict = check_proof(frozenset(), proof, ForAll("x", truth))
    assert (verdict.step, verdict.reason) == (1, "rule-mismatch")


def corpus_conclusions(top: int = 3) -> list:
    """The step conclusions of every corpus witness proof and loops
    certificate for n <= top, as decoded from their files' bytes: wide
    tableaux, numerals and nested bounded quantifiers."""
    out = []
    for m in CORPUS.values():
        for n in range(top + 1):
            result = run(m, n, 10_000)
            if result.outcome in ("yes", "no"):
                yes = result.outcome == "yes"
                target = (halts_yes_formula if yes else halts_no_formula)(m, n)
                proof = existence_proof(target.body, target.var, result.steps)
                out += deserialize_proof(serialize_proof(proof)).steps
            cert = build_loops_certificate(m, n)
            data = serialize_omega_proof(OmegaProof((cert,), cert.conclusion))
            out += deserialize_omega_proof(data).steps
    return list({id(s.conclusion): s.conclusion for s in out}.values())


def test_roundtrips_give_back_the_same_object():
    # The formulas of acceptance criterion 8, and the conclusions `check`
    # compares a target's text with.
    rng = random.Random(808)
    formulas = [random_formula(rng, rng.randrange(1, 4)) for _ in range(1000)]
    for f in formulas + corpus_conclusions():
        assert parse_formula(print_formula(f)) is f
        data = bytes(encode_formula(f, bytearray()))
        assert decode_formula(Reader(data)) is f


def test_substitute_returns_closed_subtrees_unchanged():
    tableau = halted_by_formula(LOOP, 1, 6, "yes")
    f = And(Le(numeral(3), Var("t")), tableau)
    assert substitute(tableau, "t", numeral(7)) is tableau
    instance = substitute(f, "t", numeral(7))
    assert instance.right is tableau
    assert instance is And(Le(numeral(3), numeral(7)), tableau)


def test_table_holds_only_live_nodes():
    halted_by_formula(LOOP, 5, 20, "yes")  # fills the numeral cache
    before = _table_size()
    tableau = halted_by_formula(LOOP, 5, 20, "yes")
    assert _table_size() > before
    del tableau
    assert _table_size() == before


def test_deep_chain_dies_quietly():
    caught = []
    saved = sys.unraisablehook
    sys.unraisablehook = caught.append
    try:
        before = _table_size()
        chain = Eq(Var("deep_chain_base"), ZERO)
        for _ in range(200_000):
            chain = Not(chain)
        assert _table_size() == before + 200_002
        del chain
        assert _table_size() == before
    finally:
        sys.unraisablehook = saved
    assert caught == []


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_generated_instances_are_the_serialized_instances(name):
    m = CORPUS[name]
    for n in range(6):
        cert = build_loops_certificate(m, n)
        for index in range(21):
            produced = cert.premise_machine.generate(index, 10**6)
            instance = substitute(cert.phi, cert.var, numeral(index))
            proof = Proof((ProofStep(instance, RULE_EVAL_TRUE),), instance)
            assert produced.proof_bytes == serialize_proof(proof)


# ---------------------------------------------------------------------------
# A successor records the number it denotes, if it is a numeral

ENV = {"x": 3, "y": 0}

terms = st.recursive(
    st.one_of(
        st.sampled_from([ZERO, Var("x"), Var("y")]),
        st.integers(0, 30).map(numeral),
    ),
    lambda inner: st.one_of(
        inner.map(Succ),
        st.tuples(inner, inner).map(lambda pair: Add(*pair)),
        st.tuples(inner, inner).map(lambda pair: Mul(*pair)),
    ),
    max_leaves=12,
)


def _walked_value(t):
    """The numeral's value by walking its successors; None if not one."""
    n = 0
    while isinstance(t, Succ):
        n, t = n + 1, t.arg
    return n if t is ZERO else None


def _naive_eval(t):
    if isinstance(t, Succ):
        return _naive_eval(t.arg) + 1
    if isinstance(t, (Add, Mul)):
        left, right = _naive_eval(t.left), _naive_eval(t.right)
        return left + right if isinstance(t, Add) else left * right
    return 0 if t is ZERO else ENV[t.name]


def _naive_encode(t) -> bytes:
    if t is ZERO:
        return b"\x01"
    if isinstance(t, Succ):
        return b"\x02" + _naive_encode(t.arg)
    if isinstance(t, Var):
        return b"\x05" + bytes([len(t.name)]) + t.name.encode()
    tag = b"\x03" if isinstance(t, Add) else b"\x04"
    return tag + _naive_encode(t.left) + _naive_encode(t.right)


@settings(max_examples=200, deadline=None)
@given(terms, st.integers(0, 3))
def test_numeral_record_reads_as_the_walk(term, wrap):
    for _ in range(wrap):  # as substituting into S(t) builds
        term = Succ(term)
    stack = [term]
    while stack:
        t = stack.pop()
        assert numeral_value(t) == _walked_value(t)
        stack += [getattr(t, name) for name in t.__match_args__ if name != "name"]
    assert eval_term(term, dict(ENV)) == _naive_eval(term)
    assert bytes(encode_formula(term, bytearray())) == _naive_encode(term)


@settings(max_examples=50, deadline=None)
@given(st.one_of(st.integers(0, 40), st.integers(4000, 9000)))
def test_decoded_numerals_carry_their_record(n):
    node = Reader(b"\x02" * n + b"\x01").field("t")
    built = ZERO
    for _ in range(n):
        built = Succ(built)
    assert node is built is numeral(n)
    assert numeral_value(node) == _walked_value(node) == n


# ---------------------------------------------------------------------------
# What a node records when it is built is what a walk of its tree computes


def _children(node):
    return [getattr(node, a) for a in node.__match_args__ if a not in ("name", "var")]


def _textbook_free_vars(node, memo: dict) -> frozenset:
    if node not in memo:
        if isinstance(node, Var):
            fv = {node.name}
        elif isinstance(node, (ForAll, Exists)):
            fv = _textbook_free_vars(node.body, memo) - {node.var}
        elif isinstance(node, (BoundedForAll, BoundedExists)):
            body = _textbook_free_vars(node.body, memo) - {node.var}
            fv = _textbook_free_vars(node.bound, memo) | body
        else:
            fv = set()
            for child in _children(node):
                fv |= _textbook_free_vars(child, memo)
        memo[node] = frozenset(fv)
    return memo[node]


def _has_unbounded(node, memo: dict) -> bool:
    if node not in memo:
        memo[node] = isinstance(node, (ForAll, Exists)) or any(
            _has_unbounded(child, memo) for child in _children(node)
        )
    return memo[node]


def test_recorded_attributes_match_a_naive_walk():
    rng = random.Random(2606)
    roots = [random_formula(rng, i % 5) for i in range(1000)]
    roots.append(halted_by_formula(LOOP, 1, 6, "yes"))
    fv_memo: dict = {}
    unbounded_memo: dict = {}
    seen: set = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        fv = syntax.free_vars(node)
        assert fv == _textbook_free_vars(node, fv_memo)
        assert syntax.is_delta0(node) is not _has_unbounded(node, unbounded_memo)
        assert numeral_value(node) == _walked_value(node)
        # The sets are shared: closed nodes have one, and a node whose set
        # equals a child's has that child's.
        assert fv or fv is syntax.free_vars(ZERO)
        kids = _children(node)
        if any(fv == syntax.free_vars(kid) for kid in kids):
            assert any(fv is syntax.free_vars(kid) for kid in kids)
        stack += kids
    kinds = {node.__class__ for node in seen}
    assert len(seen) > 5_000
    assert {ForAll, Exists, BoundedForAll, BoundedExists, Succ, Var} <= kinds
    assert any(syntax.free_vars(root) for root in roots)  # open formulas too
