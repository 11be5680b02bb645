"""Hash-consed syntax: every node is built through one weak table, so equal
trees are one object, and the table holds exactly the live nodes."""

import gc
import random
import sys

import pytest

from conftest import random_formula
from omegacheck import syntax
from omegacheck.arithmetize import halted_by_formula
from omegacheck.kernel import (
    Proof,
    ProofStep,
    RULE_EVAL_TRUE,
    RULE_GEN,
    check_proof,
    make_proof,
)
from omegacheck.machines import CORPUS, LOOP
from omegacheck.omega import build_loops_certificate
from omegacheck.syntax import (
    And,
    BoundedExists,
    BoundedForAll,
    Eq,
    Exists,
    ForAll,
    Le,
    Not,
    Succ,
    Var,
    ZERO,
    Zero,
    numeral,
    parse_formula,
    print_formula,
    substitute,
)
from omegacheck.wire import Reader, decode_formula, encode_formula, serialize_proof


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


def test_children_must_be_nodes():
    with pytest.raises(TypeError):
        Eq(0, ZERO)
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


def test_roundtrips_give_back_the_same_object():
    # The formulas of acceptance criterion 8.
    rng = random.Random(808)
    for _ in range(1000):
        f = random_formula(rng, rng.randrange(1, 4))
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
