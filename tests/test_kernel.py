import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_true_delta0, random_valid_proof
from omegacheck import wire
from omegacheck.kernel import (
    LOGIC_SCHEMES,
    Proof,
    ProofStep,
    RULE_EVAL_TRUE,
    RULE_GEN,
    RULE_INDUCTION,
    RULE_INST,
    RULE_LOGIC,
    RULE_MP,
    RULE_PA_AXIOM,
    RULE_PREMISE,
    _drain,
    check_proof,
    check_units,
    equality_axioms,
    induction_axiom,
    logical_axiom_instance,
    make_proof,
    pa_axioms,
)
from omegacheck.machines import LOOP
from omegacheck.omega import build_loops_certificate
from omegacheck.syntax import (
    Eq,
    ForAll,
    Var,
    ZERO,
    eval_bounded,
    is_closed,
    is_delta0,
    numeral,
    parse_formula,
)

TRUTH = parse_formula("0 = 0")


def test_pa_axioms_contain_succ_nonzero():
    assert parse_formula("forall x. ~(S(x) = 0)") in pa_axioms()


def test_axioms_are_closed():
    for axiom in pa_axioms() + equality_axioms():
        assert is_closed(axiom)


def test_induction_axiom_shape():
    got = induction_axiom(Eq(Var("x"), Var("x")), "x")
    want = parse_formula(
        "(0 = 0 & forall x. (x = x -> S(x) = S(x))) -> forall x. x = x"
    )
    assert got == want


def test_one_step_eval_proof_accepted():
    proof = make_proof([ProofStep(TRUTH, RULE_EVAL_TRUE)])
    assert check_proof(frozenset(), proof, TRUTH).accepted


def test_modus_ponens_from_premises():
    a = parse_formula("0 = 0")
    b = parse_formula("0 <= 0")
    impl = parse_formula("0 = 0 -> 0 <= 0")
    proof = make_proof(
        [
            ProofStep(a, RULE_PREMISE),
            ProofStep(impl, RULE_PREMISE),
            ProofStep(b, RULE_MP, premises=(1, 0)),
        ]
    )
    assert check_proof(frozenset({a, impl}), proof, b).accepted


def test_forward_premise_reference_rejected():
    proof = Proof(
        (
            ProofStep(TRUTH, RULE_EVAL_TRUE),
            ProofStep(TRUTH, RULE_EVAL_TRUE),
            ProofStep(TRUTH, RULE_MP, premises=(5, 0)),
        ),
        TRUTH,
    )
    verdict = check_proof(frozenset(), proof, TRUTH)
    assert not verdict.accepted
    assert verdict.step == 2
    assert verdict.reason == "bad-premise-index"


def test_eval_false_rejected():
    lie = parse_formula("S(0) = 0")
    proof = make_proof([ProofStep(lie, RULE_EVAL_TRUE)])
    verdict = check_proof(frozenset(), proof, lie)
    assert (verdict.step, verdict.reason) == (0, "eval-false")


def test_target_mismatch():
    proof = make_proof([ProofStep(TRUTH, RULE_EVAL_TRUE)])
    verdict = check_proof(frozenset(), proof, parse_formula("0 <= 0"))
    assert verdict.reason == "target-mismatch"


def test_eval_true_requires_bounded_sentence():
    open_formula = parse_formula("x = x")
    proof = make_proof([ProofStep(open_formula, RULE_EVAL_TRUE)])
    verdict = check_proof(frozenset(), proof, open_formula)
    assert verdict.reason == "rule-mismatch"


def test_generalization_blocked_by_used_assumption():
    # x = 0 is assumed and then generalized over x: unsound, must be rejected.
    assumption = parse_formula("x = 0")
    proof = make_proof(
        [
            ProofStep(assumption, RULE_PREMISE),
            ProofStep(
                ForAll("x", assumption), RULE_GEN, premises=(0,), payload="x"
            ),
        ]
    )
    verdict = check_proof(frozenset({assumption}), proof, ForAll("x", assumption))
    assert verdict.reason == "rule-mismatch"
    # The same step is fine when the assumption does not mention x.
    other = parse_formula("y = y")
    proof2 = make_proof(
        [
            ProofStep(TRUTH, RULE_EVAL_TRUE),
            ProofStep(ForAll("x", TRUTH), RULE_GEN, premises=(0,), payload="x"),
        ]
    )
    assert check_proof(frozenset({other}), proof2, ForAll("x", TRUTH)).accepted


def test_all_logical_schemes_check():
    a = parse_formula("0 = 0")
    b = parse_formula("0 <= 0")
    c = parse_formula("S(0) = S(0)")
    phi = Eq(Var("x"), Var("x"))
    payloads = {
        "k": (a, b),
        "s": (a, b, c),
        "contra": (a, b),
        "and-intro": (a, b),
        "and-left": (a, b),
        "and-right": (a, b),
        "or-left": (a, b),
        "or-right": (a, b),
        "or-elim": (a, b, c),
        "exists-intro": ("x", phi, numeral(2)),
        "vacuous-forall": ("x", a),
        "forall-mono": ("x", phi, phi),
    }
    assert set(payloads) == set(LOGIC_SCHEMES)
    for scheme, items in payloads.items():
        conclusion = logical_axiom_instance(scheme, items)
        proof = make_proof(
            [ProofStep(conclusion, RULE_LOGIC, payload=(scheme, items))]
        )
        assert check_proof(frozenset(), proof, conclusion).accepted, scheme


def test_vacuous_forall_rejects_free_occurrence():
    phi = Eq(Var("x"), ZERO)
    with pytest.raises(ValueError):
        logical_axiom_instance("vacuous-forall", ("x", phi))


KERNEL_DIGEST = "39a977cfab5697d0ba3bbfb564934400fce484c92b0f592199ea1d9e9a683245"


def test_kernel_data_golden():
    # One digest over the wire encoding of the 21 axioms and of an instance
    # of each logic scheme, one with a renamed binder, and over the verdicts
    # on malformed logic payloads.
    a, b = parse_formula("x = 0"), parse_formula("0 <= y")
    c = parse_formula("exists y. x = y + z")
    instances = {
        "k": (a, b),
        "s": (a, b, c),
        "contra": (b, c),
        "and-intro": (c, a),
        "and-left": (a, b),
        "and-right": (b, a),
        "or-left": (a, c),
        "or-right": (c, b),
        "or-elim": (c, b, a),
        "exists-intro": ("z", c, Var("y")),
        "vacuous-forall": ("z", a),
        "forall-mono": ("x", a, c),
    }
    malformed = [
        ("nope", (a, b)),
        ("k", (a,)),
        ("s", (a, b)),
        ("vacuous-forall", ("x", a)),
        ("exists-intro", ("x", a, b)),
        ("k", (1, 2)),
        ("k", 5),
        (["k"], (a, b)),
        ("k",),
        None,
    ]
    digest = hashlib.sha256()
    for f in (*pa_axioms(), *equality_axioms()):
        digest.update(wire.encode_formula(f, bytearray()))
    for scheme in sorted(instances):
        f = logical_axiom_instance(scheme, instances[scheme])
        digest.update(wire.encode_formula(f, bytearray()))
    for payload in malformed:
        proof = make_proof([ProofStep(a, RULE_LOGIC, payload=payload)])
        verdict = check_proof(frozenset(), proof, a)
        digest.update(f"{verdict.reason}: {verdict.detail}\n".encode())
    assert digest.hexdigest() == KERNEL_DIGEST


@pytest.mark.parametrize(
    "scheme, items",
    [
        ("k", (Var("x"), Var("y"))),
        ("and-intro", (TRUTH, numeral(2))),
        ("vacuous-forall", ("z", Var("x"))),
        ("exists-intro", ("x", Var("x"), ZERO)),
    ],
)
def test_scheme_items_of_the_wrong_sort_are_a_rule_mismatch(scheme, items):
    conclusion = LOGIC_SCHEMES[scheme].instance(*items)  # builds unchecked
    proof = make_proof([ProofStep(conclusion, RULE_LOGIC, payload=(scheme, items))])
    verdict = check_proof(frozenset(), proof, conclusion)
    assert (verdict.accepted, verdict.reason) == (False, "rule-mismatch")
    assert "wrong sort" in verdict.detail


def test_bad_axiom_index_rejected():
    proof = make_proof([ProofStep(TRUTH, RULE_PA_AXIOM, payload=99)])
    assert check_proof(frozenset(), proof, TRUTH).reason == "rule-mismatch"


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_generated_proofs_accepted_and_sound(seed):
    rng = random.Random(seed)
    proof = random_valid_proof(rng)
    verdict = check_proof(frozenset(), proof, proof.target)
    assert verdict.accepted
    if is_delta0(proof.target) and is_closed(proof.target):
        assert eval_bounded(proof.target) is True


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_determinism_and_gamma_monotonicity(seed):
    rng = random.Random(seed)
    proof = random_valid_proof(rng)
    first = check_proof(frozenset(), proof, proof.target)
    second = check_proof(frozenset(), proof, proof.target)
    assert first == second
    extra = frozenset({random_true_delta0(rng), parse_formula("0 <= S(0)")})
    assert check_proof(extra, proof, proof.target).accepted


def test_proof_invariants():
    with pytest.raises(ValueError):
        Proof((), TRUTH)
    with pytest.raises(ValueError):
        Proof((ProofStep(TRUTH, RULE_EVAL_TRUE),), parse_formula("0 <= 0"))


def test_inst_renames_past_the_bound_variables():
    premise = parse_formula("forall y. exists x <= x1. x = y")
    conclusion = parse_formula("exists x2 <= x1. x2 = x")
    proof = make_proof(
        [
            ProofStep(premise, RULE_PREMISE),
            ProofStep(conclusion, RULE_INST, premises=(0,), payload=Var("x")),
        ]
    )
    assert check_proof(frozenset({premise}), proof, conclusion).accepted


IMPL = parse_formula("0 = 0 -> 0 <= 0")
LE = parse_formula("0 <= 0")
EVERY = parse_formula("forall x. x = x")
AXIOM = pa_axioms()[1]
EVAL = ProofStep(TRUTH, RULE_EVAL_TRUE)


@pytest.mark.parametrize(
    "steps, detail",
    [
        ([ProofStep(TRUTH, "nope")], "unknown rule"),
        ([EVAL, ProofStep(LE, RULE_MP, premises=(0,))], "wrong premise count"),
        ([ProofStep(TRUTH, RULE_INDUCTION, payload="x")], "induction payload"),
        ([ProofStep(TRUTH, RULE_INDUCTION, payload=("x", 5))], "induction payload"),
        (
            [
                ProofStep(IMPL, RULE_PREMISE),
                ProofStep(LE, RULE_PREMISE),
                ProofStep(LE, RULE_MP, premises=(0, 1)),
            ],
            "second premise is not the antecedent",
        ),
        (
            [EVAL, ProofStep(ForAll("y", TRUTH), RULE_GEN, (0,), "x")],
            "conclusion is not the generalization",
        ),
        ([EVAL, ProofStep(TRUTH, RULE_INST, (0,), ZERO)], "premise is not a forall"),
        (
            [ProofStep(EVERY, RULE_PREMISE), ProofStep(TRUTH, RULE_INST, (0,))],
            "inst payload is a term",
        ),
        (
            [
                ProofStep(EVERY, RULE_PREMISE),
                ProofStep(TRUTH, RULE_INST, premises=(0,), payload=TRUTH),
            ],
            "only a term can be substituted",
        ),
        (
            [
                ProofStep(EVERY, RULE_PREMISE),
                ProofStep(TRUTH, RULE_INST, premises=(0,), payload=numeral(1)),
            ],
            "conclusion is not the instance",
        ),
        ([ProofStep(AXIOM, RULE_PA_AXIOM, payload=True)], "bad axiom index"),
        (
            [EVAL, ProofStep(TRUTH, RULE_GEN, (None,), "x")],
            "premise is not a step index",
        ),
        (
            [EVAL, ProofStep(TRUTH, RULE_GEN, (0.0,), "x")],
            "premise is not a step index",
        ),
        (
            [EVAL, ProofStep(TRUTH, RULE_GEN, (True,), "x")],
            "premise is not a step index",
        ),
        (
            [EVAL, ProofStep(TRUTH, RULE_EVAL_TRUE, premises=None)],
            "premises are not a sequence",
        ),
        ([EVAL, ProofStep(TRUTH, [RULE_MP])], "unknown rule"),
        ([EVAL, ProofStep(5, RULE_EVAL_TRUE)], "conclusion is not a formula"),
        ([EVAL, ProofStep([], RULE_PREMISE)], "conclusion is not a formula"),
    ],
)
def test_each_malformed_step_is_a_rule_mismatch(steps, detail):
    proof = make_proof(steps)
    verdict = check_proof(frozenset({IMPL, LE, EVERY}), proof, proof.target)
    assert (verdict.accepted, verdict.step) == (False, len(steps) - 1)
    assert verdict.reason == "rule-mismatch"
    assert detail in verdict.detail


def test_check_units_defaults_the_instance_budget():
    cert = build_loops_certificate(LOOP, 0)
    units = check_units(frozenset(), (cert,), cert.conclusion, 3)
    assert _drain(units).accepted
