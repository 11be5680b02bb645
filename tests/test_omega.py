import tracemalloc
from dataclasses import replace

import pytest

from omegacheck.arithmetize import EncodingOverflow, loops_formula
from omegacheck.dovetail import OmegaVerifierOracle
from omegacheck.kernel import Proof, ProofStep, RULE_EVAL_TRUE, check_proof, make_proof
from omegacheck import machines, omega, wire
from omegacheck.machines import (
    ALWAYS_YES,
    BUSY3,
    CORPUS,
    EVEN,
    LOOP,
    MachineDesc,
    run,
)
from omegacheck.omega import (
    GenResult,
    LoopsPremiseMachine,
    OmegaProof,
    OmegaStep,
    OmegaVerdict,
    build_loops_certificate,
    check_omega_bounded,
    check_omega_proof,
    deserialize_omega_proof,
    serialize_omega_proof,
)
from omegacheck.syntax import (
    ForAll,
    Le,
    Not,
    Or,
    Succ,
    Var,
    ZERO,
    numeral,
    parse_formula,
    substitute,
)
from omegacheck.wire import MalformedEncoding, serialize_proof

TRIVIAL_PHI = Not(Le(Succ(Var("t")), Var("t")))  # true at every numeral


class TrivialPremise:
    """Emits a one-step eval-true proof of the instance; no simulation."""

    def __init__(self, phi, var="t"):
        self.phi = phi
        self.var = var

    def generate(self, index, budget):
        instance = substitute(self.phi, self.var, numeral(index))
        proof = make_proof([ProofStep(instance, RULE_EVAL_TRUE)])
        return GenResult(serialize_proof(proof), 1)


class GarbageAt:
    def __init__(self, inner, bad_index):
        self.inner = inner
        self.bad_index = bad_index

    def generate(self, index, budget):
        if index == self.bad_index:
            return GenResult(b"\xff\xff\xff", 1)
        return self.inner.generate(index, budget)


class HogsBudgetAt:
    def __init__(self, inner, bad_index):
        self.inner = inner
        self.bad_index = bad_index

    def generate(self, index, budget):
        if index == self.bad_index:
            return GenResult(None, budget, exhausted=True)
        return self.inner.generate(index, budget)


def trivial_step(premise=None, phi=TRIVIAL_PHI):
    return OmegaStep(
        gamma=frozenset(),
        var="t",
        phi=phi,
        premise_machine=premise or TrivialPremise(phi),
        conclusion=ForAll("t", phi),
    )


def test_omega_step_validation():
    with pytest.raises(ValueError):
        OmegaStep(
            gamma=frozenset(),
            var="t",
            phi=parse_formula("0 = 0"),  # no free variable
            premise_machine=TrivialPremise(TRIVIAL_PHI),
            conclusion=ForAll("t", parse_formula("0 = 0")),
        )
    with pytest.raises(ValueError):
        OmegaStep(
            gamma=frozenset(),
            var="t",
            phi=TRIVIAL_PHI,
            premise_machine=TrivialPremise(TRIVIAL_PHI),
            conclusion=parse_formula("0 = 0"),
        )


def test_verdict_kinds_are_closed():
    assert OmegaVerdict.KINDS == {"accepted_up_to", "rejected", "budget_exhausted"}
    with pytest.raises(ValueError):
        OmegaVerdict("accepted")


def test_loops_certificate_accepted_for_loop():
    cert = build_loops_certificate(LOOP, 0)
    assert cert.conclusion == loops_formula(LOOP, 0)
    verdict = check_omega_bounded(cert, 50)
    assert verdict == OmegaVerdict("accepted_up_to", bound=50)
    verdict = check_omega_bounded(cert, 10)
    assert verdict == OmegaVerdict("accepted_up_to", bound=10)


def test_loops_certificate_rejected_for_halting_machine():
    cert = build_loops_certificate(ALWAYS_YES, 0)
    verdict = check_omega_bounded(cert, 5)
    assert verdict == OmegaVerdict("rejected", index=1, reason="eval-false")


def test_garbage_bytes_rejected_as_malformed():
    step = trivial_step(GarbageAt(TrivialPremise(TRIVIAL_PHI), 4))
    verdict = check_omega_bounded(step, 10)
    assert verdict == OmegaVerdict("rejected", index=4, reason="malformed-encoding")


def test_budget_exhaustion_reported_at_instance():
    step = trivial_step(HogsBudgetAt(TrivialPremise(TRIVIAL_PHI), 2))
    verdict = check_omega_bounded(step, 10, per_instance_budget=1000)
    assert verdict == OmegaVerdict("budget_exhausted", index=2)


def test_bound_monotonicity():
    cert = build_loops_certificate(LOOP, 1)
    assert check_omega_bounded(cert, 30).kind == "accepted_up_to"
    for smaller in (0, 5, 17):
        assert check_omega_bounded(cert, smaller) == OmegaVerdict(
            "accepted_up_to", bound=smaller
        )


def test_certificate_acceptance_implies_simulator_timeout():
    for m, n in ((LOOP, 0), (LOOP, 3)):
        k = 25
        assert check_omega_bounded(build_loops_certificate(m, n), k).kind == (
            "accepted_up_to"
        )
        assert run(m, n, k).outcome == "timeout"


def test_premise_machine_simulates_and_meters():
    cert = build_loops_certificate(LOOP, 0)
    assert isinstance(cert.premise_machine, LoopsPremiseMachine)
    produced = cert.premise_machine.generate(10, budget=5)
    assert produced.exhausted
    produced = cert.premise_machine.generate(10, budget=100)
    assert not produced.exhausted
    assert produced.steps_used == 11  # ten simulated steps plus emission


def test_omega_proof_accepted_conditional():
    cert = build_loops_certificate(LOOP, 0)
    proof = OmegaProof((cert,), cert.conclusion)
    verdict = check_omega_proof(frozenset(), proof, loops_formula(LOOP, 0), k=25)
    assert verdict.kind == "accepted_conditional"
    assert verdict.bound == 25


def test_omega_proof_target_mismatch():
    cert = build_loops_certificate(LOOP, 0)
    proof = OmegaProof((cert,), cert.conclusion)
    # EVEN halts on 0, so its loops formula embeds a halting tableau and is
    # a genuinely different sentence.
    verdict = check_omega_proof(frozenset(), proof, loops_formula(EVEN, 0), k=5)
    assert verdict.kind == "rejected"
    assert verdict.reason == "target-mismatch"


def test_omega_step_conclusion_usable_by_later_steps():
    cert = build_loops_certificate(LOOP, 0)
    instance = substitute(cert.phi, cert.var, numeral(7))
    proof = OmegaProof(
        (
            cert,
            ProofStep(instance, "inst", premises=(0,), payload=numeral(7)),
        ),
        instance,
    )
    verdict = check_omega_proof(frozenset(), proof, instance, k=3)
    assert verdict.kind == "accepted_conditional"


def test_finitary_embedding_matches_check_proof():
    truth = parse_formula("0 = 0")
    good = make_proof([ProofStep(truth, RULE_EVAL_TRUE)])
    wrapped = OmegaProof(good.steps, good.target)
    assert check_proof(frozenset(), good, truth).accepted
    assert check_omega_proof(frozenset(), wrapped, truth).kind == (
        "accepted_conditional"
    )
    lie = parse_formula("S(0) = 0")
    bad = make_proof([ProofStep(lie, RULE_EVAL_TRUE)])
    wrapped_bad = OmegaProof(bad.steps, bad.target)
    kernel_verdict = check_proof(frozenset(), bad, lie)
    omega_verdict = check_omega_proof(frozenset(), wrapped_bad, lie)
    assert not kernel_verdict.accepted and omega_verdict.kind == "rejected"
    assert omega_verdict.step == kernel_verdict.step
    assert omega_verdict.reason == kernel_verdict.reason


def test_check_proof_rejects_omega_steps():
    # check_proof has no instance bound, so a machine-premise step anywhere
    # in the proof is a rule mismatch, never an acceptance or a crash.
    cert = build_loops_certificate(LOOP, 0)
    truth = ProofStep(parse_formula("0 = 0"), RULE_EVAL_TRUE)
    for steps in ((cert,), (truth, cert)):
        proof = Proof(steps, cert.conclusion)
        verdict = check_proof(frozenset(), proof, cert.conclusion)
        assert not verdict.accepted
        assert (verdict.step, verdict.reason) == (len(steps) - 1, "rule-mismatch")


def test_negative_bound_is_refused():
    # Checking no instance at all must not pass for an acceptance.
    cert = build_loops_certificate(LOOP, 0)
    proof = OmegaProof((cert,), cert.conclusion)
    with pytest.raises(ValueError):
        check_omega_bounded(cert, -1)
    with pytest.raises(ValueError):
        check_omega_proof(frozenset(), proof, cert.conclusion, k=-1)
    run_ = OmegaVerifierOracle(k=-1).open(serialize_omega_proof(proof), cert.conclusion)
    next(run_)  # the decode
    with pytest.raises(ValueError):
        next(run_)


def test_gamma_containment_enforced():
    extra = parse_formula("0 = 0")
    step = OmegaStep(
        gamma=frozenset({extra}),
        var="t",
        phi=TRIVIAL_PHI,
        premise_machine=TrivialPremise(TRIVIAL_PHI),
        conclusion=ForAll("t", TRIVIAL_PHI),
    )
    proof = OmegaProof((step,), step.conclusion)
    assert check_omega_proof(frozenset(), proof, step.conclusion).kind == "rejected"
    assert (
        check_omega_proof(frozenset({extra}), proof, step.conclusion).kind
        == "accepted_conditional"
    )


def test_omega_wire_roundtrip():
    cert = build_loops_certificate(LOOP, 2)
    proof = OmegaProof((cert,), cert.conclusion)
    data = serialize_omega_proof(proof)
    back = deserialize_omega_proof(data)
    assert back.target == proof.target
    assert [type(s) for s in back.steps] == [OmegaStep]
    verdict = check_omega_proof(frozenset(), back, cert.conclusion, k=12)
    assert verdict.kind == "accepted_conditional"
    with pytest.raises(MalformedEncoding):
        deserialize_omega_proof(data[: len(data) // 2])


def test_certificate_input_does_not_set_the_memory_used():
    # Instance t simulates at most t steps, which read at most t input
    # strokes, so an input of 300 000 costs no more memory than one of 0.
    cert = build_loops_certificate(LOOP, 0)
    data = serialize_omega_proof(OmegaProof((cert,), cert.conclusion))
    patched = deserialize_omega_proof(data[:-4] + (300_000).to_bytes(4, "big"))
    assert patched.steps[0].premise_machine.input_n == 300_000
    tracemalloc.start()
    try:
        verdict = check_omega_proof(
            frozenset(), patched, cert.conclusion, k=3, per_instance_budget=3
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (verdict.kind, verdict.instance) == ("budget_exhausted", 3)
    assert peak < 2**20


@pytest.mark.parametrize("n, fits", [(2**32 - 1, True), (2**32, False)])
def test_a_certificate_input_over_a_u32_is_an_encoding_overflow(n, fits):
    # The wire writes the input as a u32: a larger one cannot be written.
    cert = build_loops_certificate(MachineDesc((), "q", "Y", "N"), n)
    proof = OmegaProof((cert,), cert.conclusion)
    if fits:
        back = deserialize_omega_proof(serialize_omega_proof(proof))
        assert back.steps[0].premise_machine.input_n == n
    else:
        with pytest.raises(EncodingOverflow, match=str(n)):
            serialize_omega_proof(proof)


def test_rejected_certificate_for_even_reports_halt_point():
    cert = build_loops_certificate(EVEN, 3)
    verdict = check_omega_bounded(cert, 20)
    assert verdict.kind == "rejected"
    assert verdict.index == 5  # EVEN on 3 halts with no at observed step 5
    assert verdict.reason == "eval-false"


# ---------------------------------------------------------------------------
# Output equal to the canonical encoding is compared, not decoded


class Shifted:
    """Emits the proof of instance t + 1 for instance t."""

    def __init__(self, inner):
        self.inner = inner

    def generate(self, index, budget):
        return self.inner.generate(index + 1, budget)


class TwoSteps:
    """Emits a valid proof of the instance that is not the one-step proof."""

    def __init__(self, phi, var="t"):
        self.phi = phi
        self.var = var

    def generate(self, index, budget):
        instance = substitute(self.phi, self.var, numeral(index))
        step = ProofStep(instance, RULE_EVAL_TRUE)
        return GenResult(serialize_proof(make_proof([step, step])), 1)


# Or(phi, Not(0)) is true wherever phi is, but Not(0) has a term where a
# formula belongs, so its bytes do not decode.
UNREADABLE_PHI = Or(TRIVIAL_PHI, Not(ZERO))


def both_paths(monkeypatch, step, k):
    """check_omega_bounded as it is, and with every instance decoded."""
    fast = check_omega_bounded(step, k)
    with monkeypatch.context() as m:
        m.setattr(OmegaStep, "_readable_closed_spans", property(lambda self: None))
        slow = check_omega_bounded(step, k)
    return fast, slow


@pytest.mark.parametrize("name", sorted(CORPUS))
@pytest.mark.parametrize("n", range(6))
def test_compared_instances_match_decoded_ones_on_the_corpus(monkeypatch, name, n):
    fast, slow = both_paths(monkeypatch, build_loops_certificate(CORPUS[name], n), 60)
    assert fast == slow


def shifted_loops_step():
    cert = build_loops_certificate(LOOP, 0)
    return replace(cert, premise_machine=Shifted(cert.premise_machine))


def unreadable_step():
    premise = LoopsPremiseMachine(LOOP, 0, "t", UNREADABLE_PHI)
    return trivial_step(premise, UNREADABLE_PHI)


@pytest.mark.parametrize(
    "build",
    [
        lambda: trivial_step(TwoSteps(TRIVIAL_PHI)),
        lambda: trivial_step(GarbageAt(TrivialPremise(TRIVIAL_PHI), 4)),
        lambda: trivial_step(Shifted(TrivialPremise(TRIVIAL_PHI))),
        shifted_loops_step,
        unreadable_step,
    ],
    ids=["two-steps", "garbage", "shifted", "shifted-loops", "unreadable-phi"],
)
def test_other_output_is_decoded_and_judged_alike(monkeypatch, build):
    fast, slow = both_paths(monkeypatch, build(), 10)
    assert fast == slow


def test_phi_that_does_not_read_back_takes_the_decode_path():
    step = unreadable_step()
    assert step._readable_closed_spans is None
    # The one-step proof would pass in memory: the instance evaluates true.
    instance = substitute(UNREADABLE_PHI, "t", numeral(0))
    proof = make_proof([ProofStep(instance, RULE_EVAL_TRUE)])
    assert check_proof(frozenset(), proof, instance).accepted
    assert check_omega_bounded(step, 3) == OmegaVerdict(
        "rejected", index=0, reason="malformed-encoding"
    )


def test_loops_instances_are_not_decoded(monkeypatch):
    calls = []
    decode = wire.deserialize_proof

    def counted(data, **kwargs):
        calls.append(data)
        return decode(data, **kwargs)

    monkeypatch.setattr(wire, "deserialize_proof", counted)
    halt = run(BUSY3, 2, 50).steps
    verdict = check_omega_bounded(build_loops_certificate(BUSY3, 2), 50)
    assert verdict == OmegaVerdict("rejected", index=halt, reason="eval-false")
    assert calls == []


# ---------------------------------------------------------------------------
# The premise machine resumes one simulation across instances

BIG = 10**6
HALT_BUSY3_2 = run(BUSY3, 2, BIG).steps  # 11
STUCK = MachineDesc((("a", "1", "a", "1", "R"),), "a", "Y", "N")  # at the blank


@pytest.mark.parametrize(
    "machine, n, calls",
    [
        (LOOP, 0, [(i, BIG) for i in range(40)]),  # increasing
        (LOOP, 3, [(5, BIG), (5, BIG), (9, BIG), (9, BIG)]),  # repeated
        (EVEN, 6, [(30, BIG), (12, BIG), (4, BIG), (0, BIG), (1, BIG)]),  # decreasing
        (LOOP, 0, [(10, 100), (12, 8), (12, 3), (15, 100), (20, 1), (20, 0)]),
        (LOOP, 300, [(1, 5), (4, 5), (9, 5), (9, 40), (30, 40), (50, BIG)]),
        (BUSY3, 2, [(i, BIG) for i in range(2 * HALT_BUSY3_2)]),
        (BUSY3, 2, [(20, BIG), (HALT_BUSY3_2 - 1, BIG), (HALT_BUSY3_2, BIG),
                    (15, HALT_BUSY3_2 + 1), (15, HALT_BUSY3_2), (3, BIG)]),
        (EVEN, 40, [(i, BIG) for i in range(0, 60, 3)] + [(45, 20), (45, 50)]),
        (STUCK, 6, [(3, BIG), (7, BIG), (9, BIG), (2, BIG), (20, 10)]),
        (STUCK, 50, [(3, 4), (30, BIG), (52, BIG), (60, BIG)]),
    ],
)
def test_resumed_premise_machine_matches_a_fresh_one(machine, n, calls):
    q = loops_formula(machine, n)
    kept = LoopsPremiseMachine(machine, n, q.var, q.body)
    for index, budget in calls:
        fresh = LoopsPremiseMachine(machine, n, q.var, q.body)
        produced = kept.generate(index, budget)
        assert produced == fresh.generate(index, budget)
        if not produced.exhausted and index > 0:
            simulated = run(machine, n, min(index, budget)).steps
            assert produced.steps_used == 1 + (simulated or min(index, budget))


@pytest.mark.parametrize("n, most", [(0, 501), (2000, 501)])
def test_instances_zero_to_k_read_linearly_many_configurations(monkeypatch, n, most):
    # One run on the whole input, resumed, so k + 1 configurations whatever
    # n is. (LOOP never halts, so phi of input 0 holds at every instance on
    # input n too.)
    count = 0
    configs = machines.configs

    def counted(m, strokes):
        nonlocal count
        for c in configs(m, strokes):
            count += 1
            yield c

    monkeypatch.setattr(machines, "configs", counted)
    monkeypatch.setattr(omega, "configs", counted, raising=False)
    cert = build_loops_certificate(LOOP, 0)
    premise = LoopsPremiseMachine(LOOP, n, cert.var, cert.phi)
    verdict = check_omega_bounded(replace(cert, premise_machine=premise), 500)
    assert verdict == OmegaVerdict("accepted_up_to", bound=500)
    assert count <= most
