"""Acceptance criteria, one test per criterion, each printing a PASS line
with its measured cost. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import random
import time

import pytest

from conftest import mutate_bytes, random_formula, random_valid_proof
from omegacheck.arithmetize import (
    halted_by_formula,
    halts_no_formula,
    halts_yes_formula,
    loops_formula,
)
from omegacheck.dovetail import (
    HOutcome,
    OracleRun,
    RealProofOracle,
    SearchBudget,
    VerifierOracle,
    bfs_search,
    halting_search,
)
from omegacheck.kernel import ProofStep, RULE_EVAL_TRUE, check_proof, make_proof
from omegacheck.machines import (
    ALWAYS_NO,
    ALWAYS_YES,
    CORPUS,
    EVEN,
    LOOP,
    machine_to_text,
    parse_machine,
    run,
)
from omegacheck.omega import (
    OmegaProofVerdict,
    OmegaVerdict,
    check_omega_proof,
    deserialize_omega_proof,
)
from omegacheck.syntax import (
    eval_bounded,
    is_closed,
    is_delta0,
    parse_formula,
    print_formula,
)
from omegacheck.wire import (
    MalformedEncoding,
    deserialize_proof,
    index_of_string,
    proof_at_index,
    serialize_proof,
)


def report(number: int, text: str) -> None:
    print(f"[PASS] criterion {number}: {text}")


def test_criterion_1_kernel_decidability_and_determinism():
    started = time.time()
    rng = random.Random(101)
    candidates: list[bytes] = []
    while len(candidates) < 1000:
        proof = random_valid_proof(rng)
        data = serialize_proof(proof)
        candidates.append(data)
        mutated = data
        for _ in range(2):
            mutated = mutate_bytes(rng, mutated)
            candidates.append(mutated)
    candidates = candidates[:1000]

    def verdict_of(data: bytes):
        try:
            proof = deserialize_proof(data)
        except MalformedEncoding as exc:
            return ("malformed", str(exc))
        return check_proof(frozenset(), proof, proof.target)

    for data in candidates:
        assert verdict_of(data) == verdict_of(data)
    elapsed = time.time() - started
    assert elapsed < 30, f"took {elapsed:.1f}s"
    report(1, f"1000 candidates checked twice, identical verdicts, {elapsed:.1f}s")


def test_criterion_2_soundness_on_decidable_fragment():
    rng = random.Random(202)
    accepted = 0
    tried = 0
    while accepted < 200 and tried < 5000:
        tried += 1
        proof = random_valid_proof(rng)
        if not (is_delta0(proof.target) and is_closed(proof.target)):
            continue
        verdict = check_proof(frozenset(), proof, proof.target)
        assert verdict.accepted
        assert eval_bounded(proof.target) is True
        accepted += 1
    assert accepted >= 200
    report(2, f"{accepted} accepted bounded-target proofs, all true")


def test_criterion_3_arithmetization_oracle_equivalence():
    started = time.time()
    cases = 0
    for m in CORPUS.values():
        for n in range(6):
            for t in range(21):
                for outcome in ("yes", "no"):
                    cases += 1
                    simulated = (
                        run(m, n, t).outcome == outcome if t > 0 else False
                    )
                    encoded = eval_bounded(halted_by_formula(m, n, t, outcome))
                    assert encoded is simulated, (m, n, t, outcome)
    elapsed = time.time() - started
    assert cases >= 1200
    assert elapsed < 300, f"took {elapsed:.1f}s"
    report(3, f"{cases} cases, exact agreement with the simulator, {elapsed:.1f}s")


def test_criterion_4_reduction_demo_witness_mode():
    started = time.time()
    checked = 0
    expectations = (
        [(ALWAYS_YES, n, "halts_yes") for n in range(4)]
        + [(EVEN, n, "halts_no") for n in (1, 3, 5)]
        + [(ALWAYS_NO, n, "halts_no") for n in range(4)]
        + [(LOOP, n, "loops") for n in range(4)]
    )
    for m, n, expected in expectations:
        outcome = halting_search(m, n)
        assert outcome.kind == expected, (m, n, outcome.kind)
        assert outcome.proof is not None
        if expected == "loops":
            assert outcome.omega_bound == 50
            proof = deserialize_omega_proof(outcome.proof)
            verdict = check_omega_proof(
                frozenset(), proof, loops_formula(m, n), k=50
            )
            assert verdict.kind == "accepted_conditional" and verdict.bound == 50
        else:
            target = (
                halts_yes_formula(m, n)
                if expected == "halts_yes"
                else halts_no_formula(m, n)
            )
            proof = deserialize_proof(outcome.proof)
            assert check_proof(frozenset(), proof, target).accepted
        checked += 1
    elapsed = time.time() - started
    assert elapsed < 120, f"took {elapsed:.1f}s"
    report(4, f"{checked} searches decided and re-verified, {elapsed:.1f}s")


def test_criterion_5_dovetailing_fidelity():
    truth = parse_formula("0 = 0")

    class Adversarial(VerifierOracle):
        def __init__(self, diverge_on, accept_on):
            self.diverge_on = diverge_on
            self.accept_on = accept_on

        def open(self, candidate, target):
            accept = candidate == self.accept_on

            def work():
                if candidate == self.diverge_on or not accept:
                    while True:
                        yield
                return True

            return OracleRun(work())

    p0, p1 = proof_at_index(0), proof_at_index(1)
    result = bfs_search(truth, Adversarial(p0, p1), SearchBudget(1000, 10))
    assert result.found and result.proof == p1 and result.index == 1

    canonical = serialize_proof(make_proof([ProofStep(truth, RULE_EVAL_TRUE)]))
    alphabet = tuple(sorted(set(canonical)))
    expected = None
    position = 0
    for length in range(len(canonical) + 1):
        for tup in itertools.product(alphabet, repeat=length):
            if bytes(tup) == canonical:
                expected = position
            position += 1
    assert expected is not None
    assert index_of_string(canonical, alphabet) == expected
    found = bfs_search(
        truth, RealProofOracle(), SearchBudget(100_000, 2_000), alphabet=alphabet
    )
    assert found.found and found.index == expected and found.proof == canonical
    report(
        5,
        f"dovetail passed a diverging candidate; canonical proof found at "
        f"shortlex index {expected} (exact match)",
    )


def test_criterion_6_fairness_contract():
    schedules = 0
    for seed in range(100):
        rng = random.Random(seed)
        log: list[int] = []

        def factory(thread, target):
            class RandomLatency(VerifierOracle):
                def open(self, candidate, _target):
                    latency = rng.randrange(1, 9)

                    def work():
                        for _ in range(latency):
                            log.append(thread)
                            yield
                        while True:
                            log.append(thread)
                            yield

                    return OracleRun(work())

            return RandomLatency()

        outcome = halting_search(
            LOOP, 1, SearchBudget(450, 40), mode="pure", oracle_factory=factory
        )
        assert outcome.kind == "budget_exhausted"
        counts = {1: 0, 2: 0, 3: 0}
        for thread in log:
            counts[thread] += 1
            assert max(counts.values()) - min(counts.values()) <= 1, seed
        schedules += 1
    report(6, f"{schedules} random latency schedules stayed within one round")


def test_criterion_7_theorem_embodiment():
    # The omega verdict vocabularies contain no unconditional acceptance.
    assert OmegaVerdict.KINDS == {"accepted_up_to", "rejected", "budget_exhausted"}
    assert OmegaProofVerdict.KINDS == {
        "accepted_conditional",
        "rejected",
        "budget_exhausted",
    }
    with pytest.raises(ValueError):
        OmegaVerdict("accepted")
    with pytest.raises(ValueError):
        OmegaProofVerdict("accepted")
    assert "accepted" not in HOutcome.KINDS
    # Pure mode with a finite budget never certifies looping.
    for steps in (60, 300, 1500):
        outcome = halting_search(
            LOOP, 0, SearchBudget(steps, 100), mode="pure"
        )
        assert outcome.kind == "budget_exhausted"
    report(
        7,
        "no unconditional acceptance in any omega verdict; pure-mode search "
        "on the runner always exhausts its budget",
    )


def test_criterion_8_roundtrips():
    rng = random.Random(808)
    for _ in range(1000):
        f = random_formula(rng, rng.randrange(1, 4))
        assert parse_formula(print_formula(f)) == f
    for _ in range(1000):
        proof = random_valid_proof(rng)
        assert deserialize_proof(serialize_proof(proof)) == proof
    for m in CORPUS.values():
        text = machine_to_text(m)
        assert parse_machine(text) == m
        assert machine_to_text(parse_machine(text)) == text
    report(8, "1000 formula, 1000 proof and 5 machine-file roundtrips exact")
