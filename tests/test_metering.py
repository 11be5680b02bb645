"""The metering contract of the stepped checker, pinned to the unit.

Deserializing a candidate is one unit, each proof step is one unit, and an
omega step takes one more unit between consecutive instances. Criteria 5
and 6 and the race between the threads of `halting_search` rest on these
counts, so they are asserted exactly.
"""

import pytest

from omegacheck.arithmetize import halts_yes_formula
from omegacheck.dovetail import (
    OmegaVerifierOracle,
    RealProofOracle,
    SearchBudget,
    bfs_search,
    existence_proof,
    halting_search,
)
from omegacheck.machines import ALWAYS_YES, BUSY3, EVEN, LOOP, run
from omegacheck.omega import OmegaProof, build_loops_certificate, serialize_omega_proof
from omegacheck.syntax import parse_formula
from omegacheck.wire import serialize_proof


def calls_until_final(oracle, candidate, target):
    run_ = oracle.open(candidate, target)
    calls = 0
    while True:
        calls += 1
        answer = run_.step()
        if answer != "running":
            return calls, answer


def witness_bytes():
    target = halts_yes_formula(ALWAYS_YES, 1)
    proof = existence_proof(target.body, target.var, run(ALWAYS_YES, 1, 100).steps)
    return serialize_proof(proof), target


def certificate_bytes(m, n):
    cert = build_loops_certificate(m, n)
    return serialize_omega_proof(OmegaProof((cert,), cert.conclusion)), cert.conclusion


def test_real_oracle_units():
    data, target = witness_bytes()
    assert calls_until_final(RealProofOracle(), data, target) == (4, "yes")
    wrong = parse_formula("0 = 0")
    assert calls_until_final(RealProofOracle(), data, wrong) == (4, "no")
    assert calls_until_final(RealProofOracle(), b"\x99", target) == (1, "no")


def test_omega_oracle_units():
    data, target = certificate_bytes(LOOP, 0)
    assert calls_until_final(OmegaVerifierOracle(k=7), data, target) == (9, "yes")
    data, target = witness_bytes()
    assert calls_until_final(OmegaVerifierOracle(k=7), data, target) == (4, "yes")
    data, target = certificate_bytes(BUSY3, 2)
    assert calls_until_final(OmegaVerifierOracle(k=50), data, target) == (13, "no")


@pytest.mark.parametrize(
    "m, n, k, kind, units",
    [
        (LOOP, 0, 5, "loops", (1, 1, 6)),
        (EVEN, 3, 50, "halts_no", (1, 9, 6)),
        (ALWAYS_YES, 1, 50, "halts_yes", (5, 1, 2)),
        (BUSY3, 2, 50, "halts_yes", (15, 1, 12)),
    ],
)
def test_halting_search_units(m, n, k, kind, units):
    outcome = halting_search(m, n, omega_bound=k)
    assert outcome.kind == kind
    assert tuple(p.units for p in outcome.progress) == units


def test_bfs_search_units():
    result = bfs_search(
        parse_formula("0 = 0"),
        RealProofOracle(),
        SearchBudget(100_000, 2_000),
        alphabet=(0x01, 0x10, 0x27),
    )
    counts = (result.found, result.index, result.rounds, result.steps)
    assert counts == (True, 103, 104, 105)
