"""Each public function refuses an argument outside its domain with a named
error, raised before any work is done."""

import re

import pytest

from omegacheck import wire
from omegacheck.arithmetize import halted_by_formula
from omegacheck.cli import proof_to_text
from omegacheck.dovetail import SearchBudget, halting_search
from omegacheck.kernel import (
    Proof,
    ProofStep,
    RULE_EVAL_TRUE,
    RULE_PA_AXIOM,
    check_proof,
)
from omegacheck.machines import EVEN, LOOP, MachineDesc, initial_config, run
from omegacheck.syntax import (
    NotBounded,
    Not,
    Var,
    ZERO,
    eval_bounded,
    numeral,
    parse_formula,
)

TRUTH = parse_formula("0 = 0")
NOT_ZERO = Not(ZERO)  # a term where a formula belongs


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: SearchBudget(0, 1), ValueError, "budgets must be >= 1"),
        (
            lambda: halting_search(LOOP, 0, mode="fast"),
            ValueError,
            "mode is 'pure' or 'witness'",
        ),
        (
            lambda: MachineDesc((("q", "1", "q", "1", "S"),), "q", "Y", "N"),
            ValueError,
            "bad move 'S'",
        ),
        (
            lambda: initial_config(LOOP, -1),
            ValueError,
            "input must be a natural number",
        ),
        (lambda: run(LOOP, 0, 0), ValueError, "budget must be >= 1"),
        (lambda: numeral(-1), ValueError, "numerals encode naturals only"),
        (
            lambda: halted_by_formula(EVEN, 0, 1, "maybe"),
            ValueError,
            "outcome must be 'yes' or 'no'",
        ),
        (
            lambda: halted_by_formula(EVEN, 0, -1, "yes"),
            ValueError,
            "t and n are naturals",
        ),
        (
            lambda: wire.encode_formula(Var("x" * 256), bytearray()),
            ValueError,
            "name length out of range",
        ),
        (
            lambda: wire.encode_formula(3, bytearray()),
            ValueError,
            "cannot encode 3",
        ),
        (
            lambda: wire.encode_step(
                ProofStep(TRUTH, RULE_PA_AXIOM, payload=256), bytearray()
            ),
            ValueError,
            "axiom index out of range",
        ),
        (
            lambda: wire.encode_step(ProofStep(TRUTH, "nope"), bytearray()),
            ValueError,
            "unknown rule 'nope'",
        ),
        (
            lambda: proof_to_text(Proof((ProofStep(TRUTH, "nope"),), TRUTH)),
            ValueError,
            "no text form for rule 'nope'",
        ),
        (
            lambda: wire.index_of_string(b"\x05", (0, 1)),
            ValueError,
            "byte 0x05 not in alphabet",
        ),
        (
            lambda: wire.proof_at_index(-1),
            ValueError,
            "index must be a natural number",
        ),
        (
            lambda: eval_bounded(NOT_ZERO),
            NotBounded,
            "a Zero node is not a bounded formula",
        ),
    ],
    ids=[
        "search-budget",
        "search-mode",
        "machine-move",
        "initial-input",
        "run-budget",
        "numeral",
        "halted-outcome",
        "halted-step",
        "encode-long-name",
        "encode-non-node",
        "encode-axiom-index",
        "encode-rule",
        "text-rule",
        "index-of-string",
        "proof-at-index",
        "eval-term",
    ],
)
def test_an_argument_outside_the_domain_is_refused(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_an_eval_step_on_a_term_is_a_rule_mismatch():
    # The kernel maps the evaluator's refusal to its verdict, as on any
    # sentence outside the bounded fragment.
    proof = Proof((ProofStep(NOT_ZERO, RULE_EVAL_TRUE),), NOT_ZERO)
    verdict = check_proof(frozenset(), proof, NOT_ZERO)
    assert (verdict.step, verdict.reason, verdict.detail) == (
        0,
        "rule-mismatch",
        "eval-true needs a closed bounded sentence",
    )
