import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import mutate_bytes, random_formula, random_valid_proof
from omegacheck.cli import parse_proof_text, proof_to_text
from omegacheck.kernel import (
    LOGIC_SCHEMES,
    RULE_EQ_AXIOM,
    RULE_EVAL_TRUE,
    RULE_GEN,
    RULE_INDUCTION,
    RULE_INST,
    RULE_LOGIC,
    RULE_MP,
    RULE_PA_AXIOM,
    RULE_PREMISE,
    ProofStep,
    make_proof,
)
from omegacheck.machines import ALWAYS_YES
from omegacheck.omega import (
    LoopsPremiseMachine,
    OmegaProof,
    OmegaStep,
    deserialize_omega_proof,
    serialize_omega_proof,
)
from omegacheck.syntax import parse_formula, parse_term
from omegacheck.wire import (
    MalformedEncoding,
    Reader,
    decode_formula,
    deserialize_proof,
    encode_formula,
    index_of_string,
    proof_at_index,
    DEFAULT_ALPHABET,
    serialize_proof,
    shortlex,
)

TRUTH = parse_formula("0 = 0")
CANONICAL = serialize_proof(make_proof([ProofStep(TRUTH, RULE_EVAL_TRUE)]))


def test_one_step_proof_roundtrip():
    proof = make_proof([ProofStep(TRUTH, RULE_EVAL_TRUE)])
    assert deserialize_proof(serialize_proof(proof)) == proof


def test_empty_input_is_malformed():
    with pytest.raises(MalformedEncoding):
        deserialize_proof(b"")


def test_first_indices_are_lexicographically_increasing():
    first = [proof_at_index(i) for i in range(3)]
    assert first == [b"", b"\x00", b"\x01"]
    assert first[0] < first[1] < first[2]
    assert len(set(proof_at_index(i) for i in range(500))) == 500


def test_shortlex_order_and_inversion():
    alphabet = (1, 7, 9)
    previous = None
    for i in range(200):
        s = proof_at_index(i, alphabet)
        assert index_of_string(s, alphabet) == i
        if previous is not None:
            assert (len(previous), previous) < (len(s), s)
        previous = s


@pytest.mark.parametrize(
    "alphabet, count", [((0x01, 0x10, 0x27, 0xFF), 70_000), (DEFAULT_ALPHABET, 2_000)]
)
def test_shortlex_enumerates_what_proof_at_index_gives(alphabet, count):
    strings = list(itertools.islice(shortlex(alphabet), count))
    assert strings == [proof_at_index(i, alphabet) for i in range(count)]
    assert [index_of_string(s, alphabet) for s in strings] == list(range(count))


@pytest.mark.parametrize(
    "alphabet", [(0, 300), (-1, 3), (0, 1.5)], ids=["above", "negative", "float"]
)
def test_alphabet_values_must_be_bytes(alphabet):
    with pytest.raises(ValueError, match="alphabet"):
        shortlex(alphabet)
    with pytest.raises(ValueError, match="alphabet"):
        proof_at_index(0, alphabet)
    with pytest.raises(ValueError, match="alphabet"):
        index_of_string(b"", alphabet)


def test_canonical_proof_index_identity():
    # Independent shortlex arithmetic over the full byte alphabet: count of
    # shorter strings, plus the base-256 rank of the string itself.
    below = sum(256**k for k in range(len(CANONICAL)))
    rank = int.from_bytes(CANONICAL, "big")
    index = below + rank
    assert index_of_string(CANONICAL) == index
    assert proof_at_index(index) == CANONICAL


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_formula_roundtrip(seed):
    rng = random.Random(seed)
    f = random_formula(rng, 3)
    buf = bytearray()
    encode_formula(f, buf)
    reader = Reader(bytes(buf))
    assert decode_formula(reader) == f
    assert reader.at_end()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_proof_roundtrip(seed):
    rng = random.Random(seed)
    proof = random_valid_proof(rng)
    assert deserialize_proof(serialize_proof(proof)) == proof


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_mutations_never_crash_decoder(seed):
    rng = random.Random(seed)
    data = serialize_proof(random_valid_proof(rng))
    for _ in range(4):
        data = mutate_bytes(rng, data)
        try:
            deserialize_proof(data)
        except MalformedEncoding:
            pass


def test_truncations_are_malformed():
    for cut in range(len(CANONICAL)):
        if cut == 0:
            continue
        with pytest.raises(MalformedEncoding):
            deserialize_proof(CANONICAL[:cut])


# ---------------------------------------------------------------------------
# Golden codec corpus: the exact bytes and text of one step per rule and one
# per logic scheme, each the whole of a one-step proof concluding `0 = 0`.

ZERO_EQ, LE_ONE, X_EQ = (parse_formula(t) for t in ("0 = 0", "0 <= S(0)", "x = x"))
ONE = parse_term("S(0)")
END = "100101"  # the conclusion 0 = 0: Eq, Zero, Zero

GOLDEN = [
    (RULE_PA_AXIOM, (), 3, "2003", "axiom 3"),
    (RULE_EQ_AXIOM, (), 1, "2101", "eq-axiom 1"),
    (RULE_INDUCTION, (), ("x", X_EQ), "23017810050178050178",
     "induction x ; x = x"),
    (RULE_MP, (2, 300), None, "240002012c", "mp 3 301"),
    (RULE_GEN, (0,), "x", "2501780000", "gen x 1"),
    (RULE_INST, (0,), ONE, "2602010000", "inst S(0) ; 1"),
    (RULE_EVAL_TRUE, (), None, "27", "eval"),
    (RULE_PREMISE, (), None, "28", "premise"),
]
_TWO = (ZERO_EQ, LE_ONE)
_THREE = (ZERO_EQ, LE_ONE, X_EQ)
_TWO_TEXT = "0 = 0 ; 0 <= S(0)"
for _scheme, _id, _items, _hex, _text in [
    ("and-intro", 0x00, _TWO, "10010111010201", _TWO_TEXT),
    ("and-left", 0x01, _TWO, "10010111010201", _TWO_TEXT),
    ("and-right", 0x02, _TWO, "10010111010201", _TWO_TEXT),
    ("contra", 0x03, _TWO, "10010111010201", _TWO_TEXT),
    ("exists-intro", 0x04, ("x", ZERO_EQ, ONE), "01781001010201",
     "x ; 0 = 0 ; S(0)"),
    ("forall-mono", 0x05, ("x",) + _TWO, "017810010111010201",
     "x ; " + _TWO_TEXT),
    ("k", 0x06, _TWO, "10010111010201", _TWO_TEXT),
    ("or-elim", 0x07, _THREE, "1001011101020110050178050178",
     _TWO_TEXT + " ; x = x"),
    ("or-left", 0x08, _TWO, "10010111010201", _TWO_TEXT),
    ("or-right", 0x09, _TWO, "10010111010201", _TWO_TEXT),
    ("s", 0x0A, _THREE, "1001011101020110050178050178", _TWO_TEXT + " ; x = x"),
    ("vacuous-forall", 0x0B, ("x", ZERO_EQ), "0178100101", "x ; 0 = 0"),
]:
    GOLDEN.append(
        (RULE_LOGIC, (), (_scheme, _items), f"22{_id:02x}{_hex}",
         f"logic {_scheme} ; {_text}")
    )
GOLDEN_IDS = [
    f"{rule} {payload[0]}" if rule == RULE_LOGIC else rule
    for rule, _, payload, _, _ in GOLDEN
]


def _golden_proof(rule, premises, payload):
    return make_proof([ProofStep(ZERO_EQ, rule, premises, payload)])


@pytest.mark.parametrize("rule,premises,payload,hex_,spec", GOLDEN, ids=GOLDEN_IDS)
def test_golden_step_bytes_and_text(rule, premises, payload, hex_, spec):
    proof = _golden_proof(rule, premises, payload)
    assert serialize_proof(proof).hex() == hex_ + END
    assert proof_to_text(proof) == f"1. 0 = 0 BY {spec}\n"


def test_golden_corpus_covers_every_rule_and_scheme():
    rules = {rule for rule, _, _, _, _ in GOLDEN}
    assert rules == {
        RULE_PA_AXIOM, RULE_EQ_AXIOM, RULE_LOGIC, RULE_INDUCTION, RULE_MP,
        RULE_GEN, RULE_INST, RULE_EVAL_TRUE, RULE_PREMISE,
    }
    schemes = {p[0] for rule, _, p, _, _ in GOLDEN if rule == RULE_LOGIC}
    assert schemes == set(LOGIC_SCHEMES)


@pytest.mark.parametrize("rule,premises,payload,hex_,spec", GOLDEN, ids=GOLDEN_IDS)
def test_every_rule_roundtrips_through_both_codecs(
    rule, premises, payload, hex_, spec
):
    proof = _golden_proof(rule, premises, payload)
    assert deserialize_proof(serialize_proof(proof)) == proof
    assert parse_proof_text(proof_to_text(proof)) == proof


# An omega step over gamma {0 = 0, 0 <= S(0)} (written in encoding order),
# phi = `t = t`, and the loops premise machine of ALWAYS_YES on input 2.
GOLDEN_OMEGA = (
    "30" "0002" "100101" "11010201"  # tag, gamma count, gamma
    "0174" "10050174050174"  # var t, phi
    "00" "0000001f"  # loops premise machine, machine text length
    + b"start: Y\nyes: Y\nno: N\nblank: _\n".hex()
    + "00000002"  # input
)


def _golden_omega_proof():
    phi = parse_formula("t = t")
    step = OmegaStep(
        gamma=frozenset({LE_ONE, ZERO_EQ}),
        var="t",
        phi=phi,
        premise_machine=LoopsPremiseMachine(ALWAYS_YES, 2, "t", phi),
    )
    return OmegaProof((step,), step.conclusion)


def test_golden_omega_step_bytes():
    data = serialize_omega_proof(_golden_omega_proof())
    assert data.hex() == GOLDEN_OMEGA
    back = deserialize_omega_proof(data)
    assert back == _golden_omega_proof()
    assert serialize_omega_proof(back) == data


def test_omega_decoder_is_canonical():
    gamma = "0002" "100101" "11010201"
    assert gamma in GOLDEN_OMEGA
    for bad in ("0002" "11010201" "100101", "0002" "100101" "100101"):
        with pytest.raises(MalformedEncoding, match="gamma"):
            deserialize_omega_proof(bytes.fromhex(GOLDEN_OMEGA.replace(gamma, bad)))
    data = bytes.fromhex(GOLDEN_OMEGA)
    assert serialize_omega_proof(deserialize_omega_proof(data)) == data


def test_a_decoded_bound_that_mentions_its_variable_is_malformed():
    # eval: exists x <= x. 0 = 0, whose bound x is the variable it binds.
    data = bytes([0x27, 0x19, 1, ord("x"), 0x05, 1, ord("x"), 0x10, 1, 1])
    with pytest.raises(MalformedEncoding, match="^bound of x mentions x$"):
        deserialize_proof(data)
