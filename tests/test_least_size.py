"""The decoders' least-size bound (`wire.least_size`, `omega.least_size`)
is sound, and pure search that walks by it finds what blind search finds.

Sound means: a string that decodes is at least as long as the least size of
each of its prefixes, and a prefix the bound calls dead (None) raises an
error other than running out of input, as does every string it starts. Both
follow from two properties checked here string by string:
- the bound agrees with the decoder: a string's own least size is its
  length when it decodes, over its length when it runs out of input, and
  None when its decode raises for another reason;
- the bound never falls along a string: a prefix one byte longer has a
  least size at least as large, or None, and a dead prefix stays dead.
"""

import functools
import itertools
import random
import time

import pytest

from omegacheck import omega, wire
from omegacheck.dovetail import RealProofOracle, SearchBudget, SearchResult
from omegacheck.dovetail import bfs_search, halting_search
from omegacheck.machines import CORPUS
from omegacheck.omega import build_loops_certificate, serialize_omega_proof
from omegacheck.syntax import parse_formula
from omegacheck.wire import index_of_string, shortlex, shortlex_kept
from conftest import answers, mutate_bytes, random_valid_proof
from test_wire import END, GOLDEN, GOLDEN_OMEGA

DECODERS = {
    "finitary": (wire.least_size, wire.deserialize_proof, wire.STEP_TAGS),
    "omega": (omega.least_size, omega.deserialize_omega_proof, omega.STEP_TAGS),
}
both_decoders = pytest.mark.parametrize("decoder", sorted(DECODERS))


def decoded_size(decode, data: bytes):
    """len(data) if it decodes, "short" if it runs out of input (b'' does
    at once), else None."""
    if not data:
        return "short"
    try:
        decode(data)
    except wire.Truncated:
        return "short"
    except wire.MalformedEncoding:
        return None
    return len(data)


def decode_ok(decode, data: bytes) -> bool:
    return decoded_size(decode, data) == len(data)


def agrees(decode, data: bytes, size) -> bool:
    """The bound `size` of `data` agrees with its decode."""
    decoded = decoded_size(decode, data)
    if decoded == "short":
        return size is not None and size > len(data)
    return size == decoded


def never_falls(before, after) -> bool:
    """The least size of a prefix, `before`, against a longer one's."""
    return after is None if before is None else after is None or after >= before


def check_along(bound, decode, data: bytes, cuts=None) -> list:
    """Each break of the two properties along the prefixes of `data` at
    these cuts (every cut by default), in order."""
    cuts = range(len(data) + 1) if cuts is None else sorted(set(cuts))
    wrong, previous = [], bound(b"")
    for cut in cuts:
        size = bound(data[:cut])
        if not agrees(decode, data[:cut], size):
            wrong.append(("disagrees", cut, size))
        if not never_falls(previous, size):
            wrong.append(("falls", cut, previous, size))
        previous = size
    return wrong


@both_decoders
def test_no_tag_led_string_of_three_bytes_or_fewer_decodes(decoder):
    bound, decode, tags = DECODERS[decoder]
    assert bound(b"") == 4  # eval-true and premise: a tag and `0 = 0`
    sizes = {b"": bound(b"")}
    wrong = []
    for length in (1, 2):
        for tail in itertools.product(range(256), repeat=length - 1):
            for tag in tags:
                data = bytes((tag, *tail))
                size = sizes[data] = bound(data)
                if not agrees(decode, data, size):
                    wrong.append(data)
                if not never_falls(sizes[data[:-1]], size) or size == length:
                    wrong.append(data)
    # No 3-byte string has a least size of 3 or one under its prefix's.
    for data, before in sizes.items():
        if len(data) == 2:
            for last in range(256):
                size = bound(data + bytes((last,)))
                if not never_falls(before, size) or size == 3:
                    wrong.append(data + bytes((last,)))
    assert wrong == []
    # An eval-true step needs a formula, and a formula 3 bytes.
    assert bound(b"\x27") == 4 and bound(b"\x27\x10\x01") == 4
    assert bound(b"\x27\x00") is None  # no formula tag 0x00
    assert bound(b"\x22") == 10  # logic, a scheme id and its least row
    assert bound(b"\x30") == (None if decoder == "finitary" else 17)


@both_decoders
def test_of_the_eval_and_premise_blocks_of_length_4_exactly_four_decode(decoder):
    bound, decode, _ = DECODERS[decoder]
    rng = random.Random(36)
    found = [bytes((tag, atom, 1, 1)) for tag in b"\x27\x28" for atom in b"\x10\x11"]
    drawn = [bytes((rng.choice(b"\x27\x28"), *rng.randbytes(3))) for _ in range(20_000)]
    sample = found + drawn
    wrong, decodes = [], set()
    for data in sample:
        wrong += check_along(bound, decode, data)
        if decoded_size(decode, data) == 4:
            decodes.add(data)
    assert wrong == []
    assert decodes == set(found)


def golden_strings():
    """The golden codec corpus: one-step proofs, and the omega step."""
    finitary = [bytes.fromhex(hex_ + END) for _, _, _, hex_, _ in GOLDEN]
    return finitary, [bytes.fromhex(GOLDEN_OMEGA)]


@both_decoders
def test_the_bound_is_sound_on_the_golden_codec_corpus(decoder):
    bound, decode, _ = DECODERS[decoder]
    finitary, omega_steps = golden_strings()
    strings = finitary + (omega_steps if decoder == "omega" else [])
    for data in strings:
        assert decoded_size(decode, data) == len(data)
        assert check_along(bound, decode, data) == []


@functools.cache
def corpus_strings() -> tuple:
    """Every corpus witness proof and loops certificate for inputs 0 and 1, as
    (bytes, whether the finitary decoder reads it)."""
    out = []
    for m in CORPUS.values():
        for n in range(2):
            found = halting_search(m, n)
            if found.kind in ("halts_yes", "halts_no"):
                out.append((found.proof, True))
            cert = build_loops_certificate(m, n)
            certificate = omega.OmegaProof((cert,), cert.conclusion)
            out.append((serialize_omega_proof(certificate), False))
    return tuple(out)


def cuts_of(data: bytes, rng: random.Random) -> list:
    """Every cut of a short string; of a long one, the first 32, the last 8
    and 8 drawn between them (a cut deep in a tableau costs a long decode)."""
    if len(data) <= 512:
        return list(range(len(data) + 1))
    inside = rng.sample(range(32, len(data) - 8), 8)
    return [*range(32), *inside, *range(len(data) - 8, len(data) + 1)]


@both_decoders
def test_the_bound_is_sound_on_every_corpus_witness_proof_and_certificate(decoder):
    bound, decode, _ = DECODERS[decoder]
    rng = random.Random(36)
    strings = [data for data, read in corpus_strings() if read or decoder == "omega"]
    assert len(strings) >= 8  # witness proofs of the halting runs
    for data in strings:
        assert decoded_size(decode, data) == len(data)
        assert check_along(bound, decode, data, cuts_of(data, rng)) == []


@both_decoders
def test_the_bound_is_sound_on_mutations(decoder):
    bound, decode, _ = DECODERS[decoder]
    rng = random.Random(36)
    finitary, omega_steps = golden_strings()
    bases = finitary + omega_steps
    proofs = [wire.serialize_proof(random_valid_proof(rng)) for _ in range(200)]
    bases += [data for data in proofs if len(data) <= 64]  # each decode is quick
    wrong = []
    for _ in range(50_000):  # on each decoder, so 10^5 in all
        data = mutate_bytes(rng, rng.choice(bases))
        size = bound(data)
        if not agrees(decode, data, size):
            wrong.append(data)
        cut = rng.randrange(len(data) + 1)
        if not never_falls(bound(data[:cut]), size):
            wrong.append((data, cut))
    assert wrong == []


@pytest.mark.parametrize(
    "decoder, alphabet, limit",
    [
        ("finitary", (0x01, 0x10, 0x27), 30_000),
        ("finitary", (0x01, 0x02, 0x11, 0x12, 0x28), 20_000),
        ("omega", (0x00, 0x01, 0x10, 0x27, 0x30), 20_000),
        ("finitary", wire.DEFAULT_ALPHABET, 70_000),
    ],
)
def test_the_walk_keeps_exactly_the_strings_that_decode(decoder, alphabet, limit):
    bound, decode, _ = DECODERS[decoder]
    kept = list(shortlex_kept(alphabet, bound, limit))
    strings = itertools.islice(shortlex(alphabet), limit)
    decodes = [(i, data) for i, data in enumerate(strings) if decode_ok(decode, data)]
    assert kept == decodes


def test_blind_search_finds_the_shortest_proof_of_0_eq_0_in_under_a_second():
    # The 4 bytes `27 10 01 01` (eval-true, then `0 = 0`) sit past 672 M
    # shortlex candidates; the kernel checks them in two units.
    target = parse_formula("0 = 0")
    proof = bytes.fromhex("27100101")
    start = time.perf_counter()
    found = bfs_search(target, RealProofOracle(), SearchBudget(10**12, 10**9))
    seconds = time.perf_counter() - start
    assert found == SearchResult(True, 672_203_266, proof, 672_203_267, 672_203_268)
    assert found.index == index_of_string(proof)
    assert answers(RealProofOracle().open(proof, target)) == ["running", "yes"]
    assert seconds < 1, seconds
