"""The codec against the one it had before it handled a repeated
quantifier once per proof: that decoder and encoder, copied below, walked
every subtree they met. On every input both decoders must give the same
tree, or the same `MalformedEncoding` text, and both encoders the same
bytes. Counts of the nodes built and the names written show that the
repeats are in fact skipped."""

import random
from dataclasses import replace

import pytest

from conftest import random_formula, random_valid_proof
from omegacheck import syntax as S
from omegacheck import wire
from omegacheck.dovetail import halting_search
from omegacheck.kernel import RULE_EVAL_TRUE, Proof, ProofStep
from omegacheck.machines import CORPUS
from omegacheck.omega import (
    OmegaStep,
    build_loops_certificate,
    check_omega_bounded,
    deserialize_omega_proof,
    serialize_omega_proof,
)
from omegacheck.wire import MAX_FORMULA_DEPTH, MalformedEncoding


def old_decode(r: wire.Reader, kind: str):
    data = r.data
    end = len(data)
    pos = r.pos
    names: dict[bytes, S.Var] = {}

    def read_var(pos: int) -> tuple[S.Var, int]:
        stop = pos + 1 + data[pos] if pos < end else end + 1
        var = names.get(data[pos + 1 : stop]) if stop <= end else None
        if var is None:
            r.pos = pos
            var = names[data[pos + 1 : stop]] = r.var()
        return var, stop

    frames: list[tuple] = []
    depth = 0
    while True:
        if pos >= end:
            raise MalformedEncoding("unexpected end of input")
        tag = data[pos]
        pos += 1
        if tag == wire._SUCC_TAG and kind == "t":
            start = pos
            while pos < end and data[pos] == wire._SUCC_TAG:
                pos += 1
            if pos < end and data[pos] == wire._ZERO_TAG:
                pos += 1
                node = S.numeral(pos - start)
            else:
                frames.append((pos - start + 1,))
                continue
        else:
            nodes = wire._TERM_NODES if kind == "t" else wire._FORMULA_NODES
            if tag not in nodes:
                what = "term" if kind == "t" else "formula"
                raise MalformedEncoding(f"bad {what} tag 0x{tag:02x}")
            cls, kinds = nodes[tag]
            if kinds == "n":
                node, pos = read_var(pos)
            elif kinds:
                if "f" in kinds:
                    depth += 1
                    if depth > MAX_FORMULA_DEPTH:
                        raise MalformedEncoding(
                            f"formula nesting deeper than {MAX_FORMULA_DEPTH}"
                        )
                fields = []
                if kinds[0] == "n":
                    var, pos = read_var(pos)
                    fields.append(var.name)
                frames.append((cls, kinds, fields))
                kind = kinds[len(fields)]
                continue
            else:
                node = S.ZERO
        while frames:
            if len(frames[-1]) == 1:
                for _ in range(frames.pop()[0]):
                    node = S.Succ(node)
                continue
            cls, kinds, fields = frames[-1]
            fields.append(node)
            if len(fields) < len(kinds):
                kind = kinds[len(fields)]
                break
            frames.pop()
            if "f" in kinds:
                depth -= 1
            try:
                node = cls(*fields)
            except ValueError as exc:
                raise MalformedEncoding(str(exc)) from exc
        else:
            r.pos = pos
            return node


def outcome(data: bytes):
    try:
        return deserialize_omega_proof(data)
    except MalformedEncoding as exc:
        return str(exc)


def assert_same_as_old_decoder(monkeypatch, inputs):
    new = [outcome(data) for data in inputs]
    with monkeypatch.context() as patched:
        patched.setattr(wire, "_decode", old_decode)
        old = [outcome(data) for data in inputs]
    # Both results are alive, and nodes are interned, so equal proofs hold
    # the same node objects; errors are equal strings.
    differ = [(data, a, b) for data, a, b in zip(inputs, old, new) if a != b]
    assert differ == []


def _corpus_proofs() -> list[bytes]:
    """Witness proofs and loops certificates of the corpus, n <= 3."""
    return [halting_search(m, n).proof for m in CORPUS.values() for n in range(4)]


def _criterion_8_proofs() -> list[bytes]:
    rng = random.Random(808)  # the draws of test_criterion_8_roundtrips
    for _ in range(1000):
        random_formula(rng, rng.randrange(1, 4))
    return [wire.serialize_proof(random_valid_proof(rng)) for _ in range(1000)]


@pytest.fixture(scope="module")
def corpus():
    return _corpus_proofs()


@pytest.fixture(scope="module")
def random_proofs():
    return _criterion_8_proofs()


def test_corpus_and_random_proofs_decode_as_with_the_old_decoder(
    monkeypatch, corpus, random_proofs
):
    assert_same_as_old_decoder(monkeypatch, corpus + random_proofs)


def mutate(rng: random.Random, data: bytes) -> bytes:
    """Flip a bit, delete or insert bytes, or copy a chunk that starts at a
    quantifier tag to another offset, mostly also at one, so that the
    result repeats spans the decoder may have read before."""
    at = rng.randrange(len(data))
    pick = rng.randrange(4)
    if pick == 0:
        return data[:at] + bytes([data[at] ^ 1 << rng.randrange(8)]) + data[at + 1 :]
    if pick == 1:
        return data[:at] + data[at + rng.randint(1, 4) :]
    if pick == 2:
        noise = bytes(rng.choices(range(256), k=rng.randint(1, 4)))
        return data[:at] + noise + data[at:]
    binders = [i for i, b in enumerate(data) if b in wire._BINDERS] or [at]
    start = rng.choice(binders)
    chunk = data[start : start + rng.choice((16, 64, 512, 1 << 20))]
    to = rng.choice(binders) if rng.random() < 0.8 else at
    if rng.random() < 0.5:
        return data[:to] + chunk + data[to:]
    return data[:to] + chunk + data[to + len(chunk) :]


def test_mutated_proofs_decode_as_with_the_old_decoder(
    monkeypatch, corpus, random_proofs
):
    rng = random.Random(18)
    # Most mutations are of the random proofs, which are small, so that the
    # test stays quick; every corpus proof is mutated too.
    small = [data for data in corpus if len(data) < 50_000]
    sources = corpus + small * 10 + random_proofs
    inputs = [mutate(rng, rng.choice(sources)) for _ in range(20_000)]
    assert_same_as_old_decoder(monkeypatch, inputs)


def _step(f) -> bytes:
    out = bytearray()
    wire.encode_step(ProofStep(f, RULE_EVAL_TRUE), out)
    return bytes(out)


def _chain(depth: int, leaf) -> S.Formula:
    """`depth` quantifiers of every kind, each with a name of its own."""
    f = leaf
    for i in reversed(range(depth)):
        var = f"v{i}"
        f = (
            S.ForAll(var, f),
            S.Exists(var, f),
            S.BoundedForAll(var, S.numeral(2), f),
            S.BoundedExists(var, S.numeral(i), f),
        )[i % 4]
    return f


def _nots(depth: int, f) -> S.Formula:
    for _ in range(depth):
        f = S.Not(f)
    return f


LEAF = S.Eq(S.Var("v0"), S.Var("v39"))
# 42 deep, though the quantifier in its last branch is shallow.
FORK = S.ForAll("w", S.And(_chain(40, LEAF), S.Exists("w", LEAF)))


@pytest.mark.parametrize("room", [46, 45, 42, 41, 40, 39, 30, 0])
@pytest.mark.parametrize(
    "before, f, nesting",
    [((), _chain(40, LEAF), 40), ((), FORK, 42), ((_chain(40, LEAF),), FORK, 42)],
    ids=["chain", "fork", "fork after its chain"],
)
def test_a_repeated_quantifier_is_decoded_under_the_depth_cap(
    monkeypatch, room, before, f, nesting
):
    """A formula `nesting` deep at depth 1, then again with `room` levels
    left under the cap: the copy decodes when it fits and is refused when it
    does not. A chain read before the fork is reused inside it."""
    steps = [*before, f, _nots(MAX_FORMULA_DEPTH - room, f)]
    data = b"".join(_step(step) for step in steps)
    assert_same_as_old_decoder(monkeypatch, [data])
    assert isinstance(outcome(data), str) is (room < nesting)


@pytest.mark.parametrize("spare", [1, 0, -1])
def test_runs_of_negations_decode_as_with_the_old_decoder(monkeypatch, spare):
    """Runs of `~` that nest `spare` levels short of the cap: one inside
    another; two side by side under a third, which only fits if the depth
    of the left run is given back when it closes; and a quantifier over a
    run, read again under another run, which only fits if the inner run
    counts in the quantifier's nesting."""
    outer = MAX_FORMULA_DEPTH // 2
    inner = MAX_FORMULA_DEPTH - outer - 1 - spare
    nested = _step(_nots(outer, S.And(LEAF, _nots(inner, LEAF))))
    sides = _step(_nots(outer, S.And(_nots(inner, LEAF), _nots(inner, LEAF))))
    q = S.ForAll("w", _nots(40, LEAF))
    reused = _step(q) + _step(_nots(MAX_FORMULA_DEPTH - 41 - spare, q))
    cut = [data[:i] for data in (nested, sides) for i in (outer, outer + 5, -3)]
    assert_same_as_old_decoder(monkeypatch, [nested, sides, reused, *cut])
    for data in (nested, sides, reused):
        assert isinstance(outcome(data), str) is (spare < 0)


def _siblings(count: int, depth: int) -> bytes:
    """`count` chains with the same quantifiers that differ at their leaf."""
    return b"".join(
        _step(_chain(depth, S.Eq(S.Var("v0"), S.numeral(i)))) for i in range(count)
    )


def test_sibling_chains_decode_as_with_the_old_decoder(monkeypatch):
    data = _siblings(20, 300)
    nested = _step(S.And(_chain(40, LEAF), _chain(40, S.Not(LEAF))))
    assert_same_as_old_decoder(monkeypatch, [data, nested, data + nested])


def test_failed_comparisons_cover_at_most_the_input():
    data = _siblings(20, 300)
    r = wire.Reader(data)
    while not r.at_end():
        wire.decode_step(r)
    # Each chain's quantifiers start with the bytes of the last chain's, so
    # without the bound every one of them would be compared up to its leaf.
    assert 0 < r.missed <= len(data)


def record_calls(monkeypatch, owner, name: str) -> list:
    """Replace `owner.name` with a wrapper that appends each call's result
    to the list returned."""
    results = []
    function = getattr(owner, name)

    def recorded(*args, **kwargs):
        results.append(function(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(owner, name, recorded)
    return results


def test_a_failed_comparison_drops_its_entry(monkeypatch):
    """Two chains that rebind one name, so that their quantifiers start
    with the same 16 bytes down to near the leaf, where they differ, then
    the second again: the second is compared with the first at its first
    quantifier and not at each one, so the bound leaves room to reuse it."""
    a, b = S.Eq(S.Var("x"), S.ZERO), S.Eq(S.Var("x"), S.numeral(1))
    for _ in range(200):
        a, b = S.ForAll("x", a), S.ForAll("x", b)
    data = _step(a) + _step(b) + _step(b)
    hits = record_calls(monkeypatch, wire.Reader, "reuse")
    r = wire.Reader(data)
    while not r.at_end():
        wire.decode_step(r)
    # A near-leaf quantifier of each also starts as one of the other's.
    assert len(_step(a)) - 1 <= r.missed <= len(_step(a)) + 64
    assert hits[-1] is not None


@pytest.mark.parametrize("room, fits", [(45, True), (40, True), (39, False)])
def test_a_repeated_chain_is_reused_only_where_it_fits(monkeypatch, room, fits):
    chain = _chain(40, LEAF)
    data = _step(chain) + _step(_nots(MAX_FORMULA_DEPTH - room, chain))
    hits = record_calls(monkeypatch, wire.Reader, "reuse")
    outcome(data)
    # The first copy closes its quantifiers only after opening them all, so
    # the second copy's are the only ones looked up.
    assert [hit is not None for hit in hits] == ([True] if fits else [False] * 40)


def _nodes(roots) -> list:
    """The distinct nodes of these trees."""
    seen, stack = {}, list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen and not isinstance(node, str):
            seen[id(node)] = node
            stack.extend(getattr(node, name) for name in node.__match_args__)
    return list(seen.values())


@pytest.fixture(scope="module")
def busy3_witness():
    outcome = halting_search(CORPUS["BUSY3"], 2)
    assert outcome.kind == "halts_yes"
    return outcome.proof


def test_decoding_a_witness_proof_builds_each_quantifier_once(
    monkeypatch, busy3_witness
):
    built = record_calls(monkeypatch, S._Bounded, "__new__")
    proof = wire.deserialize_proof(busy3_witness)
    monkeypatch.undo()
    formulas = [step.conclusion for step in proof.steps]
    bounded = [n for n in _nodes(formulas) if isinstance(n, S._Bounded)]
    assert 0 < len(built) <= len(bounded)


def _names(node, skip=None) -> int:
    """The names written for `node`, not counting those inside `skip`."""
    count, stack = 0, [node]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            count += 1
        elif node is not skip:
            stack.extend(getattr(node, name) for name in node.__match_args__)
    return count


def test_encoding_a_witness_proof_writes_its_tableau_once(
    monkeypatch, busy3_witness
):
    proof = wire.deserialize_proof(busy3_witness)
    # The target is `exists t (t <= bound & tableau)`, the tableau closed.
    tableau = proof.target.body.right
    assert not tableau._fv
    fields = [step.conclusion for step in proof.steps]
    fields += proof.steps[1].payload[1]  # exists-intro: var, body, witness
    outside = sum(_names(field, skip=tableau) for field in fields)
    written = record_calls(monkeypatch, wire, "_put_name")
    assert wire.serialize_proof(proof) == busy3_witness
    assert len(written) <= _names(tableau) + outside


def old_encode_formula(f, out: bytearray, known=None, spans=None) -> bytearray:
    """The encoder before `spans`, which it takes and does not use."""
    stack = [f]
    while stack:
        node = stack.pop()
        if known is not None and node in known:
            out += known[node]
            continue
        if node.__class__ is S.Succ and node._n is not None:
            out += bytes((wire._SUCC_TAG,)) * node._n
            node = S.ZERO
        tag = wire._TAGS.get(node.__class__)
        if tag is None:
            raise ValueError(f"cannot encode {node!r}")
        out.append(tag)
        for name in reversed(node.__match_args__):
            value = getattr(node, name)
            if value.__class__ is str:
                wire._put_name(out, value)
            else:
                stack.append(value)
    return out


def test_proofs_encode_as_without_the_memo(monkeypatch, corpus, random_proofs):
    proofs = [deserialize_omega_proof(data) for data in corpus + random_proofs]
    chain = _chain(40, LEAF)
    steps = [ProofStep(f, RULE_EVAL_TRUE) for f in (chain, S.And(chain, chain))]
    steps.append(ProofStep(S.Not(chain), RULE_EVAL_TRUE))
    proofs.append(Proof(tuple(steps), steps[-1].conclusion))
    cert = build_loops_certificate(CORPUS["EVEN"], 2)
    proofs.append(Proof((cert, cert) + tuple(steps), steps[-1].conclusion))

    def encode(proof):
        finitary = not any(isinstance(step, OmegaStep) for step in proof.steps)
        plain = wire.serialize_proof(proof) if finitary else None
        return plain, serialize_omega_proof(proof)

    new = [encode(proof) for proof in proofs]
    with monkeypatch.context() as patched:
        patched.setattr(wire, "encode_formula", old_encode_formula)
        old = [encode(proof) for proof in proofs]
    assert new == old


def _tableau(cert):
    """The closed tableau in `cert`'s phi, `~((u <= t & tableau) | t + 1 <= t)`."""
    tableau = cert.phi.body.left.right
    assert not tableau._fv
    return tableau


def test_gamma_that_holds_the_tableau_encodes_as_without_the_memo(monkeypatch):
    cert = build_loops_certificate(CORPUS["EVEN"], 2)
    tableau = _tableau(cert)
    step = replace(cert, gamma=frozenset({tableau, S.Not(tableau)}))
    proof = Proof((step, cert), cert.conclusion)
    data = serialize_omega_proof(proof)
    with monkeypatch.context() as patched:
        patched.setattr(wire, "encode_formula", old_encode_formula)
        assert serialize_omega_proof(proof) == data
    assert deserialize_omega_proof(data).steps == (step, cert)


def test_checking_a_loops_certificate_writes_its_tableau_once(monkeypatch):
    cert = build_loops_certificate(CORPUS["BUSY3"], 2)
    tableau = _tableau(cert)
    written = record_calls(monkeypatch, wire, "_put_name")
    verdict = check_omega_bounded(cert, 50)
    assert (verdict.kind, verdict.index) == ("rejected", 11)
    assert len(written) <= _names(tableau) + _names(cert.phi, skip=tableau)


def _closed_bytes(step) -> list:
    """The closed quantifiers that `step`'s premise machine copies, with their
    bytes, which all lie in one copy of phi's encoding."""
    data, closed = step.premise_machine._closed_spans
    assert all(buffer is data for buffer, _, _ in closed.values())
    return [(q, data[start:end]) for q, (_, start, end) in closed.items()]


def test_closed_bytes_are_unchanged_by_the_memo():
    cert = build_loops_certificate(CORPUS["EVEN"], 2)
    # `forall x <= t (x = x)` is closed in each instance but not in phi.
    x, t = S.Var("x"), S.Var(cert.var)
    phi = S.And(cert.phi, S.BoundedForAll("x", t, S.Eq(x, x)))
    premise = replace(cert.premise_machine, phi=phi)
    wide = replace(cert, phi=phi, premise_machine=premise)
    for step in (cert, wide):
        cached = step.premise_machine._closed_spans
        before = _closed_bytes(step)
        assert any(isinstance(node, S._Bounded) for node, _ in before)
        assert all(old_encode_formula(q, bytearray()) == b for q, b in before)
        data = serialize_omega_proof(Proof((step, step), step.conclusion))
        assert _closed_bytes(step) == before
        # EVEN halts on 2, so the instances are checked up to the one it refutes.
        assert check_omega_bounded(step, 20).kind == "rejected"
        assert step.premise_machine._closed_spans is cached
        assert _closed_bytes(step) == before
        assert deserialize_omega_proof(data).steps == (step, step)


# ---------------------------------------------------------------------------
# Seeded codec: a witness-mode search encodes and decodes from the memos that
# reading its loops certificate's phi back left. A seed must change no byte
# and no decoded tree, and no error.


@pytest.fixture(scope="module")
def seeded(corpus):
    """(proof bytes, encoder seed, decoder seed) for each corpus search, in
    the order of `_corpus_proofs`."""
    cases = [(m, n) for m in CORPUS.values() for n in range(4)]
    seeds = [build_loops_certificate(m, n)._readable_closed_spans for m, n in cases]
    return [(data, *seed) for data, seed in zip(corpus, seeds, strict=True)]


def test_seeded_encodes_give_the_unseeded_bytes(seeded):
    assert any(written for _, written, _ in seeded)
    for data, written, _ in seeded:
        before = dict(written)
        proof = deserialize_omega_proof(data)
        assert serialize_omega_proof(proof) == data
        assert serialize_omega_proof(proof, spans=written) == data
        if data[0] != wire.OMEGA_STEP_TAG:
            assert wire.serialize_proof(proof, spans=written) == data
        assert written == before  # each call grew a copy


def decoded(decode, data: bytes, spans=None):
    try:
        return decode(data, spans=spans)
    except MalformedEncoding as exc:
        return str(exc)


def recalled_span(data: bytes, read: dict) -> tuple[int, int]:
    """Where in `data` the longest span of `read` first stands."""
    source, start, end = max(read.values(), key=lambda e: e[2] - e[1])[:3]
    at = data.find(source[start:end])
    assert at >= 0
    return at, at + end - start


def seeded_inputs(rng: random.Random, data: bytes, read: dict | None):
    """The proof, the proof cut by one byte, and single-byte mutations: some
    anywhere, and some inside the first copy of the seed's longest span,
    past its first 16 bytes so that its memo key still matches."""
    yield data
    yield data[:-1]
    places = [rng.randrange(len(data)) for _ in range(6)]
    if read:
        start, end = recalled_span(data, read)
        places += [rng.randrange(start, start + 16) for _ in range(2)]
        places += [rng.randrange(start + 16, end) for _ in range(10)]
    for at in places:
        flipped = data[at] ^ rng.randrange(1, 256)
        yield data[:at] + bytes([flipped]) + data[at + 1 :]


def test_seeded_decodes_give_the_unseeded_trees_and_errors(seeded):
    assert any(read for _, _, read in seeded)
    rng = random.Random(25)
    for data, _, read in seeded:
        before = dict(read or {})
        for item in seeded_inputs(rng, data, read):
            decodes = [deserialize_omega_proof]
            if item[0] != wire.OMEGA_STEP_TAG:
                decodes.append(wire.deserialize_proof)
            for decode in decodes:
                plain, with_seed = decoded(decode, item), decoded(decode, item, read)
                if isinstance(plain, str):
                    assert with_seed == plain
                    continue
                assert plain == with_seed
                conclusions = zip(plain.steps, with_seed.steps, strict=True)
                assert all(a.conclusion is b.conclusion for a, b in conclusions)
        assert (read or {}) == before  # each decode pruned a copy


def test_a_search_walks_its_tableau_once_each_way(monkeypatch):
    """BUSY3 halts on 2: thread 1's witness proof holds five copies of the
    tableau of the loops certificate's phi, which the search also encodes
    and reads back. Each tableau quantifier is built once by decoding, and
    each name of the tableau is written once by encoding."""
    decoding = []
    decode = wire._decode

    def tracked(*args):
        decoding.append(True)
        try:
            return decode(*args)
        finally:
            decoding.pop()

    new = S._Bounded.__new__
    built = []

    def counted(cls, *args):
        node = new(cls, *args)
        if decoding:
            built.append(node)
        return node

    monkeypatch.setattr(wire, "_decode", tracked)
    monkeypatch.setattr(S._Bounded, "__new__", counted)
    written = record_calls(monkeypatch, wire, "_put_name")
    outcome = halting_search(CORPUS["BUSY3"], 2)
    monkeypatch.undo()
    assert outcome.kind == "halts_yes"
    ids = [id(node) for node in built]
    assert 0 < len(ids) == len(set(ids))

    proof = wire.deserialize_proof(outcome.proof)
    cert = build_loops_certificate(CORPUS["BUSY3"], 2)
    tableau = _tableau(cert)
    fields = [step.conclusion for step in proof.steps]
    fields += proof.steps[1].payload[1]  # exists-intro: var, body, witness
    outside = sum(_names(field, skip=tableau) for field in fields)
    # The instances thread 3 checked have no names outside the tableau.
    outside += _names(cert.phi, skip=tableau)
    assert len(written) <= _names(tableau) + outside
