"""Canonical binary encoding of terms, formulas and proofs, plus the
shortlex enumeration of byte strings that proof search crawls.

Layout: one tag byte per node, children in fixed order, names and counts
length-prefixed (lengths big-endian). A proof is the bare concatenation of
its steps; the target is implicit as the final step's conclusion, which
keeps encodings short and makes the encoding canonical.

Decoding is total: any byte string either decodes or raises
`MalformedEncoding`. The decoder keeps its own stack, so this does not
depend on the interpreter's recursion limit; formula nesting is capped at
`MAX_FORMULA_DEPTH` as part of the format, and term nesting only by memory.

A proof repeats whole quantifiers (a witness proof holds five copies of one
tableau): one `serialize_proof` or `deserialize_proof` call walks each at
most once, through one memo of the quantifiers it has handled. The decoder
skips a repeat by `syntax.recall`, the text parser's rule too, where it fits
under the nesting cap. Either call may start from a copy of a seed memo:
`omega` seeds the encoder with phi's closed quantifiers per instance, and a
witness-mode halting search seeds both directions with what encoding phi and
reading it back left (`dovetail`). A seed changes no result. An encoder
entry is a quantifier's own encoding, the same wherever it stands. A decoder
entry is a span read before, with its tree and nesting; `recall` reuses it
only where the bytes equal the whole span and the nesting fits under the
cap, and a quantifier's bytes decode to one tree in any context (names are
checked afresh, nodes interned). So a seeded decode returns the identical
proof, or raises, exactly where an unseeded one does.
"""

from __future__ import annotations

import re
from itertools import chain, count, product
from typing import Iterator

from . import syntax as S
from . import kernel as K


class MalformedEncoding(Exception):
    """Bytes that do not decode; search treats these as rejections."""


# Step tag -> shape; `omega` reads and writes the one other step.
_STEPS = {shape.tag: shape for shape in K.RULE_SHAPES.values()}
STEP_TAGS = frozenset(_STEPS)  # the bytes a proof this decoder reads starts with
OMEGA_STEP_TAG = 0x30

_SCHEME_IDS = {name: i for i, name in enumerate(sorted(K.LOGIC_SCHEMES))}
_ID_SCHEMES = {i: name for name, i in _SCHEME_IDS.items()}

# Node tag -> (class, kinds of its fields in encoding order: "n" a name, "t"
# a term, "f" a formula).
_TERM_NODES = {
    0x01: (S.Zero, ""),
    0x02: (S.Succ, "t"),
    0x03: (S.Add, "tt"),
    0x04: (S.Mul, "tt"),
    0x05: (S.Var, "n"),
}
_FORMULA_NODES = {
    0x10: (S.Eq, "tt"),
    0x11: (S.Le, "tt"),
    0x12: (S.Not, "f"),
    0x13: (S.And, "ff"),
    0x14: (S.Or, "ff"),
    0x15: (S.Implies, "ff"),
    0x16: (S.ForAll, "nf"),
    0x17: (S.Exists, "nf"),
    0x18: (S.BoundedForAll, "ntf"),
    0x19: (S.BoundedExists, "ntf"),
}
_TAGS = {
    cls: tag
    for nodes in (_TERM_NODES, _FORMULA_NODES)
    for tag, (cls, _) in nodes.items()
}
_SUCC_TAG = _TAGS[S.Succ]
_ZERO_TAG = _TAGS[S.Zero]
_NOT_TAG = _TAGS[S.Not]
# The end of a run of one tag from a position, found at C speed.
_RUN_END = {t: re.compile(b"\\x%02x+" % t).match for t in (_SUCC_TAG, _NOT_TAG)}
_BINDERS = frozenset(t for t, (_, k) in _FORMULA_NODES.items() if k[0] == "n")

MAX_FORMULA_DEPTH = 1 << 16
"""Deepest nesting of connectives and quantifiers in a valid encoding;
deeper input is a `MalformedEncoding`. The decoder keeps its own stack, so
this is a limit of the format, not a guard: `arithmetize` refuses any
tableau that could nest deeper inside a proof, so what the program encodes
decodes. At 128 steps that leaves tableaux windows of up to 255 cells.
Term depth is not capped: numerals grow with what they denote."""
_TOO_DEEP = f"formula nesting deeper than {MAX_FORMULA_DEPTH}"


def _put_name(out: bytearray, name: str) -> None:
    data = name.encode("ascii")
    if not 0 < len(data) < 256:
        raise ValueError("name length out of range")
    out.append(len(data))
    out += data


def encode_formula(
    f: S.Formula | S.Term, out: bytearray, spans: dict | None = None
) -> bytearray:
    """Append the encoding of a formula or a term (its tag, then its fields)
    to `out`, and return `out`. `spans` maps quantifiers to (buffer, start,
    end), the buffer `out` or one that no longer changes: a quantifier in it
    is copied instead of walked, and one written here is added to it."""
    stack = [f]
    while stack:
        node = stack.pop()
        if node.__class__ is S.Succ and node._n is not None:  # a numeral
            out += bytes((_SUCC_TAG,)) * node._n
            node = S.ZERO
        tag = _TAGS.get(node.__class__)
        if tag is None:
            if node.__class__ is tuple:  # (quantifier, start): its end is here
                spans[node[0]] = (out, node[1], len(out))
                continue
            raise ValueError(f"cannot encode {node!r}")
        if spans is not None and tag in _BINDERS:
            if node in spans:
                buffer, start, end = spans[node]
                out += buffer[start:end]
                continue
            stack.append((node, len(out)))
        out.append(tag)
        # A node has at most one name, and it comes before any child.
        for name in reversed(node.__match_args__):
            value = getattr(node, name)
            if value.__class__ is str:
                _put_name(out, value)
            else:
                stack.append(value)
    return out


def put_field(out: bytearray, kind: str, value, spans: dict | None = None) -> None:
    """Append one step field of the given kind (see `kernel.RULE_SHAPES`)."""
    if kind == "i":
        if not isinstance(value, int) or not 0 <= value < 256:
            raise ValueError("axiom index out of range")
        out.append(value)
    elif kind == "v":
        _put_name(out, value)
    elif kind == "p":
        out += value.to_bytes(2, "big")
    elif kind == "L":
        scheme, items = value
        out.append(_SCHEME_IDS[scheme])
        for item_kind, item in zip(K.LOGIC_SCHEMES[scheme].kinds, items):
            put_field(out, item_kind, item, spans)
    else:
        encode_formula(value, out, spans=spans)


class Reader:
    def __init__(self, data: bytes, spans: dict | None = None):
        self.data = data
        self.pos = 0
        # `S.recall`'s (data, start, end, node, nesting), from a copy of a seed
        self.spans: dict | None = dict(spans) if spans else None
        self.missed = 0  # bytes of failed comparisons, at most len(data)

    def reuse(self, start: int, depth: int) -> tuple | None:
        """(node, end, nesting) for the bytes from `start` if they repeat a
        quantifier read before that fits there (`syntax.recall`)."""
        fits = lambda hit: depth + hit[4] <= MAX_FORMULA_DEPTH  # before comparing
        room = len(self.data) - self.missed
        hit, size = S.recall(self.spans, self.data, start, room, fits)
        if hit:
            return hit[3], start + size, hit[4]
        self.missed += size

    def u8(self) -> int:
        if self.pos >= len(self.data):
            raise MalformedEncoding("unexpected end of input")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "big")

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise MalformedEncoding("unexpected end of input")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def var(self) -> S.Var:
        """Read a name as its variable. Building the variable checks the
        name, once for as long as that variable lives."""
        n = self.u8()
        if n == 0:
            raise MalformedEncoding("empty name")
        raw = self.take(n)
        try:
            text = raw.decode("ascii")
        except UnicodeDecodeError as exc:
            raise MalformedEncoding("non-ascii name") from exc
        try:
            return S.Var(text)
        except ValueError:
            raise MalformedEncoding(f"bad name {text!r}") from None

    def name(self) -> str:
        return self.var().name

    def at_end(self) -> bool:
        return self.pos >= len(self.data)

    def field(self, kind: str):
        """Read one step field of the given kind (see `kernel.RULE_SHAPES`)."""
        if kind == "i":
            return self.u8()
        if kind == "v":
            return self.name()
        if kind == "p":
            return self.u16()
        if kind == "L":
            scheme = _ID_SCHEMES.get(self.u8())
            if scheme is None:
                raise MalformedEncoding("bad scheme id")
            return scheme, tuple([self.field(k) for k in K.LOGIC_SCHEMES[scheme].kinds])
        return _decode(self, kind)


def _decode(r: Reader, kind: str):
    """Decode one term ("t") or formula ("f").

    Iterative: every node with children is an open frame (class, field
    kinds, fields so far) until its last child is done, and a run of
    successors or of negations is one frame (class, length of the run).
    Nodes are built through the intern table, so bytes that encode a live
    tree give back that tree's nodes rather than a copy. Every byte is read
    or compared: a name or quantifier that repeats is compared with the one
    read before (a quantifier by `syntax.recall`), and a new name is checked.
    """
    data = r.data
    end = len(data)
    pos = r.pos
    names: dict[bytes, S.Var] = {}

    def read_var(pos: int) -> tuple[S.Var, int]:
        """The variable named at `pos`, and the position after the name."""
        stop = pos + 1 + data[pos] if pos < end else end + 1
        var = names.get(data[pos + 1 : stop]) if stop <= end else None
        if var is None:
            r.pos = pos
            var = names[data[pos + 1 : stop]] = r.var()
        return var, stop

    frames: list[tuple] = []
    opened: list[tuple] = []  # (start, `peak` outside) of open quantifiers
    depth = 0  # open connectives and quantifiers
    peak = 0  # the deepest `depth` inside the innermost open quantifier
    spans = r.spans
    while True:
        if pos >= end:
            raise MalformedEncoding("unexpected end of input")
        tag = data[pos]
        if tag == _SUCC_TAG and kind == "t" or tag == _NOT_TAG and kind == "f":
            start, pos = pos, _RUN_END[tag](data, pos).end()
            if tag == _SUCC_TAG and pos < end and data[pos] == _ZERO_TAG:
                pos += 1
                node = S.numeral(pos - start - 1)
            else:
                if tag == _NOT_TAG:
                    depth += pos - start
                    if depth > MAX_FORMULA_DEPTH:
                        raise MalformedEncoding(_TOO_DEEP)
                    peak = max(peak, depth)
                frames.append((S.Succ if tag == _SUCC_TAG else S.Not, pos - start))
                continue
        else:
            pos += 1
            nodes = _TERM_NODES if kind == "t" else _FORMULA_NODES
            if tag not in nodes:
                what = "term" if kind == "t" else "formula"
                raise MalformedEncoding(f"bad {what} tag 0x{tag:02x}")
            cls, kinds = nodes[tag]
            if kinds == "n":
                node, pos = read_var(pos)
            elif spans and tag in _BINDERS and (hit := r.reuse(pos - 1, depth)):
                node, pos, nested = hit
                peak = max(peak, depth + nested)
            elif kinds:
                if "f" in kinds:
                    depth += 1
                    if depth > MAX_FORMULA_DEPTH:
                        raise MalformedEncoding(_TOO_DEEP)
                    if depth > peak:
                        peak = depth
                fields = []
                if kinds[0] == "n":  # a quantifier
                    opened.append((pos - 1, peak))
                    peak = depth
                    var, pos = read_var(pos)
                    fields.append(var.name)
                frames.append((cls, kinds, fields))
                kind = kinds[len(fields)]
                continue
            else:
                node = S.ZERO
        # Hand the finished node to the frames it completes.
        while frames:
            if len(frames[-1]) == 2:
                cls, run = frames.pop()
                depth -= run if cls is S.Not else 0
                for _ in range(run):
                    node = cls(node)
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
            except ValueError as exc:  # a bound that mentions its variable
                raise MalformedEncoding(str(exc)) from exc
            if kinds[0] == "n":  # a quantifier: record its span
                start, outer = opened.pop()
                if spans is None:
                    spans = r.spans = {}
                spans[data[start : start + 16]] = (data, start, pos, node, peak - depth)
                peak = max(peak, outer)
        else:
            r.pos = pos
            return node


def decode_formula(r: Reader) -> S.Formula:
    return _decode(r, "f")


def encode_step(step: K.ProofStep, out: bytearray, spans=None) -> None:
    """Append a step: its tag, fields, then conclusion (`kernel.RULE_SHAPES`);
    `spans` is passed to `encode_formula` for each formula."""
    shape = K.RULE_SHAPES.get(step.rule)
    if shape is None:
        raise ValueError(f"unknown rule {step.rule!r}")
    out.append(shape.tag)
    for kind, value in zip(shape.kinds, shape.values(step), strict=True):
        put_field(out, kind, value, spans)
    encode_formula(step.conclusion, out, spans=spans)


def decode_step(r: Reader) -> K.ProofStep:
    """Read a step: its tag, fields, then conclusion (`kernel.RULE_SHAPES`)."""
    tag = r.u8()
    shape = _STEPS.get(tag)
    if shape is None:
        raise MalformedEncoding(f"bad step tag 0x{tag:02x}")
    values = [r.field(kind) for kind in shape.kinds]
    return shape.step(values, decode_formula(r))


def serialize_proof(
    proof: K.Proof, *, write_step=encode_step, spans: dict | None = None
) -> bytes:
    """Steps back to back, with one memo, a copy of the seed `spans` if given
    (see the module docstring); `omega` passes its own `write_step`."""
    out, spans = bytearray(), dict(spans or ())
    for step in proof.steps:
        write_step(step, out, spans=spans)
    return bytes(out)


def deserialize_proof(
    data: bytes, *, read_step=decode_step, spans: dict | None = None
) -> K.Proof:
    """Steps back to back, with a copy of the seed `spans` if given (see the
    module docstring); `omega` passes a `read_step` of its own."""
    r = Reader(data, spans)
    steps = []
    if r.at_end():
        raise MalformedEncoding("empty input")
    while not r.at_end():
        steps.append(read_step(r))
    return K.Proof(tuple(steps), steps[-1].conclusion)


# ---------------------------------------------------------------------------
# Shortlex enumeration

DEFAULT_ALPHABET: tuple[int, ...] = tuple(range(256))


def _check_alphabet(alphabet: tuple[int, ...]) -> tuple[int, ...]:
    if alphabet is not DEFAULT_ALPHABET and (
        not all(isinstance(b, int) and 0 <= b <= 255 for b in alphabet)
        or len(alphabet) < 2
        or sorted(set(alphabet)) != list(alphabet)
    ):
        raise ValueError("alphabet must be >= 2 distinct sorted byte values")
    return alphabet


# The default is checked here, once and in full: a copy is not the default.
_check_alphabet(list(DEFAULT_ALPHABET))


def shortlex_blocks(
    alphabet: tuple[int, ...] = DEFAULT_ALPHABET, first_bytes: frozenset | None = None
) -> Iterator[tuple[int, Iterator[bytes] | None]]:
    """`shortlex` by first-byte blocks, as (size, strings): b'' alone, then
    each length's strings by first byte. With a set `first_bytes`, b'' and a
    block whose first byte is outside it have None, and are never built."""
    alphabet = _check_alphabet(alphabet)
    kept = frozenset(alphabet) if first_bytes is None else first_bytes
    blocks = (
        (len(alphabet) ** n, map(bytes, product((b,), *tails)) if b in kept else None)
        for n in count() for tails in [(alphabet,) * n] for b in alphabet
    )
    return chain([(1, iter((b"",)) if first_bytes is None else None)], blocks)


def shortlex(alphabet: tuple[int, ...] = DEFAULT_ALPHABET) -> Iterator[bytes]:
    """All byte strings over `alphabet` in shortlex order, from b'': what
    `proof_at_index` gives for 0, 1, 2, ..., with the alphabet checked once."""
    return chain.from_iterable(block[1] for block in shortlex_blocks(alphabet))


def index_of_string(data: bytes, alphabet: tuple[int, ...] = DEFAULT_ALPHABET) -> int:
    """Inverse of proof_at_index; ValueError on out-of-alphabet bytes."""
    alphabet = _check_alphabet(alphabet)
    base = len(alphabet)
    positions = {b: k for k, b in enumerate(alphabet)}
    below = 0
    count = 1
    for _ in range(len(data)):
        below += count
        count *= base
    rank = 0
    for b in data:
        if b not in positions:
            raise ValueError(f"byte 0x{b:02x} not in alphabet")
        rank = rank * base + positions[b]
    return below + rank


def proof_at_index(i: int, alphabet: tuple[int, ...] = DEFAULT_ALPHABET) -> bytes:
    """The i-th byte string in shortlex order over `alphabet` (0 -> b'')."""
    alphabet = _check_alphabet(alphabet)
    if i < 0:
        raise ValueError("index must be a natural number")
    base = len(alphabet)
    length = 0
    count = 1  # number of strings of the current length
    while i >= count:
        i -= count
        length += 1
        count *= base
    digits = []
    for _ in range(length):
        i, d = divmod(i, base)
        digits.append(alphabet[d])
    return bytes(reversed(digits))
