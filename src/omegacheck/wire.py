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
"""

from __future__ import annotations

from . import syntax as S
from . import kernel as K


class MalformedEncoding(Exception):
    """Bytes that do not decode; search treats these as rejections."""


# Step tags
STEP_TAGS = {
    K.RULE_PA_AXIOM: 0x20,
    K.RULE_EQ_AXIOM: 0x21,
    K.RULE_LOGIC: 0x22,
    K.RULE_INDUCTION: 0x23,
    K.RULE_MP: 0x24,
    K.RULE_GEN: 0x25,
    K.RULE_INST: 0x26,
    K.RULE_EVAL_TRUE: 0x27,
    K.RULE_PREMISE: 0x28,
}
TAG_TO_RULE = {v: k for k, v in STEP_TAGS.items()}
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

MAX_FORMULA_DEPTH = 1 << 16
"""Deepest nesting of connectives and quantifiers in a valid encoding;
deeper input is a `MalformedEncoding`. The decoder keeps its own stack, so
this is a limit of the format, not a guard: `arithmetize` refuses any
tableau that could nest deeper inside a proof, so what the program encodes
decodes. At 128 steps that leaves tableaux windows of up to 255 cells.
Term depth is not capped: numerals grow with what they denote."""


def _put_name(out: bytearray, name: str) -> None:
    data = name.encode("ascii")
    if not 0 < len(data) < 256:
        raise ValueError("name length out of range")
    out.append(len(data))
    out += data


def encode_formula(f: S.Formula | S.Term, out: bytearray) -> None:
    """Append the encoding of a formula or a term: its tag, then its fields."""
    stack = [f]
    while stack:
        node = stack.pop()
        while node.__class__ is S.Succ:
            out.append(_SUCC_TAG)
            node = node.arg
        tag = _TAGS.get(node.__class__)
        if tag is None:
            raise ValueError(f"cannot encode {node!r}")
        out.append(tag)
        # A node has at most one name, and it comes before any child.
        for name in reversed(node.__match_args__):
            value = getattr(node, name)
            if value.__class__ is str:
                _put_name(out, value)
            else:
                stack.append(value)


class Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

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

    def name(self) -> str:
        n = self.u8()
        if n == 0:
            raise MalformedEncoding("empty name")
        raw = self.take(n)
        try:
            text = raw.decode("ascii")
        except UnicodeDecodeError as exc:
            raise MalformedEncoding("non-ascii name") from exc
        if not S.is_identifier(text):
            raise MalformedEncoding(f"bad name {text!r}")
        return text

    def at_end(self) -> bool:
        return self.pos >= len(self.data)


def _decode(r: Reader, kind: str):
    """Decode one term ("t") or formula ("f").

    Iterative: every node with children is an open frame (class, field
    kinds, fields so far) until its last child is done.
    """
    data = r.data
    frames: list[tuple] = []
    depth = 0  # open connectives and quantifiers
    while True:
        if r.pos >= len(data):
            raise MalformedEncoding("unexpected end of input")
        tag = data[r.pos]
        r.pos += 1
        if tag == _SUCC_TAG and kind == "t":
            # A run of successors takes one frame: (number of successors,).
            start = r.pos
            while r.pos < len(data) and data[r.pos] == _SUCC_TAG:
                r.pos += 1
            frames.append((r.pos - start + 1,))
            continue
        nodes = _TERM_NODES if kind == "t" else _FORMULA_NODES
        if tag not in nodes:
            what = "term" if kind == "t" else "formula"
            raise MalformedEncoding(f"bad {what} tag 0x{tag:02x}")
        cls, kinds = nodes[tag]
        if "f" in kinds:
            depth += 1
            if depth > MAX_FORMULA_DEPTH:
                raise MalformedEncoding(
                    f"formula nesting deeper than {MAX_FORMULA_DEPTH}"
                )
        fields = [r.name()] if kinds[:1] == "n" else []
        if len(fields) < len(kinds):
            frames.append((cls, kinds, fields))
            kind = kinds[len(fields)]
            continue
        node = S.ZERO if cls is S.Zero else cls(*fields)
        # Hand the finished node to the frames it completes.
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
            except ValueError as exc:  # a bound that mentions its variable
                raise MalformedEncoding(str(exc)) from exc
        else:
            return node


def decode_formula(r: Reader) -> S.Formula:
    return _decode(r, "f")


def encode_step(step: K.ProofStep, out: bytearray) -> None:
    tag = STEP_TAGS.get(step.rule)
    if tag is None:
        raise ValueError(f"unknown rule {step.rule!r}")
    out.append(tag)
    if step.rule in (K.RULE_PA_AXIOM, K.RULE_EQ_AXIOM):
        if not isinstance(step.payload, int) or not 0 <= step.payload < 256:
            raise ValueError("axiom index out of range")
        out.append(step.payload)
    elif step.rule == K.RULE_LOGIC:
        scheme, items = step.payload
        out.append(_SCHEME_IDS[scheme])
        for kind, item in zip(K.LOGIC_SCHEMES[scheme], items):
            if kind == "v":
                _put_name(out, item)
            else:
                encode_formula(item, out)
    elif step.rule == K.RULE_INDUCTION:
        var, phi = step.payload
        _put_name(out, var)
        encode_formula(phi, out)
    elif step.rule == K.RULE_MP:
        out += step.premises[0].to_bytes(2, "big")
        out += step.premises[1].to_bytes(2, "big")
    elif step.rule == K.RULE_GEN:
        _put_name(out, step.payload)
        out += step.premises[0].to_bytes(2, "big")
    elif step.rule == K.RULE_INST:
        encode_formula(step.payload, out)
        out += step.premises[0].to_bytes(2, "big")
    encode_formula(step.conclusion, out)


def decode_step(r: Reader) -> K.ProofStep:
    tag = r.u8()
    rule = TAG_TO_RULE.get(tag)
    if rule is None:
        raise MalformedEncoding(f"bad step tag 0x{tag:02x}")
    premises: tuple[int, ...] = ()
    payload: object = None
    if rule in (K.RULE_PA_AXIOM, K.RULE_EQ_AXIOM):
        payload = r.u8()
    elif rule == K.RULE_LOGIC:
        scheme = _ID_SCHEMES.get(r.u8())
        if scheme is None:
            raise MalformedEncoding("bad scheme id")
        kinds = K.LOGIC_SCHEMES[scheme]
        items = tuple(r.name() if k == "v" else _decode(r, k) for k in kinds)
        payload = (scheme, items)
    elif rule == K.RULE_INDUCTION:
        var = r.name()
        payload = (var, decode_formula(r))
    elif rule == K.RULE_MP:
        premises = (r.u16(), r.u16())
    elif rule == K.RULE_GEN:
        payload = r.name()
        premises = (r.u16(),)
    elif rule == K.RULE_INST:
        payload = _decode(r, "t")
        premises = (r.u16(),)
    conclusion = decode_formula(r)
    return K.ProofStep(conclusion, rule, premises, payload)


def serialize_proof(proof: K.Proof) -> bytes:
    out = bytearray()
    for step in proof.steps:
        encode_step(step, out)
    return bytes(out)


def deserialize_proof(data: bytes) -> K.Proof:
    r = Reader(data)
    steps: list[K.ProofStep] = []
    if r.at_end():
        raise MalformedEncoding("empty input")
    while not r.at_end():
        steps.append(decode_step(r))
    return K.Proof(tuple(steps), steps[-1].conclusion)


# ---------------------------------------------------------------------------
# Shortlex enumeration

DEFAULT_ALPHABET: tuple[int, ...] = tuple(range(256))


def _check_alphabet(alphabet: tuple[int, ...]) -> tuple[int, ...]:
    if len(alphabet) < 2 or sorted(set(alphabet)) != list(alphabet):
        raise ValueError("alphabet must be >= 2 distinct sorted byte values")
    return alphabet


def string_at_index(i: int, alphabet: tuple[int, ...] = DEFAULT_ALPHABET) -> bytes:
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


def index_of_string(data: bytes, alphabet: tuple[int, ...] = DEFAULT_ALPHABET) -> int:
    """Inverse of string_at_index; ValueError on out-of-alphabet bytes."""
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
    """Candidate bytes for proof search: total, injective, shortlex order."""
    return string_at_index(i, alphabet)
