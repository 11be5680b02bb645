"""The parser against the tokenizer it had before a printed numeral was read
as one token: that tokenizer, copied below, made one token of every `S`, `(`
and `)` and one `match` call per token. On every input both must give the
same tree, or the same error at the same position."""

import random
import re

import pytest

from conftest import random_formula
from omegacheck import syntax
from omegacheck.syntax import (
    Add,
    Succ,
    SyntaxError_,
    Var,
    numeral,
    parse_formula,
    parse_term,
    print_formula,
)

_OLD_TOKEN_RE = re.compile(
    r"\s*(?:(?P<sym>->|<=|[()=~&|.+*0])|(?P<ident>[A-Za-z_][A-Za-z0-9_]*))"
)


def old_tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _OLD_TOKEN_RE.match(text, pos)
        if not m:
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos >= len(text):
                break
            raise SyntaxError_(f"unexpected character {text[pos]!r}", pos)
        group = m.lastgroup
        kind = group if group == "ident" else m[group]
        tokens.append((kind, m[group], m.start(group)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


def old_tokens(text: str, start: int = 0):
    """The tokens of `old_tokenize` from `start` on, in the form the parser
    reads them: an iterator."""
    return iter([(k, v, p + start) for k, v, p in old_tokenize(text[start:])])


def outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # compared by type, text and position
        return type(exc).__name__, str(exc), getattr(exc, "position", None)


def assert_same_as_old_tokenizer(monkeypatch, texts):
    parsers = (parse_formula, parse_term)
    new = [outcome(parse, text) for text in texts for parse in parsers]
    with monkeypatch.context() as patched:
        patched.setattr(syntax, "_tokenize", old_tokens)
        old = [outcome(parse, text) for text in texts for parse in parsers]
    cases = [(text, parse.__name__) for text in texts for parse in parsers]
    differ = [(case, a, b) for case, a, b in zip(cases, old, new) if a is not b]
    # Trees are interned, so the same tree is the same object; errors are
    # equal tuples.
    differ = [d for d in differ if not (type(d[1]) is tuple and d[1] == d[2])]
    assert differ == []


FRAGMENTS = [
    "S(", "S(", "S(", "S", "(", ")", ")", ")", "0", "0", "1", "-", "<", " ",
    "  ", "\t", "\u00a0", "²", "=", "<=", "+", "*", "&", "|", "->", "~",
    ".", "x", "y", "BY", "Sx", "forall ", "exists ", "forall x. ",
    "exists y <= ", "S(0)", "S(S(0))", "S(S(S(0)))", "0)",
]
BAD = ("1", "-", "<", "²")  # characters that no token starts with


def random_text(rng: random.Random) -> str:
    pool = FRAGMENTS if rng.random() < 0.5 else [f for f in FRAGMENTS if f not in BAD]
    text = "".join(rng.choices(pool, k=rng.randint(1, 12)))
    if rng.random() < 0.3:  # wrap the text in a run of successors
        text = "S(" * rng.randrange(5) + text + ")" * rng.randrange(5)
    return text


@pytest.mark.parametrize("seed", range(5))
def test_random_strings_parse_as_with_the_old_tokenizer(monkeypatch, seed):
    rng = random.Random(seed)
    assert_same_as_old_tokenizer(monkeypatch, [random_text(rng) for _ in range(10_000)])


def mutate(rng: random.Random, text: str) -> str:
    at = rng.randrange(len(text) + 1)
    pick = rng.randrange(3)
    if pick == 0:
        return text[:at] + text[at + 1 :]
    if pick == 1:
        return text[:at] + rng.choice(FRAGMENTS) + text[at:]
    return text[:at] + rng.choice(FRAGMENTS) + text[at + 1 :]


def test_printed_and_mutated_formulas_parse_as_with_the_old_tokenizer(monkeypatch):
    rng = random.Random(7)
    texts = []
    for _ in range(1_000):
        printed = print_formula(random_formula(rng, rng.randrange(5)))
        texts += [printed, mutate(rng, printed), mutate(rng, printed)]
    assert_same_as_old_tokenizer(monkeypatch, texts)


S1, S2 = numeral(1), numeral(2)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("S(S(0)", "expected ')', found '' (at position 6)"),
        ("S(S(0) + x)", Succ(Add(S1, Var("x")))),
        ("S(S(0)))", "unexpected ')' (at position 7)"),
        ("S( S( 0 ) )", S2),
        ("0 S(0)", "unexpected 'S' (at position 2)"),
        ("S(00)", "unexpected '0' (at position 3)"),
        ("forall S(0). 0 = 0", "expected a variable, found 'S' (at position 7)"),
        ("S(0) ²", "unexpected character '²' (at position 5)"),
    ],
)
def test_pinned_numeral_cases(monkeypatch, text, expected):
    got = outcome(parse_term, text)
    if isinstance(expected, str):
        assert got[1] == expected
    else:
        assert got is expected
    assert_same_as_old_tokenizer(monkeypatch, [text])


def test_a_bad_character_is_reported_before_an_earlier_syntax_error():
    with pytest.raises(SyntaxError_, match=r"unexpected character '\?'"):
        parse_formula("0 = = S(0) ?")


def test_deep_numeral():
    depth = 200_000
    assert parse_term("S(" * depth + "0" + ")" * depth) is numeral(depth)
