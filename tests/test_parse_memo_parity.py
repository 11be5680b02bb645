"""The parser against the one it had before it read a repeated bracket group
once per check: that tokenizer and parser, copied below, read every
character of every text. Each text, read alone or after others under one
memo, must give the same tree, or the same `SyntaxError_` text and
position, as the copy gives; and `check` must print the same report."""

import contextlib
import io
import random
import re

import pytest

from conftest import random_formula, random_term
from test_parse_parity import mutate, random_text
from omegacheck import cli, syntax
from omegacheck.arithmetize import halts_no_formula, halts_yes_formula
from omegacheck.dovetail import existence_proof
from omegacheck.machines import CORPUS, run
from omegacheck.syntax import (
    _INFIX,
    _KEYWORDS,
    _TERMS,
    ZERO,
    And,
    BoundedExists,
    BoundedForAll,
    Exists,
    ForAll,
    Not,
    Or,
    Succ,
    SyntaxError_,
    Var,
    numeral,
    parse_formula,
    parse_term,
    print_formula,
    print_term,
)

_OLD_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:S\()+0\)+)|(?P<sym>->|<=|[()=~&|.+*0])"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<bad>\S))"
)


def old_tokenize(text: str) -> list[tuple]:
    tokens: list[tuple] = []
    for m in _OLD_TOKEN_RE.finditer(text):
        group, pos = m.lastgroup, m.start(m.lastgroup)
        if group == "num":
            zero = pos + m[group].index("0")
            d = min((zero - pos) // 2, m.end() - zero - 1)
            first = zero - 2 * d
            for p in range(pos, first, 2):
                tokens += (("ident", "S", p), ("(", "(", p + 1))
            tokens.append((d, "S", first))
            tokens += [(")", ")", p) for p in range(zero + 1 + d, m.end())]
        elif group == "bad":
            raise SyntaxError_(f"unexpected character {m[group]!r}", pos)
        else:
            tokens.append((group if group == "ident" else m[group], m[group], pos))
    tokens.append(("eof", "", len(text)))
    return tokens


def old_sorted(node, position: int, term: bool):
    if isinstance(node, _TERMS) != term:
        raise SyntaxError_(f"expected a {'term' if term else 'formula'}", position)
    return node


def old_reduce(operators: list[tuple], operands: list[tuple]) -> None:
    prec, cls, pos, head = operators.pop()
    arg, arg_pos = operands.pop()
    if head is not None:
        node = cls(*head, old_sorted(arg, arg_pos, False))
    else:
        left, pos = operands.pop()
        term = prec >= 5
        node = cls(old_sorted(left, pos, term), old_sorted(arg, arg_pos, term))
    operands.append((node, pos))


def old_parse(text: str, term: bool):
    tokens = iter(old_tokenize(text))
    operands: list[tuple] = []
    operators: list[tuple] = []
    while True:
        kind, value, pos = next(tokens)
        if kind == "~":
            operators.append((4, Not, pos, ()))
            continue
        if kind == "(":
            operators.append((-1, ")", pos, None))
            continue
        if kind == "ident" and value == "S":
            kind, value, paren = next(tokens)
            if kind != "(":
                raise SyntaxError_(f"expected '(', found {value!r}", paren)
            operators.append((-1, ")", pos, Succ))
            continue
        if kind == "ident" and value in _KEYWORDS:
            kind, var, var_pos = next(tokens)
            if kind != "ident" or var in _KEYWORDS:
                raise SyntaxError_(f"expected a variable, found {var!r}", var_pos)
            kind, dot, dot_pos = next(tokens)
            if kind == "<=":
                operators.append((-1, ".", pos, (value, var)))
                continue
            if kind != ".":
                raise SyntaxError_(f"expected '.', found {dot!r}", dot_pos)
            operators.append((0, ForAll if value == "forall" else Exists, pos, (var,)))
            continue
        if kind == "0":
            operands.append((ZERO, pos))
        elif kind.__class__ is int:
            operands.append((numeral(kind), pos))
        elif kind == "ident":
            operands.append((Var(value), pos))
        else:
            raise SyntaxError_(f"expected a term or formula, found {value!r}", pos)
        while True:
            kind, value, pos = next(tokens)
            if kind in _INFIX:
                prec, right, cls = _INFIX[kind]
                while operators and (
                    operators[-1][0] > prec or (operators[-1][0] == prec and not right)
                ):
                    old_reduce(operators, operands)
                operators.append((prec, cls, pos, None))
                break
            while operators and operators[-1][0] >= 0:
                old_reduce(operators, operands)
            if kind == "eof":
                if operators:
                    raise SyntaxError_(f"expected {operators[-1][1]!r}, found ''", pos)
                node, node_pos = operands.pop()
                return old_sorted(node, node_pos, term)
            if not operators or operators[-1][1] != kind:
                raise SyntaxError_(f"unexpected {value!r}", pos)
            _, _, open_pos, what = operators.pop()
            node, node_pos = operands.pop()
            if kind == ")":
                if what is Succ:
                    node = Succ(old_sorted(node, node_pos, True))
                operands.append((node, open_pos))
                continue
            keyword, var = what
            bound = old_sorted(node, node_pos, True)
            if var in bound._fv:
                raise SyntaxError_(f"bound of {var} mentions {var}", node_pos)
            cls = BoundedForAll if keyword == "forall" else BoundedExists
            operators.append((0, cls, open_pos, (var, bound)))
            break


def outcome(read):
    try:
        return read()
    except SyntaxError_ as exc:  # compared by text and position
        return str(exc), exc.position


def program(text: str, term: bool, memo: dict | None = None):
    parse = parse_term if term else parse_formula
    return outcome(lambda: parse(text, memo))


def reference(text: str, term: bool, memo: dict | None = None):
    return old_parse(text, term)


def same(a, b) -> bool:
    # Trees are interned, so the same tree is the same object; errors are
    # equal tuples.
    return a is b or (type(a) is tuple and a == b)


def assert_read_as_before(texts: list[tuple[str, bool]], memo: dict) -> None:
    """Each (text, term) alone, and in order under `memo`, as the copy reads it."""
    differ = []
    for text, term in texts:
        want = outcome(lambda: old_parse(text, term))
        alone, shared = program(text, term), program(text, term, memo)
        if not (same(want, alone) and same(want, shared)):
            differ.append((text, term, want, alone, shared))
    assert differ == []


def repeated_groups(rng: random.Random) -> list[str]:
    """A printed formula whose bracket groups repeat, and mutations of it."""
    f = random_formula(rng, rng.randrange(4))
    g = random_formula(rng, rng.randrange(4))
    t = print_term(random_term(rng, rng.randrange(4)))
    text = rng.choice(
        [
            print_formula(And(Or(f, g), Or(f, g))),
            f"({print_formula(f)}) & ~({print_formula(f)}) | ({print_formula(f)})",
            f"({t}) * S(({t})) = ({t}) + ({t})",
        ]
    )
    return [text, mutate(rng, text), text, mutate(rng, text)]


@pytest.mark.parametrize("seed", range(5))
def test_random_and_mutated_texts_read_as_before(seed):
    rng = random.Random(seed)
    texts = []
    for _ in range(400):
        texts += [(random_text(rng), rng.random() < 0.5) for _ in range(5)]
        texts += [(text, rng.random() < 0.2) for text in repeated_groups(rng)]
    assert_read_as_before(texts, {})


def witness(m, n: int):
    """(target text, proof text, proof) of the witness for (m, n), or None."""
    result = run(m, n, 10_000)
    halts = {"yes": halts_yes_formula, "no": halts_no_formula}
    if result.outcome in halts:
        target = halts[result.outcome](m, n)
        proof = existence_proof(target.body, target.var, result.steps)
        return print_formula(target), cli.proof_to_text(proof), proof


def witness_texts(top: int = 4):
    """The witnesses of the corpus for n <= top."""
    cases = [witness(m, n) for m in CORPUS.values() for n in range(top + 1)]
    return [case for case in cases if case is not None]


def test_witness_texts_read_after_their_target_as_before(monkeypatch):
    for target_text, text, proof in witness_texts():
        memo: dict = {}
        assert_read_as_before([(target_text, False)], memo)
        shared, alone = cli.parse_proof_text(text, memo), cli.parse_proof_text(text)
        with monkeypatch.context() as patched:
            patched.setattr(syntax, "_parse", reference)
            want = cli.parse_proof_text(text)
        assert want == proof
        assert shared == want and alone == want


PREFIX = "(exists x <= S(S(0)). x = x & "  # more than 16 characters


@pytest.mark.parametrize(
    "texts",
    [
        # Groups that share their first 16 characters and differ later.
        [f"{PREFIX}x = 0) | {PREFIX}x = S(0)) | {PREFIX}x = 0)"],
        [f"{PREFIX}0 = 0)", f"{PREFIX}0 = S(0))", f"{PREFIX}0 = 0) & {PREFIX}0 = 0)"],
        # Groups that end in S(0))), read where more brackets follow them.
        ["(0 + S(S(0))) * S((0 + S(S(0)))) = S(S((0 + S(S(0)))))"],
        ["S((x + S(0)))", "S(S((x + S(0))))", "(x + S(0))"],
        # A bad character after a repeated group, and a syntax error between.
        [f"{PREFIX}0 = 0) & {PREFIX}0 = 0) ?", f"{PREFIX}0 = 0) & & {PREFIX}0 = 0) ?"],
        [f"{PREFIX}0 = 0) {PREFIX}0 = 0) ²", f"({PREFIX}0 = 0) & x ? 0"],
        # A copy that differs in one digit, a bracket or a sort.
        ["(exists d1_0 <= S(0). d1_0 = 0) & (exists d1_0 <= S(0). d1_1 = 0)"],
        [f"{PREFIX}0 = 0) & {PREFIX}0 = 0", f"{PREFIX}0 = 0)) & x", f"{PREFIX}0) = 0"],
        ["(S(0) + x) = (S(0) + x)", "(S(0) + x) & 0 = 0", "(S(0) + x) + (S(0) + x)"],
    ],
)
@pytest.mark.parametrize("term", [False, True])
def test_pinned_texts_read_as_before(texts, term):
    assert_read_as_before([(text, term) for text in texts], {})


def one_digit_changed(text: str, at: int) -> str:
    return text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1 :]


def test_copies_that_differ_in_one_digit_read_as_before():
    for target_text, _, _ in witness_texts(2):
        # The digits of the tableau's names, as in `d1_0`.
        digits = [
            i
            for i, c in enumerate(target_text)
            if c.isdigit() and target_text[i - 1] not in "( "
        ]
        if not digits:
            continue
        first = one_digit_changed(target_text, digits[0])
        last = one_digit_changed(target_text, digits[-1])
        texts = [target_text, last, first, target_text, last]
        assert_read_as_before([(text, False) for text in texts], {})


def check_report(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_check_reports_as_before(tmp_path, monkeypatch):
    target_text, text, _ = next(w for w in witness_texts(3) if len(w[1]) > 80_000)
    late = text.rindex("d2_1")
    cases = {
        "witness": text,
        "digit": text[:late] + "d2_2" + text[late + 4 :],
        "bracket": text[:late] + "(" + text[late:],
        "character": text[:late] + "?" + text[late:],
    }
    argvs = []
    for name, body in cases.items():
        (tmp_path / name).write_text(body, encoding="utf-8")
        argv = ["check", str(tmp_path / name), "--target", target_text]
        argvs += [argv, argv + ["--format", "records"]]
    gamma = tmp_path / "gamma"
    gamma.write_text(f"{target_text}\n{target_text}\n", encoding="utf-8")
    argvs.append(argvs[0] + ["--gamma", str(gamma)])
    reports = [check_report(argv) for argv in argvs]
    with monkeypatch.context() as patched:
        patched.setattr(syntax, "_parse", reference)
        want = [check_report(argv) for argv in argvs]
    assert [code for code, _, _ in want] == [0, 0, 2, 2, 4, 4, 4, 4, 0]
    assert reports == want


def test_a_witness_text_read_after_its_target_reduces_less(monkeypatch):
    target_text, text, _ = witness(CORPUS["BUSY3"], 2)
    reduce, calls = syntax._reduce, []
    monkeypatch.setattr(syntax, "_reduce", lambda *args: calls.append(reduce(*args)))
    parse_formula(target_text)
    alone = len(calls)
    memo: dict = {}
    parse_formula(target_text, memo)
    calls.clear()
    cli.parse_proof_text(text, memo)
    # The proof holds five copies of the target's tableau.
    assert 0 < len(calls) < alone


class Watched(dict):
    """A memo that adds up the lengths of the groups it forgets."""

    dropped = 0

    def __delitem__(self, key):
        _, start, end, _ = self[key]
        self.dropped += end - start
        super().__delitem__(key)


def test_a_failed_comparison_drops_its_entry():
    memo = Watched()
    first, second = f"{PREFIX}x = 0)", f"{PREFIX}x = S(0))"
    parse_formula(f"{first} & 0 = 0", memo)
    parse_formula(f"{second} & 0 = 0", memo)
    assert memo.dropped == len(first)
    assert memo[first[:16]][0] == f"{second} & 0 = 0"


def test_failed_comparisons_cover_at_most_the_text():
    memo = Watched()
    x, y = PREFIX, PREFIX.replace(" x", " y")
    long = [f"{p}{' & '.join(['0 = 0'] * 200)})" for p in (x, y)]
    size = len(long[0])
    short = f"{x}0 = 0) | {y}0 = 0)"
    siblings = " | ".join(f"{x}x = {print_term(numeral(k))})" for k in range(5))
    texts = [
        " | ".join(long),
        # Room to compare one long group, not both.
        short + " | 0 = 0" * ((3 * size // 2 - len(short)) // 8),
        " | ".join(long),
        siblings,  # shorter than a long group
        siblings,
        short,
    ]
    for text in texts:
        before = memo.dropped
        assert_read_as_before([(text, False)], memo)
        assert memo.dropped - before <= len(text)
    assert memo.dropped > 0
