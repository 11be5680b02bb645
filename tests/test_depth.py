"""Deep and wide trees: every walk runs on an explicit stack, so nothing here
depends on the interpreter's recursion limit, which stays at its default."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from omegacheck import arithmetize, machines, omega, wire
from omegacheck.cli import main
from omegacheck.dovetail import existence_proof
from omegacheck.kernel import (
    ProofStep,
    RULE_EVAL_TRUE,
    Verdict,
    check_proof,
    make_proof,
)
from omegacheck.syntax import (
    Add,
    And,
    BoundedExists,
    BoundedForAll,
    Eq,
    Exists,
    ForAll,
    Implies,
    Le,
    Mul,
    Not,
    Or,
    Succ,
    SyntaxError_,
    Var,
    ZERO,
    eval_bounded,
    free_vars,
    numeral,
    parse_formula,
    parse_term,
    print_formula,
    print_term,
    substitute,
)
from omegacheck.wire import (
    MAX_FORMULA_DEPTH,
    MalformedEncoding,
    Reader,
    decode_formula,
    deserialize_proof,
    encode_formula,
    serialize_proof,
)

SRC = Path(__file__).resolve().parent.parent / "src"
# An eval-true step whose conclusion is 150 000 negations of 0 = 0.
DEEP_NESTING = bytes([0x27]) + b"\x12" * 150_000 + b"\x10\x01\x01"


@pytest.fixture(autouse=True)
def default_recursion_limit():
    """Run at CPython's default limit, whatever an import may have set."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(saved)


def _nots(depth):
    f = Eq(ZERO, ZERO)
    for _ in range(depth):
        f = Not(f)
    return f


def _run_module(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_import_leaves_recursion_limit_alone():
    probe = (
        "import sys; before = sys.getrecursionlimit(); import omegacheck; "
        "print(before, sys.getrecursionlimit())"
    )
    before, after = _run_module("-c", probe).stdout.split()
    assert before == after


def test_deep_equality_and_hash():
    assert numeral(20000) == numeral(20000)
    assert numeral(20000) != numeral(20001)
    a, b = _nots(40000), _nots(40000)
    assert a == b and hash(a) == hash(b)
    assert a != _nots(40001)


def test_deep_nesting_is_malformed(tmp_path, capsys):
    with pytest.raises(MalformedEncoding):
        deserialize_proof(DEEP_NESTING)
    path = tmp_path / "deep.bin"
    path.write_bytes(DEEP_NESTING)
    argv = ["check", str(path), "--target", "0 = 0"]
    assert main(argv) == 4
    capsys.readouterr()
    result = _run_module("-m", "omegacheck.cli", *argv)
    assert result.returncode == 4, result.stderr
    assert "Traceback" not in result.stderr


def test_a_deep_run_of_negations_is_refused_in_one_frame():
    tracemalloc.start()
    try:
        with pytest.raises(MalformedEncoding) as refused:
            deserialize_proof(DEEP_NESTING)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(refused.value) == f"formula nesting deeper than {MAX_FORMULA_DEPTH}"
    # A frame for each `~` came to megabytes before the refusal.
    assert peak < 2**16


def test_formula_depth_cap_is_exact():
    for depth in (MAX_FORMULA_DEPTH, MAX_FORMULA_DEPTH + 1):
        data = bytearray()
        encode_formula(_nots(depth), data)
        if depth > MAX_FORMULA_DEPTH:
            with pytest.raises(MalformedEncoding):
                decode_formula(Reader(bytes(data)))
        else:
            assert decode_formula(Reader(bytes(data))) == _nots(depth)


def test_eval_true_on_deep_numerals():
    target = Le(numeral(120000), numeral(120000))
    step = ProofStep(Le(numeral(120000), numeral(120000)), RULE_EVAL_TRUE)
    proof = make_proof([step])
    assert check_proof(frozenset(), proof, target).accepted
    # Term depth is not capped: the proof also survives the wire.
    decoded = deserialize_proof(serialize_proof(proof))
    assert check_proof(frozenset(), decoded, target).accepted


def test_deep_text_roundtrips():
    f = parse_formula("~" * 100000 + "0 = 0")
    assert f == _nots(100000)
    assert parse_formula(print_formula(f)) == f
    text = "S(" * 50000 + "0" + ")" * 50000
    t = parse_term(text)
    assert t == numeral(50000)
    assert print_term(t) == text
    assert parse_term(print_term(t)) == t


def test_deep_repr():
    text = repr(_nots(100000))
    assert text == "Not<" + "~" * 100000 + "0 = 0>"
    assert repr(numeral(2)) == "Succ<S(S(0))>"


def test_free_variables_of_a_deep_binder_chain_are_cheap():
    # exists v0 <= 0. exists v1 <= 0. (v0 = v1 & ... exists v3000 <= 0.
    # (v2999 = v3000 & v3000 = 0)): each binder's free set has one name,
    # while a walk that copies the bound set at every binder is quadratic.
    tracemalloc.start()
    try:
        depth = 3000
        f = Eq(Var(f"v{depth}"), ZERO)
        for i in range(depth, 0, -1):
            link = Eq(Var(f"v{i - 1}"), Var(f"v{i}"))
            f = BoundedExists(f"v{i}", ZERO, And(link, f))
        assert free_vars(f) == {"v0"}
        f = BoundedExists("v0", ZERO, f)
        assert free_vars(f) == frozenset()
        assert eval_bounded(f) is True
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2**20


def _binder_chain(names, lhs):
    """forall n0. forall n1. ... lhs = n0 + n1 + ..."""
    total = Var(names[0])
    for name in names[1:]:
        total = Add(total, Var(name))
    body = Eq(Var(lhs), total)
    for name in reversed(names):
        body = ForAll(name, body)
    return body


@pytest.mark.parametrize("length", [60, 400])
def test_capture_renaming_chain(length):
    # Substituting t for x captures at every binder: t is renamed t1, which
    # then captures t1 in the body, and so on down the chain.
    names = ["t" + "1" * k for k in range(length + 1)]
    result = substitute(_binder_chain(names[:-1], "x"), "x", Var("t"))
    assert result == _binder_chain(names[1:], "t")


def test_halted_by_formula_roundtrips():
    f = arithmetize.halted_by_formula(machines.LOOP, 0, 60, "yes")
    data = bytearray()
    encode_formula(f, data)
    assert decode_formula(Reader(bytes(data))) == f
    assert parse_formula(print_formula(f)) == f
    assert eval_bounded(f) is False


def test_tableau_past_the_cap_is_an_overflow(tmp_path, capsys):
    # At 128 steps LOOP's window is n + 2 cells, and 2 * 127 * 256 + 511
    # levels for n = 254 are more than the cap leaves a tableau.
    with pytest.raises(arithmetize.EncodingOverflow):
        arithmetize.halted_by_formula(machines.LOOP, 254, 128, "yes")
    path = tmp_path / "loop.tm"
    path.write_text(machines.machine_to_text(machines.LOOP), encoding="utf-8")
    argv = ["encode", str(path), "300", "haltedby", "--t", "128", "--outcome", "yes"]
    assert main(argv) == 5
    assert "coding limit" in capsys.readouterr().err


def test_every_proof_around_a_tableau_decodes(monkeypatch):
    # Under a small cap, halting runs on growing inputs cross it: each
    # witness proof and loops certificate the program builds decodes, and
    # the tableaux it refuses are the ones past the cap.
    monkeypatch.setattr(wire, "MAX_FORMULA_DEPTH", 150)
    built = refused = 0
    for m in (machines.ALWAYS_YES, machines.EVEN, machines.BUSY3):
        for n in range(90) if m is machines.ALWAYS_YES else range(12):
            result = machines.run(m, n, 1000)
            make_target = {
                "yes": arithmetize.halts_yes_formula,
                "no": arithmetize.halts_no_formula,
            }[result.outcome]
            try:
                target = make_target(m, n)
                cert = omega.build_loops_certificate(m, n)
            except arithmetize.EncodingOverflow:
                refused += 1
                continue
            built += 1
            proof = existence_proof(target.body, target.var, result.steps)
            assert deserialize_proof(serialize_proof(proof)) == proof
            certificate = omega.OmegaProof((cert,), cert.conclusion)
            data = omega.serialize_omega_proof(certificate)
            assert omega.deserialize_omega_proof(data).target == cert.conclusion
            instance = cert.premise_machine.generate(result.steps, 10**6).proof_bytes
            deserialize_proof(instance)
    assert built and refused


# Nodes to nest, each around a leaf: terms nest inside `t <= t`, quantifiers
# around `x <= 0` and connectives around `0 <= 0`.
_TRUE = Eq(ZERO, ZERO)
_NESTS = {
    "Succ": lambda t, right: Succ(t),
    "Add": lambda t, right: Add(ZERO, t) if right else Add(t, ZERO),
    "Mul": lambda t, right: Mul(numeral(1), t) if right else Mul(t, numeral(1)),
    "Not": lambda f, right: Not(f),
    "And": lambda f, right: And(_TRUE, f) if right else And(f, _TRUE),
    "Or": lambda f, right: Or(_TRUE, f) if right else Or(f, _TRUE),
    "Implies": lambda f, right: Implies(_TRUE, f) if right else Implies(f, _TRUE),
    "ForAll": lambda f, right: ForAll("x", f),
    "Exists": lambda f, right: Exists("x", f),
    "BoundedForAll": lambda f, right: BoundedForAll("x", ZERO, f),
    "BoundedExists": lambda f, right: BoundedExists("x", ZERO, f),
}
_TERM_NESTS = ("Succ", "Add", "Mul")


def _nested(kind, depth, right):
    if kind in _TERM_NESTS:
        node = ZERO
    else:
        node = Le(Var("x") if "All" in kind or "Exists" in kind else ZERO, ZERO)
    for _ in range(depth):
        node = _NESTS[kind](node, right)
    return Le(node, node) if kind in _TERM_NESTS else node


def _verdict_or_parse_error(build):
    try:
        proof = build()
    except (MalformedEncoding, SyntaxError_) as exc:
        return exc
    return check_proof(frozenset(), proof, proof.target)


# A fixed draw, so that the test takes the same time on every run; one past
# the depth limit is tried on a term, a connective and a quantifier nest.
@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    st.sampled_from(sorted(_NESTS)),
    st.integers(1, 2000),
    st.booleans(),
    st.floats(0, 1),
)
@example("Add", MAX_FORMULA_DEPTH + 1, True, 0.5)
@example("And", MAX_FORMULA_DEPTH + 1, False, 0.7)
@example("BoundedExists", MAX_FORMULA_DEPTH + 1, False, 0.3)
def test_deep_or_wide_nesting_always_gets_a_verdict(kind, depth, right, cut):
    sentence = _nested(kind, depth, right)
    data = serialize_proof(make_proof([ProofStep(sentence, RULE_EVAL_TRUE)]))
    for blob in (data, data[: int(cut * len(data))]):
        outcome = _verdict_or_parse_error(lambda: deserialize_proof(blob))
        assert isinstance(outcome, (Verdict, MalformedEncoding))
    text = print_formula(sentence)
    outcome = _verdict_or_parse_error(
        lambda: make_proof([ProofStep(parse_formula(text), RULE_EVAL_TRUE)])
    )
    assert isinstance(outcome, Verdict)
    cut_text = text[: int(cut * len(text))]
    outcome = _verdict_or_parse_error(
        lambda: make_proof([ProofStep(parse_formula(cut_text), RULE_EVAL_TRUE)])
    )
    assert isinstance(outcome, (Verdict, SyntaxError_))
