import hashlib
import random
import tracemalloc
from itertools import islice

import pytest

from conftest import VARS, random_formula, random_term
from omegacheck import arithmetize, wire
from omegacheck.arithmetize import (
    EncodingOverflow,
    RunAnalysisError,
    _TableauBuilder,
    analyze_run,
    halted_by_formula,
    halting_body,
    halting_statements,
    halts_no_formula,
    halts_yes_formula,
    loops_formula,
    trace_window,
)
from omegacheck.machines import (
    ALWAYS_NO,
    ALWAYS_YES,
    BUSY3,
    CORPUS,
    EVEN,
    LOOP,
    MachineDesc,
    configs,
    run,
)
from omegacheck.omega import build_loops_certificate, check_omega_bounded
from omegacheck.syntax import (
    Add,
    Exists,
    ForAll,
    Mul,
    Not,
    Or,
    Succ,
    Var,
    ZERO,
    eval_bounded,
    free_vars,
    is_closed,
    is_delta0,
    numeral,
    print_formula,
    print_term,
    substitute,
)

# Walks left forever: no halt, no exact repeat, no rightward record pattern.
LEFT_WALKER = MachineDesc(
    (("q", "_", "q", "_", "L"), ("q", "1", "q", "1", "L")),
    start="q",
    accept_yes="Y",
    accept_no="N",
)

# Bounces between two cells without writing: exact configuration repeat.
PACER = MachineDesc(
    (
        ("a", "_", "b", "_", "R"),
        ("b", "_", "a", "_", "L"),
        ("a", "1", "b", "1", "R"),
        ("b", "1", "a", "1", "L"),
    ),
    start="a",
    accept_yes="Y",
    accept_no="N",
)

STUCK = MachineDesc((), start="q", accept_yes="Y", accept_no="N")


def test_trace_encoding_base_exceeds_product():
    # Every digit the builder writes, plain cell or head cell, is below the base.
    for m in (*CORPUS.values(), PACER, STUCK):
        builder = _TableauBuilder(m, 0, 1)
        assert builder.base > len(builder.symbols) * len(builder.states)
        heads = [
            builder.head_code(q, code)
            for q in m.states
            for code in range(builder.n_symbols)
        ]
        assert max(heads) < builder.base, m


def test_trace_encoding_injective_on_real_configs():
    # The symbol and head codes are distinct, so equal digit rows in one
    # window are equal configurations, blanks aside.
    for m in (EVEN, BUSY3, LOOP, PACER):
        for n in range(4):
            builder = _TableauBuilder(m, n, 12)
            cells = list(range(builder.n_symbols))
            heads = [builder.head_code(q, code) for q in m.states for code in cells]
            assert len(set(cells + heads)) == len(cells) + len(heads), m
            lo, hi = trace_window(m, n, 12)
            rows: dict[tuple, tuple] = {}
            for c in islice(configs(m, n), 12):
                syms = tuple(c.symbol(pos, m.blank) for pos in range(lo, hi + 1))
                digits = [builder.symbols.index(sym) for sym in syms]
                digits[c.head - lo] = builder.head_code(c.state, digits[c.head - lo])
                config = (c.state, c.head, syms)
                assert rows.setdefault(tuple(digits), config) == config


def test_row0_is_the_first_configuration():
    # A plain cell holds its symbol's index in the sorted alphabet, and the
    # head cell adds S * (1 + the state's index in the sorted states).
    # BUSY3 writes left of cell 0, so its window puts the head past index 1.
    head_index = set()
    for m in CORPUS.values():
        symbols, states = sorted(m.alphabet), sorted(m.states)
        for n in range(6):
            c = next(configs(m, n))
            for t in range(13):
                lo, hi = trace_window(m, n, t)
                cells = range(lo, hi + 1)
                row = [symbols.index(c.symbol(pos, m.blank)) for pos in cells]
                row[c.head - lo] += len(symbols) * (1 + states.index(c.state))
                assert _TableauBuilder(m, n, t).row0 == row, (m, n, t)
                head_index.add(c.head - lo)
    assert max(head_index) > 1


def test_an_over_wide_tableau_is_refused_before_its_input_is_simulated():
    # The tape holds only the cells the run wrote, and the depth check comes
    # before row 0, so ten million strokes are never put in memory.
    tracemalloc.start()
    try:
        with pytest.raises(EncodingOverflow):
            halted_by_formula(EVEN, 10**7, 5, "yes")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_halted_by_spec_examples():
    assert eval_bounded(halted_by_formula(ALWAYS_YES, 5, 1, "yes")) is True
    assert eval_bounded(halted_by_formula(LOOP, 0, 50, "yes")) is False
    assert eval_bounded(halted_by_formula(EVEN, 3, 100, "no")) is True


def test_halted_by_is_closed_delta0_with_numeral_bounds():
    f = halted_by_formula(EVEN, 2, 6, "yes")
    assert is_closed(f) and is_delta0(f)


def test_halted_by_zero_budget_is_false():
    assert eval_bounded(halted_by_formula(ALWAYS_YES, 0, 0, "yes")) is False


def test_halted_by_respects_step_cap():
    assert eval_bounded(halted_by_formula(ALWAYS_YES, 0, 128, "yes")) is True
    with pytest.raises(EncodingOverflow):
        halted_by_formula(ALWAYS_YES, 0, 129, "yes")


def test_oracle_equivalence_sample():
    # The full corpus sweep is acceptance criterion 3; this is a fast slice.
    for m in (EVEN, BUSY3):
        for n in range(3):
            for t in range(9):
                for outcome in ("yes", "no"):
                    simulated = run(m, n, t).outcome == outcome if t else False
                    assert (
                        eval_bounded(halted_by_formula(m, n, t, outcome))
                        is simulated
                    ), (m, n, t, outcome)


def test_exclusivity_and_monotonicity():
    for m, n in ((EVEN, 2), (ALWAYS_YES, 0), (BUSY3, 1), (LOOP, 1)):
        seen_true_at = None
        for t in range(0, 14):
            yes = eval_bounded(halted_by_formula(m, n, t, "yes"))
            no = eval_bounded(halted_by_formula(m, n, t, "no"))
            assert not (yes and no)
            if seen_true_at is not None:
                assert eval_bounded(halted_by_formula(m, n, t, seen_true_at))
            if yes:
                seen_true_at = "yes"
            if no:
                seen_true_at = "no"


def test_stuck_machine_never_halts_arithmetically():
    for t in (1, 3, 6):
        assert eval_bounded(halted_by_formula(STUCK, 0, t, "yes")) is False
        assert eval_bounded(halted_by_formula(STUCK, 0, t, "no")) is False


def test_analyze_run_classifications():
    assert analyze_run(ALWAYS_YES, 3) == ("yes", 1)
    assert analyze_run(EVEN, 3) == ("no", 5)
    assert analyze_run(LOOP, 2) is None  # a right-runner
    assert analyze_run(PACER, 0) is None  # a configuration repeat
    assert analyze_run(STUCK, 0) is None
    with pytest.raises(RunAnalysisError):
        analyze_run(LEFT_WALKER, 0)


def test_sigma1_shape():
    for m, n in ((ALWAYS_YES, 0), (EVEN, 2), (LOOP, 1)):
        q1 = halts_yes_formula(m, n)
        assert isinstance(q1, Exists)
        assert is_delta0(q1.body)
        assert free_vars(q1.body) == {q1.var}
        q2 = halts_no_formula(m, n)
        assert isinstance(q2, Exists) and is_delta0(q2.body)


def test_pi1_shape_and_matrix():
    q3 = loops_formula(LOOP, 0)
    assert isinstance(q3, ForAll)
    assert isinstance(q3.body, Not) and isinstance(q3.body.body, Or)
    assert is_delta0(q3.body)
    assert q3.body.body.left == halting_body(LOOP, 0, "yes")
    assert q3.body.body.right == halting_body(LOOP, 0, "no")


def test_halting_statements_analyze_the_run_once(monkeypatch):
    calls = []
    analyze = arithmetize.analyze_run

    def counted(*args):
        calls.append(args)
        return analyze(*args)

    monkeypatch.setattr(arithmetize, "analyze_run", counted)
    q_yes, q_no, q_loops = halting_statements(BUSY3, 16)
    assert calls == [(BUSY3, 16)]
    # The statements are the ones built from a body per outcome.
    monkeypatch.undo()
    assert q_yes == halts_yes_formula(BUSY3, 16)
    assert q_no == halts_no_formula(BUSY3, 16)
    assert q_loops.body.body == Or(q_yes.body, q_no.body)


def test_halts_yes_true_at_witness_instance():
    q1 = halts_yes_formula(ALWAYS_YES, 0)
    assert eval_bounded(substitute(q1.body, q1.var, numeral(1))) is True
    assert eval_bounded(substitute(q1.body, q1.var, numeral(0))) is False


def test_loop_q1_instances_false_up_to_200():
    q1 = halts_yes_formula(LOOP, 0)
    for t in range(201):
        assert eval_bounded(substitute(q1.body, q1.var, numeral(t))) is False


def test_body_instances_agree_with_direct_encoding():
    # The open body and the per-t sentences define the same predicate.
    for m in (ALWAYS_YES, ALWAYS_NO, EVEN, LOOP):
        for n in range(3):
            for outcome in ("yes", "no"):
                body = halting_body(m, n, outcome)
                for t in range(9):
                    via_body = eval_bounded(substitute(body, "t", numeral(t)))
                    direct = eval_bounded(halted_by_formula(m, n, t, outcome))
                    assert via_body is direct, (m, n, outcome, t)


def test_loops_formula_matches_run_semantics():
    # For machines that halt, some instance of the matrix is false; for the
    # runner, instances stay true as far as we care to look.
    q3 = loops_formula(EVEN, 3)
    values = [
        eval_bounded(substitute(q3.body, q3.var, numeral(t))) for t in range(9)
    ]
    assert False in values
    q3 = loops_formula(LOOP, 0)
    assert all(
        eval_bounded(substitute(q3.body, q3.var, numeral(t))) for t in range(60)
    )


def test_loops_matrix_instances_spec_points():
    # The runner's matrix instance at 10 is true; the immediate halter's
    # instance at 1 is false.
    q3 = loops_formula(LOOP, 0)
    assert eval_bounded(substitute(q3.body, q3.var, numeral(10))) is True
    q3 = loops_formula(ALWAYS_YES, 0)
    assert eval_bounded(substitute(q3.body, q3.var, numeral(1))) is False


@pytest.mark.parametrize(
    "m", [*CORPUS.values(), STUCK, PACER], ids=[*CORPUS, "STUCK", "PACER"]
)
def test_every_layer_counts_steps_alike(m):
    # "Halted within u steps": the simulator, the run analysis, the trace and
    # the loops certificate all put a halting run's halt at the same u.
    for n in range(6):
        result = run(m, n, 100)
        history = list(islice(configs(m, n), 100))
        halted = {m.accept_yes: "yes", m.accept_no: "no"}.get(history[-1].state)
        halt = analyze_run(m, n)
        verdict = check_omega_bounded(build_loops_certificate(m, n), 30)
        if result.outcome == "timeout":
            assert halted is None and halt is None
            assert verdict.kind == "accepted_up_to"
            continue
        u = result.steps
        assert [run(m, n, b) for b in range(u, u + 3)] == [result] * 3
        assert u == 1 or run(m, n, u - 1).outcome == "timeout"
        assert halt == (result.outcome, u)
        assert (len(history), halted) == (u, result.outcome)
        lo, hi = trace_window(m, n, u)
        assert all(lo < c.head < hi for c in history)
        assert (verdict.kind, verdict.index) == ("rejected", u)


TABLEAU_DIGEST = "cee9388001ea0beee39049b31334ea9677d63e473e29ed4a0f854ab8468cbea6"


def test_tableau_encodings_golden():
    # One digest over the wire encoding of every halting statement for the
    # corpus plus STUCK and PACER on n <= 5: halted_by at t <= 12 with both
    # outcomes, then q1, q2 and q3. A refused run analysis hashes a marker.
    # Any change to the tableau's shape or conjunct order moves the digest.
    statements = (halts_yes_formula, halts_no_formula, loops_formula)
    digest = hashlib.sha256()
    count = 0
    for m in (*CORPUS.values(), PACER, STUCK):
        for n in range(6):
            for t in range(13):
                for outcome in ("yes", "no"):
                    f = halted_by_formula(m, n, t, outcome)
                    digest.update(wire.encode_formula(f, bytearray()))
                    count += 1
            for statement in statements:
                try:
                    f = statement(m, n)
                except RunAnalysisError:
                    digest.update(b"RunAnalysisError")
                else:
                    digest.update(wire.encode_formula(f, bytearray()))
                count += 1
    assert count == 1218
    assert digest.hexdigest() == TABLEAU_DIGEST


PRINT_DIGEST = "ee5688ca3c96d809886cc42c2fc40a878b27b6fb782ae7d0ca2e11eeda21f470"

# Terms substituted into the random formulas: closed ones, and open ones
# whose variables the formulas also bind, so that binders get renamed.
SUBSTITUTED = (
    ZERO,
    numeral(2),
    Var("x"),
    Var("y"),
    Add(Var("x"), Var("y")),
    Succ(Var("z")),
    Mul(Var("u"), numeral(1)),
)


def test_printed_text_golden():
    # One digest over the printed text of every statement that
    # test_tableau_encodings_golden hashes, of the numeral 300, and of seeded
    # random terms and formulas and the formulas' substitutions. Any change
    # to a bracket, a space or a renamed binder moves the digest.
    statements = (halts_yes_formula, halts_no_formula, loops_formula)
    digest = hashlib.sha256()

    def put(text: str) -> None:
        digest.update(text.encode() + b"\n")

    for m in (*CORPUS.values(), PACER, STUCK):
        for n in range(6):
            for t in range(13):
                for outcome in ("yes", "no"):
                    put(print_formula(halted_by_formula(m, n, t, outcome)))
            for statement in statements:
                try:
                    put(print_formula(statement(m, n)))
                except RunAnalysisError:
                    put("RunAnalysisError")
    put(print_term(numeral(300)))
    rng = random.Random(1414)
    for _ in range(1000):
        put(print_term(random_term(rng, rng.randrange(4))))
        f = random_formula(rng, rng.randrange(1, 5))
        put(print_formula(f))
        for var in VARS:
            for term in SUBSTITUTED:
                put(print_formula(substitute(f, var, term)))
    assert digest.hexdigest() == PRINT_DIGEST
