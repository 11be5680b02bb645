from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from omegacheck.machines import (
    ALWAYS_NO,
    ALWAYS_YES,
    BUSY3,
    CORPUS,
    EVEN,
    LOOP,
    MachineDesc,
    MachineFormatError,
    configs,
    initial_config,
    machine_to_text,
    parse_machine,
    run,
)

STUCK = MachineDesc((), start="q", accept_yes="Y", accept_no="N")


def test_initial_config_unary():
    c = initial_config(EVEN, 0)
    assert c.tape == {} and c.head == 0 and c.step_count == 0
    c = initial_config(EVEN, 3)
    assert c.tape == {0: "1", 1: "1", 2: "1"}


def second_config(m, n):
    return list(islice(configs(m, n), 2))[1]


def test_configs_stop_at_an_accepting_start_state():
    assert list(configs(ALWAYS_YES, 5)) == [initial_config(ALWAYS_YES, 5)]


def test_loop_step_moves_head():
    after = second_config(LOOP, 0)
    assert after.state == "q" and after.head == 1 and after.step_count == 1


def test_even_one_step_on_input_two():
    # Hand simulation: reading the first stroke flips parity and moves right.
    c = initial_config(EVEN, 2)
    after = second_config(EVEN, 2)
    assert after.head == c.head + 1
    assert after.state == "o"


def test_configs_stop_when_a_run_gets_stuck():
    # Walks right over the strokes, then has no transition on the blank.
    walker = MachineDesc(
        (("q", "1", "q", "1", "R"),), start="q", accept_yes="Y", accept_no="N"
    )
    history = list(configs(walker, 2))
    assert [c.head for c in history] == [0, 1, 2]
    assert run(walker, 2, 100).outcome == "timeout"


def test_run_examples():
    assert run(ALWAYS_YES, 5, 100) == run(ALWAYS_YES, 5, 100)
    assert run(ALWAYS_YES, 5, 100).outcome == "yes"
    assert run(ALWAYS_YES, 5, 100).steps == 1
    assert run(LOOP, 0, 100).outcome == "timeout"
    assert run(EVEN, 4, 100).outcome == "yes"
    assert run(EVEN, 3, 100).outcome == "no"
    assert run(STUCK, 0, 100).outcome == "timeout"


def test_budget_monotonicity():
    for name, m in CORPUS.items():
        for n in range(4):
            results = [run(m, n, b) for b in range(1, 40)]
            decided = [r for r in results if r.outcome != "timeout"]
            if decided:
                first = decided[0]
                for later in decided:
                    assert later == first, name


def test_corpus_trichotomy_to_documented_bound():
    # Every corpus machine on n <= 5 either halts within 3n + 6 steps or is
    # LOOP, which the analyzer separately certifies as running forever.
    for name, m in CORPUS.items():
        for n in range(6):
            result = run(m, n, 3 * n + 6)
            if name == "LOOP":
                assert result.outcome == "timeout"
            else:
                assert result.outcome in ("yes", "no"), (name, n)


def test_busy3_halts_after_many_steps():
    for n in range(6):
        result = run(BUSY3, n, 100)
        assert result.outcome == "yes"
        assert result.steps == 3 * n + 5
    assert run(ALWAYS_NO, 2, 10) == run(ALWAYS_NO, 2, 10)


def test_machine_file_roundtrip_is_bit_exact():
    for m in CORPUS.values():
        text = machine_to_text(m)
        assert parse_machine(text) == m
        assert machine_to_text(parse_machine(text)) == text


def test_machine_file_errors():
    with pytest.raises(MachineFormatError):
        parse_machine("start: q\nyes: Y\nno: N\n")  # missing blank
    with pytest.raises(MachineFormatError):
        parse_machine("start: q\nyes: Y\nno: N\nblank: _\nq _ -> q _ X\n")
    with pytest.raises(MachineFormatError):
        parse_machine("start: q\nyes: Y\nno: Y\nblank: _\n")


def test_machine_validation():
    with pytest.raises(ValueError):
        MachineDesc(
            (("Y", "_", "q", "_", "R"),), start="q", accept_yes="Y", accept_no="N"
        )
    with pytest.raises(ValueError):
        MachineDesc(
            (("q", "_", "q", "_", "R"), ("q", "_", "q", "1", "R")),
            start="q",
            accept_yes="Y",
            accept_no="N",
        )
    # Names the machine text format cannot carry.
    for bad in ("", " ", "a b", "\t", "a\nb", "#", "a#", "->", "a->b"):
        with pytest.raises(ValueError):
            MachineDesc((), start="q", accept_yes="Y", accept_no="N", blank=bad)
        with pytest.raises(ValueError):
            MachineDesc((), start=bad, accept_yes="Y", accept_no="N")
        with pytest.raises(ValueError):
            MachineDesc(
                (("q", "_", "q", bad, "R"),),
                start="q",
                accept_yes="Y",
                accept_no="N",
            )


_TOKENS = st.sampled_from(["a", "b", "1", "_", "q:", "-", ">", "a-", ">b"])


@st.composite
def machine_fields(draw):
    """Fields for MachineDesc from a few names, at most one of them free
    text that may hold whitespace, `#` or `->`."""
    pool = draw(st.lists(_TOKENS, min_size=3, max_size=5, unique=True))
    pool += draw(st.lists(st.text(alphabet="ab_:#->\t ", max_size=3), max_size=1))
    name = st.sampled_from(pool)
    yes, no = draw(st.lists(name, min_size=2, max_size=2, unique=True))
    state = st.sampled_from([s for s in pool if s not in (yes, no)])
    rule = st.tuples(state, name, name, name, st.sampled_from("LR"))
    rules = draw(st.lists(rule, max_size=3, unique_by=lambda r: r[:2]))
    return tuple(rules), draw(name), yes, no, draw(name)


@settings(max_examples=300, deadline=None)
@given(machine_fields())
def test_every_machine_that_constructs_reads_back_from_its_text(fields):
    try:
        m = MachineDesc(*fields)
    except ValueError:
        return
    assert parse_machine(machine_to_text(m)) == m

def test_configs_ends_after_the_accepting_configuration():
    history = list(configs(EVEN, 2))
    assert [c.state for c in history] == ["e", "o", "e", "Y"]
    assert [c.step_count for c in history] == [0, 1, 2, 3]
    assert len(list(configs(ALWAYS_NO, 3))) == 1


def test_configs_ends_at_a_stuck_configuration():
    history = list(configs(STUCK, 0))
    assert history == [initial_config(STUCK, 0)]


def test_configs_is_unbounded_for_loop():
    history = list(islice(configs(LOOP, 2), 1000))
    assert len(history) == 1000
    assert history[-1].head == 999 and history[-1].state == "q"
