"""Every small machine, end to end: on one seeded draw of 2-state, 2-symbol
tables, each run on inputs 0-2 that halts within the horizon gets the
simulator's outcome from the witness-mode halting search, at every omega
bound. A conditional loops answer must never stand for a halting run."""

import random

import pytest

from omegacheck.dovetail import halting_search
from omegacheck.machines import MachineDesc, run

HORIZON = 5_000
TABLES = 450  # drawn uniformly from the 16**4 tables, none left out
ENTRIES = [(state, read) for state in ("a", "b") for read in ("_", "1")]
ACTIONS = [
    (state, write, move)
    for state in ("a", "b", "Y", "N")
    for write in ("_", "1")
    for move in ("L", "R")
]


def _draw(seed: int, count: int) -> list[MachineDesc]:
    rng = random.Random(seed)
    return [
        MachineDesc(
            tuple((*entry, *rng.choice(ACTIONS)) for entry in ENTRIES),
            start="a",
            accept_yes="Y",
            accept_no="N",
        )
        for _ in range(count)
    ]


@pytest.fixture(scope="module")
def halting():
    """The drawn (machine, input, outcome) runs that halt within the horizon."""
    return [
        (m, n, result.outcome)
        for m in _draw(1, TABLES)
        for n in range(3)
        if (result := run(m, n, HORIZON)).outcome != "timeout"
    ]


@pytest.mark.parametrize("k", [2, 5, 50])
def test_every_halting_small_run_gets_the_simulators_outcome(halting, k):
    assert len(halting) > 1000
    wrong = [
        (m, n, outcome, found.kind)
        for m, n, outcome in halting
        if (found := halting_search(m, n, omega_bound=k)).kind != f"halts_{outcome}"
    ]
    assert wrong == []
