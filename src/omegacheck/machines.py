"""Single-tape machines with yes/no halting states and a budgeted simulator.

A machine reads a unary input (n stroke symbols), steps deterministically,
and either reaches its yes-state, reaches its no-state, or runs forever.
An undefined transition on a non-accepting state counts as running forever:
the machine is stuck and will never reach an accepting state, which keeps
the yes/no/loops trichotomy exhaustive for arbitrary descriptions.

`configs` is the one simulation loop and the only code that applies a
transition; every other layer that follows a run (`run`, the trace
window, the run analysis, the witness search and the loops premise
machine) consumes it. A stuck run simply ends there. It fixes the
step-count convention: a run has halted within t steps when its first t
configurations include an accepting one, so the step that observes the
halt counts and the step count of a halting run is the length of its
configuration history. The input is implicit (see `Config`), so a run
starts in O(1) and a step copies only the cells the run wrote, whatever n is.

File format (one transition per line, headers first):

    start: <state>
    yes: <state>
    no: <state>
    blank: <symbol>
    <state> <symbol> -> <state> <symbol> <L|R>

A state or symbol name is a non-empty token without whitespace, `#` or
`->`; `MachineDesc` refuses any other, so every machine prints to text
that reads back. Printing sorts transitions, so parse and print are
mutually inverse on normalized text; downstream numbering relies on that
being bit-exact.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterator, Mapping, Optional

STROKE = "1"

Rule = tuple[str, str, str, str, str]  # state, read, next state, write, move


class MachineFormatError(Exception):
    """Unparseable machine text."""


@dataclass(frozen=True)
class MachineDesc:
    rules: tuple[Rule, ...]
    start: str
    accept_yes: str
    accept_no: str
    blank: str = "_"

    def __post_init__(self):
        names = [self.start, self.accept_yes, self.accept_no, self.blank]
        for rule in self.rules:
            names += rule[:4]
        for name in names:
            if name.split() != [name] or "#" in name or "->" in name:
                raise ValueError(f"bad state or symbol name {name!r}")
        if self.accept_yes == self.accept_no:
            raise ValueError("yes and no states must differ")
        seen: set[tuple[str, str]] = set()
        for state, read, _, _, move in self.rules:
            if move not in ("L", "R"):
                raise ValueError(f"bad move {move!r}")
            if state in (self.accept_yes, self.accept_no):
                raise ValueError("accepting states have no outgoing transitions")
            if (state, read) in seen:
                raise ValueError(f"duplicate transition on ({state!r}, {read!r})")
            seen.add((state, read))
        object.__setattr__(self, "rules", tuple(sorted(self.rules)))

    @cached_property
    def transition(self) -> Mapping[tuple[str, str], tuple[str, str, str]]:
        return {
            (state, read): (nstate, write, move)
            for state, read, nstate, write, move in self.rules
        }

    @cached_property
    def states(self) -> frozenset[str]:
        names = {self.start, self.accept_yes, self.accept_no}
        for state, _, nstate, _, _ in self.rules:
            names.add(state)
            names.add(nstate)
        return frozenset(names)

    @cached_property
    def alphabet(self) -> frozenset[str]:
        symbols = {self.blank, STROKE}
        for _, read, _, write, _ in self.rules:
            symbols.add(read)
            symbols.add(write)
        return frozenset(symbols)


@dataclass
class Config:
    """A configuration of a run on the input of n strokes."""

    state: str
    tape: dict[int, str]  # only the cells whose symbol differs from the input's
    head: int
    n: int  # the input: a stroke on cells 0..n-1, blank elsewhere

    def symbol(self, pos: int, blank: str) -> str:
        return self.tape.get(pos, STROKE if 0 <= pos < self.n else blank)


@dataclass(frozen=True)
class RunResult:
    outcome: str  # "yes", "no" or "timeout"
    steps: Optional[int] = None


def initial_config(m: MachineDesc, n: int) -> Config:
    """Unary input: n strokes starting at cell 0, head on the leftmost cell."""
    if n < 0:
        raise ValueError("input must be a natural number")
    return Config(m.start, {}, 0, n)


def configs(m: MachineDesc, n: int) -> Iterator[Config]:
    """The run's configurations in order, starting from the initial one.

    Ends after an accepting configuration, or after a stuck one (no
    transition applies); otherwise never ends.
    """
    c = initial_config(m, n)
    accepting = (m.accept_yes, m.accept_no)
    while True:
        yield c
        if c.state in accepting:
            return
        given = STROKE if 0 <= c.head < n else m.blank  # the input's symbol
        move = m.transition.get((c.state, c.tape.get(c.head, given)))
        if move is None:
            return
        nstate, write, direction = move
        tape = dict(c.tape)
        if write == given:
            tape.pop(c.head, None)
        else:
            tape[c.head] = write
        head = c.head + (1 if direction == "R" else -1)
        c = Config(nstate, tape, head, n)


def run(m: MachineDesc, n: int, budget: int) -> RunResult:
    """Simulate up to `budget` steps, counted as the module docstring says.

    A stuck run never halts, so it is reported as a timeout. Only the last
    configuration can be accepting, because the run ends there.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    stop = min(budget, sys.maxsize)  # the most islice takes
    for used, c in enumerate(islice(configs(m, n), stop), 1):
        pass
    if c.state == m.accept_yes:
        return RunResult("yes", used)
    if c.state == m.accept_no:
        return RunResult("no", used)
    return RunResult("timeout")


# ---------------------------------------------------------------------------
# Text format


def parse_machine(text: str) -> MachineDesc:
    headers: dict[str, str] = {}
    rules: list[Rule] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" in line:
            left, _, right = line.partition("->")
            lparts = left.split()
            rparts = right.split()
            if len(lparts) != 2 or len(rparts) != 3:
                raise MachineFormatError(f"line {lineno}: bad transition {raw!r}")
            state, read = lparts
            nstate, write, move = rparts
            if move not in ("L", "R"):
                raise MachineFormatError(f"line {lineno}: move must be L or R")
            rules.append((state, read, nstate, write, move))
        else:
            key, sep, value = line.partition(":")
            if not sep or not value.strip() or len(value.split()) != 1:
                raise MachineFormatError(f"line {lineno}: bad header {raw!r}")
            headers[key.strip()] = value.strip()
    missing = {"start", "yes", "no", "blank"} - headers.keys()
    if missing:
        raise MachineFormatError(f"missing headers: {sorted(missing)}")
    try:
        return MachineDesc(
            tuple(rules),
            start=headers["start"],
            accept_yes=headers["yes"],
            accept_no=headers["no"],
            blank=headers["blank"],
        )
    except ValueError as exc:
        raise MachineFormatError(str(exc)) from exc


def machine_to_text(m: MachineDesc) -> str:
    lines = [
        f"start: {m.start}",
        f"yes: {m.accept_yes}",
        f"no: {m.accept_no}",
        f"blank: {m.blank}",
    ]
    for state, read, nstate, write, move in m.rules:
        lines.append(f"{state} {read} -> {nstate} {write} {move}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Corpus
#
# ALWAYS_YES / ALWAYS_NO start in their accepting state. LOOP walks right
# forever. EVEN reports the parity of the unary input (even -> yes). BUSY3
# appends a stroke past the input and sweeps back and forth before saying
# yes, halting after 3n + 5 observed steps on input n.

ALWAYS_YES = MachineDesc((), start="Y", accept_yes="Y", accept_no="N")

ALWAYS_NO = MachineDesc((), start="N", accept_yes="Y", accept_no="N")

LOOP = MachineDesc(
    (
        ("q", "_", "q", "_", "R"),
        ("q", "1", "q", "1", "R"),
    ),
    start="q",
    accept_yes="Y",
    accept_no="N",
)

EVEN = MachineDesc(
    (
        ("e", "1", "o", "1", "R"),
        ("o", "1", "e", "1", "R"),
        ("e", "_", "Y", "_", "R"),
        ("o", "_", "N", "_", "R"),
    ),
    start="e",
    accept_yes="Y",
    accept_no="N",
)

BUSY3 = MachineDesc(
    (
        ("a", "1", "a", "1", "R"),
        ("a", "_", "b", "1", "L"),
        ("b", "1", "b", "1", "L"),
        ("b", "_", "c", "_", "R"),
        ("c", "1", "c", "1", "R"),
        ("c", "_", "Y", "_", "R"),
    ),
    start="a",
    accept_yes="Y",
    accept_no="N",
)

CORPUS: dict[str, MachineDesc] = {
    "ALWAYS_YES": ALWAYS_YES,
    "ALWAYS_NO": ALWAYS_NO,
    "LOOP": LOOP,
    "EVEN": EVEN,
    "BUSY3": BUSY3,
}
