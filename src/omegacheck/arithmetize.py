"""Arithmetic statements about machine runs.

Two layers:

* `halted_by_formula(m, n, t, outcome)` builds a closed bounded sentence
  that is true in the standard model exactly when the machine reaches the
  chosen accepting state within t observed steps. It encodes the digit
  string of the run's configuration history: one bounded quantifier per
  tape-window digit, each pinned to the unique value the transition table
  allows given the previous row. Pinning keeps naive enumeration linear in
  the digit count, so truth really is computed by arithmetic evaluation,
  not by trusting the simulator.

* `halts_yes_formula` / `halts_no_formula` / `loops_formula` need a single
  formula with a free step-count variable, which cannot grow with t. They
  are built from a host-side run analysis, which finds the halt or shows
  that the run never halts (stuck, an exact configuration repeat, or a
  right-running translation pattern). A halting run embeds the full digit
  tableau at its actual halting point, so instances still carry checkable
  arithmetic content; a body for any other run is false at every instance.

Runs are read from `machines.configs`, so "within t steps" means what it
means there: among the first t configurations. Quantifier bounds are
numeral constants computed here from the machine, input and step budget;
the window of tape positions is trimmed to the cells the run actually
visits (a sound bound, since heads move one cell per step). A tableau that
could nest too deep for the wire format is refused before its input row is
built, and a run's tape holds only the cells it wrote, so a huge input is
refused in time independent of n.
"""

from __future__ import annotations

from functools import reduce
from itertools import islice
from typing import Optional

from . import wire
from .machines import STROKE, MachineDesc, configs
from .syntax import (
    Add,
    And,
    BoundedExists,
    Eq,
    Exists,
    ForAll,
    Formula,
    Le,
    Not,
    Or,
    Succ,
    Term,
    Var,
    ZERO,
    numeral,
)

DEFAULT_MAX_TRACE_STEPS = 128
DEFAULT_HORIZON = 5000

LOOPS_VAR = "t"

# Proofs put at most this many connectives and quantifiers around a tableau
# (a loops certificate concludes `forall t. ~((u <= t & tableau) | ...)`), so
# tableaux leave that much room under the wire format's nesting cap.
_WRAPPING_DEPTH = 4


class EncodingOverflow(Exception):
    """The bounded coding cannot represent a trace of the requested length."""


class RunAnalysisError(Exception):
    """The run neither halted nor showed a recognized repetition pattern
    within the analysis horizon, so no faithful open formula can be built."""


FALSE_SENTENCE: Formula = Le(Succ(ZERO), ZERO)  # 1 <= 0


# ---------------------------------------------------------------------------
# Trace window


def trace_window(m: MachineDesc, n: int, t: int) -> tuple[int, int]:
    """Cell window covering the input and every position the length-<=t run
    can touch (the first head is 0), padded one cell on each side so
    neighbor lookups stay inside."""
    heads = [c.head for c in islice(configs(m, n), max(t, 0))] or [0]
    return min(heads) - 1, max(*heads, n - 1) + 1


# ---------------------------------------------------------------------------
# The bounded "halted within t steps" sentence


def _digit_name(row: int, col: int) -> str:
    return f"d{row}_{col}"


def _term(cell: int | Var) -> Term:
    return numeral(cell) if isinstance(cell, int) else cell


def _negate(item):
    return not item if isinstance(item, bool) else Not(item)


class _TableauBuilder:
    """Builds the digit tableau row by row.

    A plain cell's digit is its symbol's code, the symbol's index in the
    sorted alphabet (0 .. S-1). A head cell's digit is `head_code`: S times
    one more than the state's index in the sorted states, plus the code of
    the symbol under the head. The base S * (Q + 1) exceeds every digit.

    A cell of the previous row is an `int` when its digit is known at build
    time (row 0 and the blank padding) and otherwise the `Var` of its digit
    quantifier. Each helper partially evaluates: it returns a `bool` for a
    known digit and a formula for a `Var`.
    """

    def __init__(self, m: MachineDesc, n: int, t: int):
        self.m = m
        self.symbols = tuple(sorted(m.alphabet))
        self.states = tuple(sorted(m.states))
        self.n_symbols = len(self.symbols)
        self.base = self.n_symbols * (len(self.states) + 1)
        self.blank = self.symbols.index(m.blank)
        lo, hi = trace_window(m, n, t)
        self.t = t
        self.width = hi - lo + 1
        self.check_depth()  # before row 0, which is as wide as the input
        # The window holds cells -1 .. n (lo <= -1, hi >= n), so row 0 is a
        # stroke on cells 0 .. n-1, blank elsewhere, and the start head on
        # cell 0, which is index -lo.
        self.row0 = [self.blank] * self.width
        self.row0[-lo : n - lo] = [self.symbols.index(STROKE)] * n
        self.row0[-lo] = self.head_code(m.start, self.row0[-lo])
        self.stay_codes: list[int] = []  # accepting heads: row copies itself
        self.center_next: list[tuple[int, int]] = []  # (head code, written cell code)
        # Heads that leave their cell, by move direction: (head code, offset
        # of the head digit it puts over the symbol of the cell it enters).
        moves: dict[str, list[tuple[int, int]]] = {"L": [], "R": []}
        for state in self.states:
            for symbol_code, sym in enumerate(self.symbols):
                code = self.head_code(state, symbol_code)
                if state in (m.accept_yes, m.accept_no):
                    self.stay_codes.append(code)
                    continue
                move = m.transition.get((state, sym))
                if move is None:
                    continue  # stuck head: no successor case at all
                nstate, write, direction = move
                self.center_next.append((code, self.symbols.index(write)))
                moves[direction].append((code, self.head_code(nstate, 0)))
        # Per direction, those pairs and then their head codes, sorted.
        self.moves = {
            direction: (pairs, sorted(code for code, _ in pairs))
            for direction, pairs in moves.items()
        }

    def head_code(self, state: str, symbol_code: int) -> int:
        return self.n_symbols * (1 + self.states.index(state)) + symbol_code

    def _is_plain(self, cell: int | Var):
        if isinstance(cell, int):
            return cell < self.n_symbols
        return Le(cell, numeral(self.n_symbols - 1))

    @staticmethod
    def _member(cell: int | Var, codes: list[int]):
        """Partial-evaluated disjunction `cell in codes`."""
        if isinstance(cell, int):
            return cell in codes
        if not codes:
            return False
        return reduce(Or, [Eq(cell, numeral(code)) for code in codes])

    def pin_cases(
        self, a: int | Var, b: int | Var, c: int | Var, d_name: str
    ) -> list[list[Formula]]:
        """All ways the digit below the cells (a, b, c) can be justified.

        Each cell is an `int` digit or the `Var` of its digit quantifier.
        Each case is a conjunct list whose first element mentions the new
        digit variable, so enumeration rejects wrong values immediately.
        Statically false cases are dropped; statically true conjuncts are
        omitted.
        """
        d = Var(d_name)
        cases: list[list[Formula]] = []

        def add(conjuncts) -> None:
            if False not in conjuncts:
                cases.append([item for item in conjuncts if item is not True])

        rightward, right_codes = self.moves["R"]
        leftward, left_codes = self.moves["L"]
        # Plain cell keeps its symbol: nothing moves in.
        d_copy = Eq(d, _term(b))
        add(
            [
                d_copy,
                self._is_plain(b),
                _negate(self._member(a, right_codes)),
                _negate(self._member(c, left_codes)),
            ]
        )
        # The head sits here and fires a transition: cell gets the write.
        for code, write_code in self.center_next:
            add([Eq(d, numeral(write_code)), self._member(b, [code])])
        # The head sits here in an accepting state: the row repeats.
        add([d_copy, self._member(b, self.stay_codes)])
        # The head arrives from the left (it moved right) or from the right.
        for neighbour, pairs in ((a, rightward), (c, leftward)):
            for code, offset in pairs:
                if isinstance(b, int):
                    arrival = Eq(d, numeral(offset + b))
                else:
                    arrival = Eq(d, Add(numeral(offset), b))
                add([arrival, self._is_plain(b), self._member(neighbour, [code])])
        return cases

    def check_depth(self) -> None:
        """Refuse a tableau that could nest deeper than the wire format reads.

        Each digit quantifier adds two levels (itself and its `&`) above the
        deeper of the accept disjunction (width * symbols atoms) and a pin.
        A pin is an `|` of at most 2 + 2h cases (h head codes), each an `&`
        of at most four conjuncts, each at most a `~` over an `|` of h
        atoms, so a pin nests at most 3h + 4 deep.
        """
        heads = self.base - self.n_symbols
        accept = self.width * self.n_symbols - 1
        depth = 2 * (self.t - 1) * self.width + max(accept, 3 * heads + 4)
        limit = wire.MAX_FORMULA_DEPTH - _WRAPPING_DEPTH
        if depth > limit:
            raise EncodingOverflow(
                f"a {self.t}-step tableau over {self.width} cells may nest "
                f"{depth} deep, beyond the coding limit of {limit}"
            )

    def build(self, outcome: str) -> Formula:
        accept_state = (
            self.m.accept_yes if outcome == "yes" else self.m.accept_no
        )
        accept_codes = [
            self.head_code(accept_state, code) for code in range(self.n_symbols)
        ]
        row: list[int | Var] = list(self.row0)
        # Pins, in quantifier order (row major, rows 1 .. t-1).
        pinned: list[tuple[str, Formula]] = []
        for r in range(1, self.t):
            prev = [self.blank, *row, self.blank]
            row = []
            for col in range(self.width):
                name = _digit_name(r, col)
                cases = self.pin_cases(prev[col], prev[col + 1], prev[col + 2], name)
                if not cases:
                    return FALSE_SENTENCE
                pin = reduce(Or, [reduce(And, conjuncts) for conjuncts in cases])
                pinned.append((name, pin))
                row.append(Var(name))
        # The last row's head digit must be an accepting head of the right kind.
        atoms = [Eq(_term(x), numeral(code)) for x in row for code in accept_codes]
        body = reduce(Or, atoms)
        bound = numeral(self.base - 1)
        for name, pin in reversed(pinned):
            body = BoundedExists(name, bound, And(pin, body))
        return body


def halted_by_formula(m: MachineDesc, n: int, t: int, outcome: str) -> Formula:
    """Closed bounded sentence: the run reaches the `outcome` accepting
    state within t observed steps (a history of at most t configurations).

    Raises EncodingOverflow past `DEFAULT_MAX_TRACE_STEPS`, and when the
    tableau could nest deeper than `wire.MAX_FORMULA_DEPTH` allows.
    """
    if outcome not in ("yes", "no"):
        raise ValueError("outcome must be 'yes' or 'no'")
    if t < 0 or n < 0:
        raise ValueError("t and n are naturals")
    if t > DEFAULT_MAX_TRACE_STEPS:
        raise EncodingOverflow(
            f"trace length {t} exceeds the coding limit of "
            f"{DEFAULT_MAX_TRACE_STEPS} steps"
        )
    if t == 0:
        return FALSE_SENTENCE
    return _TableauBuilder(m, n, t).build(outcome)


# ---------------------------------------------------------------------------
# Run analysis and the open halting bodies


def analyze_run(m: MachineDesc, n: int) -> Optional[tuple[str, int]]:
    """The run's halt on input n as (outcome, step), or None for a run shown
    never to halt, by simulating up to `DEFAULT_HORIZON` steps.

    A run never halts when it is stuck, repeats a configuration exactly
    (state, head and tape all equal), or is a right-runner (the head enters
    fresh blank territory twice in the same state with every intervening
    move to the right, after which behavior repeats shifted forever).
    """
    outcomes = {m.accept_yes: "yes", m.accept_no: "no"}
    seen: set[tuple] = set()
    records: dict[str, tuple[int, int]] = {}  # state -> (step index, head)
    max_head = -1
    for index, c in enumerate(configs(m, n)):
        if index >= DEFAULT_HORIZON:
            raise RunAnalysisError(
                f"no halt or repetition pattern within {DEFAULT_HORIZON} steps"
            )
        if c.state in outcomes:
            return outcomes[c.state], index + 1
        key = (c.state, c.head, frozenset(c.tape.items()))
        if key in seen:
            return None
        seen.add(key)
        if c.head > max_head:
            max_head = c.head
            if c.head >= n:
                prior = records.get(c.state)
                if prior is not None and index - prior[0] == c.head - prior[1]:
                    return None
                records[c.state] = (index, c.head)
    return None


def halting_body(m: MachineDesc, n: int, outcome: str) -> Formula:
    """Open formula in `t`: the run halts with `outcome` within t steps.

    For a run that halts this way at step u the body is
    `u <= t & <digit tableau at u>`; otherwise it is `t + 1 <= t`, false
    at every numeral.
    """
    return _halting_body(m, n, outcome, analyze_run(m, n))


def _halting_body(
    m: MachineDesc, n: int, outcome: str, halt: Optional[tuple[str, int]]
) -> Formula:
    """`halting_body` for the run's halt, as `analyze_run` gives it."""
    t = Var(LOOPS_VAR)
    if halt is not None and halt[0] == outcome:
        u = halt[1]
        return And(Le(numeral(u), t), halted_by_formula(m, n, u, outcome))
    return Le(Succ(t), t)


def halts_yes_formula(m: MachineDesc, n: int) -> Formula:
    """One unbounded exists over a bounded body: the run halts with yes."""
    return Exists(LOOPS_VAR, halting_body(m, n, "yes"))


def halts_no_formula(m: MachineDesc, n: int) -> Formula:
    return Exists(LOOPS_VAR, halting_body(m, n, "no"))


def loops_formula(m: MachineDesc, n: int) -> Formula:
    """One unbounded forall over a bounded body: the run never halts."""
    return halting_statements(m, n)[2]


def halting_statements(m: MachineDesc, n: int) -> tuple[Formula, Formula, Formula]:
    """The halts-yes, halts-no and loops formulas, each body built once from
    one analysis of the run."""
    halt = analyze_run(m, n)
    yes, no = (_halting_body(m, n, outcome, halt) for outcome in ("yes", "no"))
    loops = ForAll(LOOPS_VAR, Not(Or(yes, no)))
    return Exists(LOOPS_VAR, yes), Exists(LOOPS_VAR, no), loops
