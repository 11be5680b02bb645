"""Dovetailed proof search against a step-metered verifier, and the
three-thread halting search built on top of it.

The search enumerates candidate byte strings in shortlex order and runs the
verifier on them triangularly: in round r, candidate r joins, and every
undecided candidate receives one verifier step, a `next` of the run its
oracle opens (`VerifierOracle`), oldest first; a decided one leaves the
list and takes no more units. This keeps a candidate the verifier
diverges on from blocking everything behind it. Each length's strings are
walked as a prefix tree, and a candidate with a prefix the oracle's
`least_size` rules out at that length (for the kernel, one that cannot
decode there) is never built or opened: it takes the last unit of its
round, and while the list is empty, one step charges a run of them.

The halting search for (m, n) spins up three fair logical threads hunting
proofs of "halts with yes", "halts with no" and "never halts". It is a
deterministic round-robin over single verifier steps; anything calling
itself parallel must be observationally identical to that. In pure mode
each thread is the dovetailed search itself, which at desk scale never
reaches interesting proofs and exists to demonstrate exactly that. In
witness mode a halting thread whose body is the false `arithmetize.NEVER`
ends at once and any other walks the run (one unit per configuration,
`machines.configs`); the certificate builder makes the third candidate, all
pushed through the same unmodified verifier. A thread that cannot win ends,
and a loops answer waits for the halting threads.

In witness mode the three statements share one closed tableau, which the
codec walks once each way: the loops certificate is built before the first
round, and the span memos of encoding its phi and reading it back (`omega`)
seed the other encodes and the default oracle's decodes, which changes no
byte and no verdict (`wire`). A caller's `oracle_factory` gets no seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle
from typing import Callable, Generator, Iterator, Optional

from . import omega, wire
from .arithmetize import NEVER, halting_statements
from .kernel import (
    Proof,
    ProofStep,
    RULE_EVAL_TRUE,
    RULE_LOGIC,
    RULE_MP,
    check_units,
)
from .machines import Config, MachineDesc, configs
from .omega import (
    DEFAULT_INSTANCE_BUDGET,
    DEFAULT_OMEGA_BOUND,
    OmegaStep,
    build_loops_certificate,
    deserialize_omega_proof,
    serialize_omega_proof,
)
from .syntax import Exists, Formula, Implies, numeral, substitute


@dataclass(frozen=True)
class SearchBudget:
    max_total_oracle_steps: int = 200_000
    max_candidates: int = 20_000

    def __post_init__(self):
        if self.max_total_oracle_steps < 1 or self.max_candidates < 1:
            raise ValueError("budgets must be >= 1")


DEFAULT_BUDGET = SearchBudget()


class VerifierOracle:
    """`open` gives the run of the verifier on one candidate: a generator
    that yields None between units and returns whether the candidate is
    accepted.
    A search takes one unit per `next`, and the last unit's `StopIteration`
    carries the answer.

    `least_size(prefix)` promises that the run of a candidate that starts
    with `prefix` answers no at its first step when the result is None or
    over the candidate's length, so a search charges that one unit without
    building the candidate. The default promises nothing."""

    def open(self, candidate: bytes, target: Formula) -> Generator[None, None, bool]:
        raise NotImplementedError

    def least_size(self, prefix: bytes) -> Optional[int]:
        return len(prefix)


class OmegaVerifierOracle(VerifierOracle):
    """The kernel as a stepped oracle: one step to deserialize, one per
    proof step, and one more between consecutive instances of an omega
    step; the last step also settles the target comparison. A candidate
    that does not decode answers no at its first step, among them every one
    that the decoder's least-size bound rules out (`least_size`).

    With k None it is the finitary kernel, whose decoder refuses omega
    steps. With a k, a yes on a proof containing an omega step means "all
    instances up to k verified" and nothing more; the oracle interface has
    no way to say anything stronger, which is the point."""

    def __init__(
        self,
        k: Optional[int] = DEFAULT_OMEGA_BOUND,
        per_instance_budget: int = DEFAULT_INSTANCE_BUDGET,
        spans: Optional[dict] = None,
    ):
        self.k = k
        self.per_instance_budget = per_instance_budget
        self.spans = spans  # the decoder's seed memo (`wire.deserialize_proof`)

    def least_size(self, prefix: bytes) -> Optional[int]:
        return (wire.least_size if self.k is None else omega.least_size)(prefix)

    def open(self, candidate: bytes, target: Formula) -> Generator[None, None, bool]:
        decode = wire.deserialize_proof if self.k is None else deserialize_omega_proof
        try:
            proof = decode(candidate, spans=self.spans)
        except wire.MalformedEncoding:
            return False
        yield
        verdict = yield from check_units(
            frozenset(), proof.steps, target, self.k, self.per_instance_budget
        )
        return verdict.accepted


def RealProofOracle() -> OmegaVerifierOracle:
    """The finitary kernel as a stepped oracle."""
    return OmegaVerifierOracle(k=None)


@dataclass(frozen=True)
class SearchResult:
    found: bool
    index: Optional[int] = None
    proof: Optional[bytes] = None
    rounds: int = 0
    steps: int = 0


def _bfs_units(
    target: Formula,
    oracle: VerifierOracle,
    max_candidates: int,
    alphabet: tuple[int, ...] = wire.DEFAULT_ALPHABET,
) -> Generator[int | range, None, Optional[tuple[bytes, int]]]:
    """Triangular dovetailing. Yields the current round number once per
    oracle step taken; the step that elicits a yes is reported by the
    return value (the candidate and its index) instead of a final yield.

    Each opened run (`VerifierOracle`) joins the list as the newest of its
    round. A candidate the oracle's `least_size` rules out is never built
    (`wire.shortlex_kept`); it takes the last unit of its round. While no
    run is undecided, the rounds up to the next kept candidate are one
    yield, the range of their rounds, one unit each."""
    kept = wire.shortlex_kept(alphabet, oracle.least_size, max_candidates)
    index, data = next(kept, (max_candidates, b""))  # the next candidate to open
    live: list[tuple[int, bytes, Generator]] = []  # the runs still to answer
    round_index = 0
    while True:
        refused = False  # this round's candidate, unbuilt, takes its last unit
        if round_index < max_candidates:
            if round_index == index:
                live.append((index, data, oracle.open(data, target)))
                index, data = next(kept, (max_candidates, b""))
            elif live:
                refused = True
            else:  # the refused rounds up to the next kept candidate
                rest = range(round_index, index)
                yield rest
                round_index = rest[-1]  # its last round ends below
        if live:
            still = []
            for entry in live:
                try:
                    next(entry[2])
                except StopIteration as stop:
                    if stop.value:
                        return (entry[1], entry[0])
                else:
                    still.append(entry)
                yield round_index
            live = still
            del entry  # it may be decided, and only undecided runs are kept
        if refused:
            yield round_index
        round_index += 1
        if not live and round_index >= max_candidates:
            return None


def bfs_search(
    target: Formula,
    oracle: VerifierOracle,
    budget: SearchBudget = DEFAULT_BUDGET,
    alphabet: tuple[int, ...] = wire.DEFAULT_ALPHABET,
) -> SearchResult:
    """Dovetailed shortlex search for a candidate the oracle accepts.

    Deterministic given the oracle and budget; the result carries the
    candidate's enumeration index so callers can audit where it was found.
    """
    units = _bfs_units(target, oracle, budget.max_candidates, alphabet)
    limit = budget.max_total_oracle_steps
    steps = rounds = 0
    while steps < limit:
        try:
            seen_round = next(units)
        except StopIteration as stop:
            if stop.value is None:
                break
            data, index = stop.value
            return SearchResult(True, index, data, rounds, steps + 1)
        if type(seen_round) is range:  # refused rounds, cut at the budget
            seen_round = seen_round[: limit - steps]
            steps += len(seen_round) - 1
            seen_round = seen_round[-1]
        steps += 1
        rounds = seen_round + 1
    return SearchResult(False, rounds=rounds, steps=steps)


# ---------------------------------------------------------------------------
# The three-thread halting search


@dataclass(frozen=True)
class ThreadProgress:
    units: int
    done: bool


@dataclass(frozen=True)
class HOutcome:
    kind: str  # halts_yes | halts_no | loops | budget_exhausted
    proof: Optional[bytes] = None
    thread: Optional[int] = None
    candidate_index: Optional[int] = None
    omega_bound: Optional[int] = None
    progress: tuple[ThreadProgress, ...] = ()

    KINDS = frozenset({"halts_yes", "halts_no", "loops", "budget_exhausted"})


def existence_proof(body: Formula, var: str, witness: int) -> Proof:
    """instance, instance -> exists, modus ponens."""
    target = Exists(var, body)
    instance = substitute(body, var, numeral(witness))
    steps = (
        ProofStep(instance, RULE_EVAL_TRUE),
        ProofStep(
            Implies(instance, target),
            RULE_LOGIC,
            payload=("exists-intro", (var, body, numeral(witness))),
        ),
        ProofStep(target, RULE_MP, premises=(1, 0)),
    )
    return Proof(steps, target)


def _witness_halt_thread(
    walk: Iterator[Config],
    target: Formula,
    oracle: VerifierOracle,
    spans: Optional[dict],
) -> Generator[Optional[int], None, Optional[tuple[bytes, Optional[int]]]]:
    """End at once on the false body `NEVER`. Any other body was built for
    the run's halt in this outcome (`arithmetize.halting_statements`): take
    one unit per configuration of the walk, which ends at that halt
    (`machines.configs`), prove it with the count of configurations as
    witness, encoded from the seed `spans`, and verify it; end without a
    result on a no."""
    assert isinstance(target, Exists)
    if target.body is NEVER:
        return None
    for used, _ in enumerate(walk, 1):
        yield used
    proof = existence_proof(target.body, target.var, used)
    data = wire.serialize_proof(proof, spans=spans)
    if (yield from oracle.open(data, target)):
        return (data, None)
    return None


def _witness_loops_thread(
    cert: OmegaStep,
    k: int,
    instance_budget: int,
    spans: Optional[dict],
) -> Generator[Optional[int], None, Optional[tuple[bytes, Optional[int]]]]:
    """Check the loops certificate one instance per unit; instances still
    flow through the unmodified kernel. An accepted certificate is encoded
    from the seed `spans`."""
    target = cert.conclusion
    verdict = yield from check_units(frozenset(), (cert,), target, k, instance_budget)
    if not verdict.accepted:
        return None
    return (serialize_omega_proof(Proof((cert,), target), spans=spans), None)


def halting_search(
    m: MachineDesc,
    n: int,
    budget: SearchBudget = DEFAULT_BUDGET,
    mode: str = "witness",
    omega_bound: int = DEFAULT_OMEGA_BOUND,
    instance_budget: int = DEFAULT_INSTANCE_BUDGET,
    oracle_factory: Optional[Callable[[int, Formula], VerifierOracle]] = None,
) -> HOutcome:
    """Search for a proof of one of the three halting statements for (m, n).
    A verified halting proof wins at once; a loops proof, which shows no halt
    up to `omega_bound` only, waits for threads 1 and 2 to end or the budget.

    Scheduling is a deterministic round-robin granting each thread one
    verifier/simulation unit per round, so outcomes are reproducible and
    per-thread effort stays within one round of equal at every prefix.
    """
    if mode not in ("pure", "witness"):
        raise ValueError("mode is 'pure' or 'witness'")
    targets = q_yes, q_no, q_loops = halting_statements(m, n)
    written = read = None  # the codec's seed memos, in witness mode
    if mode == "witness":
        cert = build_loops_certificate(m, n, q_loops)
        written, read = cert._readable_closed_spans or (None, None)
    if oracle_factory is None:
        oracle_factory = lambda thread, _target: OmegaVerifierOracle(
            omega_bound if thread == 3 else None, instance_budget, spans=read
        )
    if mode == "pure":
        threads = [
            _bfs_units(q, oracle_factory(i, q), budget.max_candidates)
            for i, q in enumerate(targets, 1)
        ]
    else:
        walk = configs(m, n)  # read by the one halting thread without a false body
        yes_oracle, no_oracle = oracle_factory(1, q_yes), oracle_factory(2, q_no)
        threads = [
            _witness_halt_thread(walk, q_yes, yes_oracle, written),
            _witness_halt_thread(walk, q_no, no_oracle, written),
            _witness_loops_thread(cert, omega_bound, instance_budget, written),
        ]
    limit = budget.max_total_oracle_steps
    units, finished = [0, 0, 0], [False, False, False]
    owed = [0, 0, 0]  # the units left of the refused rounds a thread yielded
    total, winner = 0, None
    for thread in cycle((0, 1, 2)):
        if finished[thread]:
            continue
        if owed[thread]:  # whole rotations at once, while every thread left owes
            waiting = [i for i in (0, 1, 2) if not finished[i]]
            turns = min(min(owed[i] for i in waiting), (limit - total) // len(waiting))
            for i in waiting:
                owed[i], units[i] = owed[i] - turns, units[i] + turns
            total += turns * len(waiting)
        if total >= limit:
            break
        units[thread] += 1
        total += 1
        if owed[thread]:
            owed[thread] -= 1
            continue
        try:
            seen = next(threads[thread])
        except StopIteration as stop:
            finished[thread] = True
            if stop.value is not None:
                winner, (found, index) = thread, stop.value
            if winner in (0, 1) or all(finished):
                break
        else:
            owed[thread] = len(seen) - 1 if type(seen) is range else 0
    progress = tuple(map(ThreadProgress, units, finished))
    if winner is None:
        return HOutcome("budget_exhausted", progress=progress)
    return HOutcome(
        ("halts_yes", "halts_no", "loops")[winner],
        proof=found,
        thread=winner + 1,
        candidate_index=index,
        omega_bound=omega_bound if winner == 2 else None,
        progress=progress,
    )
