"""A search charges a run of refused candidates in one step, without building
them. Every result must be the one the search gets when each candidate is
built and opened, which is what an oracle with `first_bytes` None gets, and
the search must never open a candidate outside the oracle's `first_bytes`."""

import functools
import itertools

import pytest

from omegacheck import dovetail, omega, wire
from omegacheck.dovetail import (
    OmegaVerifierOracle,
    RealProofOracle,
    SearchBudget,
    VerifierOracle,
    bfs_search,
    halting_search,
)
from omegacheck.kernel import ProofStep, RULE_EVAL_TRUE, make_proof
from omegacheck.machines import CORPUS, LOOP
from omegacheck.omega import DEFAULT_OMEGA_BOUND
from omegacheck.syntax import parse_formula
from omegacheck.wire import (
    DEFAULT_ALPHABET,
    index_of_string,
    serialize_proof,
    shortlex,
)
from conftest import answers
from test_dovetail import TRUTH, parity_inputs

# The benchmark's restricted searches: each target's one-step eval proof is
# six bytes over a four-letter alphabet, found near index 5 000.
BFS_TARGETS = (
    "S(0) = S(0)",
    "0 + 0 = 0",
    "0 * 0 = 0",
    "0 <= 0 + 0",
    "0 + 0 <= 0",
    "S(0) <= S(0)",
)


class EveryCandidate(VerifierOracle):
    """The oracle it wraps, with `first_bytes` None, so that a search builds
    and opens every candidate."""

    def __init__(self, oracle):
        self.oracle = oracle

    def open(self, candidate, target):
        return self.oracle.open(candidate, target)


class KeptOnly(VerifierOracle):
    """The oracle it wraps, with its `first_bytes`, failing on a candidate
    that is empty or starts outside them: a search never opens one."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.first_bytes = oracle.first_bytes

    def open(self, candidate, target):
        assert candidate and candidate[0] in self.first_bytes, candidate
        return self.oracle.open(candidate, target)


def test_pure_halting_search_charges_as_when_every_candidate_is_opened(monkeypatch):
    # The statements do not depend on the budget: each pair's are built once.
    statements = functools.cache(dovetail.halting_statements)
    monkeypatch.setattr(dovetail, "halting_statements", statements)

    def every_candidate(thread, _target):
        k = DEFAULT_OMEGA_BOUND if thread == 3 else None
        return EveryCandidate(OmegaVerifierOracle(k))

    def kept_only(thread, _target):
        k = DEFAULT_OMEGA_BOUND if thread == 3 else None
        return KeptOnly(OmegaVerifierOracle(k))

    steps = (1, 2, 3, 33, 34, 100, 257, 258, 771, 772, 3000, 20000, 20001)
    candidates = (1, 2, 33, 258, 1000, 20000)
    differ = []
    for name, m in CORPUS.items():
        for n, s, c in itertools.product(range(3), steps, candidates):
            budget = SearchBudget(s, c)
            fast = halting_search(m, n, budget, mode="pure")
            opened = halting_search(
                m, n, budget, mode="pure", oracle_factory=every_candidate
            )
            kept = halting_search(m, n, budget, mode="pure", oracle_factory=kept_only)
            if not fast == opened == kept:
                differ.append((name, n, s, c))
    assert differ == []


def refused_run_budgets(target, oracle, alphabet, limit):
    """Step and candidate budgets that end at each edge of, next to and inside
    the runs of refused candidates the search charges in one step within its
    first `limit` units (at most about ten runs, spread over them)."""
    runs, units = [], 0
    for seen in dovetail._bfs_units(target, oracle, 50_000, alphabet):
        if type(seen) is range:
            runs.append((units, seen))
            units += len(seen)
        else:
            units += 1
        if units >= limit:
            break
    steps, rounds = set(), set()
    for start, run in runs[:: max(1, len(runs) // 10)]:
        for edge in (0, 1, len(run) // 2, len(run) - 1, len(run), len(run) + 1):
            steps.add(start + edge)
            rounds.add(run.start + edge)
    return sorted(steps - {0}), sorted(rounds - {0})


def bfs_cases():
    for text in BFS_TARGETS:
        target = parse_formula(text)
        proof = serialize_proof(make_proof([ProofStep(target, RULE_EVAL_TRUE)]))
        yield text, target, tuple(sorted(set(proof)))
    for alphabet in (DEFAULT_ALPHABET, (0x00, 0x27), (0x27, 0x30)):
        yield "0 = 0", TRUTH, alphabet


@pytest.mark.parametrize("k", [None, 3], ids=["finitary", "k=3"])
def test_bfs_search_charges_as_when_every_candidate_is_opened(k):
    differ = []
    for text, target, alphabet in bfs_cases():
        steps, rounds = refused_run_budgets(
            target, OmegaVerifierOracle(k), alphabet, 3000
        )
        budgets = [SearchBudget(s, 50_000) for s in steps]
        budgets += [SearchBudget(400_000, c) for c in rounds]
        found = bfs_search(
            target, OmegaVerifierOracle(k), SearchBudget(20_000, 20_000), alphabet
        )
        # Each benchmark target's proof is found past runs of refused ones.
        assert found.found == (text in BFS_TARGETS), text
        budgets += [SearchBudget(20_000, 20_000)]
        budgets += [SearchBudget(found.steps + d, 20_000) for d in (-1, 0, 1)]
        for budget in budgets:
            fast = bfs_search(target, OmegaVerifierOracle(k), budget, alphabet)
            opened = EveryCandidate(OmegaVerifierOracle(k))
            kept = KeptOnly(OmegaVerifierOracle(k))
            if not (
                fast
                == bfs_search(target, opened, budget, alphabet)
                == bfs_search(target, kept, budget, alphabet)
            ):
                differ.append((text, alphabet, budget))
    assert differ == []


def test_a_run_of_refused_candidates_is_one_yield_across_blocks():
    # b'' and the bytes below the first step tag are one run; each step tag
    # is opened and decided in one unit; the rest of length 1 and the length-2
    # blocks below the first step tag are the next run.
    units = dovetail._bfs_units(TRUTH, RealProofOracle(), 20_000)
    tags = [1 + tag for tag in sorted(wire.STEP_TAGS)]  # their rounds
    assert tags == list(range(tags[0], tags[-1] + 1))
    end = 1 + 256 + 256 * min(wire.STEP_TAGS)
    assert list(itertools.islice(units, 2 + len(tags))) == (
        [range(0, tags[0])] + tags + [range(tags[-1] + 1, end)]
    )
    # A candidate budget inside a run cuts it there.
    units = dovetail._bfs_units(TRUTH, RealProofOracle(), 20)
    assert list(units) == [range(0, 20)]


class ByteOneRuns(VerifierOracle):
    """Over the alphabet (0, 1), a candidate i that starts with 1 answers at
    its step 1 + i % 4, yes on b'\\x01' * 5 only; any other answers no at its
    first step. Logs each candidate it opens."""

    def __init__(self, first_bytes):
        self.first_bytes = first_bytes
        self.opened = []

    def open(self, candidate, target):
        self.opened.append(candidate)

        def work():
            if candidate[:1] == b"\x01":
                for _ in range(index_of_string(candidate, (0, 1)) % 4):
                    yield
            return candidate == b"\x01" * 5

        return work()


def unit_rounds(oracle, max_candidates):
    """The round of each unit the dovetail yields, a run of refused rounds
    one by one."""
    units = dovetail._bfs_units(TRUTH, oracle, max_candidates, (0, 1))
    return [r for seen in units for r in (seen if type(seen) is range else (seen,))]


def test_a_refused_candidate_takes_its_unit_while_runs_are_live():
    # Candidates that start with 0 are refused between the live runs of those
    # that start with 1, and each takes the last unit of its round.
    refusing, opening = ByteOneRuns(frozenset({1})), ByteOneRuns(None)
    assert unit_rounds(refusing, 100) == unit_rounds(opening, 100)
    assert all(data[:1] == b"\x01" for data in refusing.opened)
    found = bfs_search(TRUTH, ByteOneRuns(None), SearchBudget(120, 100), (0, 1))
    assert found.found and found.steps < 120
    for steps in range(1, 121):
        budget = SearchBudget(steps, 100)
        refusing = ByteOneRuns(frozenset({1}))
        assert bfs_search(TRUTH, refusing, budget, (0, 1)) == bfs_search(
            TRUTH, ByteOneRuns(None), budget, (0, 1)
        )
        assert all(data[:1] == b"\x01" for data in refusing.opened)


@pytest.mark.parametrize("k", [None, 50], ids=["finitary", "k=50"])
def test_the_oracle_refuses_exactly_outside_its_first_bytes(k):
    oracle = OmegaVerifierOracle(k)
    assert oracle.first_bytes == (wire.STEP_TAGS if k is None else omega.STEP_TAGS)
    # Each candidate that is empty or starts outside them answers no at once.
    refused = [
        (data, target)
        for data, target in parity_inputs()
        if not data or data[0] not in oracle.first_bytes
    ]
    assert refused
    wrong = [
        data for data, target in refused if answers(oracle.open(data, target)) != ["no"]
    ]
    assert wrong == []


class Logged(VerifierOracle):
    """Leaves `first_bytes` None, logs each candidate it opens, and decides
    every run no at its first step, so each candidate takes one unit."""

    def __init__(self, log):
        self.log = log

    def open(self, candidate, target):
        self.log.append(candidate)
        return iter(())


@pytest.mark.parametrize("alphabet", [DEFAULT_ALPHABET, (0x00, 0x27)])
@pytest.mark.parametrize("steps, candidates", [(1, 10), (700, 10_000), (10_000, 300)])
def test_a_callers_oracle_is_opened_on_every_candidate_bfs_reaches(
    alphabet, steps, candidates
):
    log = []
    budget = SearchBudget(steps, candidates)
    result = bfs_search(TRUTH, Logged(log), budget, alphabet)
    assert result.rounds == min(steps, candidates)
    assert log == list(itertools.islice(shortlex(alphabet), result.rounds))


@pytest.mark.parametrize("steps, candidates", [(1000, 3000), (3000, 300)])
def test_a_callers_oracle_is_opened_on_every_candidate_a_pure_search_reaches(
    steps, candidates
):
    logs = {1: [], 2: [], 3: []}
    outcome = halting_search(
        LOOP,
        0,
        SearchBudget(steps, candidates),
        mode="pure",
        oracle_factory=lambda thread, _target: Logged(logs[thread]),
    )
    for thread, progress in zip((1, 2, 3), outcome.progress):
        opened = progress.units - progress.done  # the unit that ends a thread
        assert logs[thread] == list(itertools.islice(shortlex(), opened))
        assert len(logs[thread]) == min(progress.units, candidates)
