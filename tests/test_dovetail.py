import itertools
import random
import weakref

import pytest

from omegacheck.arithmetize import halts_no_formula, halts_yes_formula, loops_formula
from omegacheck.dovetail import (
    HOutcome,
    OracleRun,
    RealProofOracle,
    SearchBudget,
    SearchResult,
    ThreadProgress,
    VerifierOracle,
    bfs_search,
    existence_proof,
    halting_search,
)
from omegacheck.kernel import ProofStep, RULE_EVAL_TRUE, check_proof, make_proof
from omegacheck.machines import ALWAYS_NO, ALWAYS_YES, EVEN, LOOP, run
from omegacheck.omega import check_omega_proof, deserialize_omega_proof
from omegacheck.syntax import parse_formula
from omegacheck.wire import (
    deserialize_proof,
    index_of_string,
    proof_at_index,
    serialize_proof,
)

TRUTH = parse_formula("0 = 0")
CANONICAL = serialize_proof(make_proof([ProofStep(TRUTH, RULE_EVAL_TRUE)]))
TINY = tuple(sorted(set(CANONICAL)))


class ScriptedOracle(VerifierOracle):
    """Answers per candidate after a scripted latency; None never answers.
    Records every step taken for fairness and soundness assertions."""

    def __init__(self, script, log=None, tag=None):
        self.script = script
        self.log = log if log is not None else []
        self.tag = tag

    def open(self, candidate, target):
        answer, latency = self.script.get(candidate, ("no", 1))
        oracle = self

        def work():
            remaining = latency if latency is not None else None
            while True:
                oracle.log.append((oracle.tag, candidate))
                if remaining is not None:
                    remaining -= 1
                    if remaining <= 0:
                        return answer == "yes"
                yield

        return OracleRun(work())


def test_dovetailing_gets_past_a_diverging_candidate():
    p0, p1 = proof_at_index(0), proof_at_index(1)
    oracle = ScriptedOracle({p0: ("yes", None), p1: ("yes", 1)})
    result = bfs_search(TRUTH, oracle, SearchBudget(1000, 10))
    assert result.found
    assert result.index == 1
    assert result.proof == p1


def test_search_finds_canonical_proof_at_computed_index():
    # Independent shortlex enumeration of the tiny alphabet.
    import itertools

    position = 0
    expected = None
    for length in range(0, 5):
        for tup in itertools.product(TINY, repeat=length):
            if bytes(tup) == CANONICAL:
                expected = position
            position += 1
    assert expected is not None
    assert index_of_string(CANONICAL, TINY) == expected
    result = bfs_search(
        TRUTH, RealProofOracle(), SearchBudget(100_000, 2_000), alphabet=TINY
    )
    assert result.found
    assert result.index == expected
    assert result.proof == CANONICAL
    reverify = check_proof(frozenset(), deserialize_proof(result.proof), TRUTH)
    assert reverify.accepted


def test_search_exhausts_on_silent_oracle():
    oracle = ScriptedOracle({}, tag=0)
    oracle.script = {}

    class Silent(VerifierOracle):
        def open(self, candidate, target):
            def work():
                while True:
                    yield

            return OracleRun(work())

    result = bfs_search(TRUTH, Silent(), SearchBudget(300, 50))
    assert not result.found
    assert result.steps == 300
    assert result.rounds > 0


def test_search_soundness_only_reports_oracle_yes():
    log = []
    p2 = proof_at_index(2)
    oracle = ScriptedOracle({p2: ("yes", 3)}, log=log)
    result = bfs_search(TRUTH, oracle, SearchBudget(1000, 10))
    assert result.found and result.proof == p2
    # The reported candidate really was stepped to a yes; count its steps.
    assert sum(1 for _, c in log if c == p2) == 3


def test_existence_proof_reverifies():
    q1 = halts_yes_formula(EVEN, 4)
    proof = existence_proof(q1.body, q1.var, run(EVEN, 4, 100).steps)
    assert check_proof(frozenset(), proof, q1).accepted


@pytest.mark.parametrize(
    "machine,n,expected_kind,expected_thread",
    [
        (ALWAYS_YES, 5, "halts_yes", 1),
        (ALWAYS_NO, 2, "halts_no", 2),
        (EVEN, 3, "halts_no", 2),
        (EVEN, 4, "halts_yes", 1),
        (LOOP, 0, "loops", 3),
    ],
)
def test_witness_search_outcomes(machine, n, expected_kind, expected_thread):
    outcome = halting_search(machine, n)
    assert outcome.kind == expected_kind
    assert outcome.thread == expected_thread
    assert outcome.proof is not None
    if expected_kind == "loops":
        assert outcome.omega_bound == 50
        proof = deserialize_omega_proof(outcome.proof)
        verdict = check_omega_proof(
            frozenset(), proof, loops_formula(machine, n), k=outcome.omega_bound
        )
        assert verdict.kind == "accepted_conditional"
    else:
        target = (
            halts_yes_formula(machine, n)
            if expected_kind == "halts_yes"
            else halts_no_formula(machine, n)
        )
        assert check_proof(
            frozenset(), deserialize_proof(outcome.proof), target
        ).accepted


def test_witness_search_is_reproducible():
    outcomes = {halting_search(EVEN, 3).kind for _ in range(3)}
    assert outcomes == {"halts_no"}
    assert halting_search(EVEN, 3) == halting_search(EVEN, 3)


def test_pure_mode_exhausts_on_loop():
    outcome = halting_search(LOOP, 0, SearchBudget(500, 50), mode="pure")
    assert outcome.kind == "budget_exhausted"
    assert len(outcome.progress) == 3
    assert all(p.units > 0 for p in outcome.progress)
    spread = [p.units for p in outcome.progress]
    assert max(spread) - min(spread) <= 1


def test_pure_mode_budget_is_respected():
    for steps in (30, 100, 400):
        outcome = halting_search(LOOP, 0, SearchBudget(steps, 50), mode="pure")
        assert outcome.kind == "budget_exhausted"
        assert sum(p.units for p in outcome.progress) <= steps


def test_fairness_under_random_latencies():
    def factory_for(seed):
        rng = random.Random(seed)
        log = []

        def factory(thread, target):
            class RandomLatency(VerifierOracle):
                def open(self, candidate, _target):
                    latency = rng.randrange(1, 7)

                    def work():
                        for _ in range(latency):
                            log.append(thread)
                            yield
                        while True:
                            log.append(thread)
                            yield

                    return OracleRun(work())

            return RandomLatency()

        return factory, log

    for seed in range(10):
        factory, log = factory_for(seed)
        outcome = halting_search(
            LOOP, 1, SearchBudget(600, 40), mode="pure", oracle_factory=factory
        )
        assert outcome.kind == "budget_exhausted"
        counts = {1: 0, 2: 0, 3: 0}
        for thread in log:
            counts[thread] += 1
            assert max(counts.values()) - min(counts.values()) <= 1


def test_oracle_state_is_final_once_decided():
    oracle = RealProofOracle()
    run_ = oracle.open(CANONICAL, TRUTH)
    answers = [run_.step() for _ in range(6)]
    assert "yes" in answers
    settled = answers[answers.index("yes") :]
    assert set(settled) == {"yes"}
    bad = oracle.open(b"\x00garbage", TRUTH)
    assert bad.step() == "no"
    assert bad.step() == "no"


def test_witness_outcomes_match_simulator_semantics():
    from omegacheck.machines import CORPUS

    for name, m in CORPUS.items():
        for n in (0, 2):
            kind = halting_search(m, n).kind
            simulated = run(m, n, 1000)
            if simulated.outcome == "timeout":
                assert kind == "loops", (name, n)
            else:
                assert kind == f"halts_{simulated.outcome}", (name, n)


# ---------------------------------------------------------------------------
# Golden values: what the searches find, and where, must not change.


@pytest.mark.parametrize("name", ["ALWAYS_YES", "ALWAYS_NO", "LOOP", "EVEN", "BUSY3"])
@pytest.mark.parametrize("n", range(4))
def test_pure_halting_search_golden(name, n):
    from omegacheck.machines import CORPUS

    outcome = halting_search(CORPUS[name], n, SearchBudget(3000, 3000), mode="pure")
    assert outcome == HOutcome(
        "budget_exhausted", progress=(ThreadProgress(1000, False),) * 3
    )


@pytest.mark.parametrize(
    "text, alphabet, index, rounds, steps",
    [
        ("S(0) = S(0)", (0x01, 0x02, 0x10, 0x27), 5017, 5018, 5023),
        ("0 + 0 = 0", (0x01, 0x03, 0x10, 0x27), 5013, 5014, 5017),
        ("0 * 0 = 0", (0x01, 0x04, 0x10, 0x27), 5013, 5014, 5017),
        ("0 <= 0 + 0", (0x01, 0x03, 0x11, 0x27), 4965, 4966, 4968),
        ("0 + 0 <= 0", (0x01, 0x03, 0x11, 0x27), 5013, 5014, 5017),
        ("S(0) <= S(0)", (0x01, 0x02, 0x11, 0x27), 5017, 5018, 5023),
    ],
)
def test_bfs_search_golden(text, alphabet, index, rounds, steps):
    target = parse_formula(text)
    canonical = serialize_proof(make_proof([ProofStep(target, RULE_EVAL_TRUE)]))
    assert tuple(sorted(set(canonical))) == alphabet
    result = bfs_search(
        target, RealProofOracle(), SearchBudget(400_000, 50_000), alphabet=alphabet
    )
    assert result == SearchResult(True, index, canonical, rounds, steps)


def triangular_order(latency, max_candidates, max_steps):
    """Candidate indices in the order a triangular dovetail steps them: in
    round r candidate r joins, then every undecided candidate is stepped
    once, lowest index first. `latency[i]` is the number of steps candidate
    i takes to be decided (None: never)."""
    order, active, taken = [], [], {}
    for r in itertools.count():
        if r < max_candidates:
            active.append(r)
        elif not active:
            return order
        for i in list(active):
            if len(order) == max_steps:
                return order
            order.append(i)
            taken[i] = taken.get(i, 0) + 1
            if taken[i] == latency[i]:
                active.remove(i)
    return order


def test_bfs_search_steps_in_triangular_order():
    rng = random.Random(7)
    latency = [rng.choice([1, 1, 2, 3, 5, None]) for _ in range(40)]
    script = {proof_at_index(i): ("no", n) for i, n in enumerate(latency)}
    log = []
    result = bfs_search(TRUTH, ScriptedOracle(script, log=log), SearchBudget(500, 40))
    assert not result.found and result.steps == 500
    order = [index_of_string(candidate) for _, candidate in log]
    assert order == triangular_order(latency, 40, 500)


@pytest.mark.parametrize(
    "alphabet", [(0x10, 0x01, 0x27), (0x01, 0x01, 0x27), (0x27,)],
    ids=["unsorted", "duplicated", "single byte"],
)
def test_bfs_search_refuses_a_bad_alphabet(alphabet):
    with pytest.raises(ValueError, match="alphabet"):
        bfs_search(TRUTH, RealProofOracle(), SearchBudget(100, 10), alphabet=alphabet)


class TrackedOracle(VerifierOracle):
    """Decides candidate i after 1 + i % 7 steps, or never when i % 5 == 4,
    and checks at each new candidate that the search holds no run that is
    already decided."""

    def __init__(self):
        self.runs = weakref.WeakSet()
        self.undecided = 0
        self.most_live = 0

    def open(self, candidate, target):
        assert len(self.runs) <= self.undecided
        self.most_live = max(self.most_live, len(self.runs))
        index = index_of_string(candidate)
        self.undecided += 1

        def work():
            for _ in itertools.count() if index % 5 == 4 else range(index % 7):
                yield
            self.undecided -= 1
            return False

        run_ = OracleRun(work())
        self.runs.add(run_)
        return run_


def test_bfs_search_keeps_only_undecided_runs():
    oracle = TrackedOracle()
    result = bfs_search(TRUTH, oracle, SearchBudget(20_000, 2_000))
    assert not result.found and result.steps == 20_000
    assert 0 < oracle.most_live <= oracle.undecided < 2_000
