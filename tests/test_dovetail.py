import hashlib
import itertools
import random
import weakref

import pytest

from omegacheck import arithmetize, dovetail
from omegacheck.arithmetize import halts_no_formula, halts_yes_formula, loops_formula
from omegacheck.dovetail import (
    HOutcome,
    OmegaVerifierOracle,
    RealProofOracle,
    SearchBudget,
    SearchResult,
    ThreadProgress,
    VerifierOracle,
    bfs_search,
    existence_proof,
    halting_search,
)
from omegacheck.kernel import (
    Proof,
    ProofStep,
    RULE_EVAL_TRUE,
    check_proof,
    check_units,
    make_proof,
)
from omegacheck.machines import ALWAYS_NO, ALWAYS_YES, CORPUS, EVEN, LOOP, run
from omegacheck.omega import (
    DEFAULT_INSTANCE_BUDGET,
    build_loops_certificate,
    check_omega_proof,
    deserialize_omega_proof,
    serialize_omega_proof,
)
from omegacheck.syntax import ForAll, parse_formula
from omegacheck.wire import (
    DEFAULT_ALPHABET,
    MalformedEncoding,
    deserialize_proof,
    index_of_string,
    proof_at_index,
    serialize_proof,
)
from conftest import answers
from test_wire import END, GOLDEN, GOLDEN_OMEGA

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

        return work()


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

            return work()

    result = bfs_search(TRUTH, Silent(), SearchBudget(300, 50))
    assert not result.found
    assert result.steps == 300
    assert result.rounds > 0


def test_search_ends_when_every_candidate_is_refused():
    # Each of the 5 candidates is refused by its first step, so the search
    # ends with its candidates spent, well inside its step budget.
    result = bfs_search(TRUTH, ScriptedOracle({}), SearchBudget(1000, 5))
    assert result == SearchResult(False, rounds=5, steps=5)


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

                    return work()

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


def test_witness_outcomes_match_simulator_semantics():
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


def triangular_order(latency, max_candidates, max_steps, yes=()):
    """Candidate indices in the order a triangular dovetail steps them, and
    the SearchResult of that search: in round r candidate r joins, then
    every undecided candidate is stepped once, lowest index first.
    `latency[i]` is the number of steps candidate i takes to be decided
    (None: never; 0: decided when it is opened, which still costs it one
    unit, the last of its round). The candidates in `yes` are decided yes."""
    order, active, taken, rounds = [], [], {}, 0
    for r in itertools.count():
        if r < max_candidates:
            active.append(r)
        elif not active:
            return order, SearchResult(False, rounds=rounds, steps=len(order))
        for i in list(active):
            if len(order) == max_steps:
                return order, SearchResult(False, rounds=rounds, steps=max_steps)
            order.append(i)
            taken[i] = taken.get(i, 0) + 1
            if latency[i] == 0 or taken[i] == latency[i]:
                if i in yes:
                    found = SearchResult(True, i, proof_at_index(i), rounds, len(order))
                    return order, found
                active.remove(i)
            rounds = r + 1


def test_bfs_search_steps_in_triangular_order():
    rng = random.Random(7)
    latency = [rng.choice([1, 1, 2, 3, 5, None]) for _ in range(40)]
    script = {proof_at_index(i): ("no", n) for i, n in enumerate(latency)}
    log = []
    result = bfs_search(TRUTH, ScriptedOracle(script, log=log), SearchBudget(500, 40))
    order = [index_of_string(candidate) for _, candidate in log]
    assert (order, result) == triangular_order(latency, 40, 500)
    assert not result.found and result.steps == 500


class DecidedAtOpenOracle(ScriptedOracle):
    """A ScriptedOracle whose latency-0 candidates answer at their first step
    and leave nothing in the log."""

    def open(self, candidate, target):
        answer, latency = self.script.get(candidate, ("no", 1))
        if latency != 0:
            return super().open(candidate, target)

        def work():
            yield from ()
            return answer == "yes"

        return work()


def units_taken(oracle, max_candidates, max_steps):
    """The candidate index of each unit the dovetail yields: a logged step's
    from the oracle's log, else its round's own candidate, whose run answers
    at its first step."""
    units = dovetail._bfs_units(TRUTH, oracle, max_candidates, DEFAULT_ALPHABET)
    order, stepped = [], 0
    for round_index in itertools.islice(units, max_steps):
        if len(oracle.log) > stepped:
            order.append(index_of_string(oracle.log[stepped][1]))
            stepped += 1
        else:
            order.append(round_index)
    return order


def decided_at_open_script(seed, count):
    rng = random.Random(seed)
    latency = [rng.choice([0, 0, 0, 1, 2, 3, 5, None]) for _ in range(count)]
    return latency, {proof_at_index(i): ("no", n) for i, n in enumerate(latency)}


def test_a_run_decided_at_open_takes_the_last_unit_of_its_round():
    latency, script = decided_at_open_script(11, 40)
    assert latency.count(0) > 10
    order, result = triangular_order(latency, 40, 300)
    assert not result.found and result.steps == 300
    assert units_taken(DecidedAtOpenOracle(script), 40, 300) == order
    # A step budget that ends at every unit of each of the first rounds.
    for steps in range(1, 301):
        expected = triangular_order(latency, 40, steps)[1]
        oracle = DecidedAtOpenOracle(script)
        assert bfs_search(TRUTH, oracle, SearchBudget(steps, 40)) == expected


def test_a_yes_at_open_is_found_where_the_model_finds_it():
    latency, script = decided_at_open_script(13, 40)
    script[proof_at_index(23)] = ("yes", 0)
    latency[23] = 0
    order, found = triangular_order(latency, 40, 10_000, yes={23})
    assert found == SearchResult(True, 23, proof_at_index(23), 24, len(order))
    for steps in range(len(order) - 2, len(order) + 2):
        expected = triangular_order(latency, 40, steps, yes={23})[1]
        oracle = DecidedAtOpenOracle(script)
        assert bfs_search(TRUTH, oracle, SearchBudget(steps, 40)) == expected
    assert not bfs_search(TRUTH, oracle, SearchBudget(len(order) - 1, 40)).found


def test_an_older_yes_comes_before_the_unit_of_a_run_decided_at_open():
    # Round 1 steps candidate 0 to its yes, then charges candidate 1, which
    # was refused when opened: a budget of two units finds candidate 0.
    latency = [2, 0]
    script = {proof_at_index(0): ("yes", 2), proof_at_index(1): ("no", 0)}
    order, expected = triangular_order(latency, 2, 2, yes={0})
    assert order == [0, 0]
    assert expected == SearchResult(True, 0, b"", 1, 2)
    oracle = DecidedAtOpenOracle(script)
    assert bfs_search(TRUTH, oracle, SearchBudget(2, 2)) == expected


class CountingOracle(VerifierOracle):
    """Counts the candidates opened; every one is refused in one step."""

    def __init__(self):
        self.opened = 0

    def open(self, candidate, target):
        self.opened += 1
        return iter(())


@pytest.mark.parametrize(
    "alphabet",
    [(0x10, 0x01, 0x27), (0x01, 0x01, 0x27), (0x27,), (0, 300), (-1, 3)],
    ids=["unsorted", "duplicated", "single byte", "above a byte", "negative"],
)
def test_bfs_search_refuses_a_bad_alphabet(alphabet):
    # The alphabet is refused before any candidate is opened.
    oracle = CountingOracle()
    with pytest.raises(ValueError, match="alphabet"):
        bfs_search(TRUTH, oracle, SearchBudget(100, 10), alphabet=alphabet)
    assert oracle.opened == 0


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

        run_ = work()
        self.runs.add(run_)
        return run_


def test_bfs_search_keeps_only_undecided_runs():
    oracle = TrackedOracle()
    result = bfs_search(TRUTH, oracle, SearchBudget(20_000, 2_000))
    assert not result.found and result.steps == 20_000
    assert 0 < oracle.most_live <= oracle.undecided < 2_000


# Witness-mode outcomes of every corpus machine on n <= 3 at the default
# budget and k = 50: the kind, the winning thread, the omega bound, each
# thread's (units, done) and the sha256 of the winning proof. A halting
# thread whose body is the false `S(t) <= t` ends at its first unit, and the
# loops thread ends where its certificate is refused, or holds its answer
# until both halting threads have ended.
WITNESS_GOLDEN = [
    (
        "ALWAYS_YES", 0, "halts_yes", 1, None, ((5, True), (1, True), (2, True)),
        "05357d0b3514b7a3a4f50cab4486c0e1191148e67566fc2ca6000c230850599b",
    ),
    (
        "ALWAYS_YES", 1, "halts_yes", 1, None, ((5, True), (1, True), (2, True)),
        "08a8043f1e10e6edac3e98d20ff5fa45f82170cd18ffc2746ae6b118078f515d",
    ),
    (
        "ALWAYS_YES", 2, "halts_yes", 1, None, ((5, True), (1, True), (2, True)),
        "36c5d5cdb03b075cfe063c1724b27c0bc2b20abb742d0eee2938658fdc07a263",
    ),
    (
        "ALWAYS_YES", 3, "halts_yes", 1, None, ((5, True), (1, True), (2, True)),
        "55e1b0374993e87b656e1885382ba2ecd0a120364cba9d863c66c82716e92efb",
    ),
    (
        "ALWAYS_NO", 0, "halts_no", 2, None, ((1, True), (5, True), (2, True)),
        "bf4a9528eed2aeddda9f9b9d843e7b701929def78a9a7f39cefba956cba8d761",
    ),
    (
        "ALWAYS_NO", 1, "halts_no", 2, None, ((1, True), (5, True), (2, True)),
        "2040b00d0de739fcf834e8bc56ba5c00a401e84d0e1941905736096acc30554c",
    ),
    (
        "ALWAYS_NO", 2, "halts_no", 2, None, ((1, True), (5, True), (2, True)),
        "30ae54f93540ddd812f9e190548632e350f6646b66adc2a1d3747b89016b93a0",
    ),
    (
        "ALWAYS_NO", 3, "halts_no", 2, None, ((1, True), (5, True), (2, True)),
        "62db397e84c6fe39411c2ace747a5999bb7b1416c4a5c4bcf8d3a684dce972a1",
    ),
    (
        "LOOP", 0, "loops", 3, 50, ((1, True), (1, True), (51, True)),
        "7f6f82fbf5570089e1af3a90966b43bf553102bab975b46454331ef6efc62241",
    ),
    (
        "LOOP", 1, "loops", 3, 50, ((1, True), (1, True), (51, True)),
        "17982e4c1aa386b893796805100fd4df885d1f63d656865291e39f50dd829993",
    ),
    (
        "LOOP", 2, "loops", 3, 50, ((1, True), (1, True), (51, True)),
        "30245fcefa05ec3ade34e7e7a5b6f2ad7b7975c3759212cd797830c0d31de51e",
    ),
    (
        "LOOP", 3, "loops", 3, 50, ((1, True), (1, True), (51, True)),
        "c0ef423477bddecfce8eb5783f21c73bc87a0946fa318d1001df5e5c8ee63321",
    ),
    (
        "EVEN", 0, "halts_yes", 1, None, ((6, True), (1, True), (3, True)),
        "1d0024996e6a4ba5b0b39924b49211b0c2f3b30bb584e043c3a7e11a87bfed56",
    ),
    (
        "EVEN", 1, "halts_no", 2, None, ((1, True), (7, True), (4, True)),
        "b03dab87a4cafb2074ece3837f8ff39c420b350f7f3f05f6a13893b39d821635",
    ),
    (
        "EVEN", 2, "halts_yes", 1, None, ((8, True), (1, True), (5, True)),
        "5a31a409f364a87a2171803bc1a28c4cdb614391fdd1c1695b388225b8ff2ec4",
    ),
    (
        "EVEN", 3, "halts_no", 2, None, ((1, True), (9, True), (6, True)),
        "d4dad41f9e0530e9b1aaf2c5fb2719ed5bd31e09e0321d10083350dd60e1459a",
    ),
    (
        "BUSY3", 0, "halts_yes", 1, None, ((9, True), (1, True), (6, True)),
        "61c7a3e8854ba7efbb1622d15d09044206593221df86522a47b828d0602a537a",
    ),
    (
        "BUSY3", 1, "halts_yes", 1, None, ((12, True), (1, True), (9, True)),
        "be6c77ebcaa36cd8151800d6b20c971d746fddd0f3dcbe2e1c85f1b5b9b69a5b",
    ),
    (
        "BUSY3", 2, "halts_yes", 1, None, ((15, True), (1, True), (12, True)),
        "458bb964c8f7693f0627a561e4b3ab8ad65303a68ccf2dc906722173383159cf",
    ),
    (
        "BUSY3", 3, "halts_yes", 1, None, ((18, True), (1, True), (15, True)),
        "74fc22e536317c26cc1b1ea48d9a5ba36142c27e9f19cd61ed61c0b6b7c75fd2",
    ),
]


@pytest.mark.parametrize(
    "name, n, kind, thread, omega_bound, progress, digest",
    WITNESS_GOLDEN,
    ids=[f"{row[0]}-{row[1]}" for row in WITNESS_GOLDEN],
)
def test_witness_halting_search_golden(
    name, n, kind, thread, omega_bound, progress, digest
):
    outcome = halting_search(CORPUS[name], n, omega_bound=50)
    assert (outcome.kind, outcome.thread) == (kind, thread)
    assert outcome.omega_bound == omega_bound
    assert tuple((p.units, p.done) for p in outcome.progress) == progress
    assert hashlib.sha256(outcome.proof).hexdigest() == digest


def test_finitary_oracle_refuses_a_loops_certificate_when_decoding():
    # The finitary decoder does not know the omega step's tag, 0x30.
    cert = build_loops_certificate(LOOP, 0)
    data = serialize_omega_proof(Proof((cert,), cert.conclusion))
    assert data[0] == 0x30
    assert answers(RealProofOracle().open(data, cert.conclusion)) == ["no"]


def test_omega_oracle_without_a_bound_is_the_finitary_kernel():
    cert = build_loops_certificate(LOOP, 0)
    data = serialize_omega_proof(Proof((cert,), cert.conclusion))
    assert answers(OmegaVerifierOracle(k=None).open(data, cert.conclusion)) == ["no"]
    assert answers(OmegaVerifierOracle(k=7).open(data, cert.conclusion))[0] == "running"
    run_ = OmegaVerifierOracle(k=None).open(CANONICAL, TRUTH)
    assert answers(run_) == ["running", "yes"]


def test_a_search_builds_each_halting_body_once(monkeypatch):
    # The three targets share their bodies, and the loops certificate is
    # built on the search's own loops target.
    built = []
    build = arithmetize.halted_by_formula

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(arithmetize, "halted_by_formula", counted)
    outcome = halting_search(CORPUS["BUSY3"], 2)
    assert (outcome.kind, len(built)) == ("halts_yes", 1)


@pytest.mark.parametrize(
    "name, n, k, kind, progress",
    [
        ("BUSY3", 2, 50, "halts_yes", ((15, True), (1, True), (12, True))),
        ("EVEN", 3, 50, "halts_no", ((1, True), (9, True), (6, True))),
        ("LOOP", 0, 5, "loops", ((1, True), (1, True), (6, True))),
    ],
)
def test_both_halting_threads_read_one_walk(monkeypatch, name, n, k, kind, progress):
    """The search makes one walk of the run, which at most one halting thread
    reads: the other's body is the false `S(t) <= t`, and it ends at once."""
    walks = []
    walk = dovetail.configs

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(dovetail, "configs", counted)
    outcome = halting_search(CORPUS[name], n, omega_bound=k)
    assert walks == [(CORPUS[name], n)]
    assert outcome.kind == kind
    assert tuple((p.units, p.done) for p in outcome.progress) == progress


@pytest.mark.parametrize(
    "name, n, k, kind",
    [
        ("BUSY3", 16, 50, "halts_yes"),
        ("BUSY3", 2, 5, "halts_yes"),
        ("EVEN", 7, 5, "halts_no"),
        ("LOOP", 0, 5, "loops"),
    ],
)
def test_a_loops_answer_waits_for_the_halting_threads(name, n, k, kind):
    # A certificate accepted up to k is no decision: BUSY3 16 halts at step
    # 53, BUSY3 2 at 11 and EVEN 7 at 9, all past k, and the halting proof wins.
    assert halting_search(CORPUS[name], n, omega_bound=k).kind == kind


def test_a_held_loops_answer_is_returned_when_the_budget_ends():
    # BUSY3 16's halting thread is still walking after 30 units, so the
    # certificate accepted up to k=5 is the answer, labelled with its bound.
    outcome = halting_search(CORPUS["BUSY3"], 16, SearchBudget(30), omega_bound=5)
    assert (outcome.kind, outcome.thread, outcome.omega_bound) == ("loops", 3, 5)
    progress = tuple((p.units, p.done) for p in outcome.progress)
    assert progress == ((23, False), (1, True), (6, True))


class NoAtSecondStep(VerifierOracle):
    """Answers no at the second step of every run."""

    def open(self, candidate, target):
        def work():
            yield
            return False

        return work()


@pytest.mark.parametrize(
    "name, n, progress",
    [
        ("BUSY3", 2, ((13, True), (1, True), (12, True))),
        ("EVEN", 3, ((1, True), (7, True), (6, True))),
    ],
)
def test_a_witness_the_oracle_refuses_ends_its_thread(name, n, progress):
    # The walk's units, then the oracle's two steps on the witness proof; the
    # loops thread is refused at the run's halt, so no thread answers.
    outcome = halting_search(
        CORPUS[name], n, oracle_factory=lambda thread, _target: NoAtSecondStep()
    )
    assert outcome == HOutcome(
        "budget_exhausted", progress=tuple(ThreadProgress(*p) for p in progress)
    )


@pytest.mark.parametrize("name, n", [("BUSY3", 2), ("EVEN", 1)])
def test_a_callers_oracle_sees_the_unseeded_candidates(name, n):
    # A caller's oracle gets no seed memo, and the candidate it sees is the
    # unseeded encoding of the witness proof, byte for byte.
    m = CORPUS[name]
    seen = []

    class Counting(OmegaVerifierOracle):
        def open(self, candidate, target):
            seen.append((self.spans, candidate, target))
            return super().open(candidate, target)

    outcome = halting_search(m, n, oracle_factory=lambda thread, _: Counting(None))
    assert outcome == halting_search(m, n)
    [(spans, candidate, target)] = seen
    _, u = arithmetize.analyze_run(m, n)
    assert spans is None and candidate == outcome.proof
    assert candidate == serialize_proof(existence_proof(target.body, target.var, u))


# ---------------------------------------------------------------------------
# The oracle refuses by the first byte at `open`: every candidate gets the
# answers it got when every candidate went to the decoder.


def old_verify(k, candidate, target):
    """The oracle's run before the first-byte refusal."""
    decode = deserialize_proof if k is None else deserialize_omega_proof
    try:
        proof = decode(candidate)
    except MalformedEncoding:
        return False
    yield
    verdict = yield from check_units(
        frozenset(), proof.steps, target, k, DEFAULT_INSTANCE_BUDGET
    )
    return verdict.accepted


def parity_inputs():
    """(candidate, target): every string of up to two bytes, then each golden
    codec proof, cut by one byte, and with each value as its first byte."""
    short = itertools.chain.from_iterable(
        itertools.product(DEFAULT_ALPHABET, repeat=n) for n in range(3)
    )
    yield from ((bytes(t), TRUTH) for t in short)
    golden = [(bytes.fromhex(row[3] + END), TRUTH) for row in GOLDEN]
    golden.append((bytes.fromhex(GOLDEN_OMEGA), ForAll("t", parse_formula("t = t"))))
    for data, target in golden:
        yield data, target
        yield data[:-1], target
        for first in range(256):
            yield bytes((first,)) + data[1:], target


@pytest.mark.parametrize("k", [None, 50], ids=["finitary", "k=50"])
def test_oracle_answers_as_without_the_first_byte_refusal(k):
    oracle = OmegaVerifierOracle(k)
    differ = [
        (data, target)
        for data, target in parity_inputs()
        if answers(oracle.open(data, target))
        != answers(old_verify(k, data, target))
    ]
    assert differ == []
