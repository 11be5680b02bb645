"""The benchmark's four workloads.

Each workload is built in set-up from a seeded `random.Random` and returns
its op sequence as a list of passes, each a list of `Op`s with the same mix
of work; the closed loop runs them one after another. An op's `call` is the
only thing timed; its `check` compares the result with a reference fixed
when the op was built (the simulator, an exit code chosen when the input
file was written, or an `itertools.product` count), never with the layer
under test, and returns None on a match or a one-line description of the
mismatch. Calls look the program's functions up through its modules when
they run, not when they are built, so that a traced run sees its wrappers.

Some ops reproduce defects the program is known to have. They stay in and
count as failed; `defect` names the defect and the text its mismatch is
expected to contain, so the run can tell a known failure from a new one.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional

# Simulation budget used to fix the reference outcome of a corpus run; every
# corpus machine that halts on the inputs below does so well within it.
REFERENCE_BUDGET = 10_000


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    defect: Optional[tuple[str, str]] = None  # (description, expected mismatch text)


def _expect_equal(expected, got) -> Optional[str]:
    return None if got == expected else f"expected {expected!r}, got {got!r}"


def _simulated_kind(machines, m, n) -> str:
    outcome = machines.run(m, n, REFERENCE_BUDGET).outcome
    return {"yes": "halts_yes", "no": "halts_no"}.get(outcome, "loops")


# ---------------------------------------------------------------------------
# tableau_sweep: arithmetization and the bounded evaluator


def _tableau_op(mods, m, n, t, outcome):
    return mods.syntax.eval_bounded(mods.arithmetize.halted_by_formula(m, n, t, outcome))


def tableau_sweep(mods, rng: random.Random, passes: int, workdir: Path) -> list[list[Op]]:
    """Each pass takes every (machine, t) stratum of the criterion-3 grid
    once, with n and the outcome drawn by the seed, so every pass has the
    same spread of tableau sizes; the simulator gives the reference."""
    machines = mods.machines
    out = []
    for _ in range(passes):
        batch = []
        for name, m in machines.CORPUS.items():
            for t in range(21):
                n = rng.randrange(6)
                outcome = rng.choice(("yes", "no"))
                expected = t > 0 and machines.run(m, n, t).outcome == outcome
                batch.append(
                    Op(
                        f"halted_by {name} n={n} t={t} {outcome}",
                        partial(_tableau_op, mods, m, n, t, outcome),
                        partial(_expect_equal, expected),
                    )
                )
        rng.shuffle(batch)
        out.append(batch)
    return out


def _shuffled(rng: random.Random, base: list[Op], passes: int) -> list[list[Op]]:
    out = []
    for _ in range(passes):
        batch = list(base)
        rng.shuffle(batch)
        out.append(batch)
    return out


# ---------------------------------------------------------------------------
# hsearch_witness: witness-mode halting search

# Criterion 4's fifteen pairs, the longer halting runs, and two searches at a
# small omega bound whose answer is known to be wrong. BUSY3 n=4 (about 5-8 s
# alone) is left out: it takes the same code path as n=2 and would leave room
# for too few passes in a run to report steady medians.
HSEARCH_INPUTS = (
    [("ALWAYS_YES", n, 50) for n in range(4)]
    + [("EVEN", n, 50) for n in (1, 3, 5)]
    + [("ALWAYS_NO", n, 50) for n in range(4)]
    + [("LOOP", n, 50) for n in range(4)]
    + [("EVEN", 7, 50), ("BUSY3", 2, 50)]
    + [("BUSY3", 2, 5), ("EVEN", 7, 5)]
)
SMALL_K_DEFECT = (
    "a conditional loops verdict at a small omega bound pre-empts the halting proof",
    "got loops",
)


def _reverify(mods, m, n, k, outcome) -> Optional[str]:
    """Check a returned proof with the kernel, outside the timed region."""
    arith = mods.arithmetize
    if outcome.proof is None:
        return "no proof returned"
    if outcome.kind == "loops":
        if outcome.omega_bound != k:
            return f"omega bound {outcome.omega_bound}, asked for {k}"
        proof = mods.omega.deserialize_omega_proof(outcome.proof)
        verdict = mods.omega.check_omega_proof(frozenset(), proof, arith.loops_formula(m, n), k=k)
        return None if verdict.kind == "accepted_conditional" else f"proof re-check: {verdict.kind}"
    target = (arith.halts_yes_formula if outcome.kind == "halts_yes" else arith.halts_no_formula)(m, n)
    verdict = mods.kernel.check_proof(frozenset(), mods.wire.deserialize_proof(outcome.proof), target)
    return None if verdict.accepted else f"proof re-check: rejected ({verdict.reason})"


def _check_hsearch(mods, m, n, k, expected, verified: dict, outcome) -> Optional[str]:
    if outcome.kind != expected:
        return f"expected {expected}, got {outcome.kind}"
    # Searches are deterministic, so each distinct proof is re-checked once.
    key = (n, k, expected, outcome.proof)
    if key not in verified:
        verified[key] = _reverify(mods, m, n, k, outcome)
    return verified[key]


def hsearch_witness(mods, rng: random.Random, passes: int, workdir: Path) -> list[list[Op]]:
    corpus = mods.machines.CORPUS
    verified: dict = {}
    base = []
    for name, n, k in HSEARCH_INPUTS:
        m = corpus[name]
        expected = _simulated_kind(mods.machines, m, n)
        base.append(
            Op(
                f"hsearch {name} n={n} k={k}",
                partial(lambda m, n, k: mods.dovetail.halting_search(m, n, omega_bound=k), m, n, k),
                partial(_check_hsearch, mods, m, n, k, expected, verified),
                SMALL_K_DEFECT if k < 50 else None,
            )
        )
    return _shuffled(rng, base, passes)


# ---------------------------------------------------------------------------
# check_files: the command line front end on files written in set-up

DEEP_NESTING = bytes([0x27]) + b"\x12" * 150_000 + b"\x10\x01\x01"
DEEP_DEFECT = ("deeply nested input overflows the recursive decoder", "raised RecursionError")
LOOP_K = 500
BUSY3_CERT_N = 2
BUSY3_CERT_K = 50


def _cli_op(mods, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = mods.cli.main(argv)
    return code, out.getvalue()


def _check_exit(expected_code: int, expected_instance: Optional[int], result) -> Optional[str]:
    code, report = result
    if code != expected_code:
        return f"expected exit {expected_code}, got {code}"
    if expected_instance is not None and f"instance={expected_instance}" not in report.splitlines():
        return f"expected rejection at instance {expected_instance}"
    return None


def _step_boundaries(mods, proof) -> set[int]:
    out = bytearray()
    ends = set()
    for step in proof.steps:
        mods.wire.encode_step(step, out)
        ends.add(len(out))
    return ends


def check_files(mods, rng: random.Random, passes: int, workdir: Path) -> list[list[Op]]:
    machines, arith, syntax = mods.machines, mods.arithmetize, mods.syntax
    corpus = machines.CORPUS
    base: list[Op] = []

    def add(label, argv, code, instance=None, defect=None):
        base.append(
            Op(label, partial(_cli_op, mods, argv), partial(_check_exit, code, instance), defect)
        )

    # Witness proofs, binary and text: two long runs and four shorter ones,
    # so that the median op is a real check rather than a few milliseconds
    # of start-up. (The BUSY3 n=4 witness takes the same path at twice the
    # size and would leave room for too few passes.) With the ops below a
    # pass has an odd number of ops, so the median falls on one op's samples.
    witnesses = {}
    for name, n in [("EVEN", 7), ("BUSY3", 2), ("EVEN", 1), ("EVEN", 3), ("BUSY3", 0), ("BUSY3", 1)]:
        m = corpus[name]
        result = machines.run(m, n, REFERENCE_BUDGET)
        target = (arith.halts_yes_formula if result.outcome == "yes" else arith.halts_no_formula)(m, n)
        proof = mods.dovetail.existence_proof(target.body, target.var, result.steps)
        stem = workdir / f"{name.lower()}{n}"
        binary = mods.wire.serialize_proof(proof)
        Path(f"{stem}.bin").write_bytes(binary)
        Path(f"{stem}.txt").write_text(mods.cli.proof_to_text(proof), encoding="utf-8")
        target_text = syntax.print_formula(target)
        witnesses[(name, n)] = (stem, target_text, binary, proof)
        for suffix in ("bin", "txt"):
            add(f"check {name} n={n} witness .{suffix}",
                ["check", f"{stem}.{suffix}", "--target", target_text, "--format", "records"], 0)

    # Non-halting certificates at a large bound, through both front ends.
    loop = corpus["LOOP"]
    loop_file = workdir / "loop.tm"
    loop_file.write_text(machines.machine_to_text(loop), encoding="utf-8")
    n = rng.randrange(6)
    add(f"omega-check LOOP n={n} k={LOOP_K}",
        ["omega-check", str(loop_file), str(n), "--k", str(LOOP_K), "--format", "records"], 0)
    n = rng.randrange(6)
    cert = mods.omega.build_loops_certificate(loop, n)
    cert_file = workdir / "loop.oob"
    cert_file.write_bytes(mods.omega.serialize_omega_proof(mods.omega.OmegaProof((cert,), cert.conclusion)))
    add(f"check LOOP n={n} certificate k={LOOP_K}",
        ["check", str(cert_file), "--target", syntax.print_formula(arith.loops_formula(loop, n)),
         "--k", str(LOOP_K), "--format", "records"], 0)

    # A certificate for a machine that halts: rejected at the instance where
    # the simulator says the run ends.
    busy = corpus["BUSY3"]
    halt_step = machines.run(busy, BUSY3_CERT_N, REFERENCE_BUDGET).steps
    cert = mods.omega.build_loops_certificate(busy, BUSY3_CERT_N)
    cert_file = workdir / "busy3.oob"
    cert_file.write_bytes(mods.omega.serialize_omega_proof(mods.omega.OmegaProof((cert,), cert.conclusion)))
    add(f"check BUSY3 n={BUSY3_CERT_N} certificate k={BUSY3_CERT_K}",
        ["check", str(cert_file), "--target", syntax.print_formula(arith.loops_formula(busy, BUSY3_CERT_N)),
         "--k", str(BUSY3_CERT_K), "--format", "records"],
        2, instance=halt_step)

    # Truncated binaries, cut inside a step so that no prefix is a whole
    # proof, in the last 1 % so that decoding reads almost all of the file;
    # and the EVEN 1 witness checked against another case's target. Fixed
    # cases keep the cost of a pass the same for every seed.
    for i, key in enumerate([("EVEN", 7), ("EVEN", 3)]):
        stem, target_text, binary, proof = witnesses[key]
        boundaries = _step_boundaries(mods, proof)
        cut = rng.choice(
            [c for c in range(int(0.99 * len(binary)), len(binary)) if c not in boundaries]
        )
        path = workdir / f"truncated{i}.bin"
        path.write_bytes(binary[:cut])
        add(f"check truncated {key[0]} n={key[1]} at {cut}/{len(binary)}",
            ["check", str(path), "--target", target_text, "--format", "records"], 4)
    b = rng.choice([("EVEN", 3), ("BUSY3", 0)])
    add(f"check EVEN n=1 .bin against {b[0]} n={b[1]}",
        ["check", f"{witnesses['EVEN', 1][0]}.bin", "--target", witnesses[b][1], "--format", "records"], 2)

    deep = workdir / "deep.bin"
    deep.write_bytes(DEEP_NESTING)
    add("check deep nesting", ["check", str(deep), "--target", "0 = 0", "--format", "records"], 4,
        defect=DEEP_DEFECT)

    return _shuffled(rng, base, passes)


# ---------------------------------------------------------------------------
# pure_search: byte-string enumeration against the stepped verifier

PURE_STEPS = 20_000
PURE_CANDIDATES = 20_000
# True atomic sentences whose one-step eval proof is six bytes over a
# four-letter alphabet, so each restricted search costs about the same.
BFS_TARGETS = ("S(0) = S(0)", "0 + 0 = 0", "0 * 0 = 0", "0 <= 0 + 0", "0 + 0 <= 0", "S(0) <= S(0)")
BFS_BUDGET = (400_000, 50_000)


def _shortlex_position(data: bytes) -> int:
    """Index of `data` among all strings over its own byte alphabet, counted
    by enumeration rather than by the codec's index arithmetic."""
    alphabet = sorted(set(data))
    position = 0
    for length in range(len(data) + 1):
        for tup in itertools.product(alphabet, repeat=length):
            if bytes(tup) == data:
                return position
            position += 1
    raise AssertionError("unreachable")


def _check_bfs(index: int, canonical: bytes, result) -> Optional[str]:
    if not result.found:
        return "canonical proof not found"
    if result.index != index or result.proof != canonical:
        return f"expected index {index}, got {result.index}"
    return None


def _check_pure(outcome) -> Optional[str]:
    return None if outcome.kind == "budget_exhausted" else f"expected budget_exhausted, got {outcome.kind}"


def pure_search(mods, rng: random.Random, passes: int, workdir: Path) -> list[list[Op]]:
    dovetail, kernel, corpus = mods.dovetail, mods.kernel, mods.machines.CORPUS
    budget = dovetail.SearchBudget(PURE_STEPS, PURE_CANDIDATES)
    out = []
    for _ in range(passes):
        batch = []
        # Three runner searches and two parity searches a pass: unequal
        # shares keep the median inside one cluster of latencies.
        for name in ("LOOP", "LOOP", "LOOP", "EVEN", "EVEN"):
            n = rng.randrange(8)
            batch.append(
                Op(
                    f"pure hsearch {name} n={n}",
                    partial(lambda m, n: mods.dovetail.halting_search(m, n, budget, mode="pure"), corpus[name], n),
                    _check_pure,
                )
            )
        text = rng.choice(BFS_TARGETS)
        target = mods.syntax.parse_formula(text)
        canonical = mods.wire.serialize_proof(
            kernel.make_proof([kernel.ProofStep(target, kernel.RULE_EVAL_TRUE)])
        )
        alphabet = tuple(sorted(set(canonical)))
        batch.append(
            Op(
                f"bfs {text!r} over {len(alphabet)} bytes",
                partial(
                    lambda t, a: mods.dovetail.bfs_search(
                        t, mods.dovetail.RealProofOracle(), mods.dovetail.SearchBudget(*BFS_BUDGET), alphabet=a
                    ),
                    target,
                    alphabet,
                ),
                partial(_check_bfs, _shortlex_position(canonical), canonical),
            )
        )
        rng.shuffle(batch)
        out.append(batch)
    return out


WORKLOADS = {
    "tableau_sweep": tableau_sweep,
    "hsearch_witness": hsearch_witness,
    "check_files": check_files,
    "pure_search": pure_search,
}

# Nominal length of one pass on a 2-core x86 machine with CPython 3.11; the
# number of passes in a run is --seconds divided by this, so the op sequence
# (and every traced count) is fixed by the seed and --seconds alone.
PASS_SECONDS = {
    "tableau_sweep": 2.5,
    "hsearch_witness": 5.0,
    "check_files": 7.0,
    "pure_search": 1.8,
}
