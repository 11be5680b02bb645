"""omegacheck benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. Workloads: tableau_sweep, hsearch_witness, check_files, pure_search
(see workloads.py). Each is a closed loop with one caller in one thread:
an op starts when the previous one has finished. All four, end to end and
then traced:

    for t in 0 1; do for w in tableau_sweep hsearch_witness check_files \
        pure_search; do python3 perfbench/run.py --workload $w --seed 1 \
        --seconds 15 --trace $t; done; done

Set-up (importing the program and generating the seeded inputs) is repeated
several times and reported as its median, `setup_s`. The op sequence is a
number of passes with the same mix of work, fixed by the seed and --seconds;
the timed phase runs it once and every result is then checked against its
reference. With --trace 0 the end-to-end metrics are printed. With --trace 1
the first half of the passes runs untraced and then traced, and the
per-layer metrics from the spans are printed instead, with the tracing
overhead. Traced counts are compared with those of an earlier traced run of
the same seed, program and benchmark, so that a count that does not repeat
exactly is reported.

The last line of output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Scratch files, spans and recorded counts go under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PACKAGE = tracing.PACKAGE
MODULES = ("syntax", "kernel", "wire", "machines", "arithmetize", "omega", "dovetail", "cli")
SETUP_REPEATS = 5
TAIL_BEYOND = 10


@dataclass
class Raised:
    """An op that raised. Only the text is kept: the exception's traceback
    would keep every frame of a deep recursion alive."""

    summary: str


def import_program() -> SimpleNamespace:
    """Import the program afresh, so each set-up pays the full import."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})


def run_phase(passes, tracer=None):
    """Run every pass; returns results and latencies in op order and the
    wall time of each pass."""
    results, latencies, walls = [], [], []
    perf = time.perf_counter
    for ops in passes:
        started = perf()
        for op in ops:
            if tracer is not None:
                tracer.op = len(results)
            t0 = perf()
            try:
                result = op.call()
            except Exception as exc:  # every raised exception is a failed op
                result = Raised(f"{type(exc).__name__}: {str(exc)[:80]}")
            latencies.append(perf() - t0)
            results.append(result)
        walls.append(perf() - started)
    return results, latencies, walls


def judge(ops, results):
    """Failures as (label, mismatch, defect); defect is None for a new one."""
    failures = []
    for op, result in zip(ops, results):
        if isinstance(result, Raised):
            mismatch = f"raised {result.summary}"
        else:
            try:
                mismatch = op.check(result)
            except Exception as exc:
                mismatch = f"check raised {type(exc).__name__}: {str(exc)[:80]}"
        if mismatch is not None:
            known = op.defect is not None and op.defect[1] in mismatch
            failures.append((op.label, mismatch, op.defect[0] if known else None))
    return failures


def report_failures(failures) -> None:
    seen: dict[tuple, int] = {}
    for failure in failures:
        seen[failure] = seen.get(failure, 0) + 1
    for (label, mismatch, defect), times in seen.items():
        tag = f"known defect: {defect}" if defect else "UNEXPECTED"
        print(f"FAIL {label} x{times}: {mismatch} [{tag}]")


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")) + sorted(BENCH.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def check_repeat(counts: dict, args) -> bool:
    """Compare traced counts with the first traced run of this seed."""
    path = OUT / f"counts-{args.workload}-seed{args.seed}-s{args.seconds}-{source_digest()}.json"
    if not path.exists():
        path.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
        print(f"determinism: counts recorded in {path.name}")
        return True
    previous = json.loads(path.read_text(encoding="utf-8"))
    differ = sorted(k for k in counts.keys() | previous.keys() if counts.get(k) != previous.get(k))
    for key in differ:
        print(f"determinism: {key} was {previous.get(key)}, now {counts.get(key)}")
    print(f"determinism: counts {'differ from' if differ else 'repeat'} the earlier traced run")
    return not differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="omegacheck benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"no program source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    build = workloads.WORKLOADS[args.workload]
    n_passes = max(1, round(args.seconds / workloads.PASS_SECONDS[args.workload]))
    setup_times = []
    workdir = passes = None
    try:
        for _ in range(SETUP_REPEATS):
            # Drop the previous set-up first, so that peak memory reflects
            # one set-up and the timed phase rather than several set-ups.
            passes = None
            gc.collect()
            if workdir is not None:
                shutil.rmtree(workdir)
            workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
            t0 = time.perf_counter()
            mods = import_program()
            passes = build(mods, random.Random(args.seed), n_passes, workdir)
            setup_times.append(time.perf_counter() - t0)
        ops = [op for batch in passes for op in batch]
        gc.collect()
        print(f"workload {args.workload}, seed {args.seed}, {n_passes} pass(es) of "
              f"{len(passes[0])} ops, closed loop with one caller")

        if args.trace:
            metrics, failures, ops, correct = traced_run(passes, args)
        else:
            results, latencies, walls = run_phase(passes)
            failures = judge(ops, results)
            correct = all(defect for _, _, defect in failures)
            metrics = end_to_end(passes, latencies, walls, failures, setup_times)
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    report_failures(failures)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def end_to_end(passes, latencies, walls, failures, setup_times):
    n = len(latencies)
    tail_s, pct = tail(latencies)
    print(f"setup: median of {len(setup_times)} set-ups, "
          f"{', '.join(f'{t:.3f}' for t in setup_times)} s")
    print(f"throughput: median over {len(passes)} passes of ops / pass wall time "
          f"({n} ops in {sum(walls):.2f} s overall)")
    print(f"latency samples: {n}; tail is p{pct:.1f} ({TAIL_BEYOND} samples beyond it)")
    print(f"error_frac = {len(failures) / n:.6g} ({len(failures)} of {n} ops failed)")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (statistics.median(len(p) / w for p, w in zip(passes, walls)), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "ok_frac": ((n - len(failures)) / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(passes, args):
    # Half the passes, run untraced and then traced, keep a traced run about
    # as long as an untraced one.
    passes = passes[: max(1, len(passes) // 2)]
    ops = [op for batch in passes for op in batch]
    plain_results, _, plain_walls = run_phase(passes)
    tr = tracing.Tracer()
    tr.install()
    try:
        results, _, traced_walls = run_phase(passes, tr)
    finally:
        tr.uninstall()
    for name in tr.missing:
        print(f"trace: {name} not found, its metrics read 0")
    failures = judge(ops, results)
    plain_failures = judge(ops, plain_results)
    correct = all(defect for _, _, defect in failures + plain_failures)
    tr.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(f"spans: {len(tr.spans)} of {sum(tr.calls.values())} kept, in "
          f".bench_out/spans-{args.workload}-seed{args.seed}.jsonl")
    metrics = tracing.layer_metrics(tr, sum(traced_walls), sum(plain_walls))
    counts = {k: v for k, (v, unit) in metrics.items() if unit in tracing.COUNT_UNITS}
    correct = check_repeat(counts, args) and correct
    return metrics, failures, ops, correct


if __name__ == "__main__":
    sys.exit(main())
