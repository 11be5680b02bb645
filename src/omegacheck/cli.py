"""Command line front end.

Subcommands: check, encode, simulate, hsearch, omega-check. Exit codes are
uniform so shell harnesses can assert outcomes:

    0  accepted / decided / emitted
    2  rejected / answered no
    3  budget or step limit exhausted / timeout
    4  unparseable or unreadable input (position where available), usage errors
    5  encoding limits exceeded

Reports are line oriented. With --format records every line is `key=value`
with a stable key order, and each acceptance report names the inputs and
bounds needed to reproduce the verdict.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path
from typing import Optional

from . import arithmetize, dovetail, kernel, machines, omega, wire
from .syntax import (
    Formula,
    SyntaxError_,
    free_vars,
    is_identifier,
    parse_formula,
    parse_term,
    print_formula,
    print_term,
)

ENV_K = "OMEGACHECK_K"
ENV_INSTANCE_BUDGET = "OMEGACHECK_INSTANCE_BUDGET"
ENV_SEARCH_STEPS = "OMEGACHECK_SEARCH_STEPS"
ENV_SEARCH_CANDIDATES = "OMEGACHECK_SEARCH_CANDIDATES"

EXIT_OK = 0
EXIT_REJECTED = 2
EXIT_EXHAUSTED = 3
EXIT_PARSE = 4
EXIT_OVERFLOW = 5


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class Report:
    def __init__(self, fmt: str):
        self.fmt = fmt
        self.pairs: list[tuple[str, str]] = []

    def add(self, key: str, value) -> None:
        self.pairs.append((key, str(value)))

    def emit(self) -> None:
        for key, value in self.pairs:
            print(f"{key}={value}" if self.fmt == "records" else f"{key}: {value}")


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"{name}: not an integer: {raw!r}", EXIT_PARSE) from None


def _read_file(path: str) -> bytes:
    p = Path(path)
    if not p.is_file():
        raise CliError(f"no such file: {path}", EXIT_PARSE)
    try:
        return p.read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}", EXIT_PARSE) from None


def _load_machine(path: str) -> machines.MachineDesc:
    try:
        return machines.parse_machine(_read_file(path).decode("utf-8"))
    except (machines.MachineFormatError, UnicodeDecodeError) as exc:
        raise CliError(f"machine file: {exc}", EXIT_PARSE)


def _parse_formula_arg(text: str, memo: dict, printed: Optional[Formula]) -> Formula:
    """`text` as a formula; `printed`, if given, is the formula it prints."""
    try:
        formula = printed or parse_formula(text, memo)
    except SyntaxError_ as exc:
        raise CliError(f"formula: {exc}", EXIT_PARSE)
    unbound = free_vars(formula)
    if unbound:
        print(
            f"warning: unbound variables in formula: {', '.join(sorted(unbound))}",
            file=sys.stderr,
        )
    return formula


def _load_gamma(path: Optional[str], memo: dict) -> frozenset[Formula]:
    if path is None:
        return frozenset()
    try:
        text = _read_file(path).decode("utf-8")
    except UnicodeDecodeError:
        raise CliError("gamma file: not UTF-8", EXIT_PARSE) from None
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append(parse_formula(line, memo))
        except SyntaxError_ as exc:
            raise CliError(f"gamma line {lineno}: {exc}", EXIT_PARSE)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Human proof text


_TEXT_SHAPES = {s.layout.split()[0]: s for s in kernel.RULE_SHAPES.values()}


def _field_text(kind: str, value) -> str:
    if kind == "L":
        scheme, items = value
        kinds = kernel.LOGIC_SCHEMES[scheme].kinds
        return " ; ".join([scheme, *map(_field_text, kinds, items)])
    if kind == "t":
        return print_term(value)
    if kind == "f":
        return print_formula(value)
    return str(value + 1 if kind == "p" else value)


# The one spelling of a number in proof text, so that printing what was read
# gives back the same text.
_NUMBER_RE = re.compile(r"0|[1-9][0-9]*")


def _read_field(kind: str, word: str, memo: dict | None):
    if kind == "t":
        return parse_term(word, memo)
    if kind == "f":
        return parse_formula(word, memo)
    if kind == "v":
        if not is_identifier(word):
            raise ValueError(f"bad name {word!r}")
        return word
    if not _NUMBER_RE.fullmatch(word):
        raise ValueError(f"bad number {word!r}")
    number = int(word)
    return number - 1 if kind == "p" else number


def proof_to_text(proof: kernel.Proof) -> str:
    """One step per line: `k. <formula> BY <rule ...>`, the rule written in
    its layout (see `kernel.RULE_SHAPES`); step numbers and premise
    references are 1-based in text."""
    lines = []
    for i, s in enumerate(proof.steps, start=1):
        shape = kernel.RULE_SHAPES.get(s.rule)
        if shape is None:
            raise ValueError(f"no text form for rule {s.rule!r}")
        keyword, *layout = shape.layout.split()
        values = iter(shape.values(s))
        words = [w if w == ";" else _field_text(w, next(values)) for w in layout]
        spec = " ".join([keyword, *words])
        lines.append(f"{i}. {print_formula(s.conclusion)} BY {spec}")
    return "\n".join(lines) + "\n"


# The ` BY ` before a rule keyword: a formula never has a name after a name.
_BY_RULE = re.compile(rf" BY (?=(?:{'|'.join(_TEXT_SHAPES)})(?:\s|$))")


def _parse_step(line: str, position: int, memo: dict | None) -> kernel.ProofStep:
    """Read `k. <formula> BY <rule ...>`, k being the step's position, the
    rule by its layout: `;` separates groups; within a group a field is one
    word, except that a term or a formula takes the rest of the group; a
    logic scheme's items follow it, one group each."""
    label, dot, body = line.partition(".")
    if not dot:
        raise ValueError("expected `k. ...`")
    if label.strip() != str(position):
        raise ValueError(f"step {position} is labelled {label.strip()!r}")
    by = _BY_RULE.search(body)
    if by is None:
        raise ValueError("missing BY and a rule")
    conclusion = parse_formula(body[: by.start()].strip(), memo)
    spec = body[by.end() :]
    unreadable = f"cannot read rule specification {spec!r}"
    keyword, *rest = spec.split(None, 1)
    shape = _TEXT_SHAPES[keyword]
    groups = iter([group.strip() for group in "".join(rest).split(";")])

    def read_group(kinds) -> list:
        text = next(groups, None)
        if text is None:
            raise ValueError(unreadable)
        values = []
        for kind in kinds:
            if not text:
                raise ValueError(unreadable)
            if kind in "tf":
                word, text = text, ""
            else:
                word, text = (text.split(None, 1) + [""])[:2]
            if kind != "L":
                values.append(_read_field(kind, word, memo))
            elif word in kernel.LOGIC_SCHEMES:
                kinds = kernel.LOGIC_SCHEMES[word].kinds
                items = [v for k in kinds for v in read_group(k)]
                values.append((word, tuple(items)))
            else:
                raise ValueError(f"unknown scheme {word!r}")
        if text:
            raise ValueError(unreadable)
        return values

    first, *others = [group.split() for group in shape.layout.split(" ; ")]
    values = [v for kinds in [first[1:], *others] for v in read_group(kinds)]
    if next(groups, None) is not None:
        raise ValueError(unreadable)
    return shape.step(values, conclusion)


def parse_proof_text(text: str, memo: dict | None = None) -> kernel.Proof:
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            steps.append(_parse_step(line, len(steps) + 1, memo))
        except (SyntaxError_, ValueError) as exc:
            raise CliError(f"proof line {lineno}: {exc}", EXIT_PARSE)
    if not steps:
        raise CliError("proof file has no steps", EXIT_PARSE)
    return kernel.Proof(tuple(steps), steps[-1].conclusion)


def _load_omega_proof(path: str, memo: dict) -> kernel.Proof:
    """Read a proof file as binary if it starts with a step tag, and as text
    if it does not or if it does not decode; when both readings fail, the
    error gives both."""
    data = _read_file(path)
    tried = ""
    if data and data[0] in omega.STEP_TAGS:
        try:
            return omega.deserialize_omega_proof(data)
        except wire.MalformedEncoding as exc:
            tried = f"proof file: as binary: {exc}; as text: "
    try:
        return parse_proof_text(data.decode("utf-8"), memo)
    except UnicodeDecodeError:
        error = "not UTF-8" if tried else "proof file: neither valid binary nor text"
    except CliError as exc:
        error = exc
    raise CliError(f"{tried}{error}", EXIT_PARSE)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_check(args) -> int:
    report = Report(args.format)
    memo: dict = {}  # bracket groups, read once for every text of this check
    gamma = _load_gamma(args.gamma, memo)
    try:
        proof = _load_omega_proof(args.proof, memo)
    except CliError as exc:  # raised after any error in the target, as before
        proof, failure = None, exc
    # parse_formula(print_formula(f)) is f, nodes being interned, so a target
    # that is the print of the proof's conclusion is that conclusion, unparsed.
    shown = print_formula(proof.target) if proof else None
    printed = proof.target if shown == args.target else None
    target = _parse_formula_arg(args.target, memo, printed)
    if proof is None:
        raise failure
    if target is not proof.target:
        shown = print_formula(target)
    report.add("proof", args.proof)
    report.add("target", shown)
    report.add("k", args.k)
    report.add("instance-budget", args.instance_budget)
    verdict = kernel._drain(
        kernel.check_units(gamma, proof.steps, target, args.k, args.instance_budget)
    )
    if verdict.accepted:
        report.add("verdict", "accepted")
        if any(isinstance(s, omega.OmegaStep) for s in proof.steps):
            report.add("conditional", f"conditional on k={args.k}")
        report.emit()
        return EXIT_OK
    exhausted = verdict.reason == kernel.REASON_BUDGET_EXHAUSTED
    report.add("verdict", "budget-exhausted" if exhausted else "rejected")
    report.add("step", verdict.step + 1)
    if verdict.instance is not None:
        report.add("instance", verdict.instance)
    if not exhausted:
        report.add("reason", verdict.reason)
    if verdict.detail:
        report.add("detail", verdict.detail)
    report.emit()
    return EXIT_EXHAUSTED if exhausted else EXIT_REJECTED


def cmd_encode(args) -> int:
    m = _load_machine(args.machine)
    if args.which == "q1":
        f = arithmetize.halts_yes_formula(m, args.n)
    elif args.which == "q2":
        f = arithmetize.halts_no_formula(m, args.n)
    elif args.which == "q3":
        f = arithmetize.loops_formula(m, args.n)
    else:
        if args.t is None or args.outcome is None:
            raise CliError("haltedby needs --t and --outcome", EXIT_PARSE)
        if args.t < 0:
            raise CliError("--t must be a natural number", EXIT_PARSE)
        f = arithmetize.halted_by_formula(m, args.n, args.t, args.outcome)
    text = print_formula(f)
    print(f"formula={text}" if args.format == "records" else text)
    return EXIT_OK


def cmd_simulate(args) -> int:
    m = _load_machine(args.machine)
    result = machines.run(m, args.n, args.budget)
    report = Report(args.format)
    report.add("machine", args.machine)
    report.add("input", args.n)
    report.add("budget", args.budget)
    report.add("outcome", result.outcome)
    if result.steps is not None:
        report.add("steps", result.steps)
    report.emit()
    if result.outcome == "yes":
        return EXIT_OK
    if result.outcome == "no":
        return EXIT_REJECTED
    return EXIT_EXHAUSTED


def cmd_hsearch(args) -> int:
    m = _load_machine(args.machine)
    budget = dovetail.SearchBudget(args.budget_steps, args.budget_candidates)
    outcome = dovetail.halting_search(
        m,
        args.n,
        budget=budget,
        mode=args.mode,
        omega_bound=args.k,
        instance_budget=args.instance_budget,
    )
    report = Report(args.format)
    report.add("machine", args.machine)
    report.add("input", args.n)
    report.add("mode", args.mode)
    report.add("budget-steps", budget.max_total_oracle_steps)
    report.add("budget-candidates", budget.max_candidates)
    report.add("k", args.k)
    report.add("outcome", outcome.kind)
    if outcome.thread is not None:
        report.add("thread", outcome.thread)
    if outcome.candidate_index is not None:
        report.add("candidate-index", outcome.candidate_index)
    if outcome.omega_bound is not None:
        report.add("omega-bound", outcome.omega_bound)
        report.add("conditional", f"conditional on k={outcome.omega_bound}")
    for i, progress in enumerate(outcome.progress, start=1):
        report.add(f"thread{i}-units", progress.units)
    if outcome.proof is not None and args.out:
        try:
            Path(args.out).write_bytes(outcome.proof)
        except OSError as exc:
            raise CliError(f"--out: {exc}", EXIT_PARSE) from None
        report.add("proof-file", args.out)
    report.emit()
    return EXIT_OK if outcome.kind != "budget_exhausted" else EXIT_EXHAUSTED


def cmd_omega_check(args) -> int:
    m = _load_machine(args.machine)
    cert = omega.build_loops_certificate(m, args.n)
    verdict = omega.check_omega_bounded(cert, args.k, args.instance_budget)
    report = Report(args.format)
    report.add("machine", args.machine)
    report.add("input", args.n)
    report.add("k", args.k)
    report.add("instance-budget", args.instance_budget)
    report.add("verdict", verdict.kind)
    if verdict.kind == "accepted_up_to":
        report.add("bound", verdict.bound)
        report.emit()
        return EXIT_OK
    report.add("instance", verdict.index)
    if verdict.reason:
        report.add("reason", verdict.reason)
    report.emit()
    return EXIT_REJECTED if verdict.kind == "rejected" else EXIT_EXHAUSTED


class _Parser(argparse.ArgumentParser):
    """Usage errors are unparseable input (exit 4), not argparse's exit 2,
    which would read as a rejection."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="omegacheck",
        description="Proof checking, machine arithmetization and halting search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    default_k = _env_int(ENV_K, omega.DEFAULT_OMEGA_BOUND)
    default_ib = _env_int(ENV_INSTANCE_BUDGET, omega.DEFAULT_INSTANCE_BUDGET)
    default_steps = _env_int(
        ENV_SEARCH_STEPS, dovetail.DEFAULT_BUDGET.max_total_oracle_steps
    )
    default_cand = _env_int(
        ENV_SEARCH_CANDIDATES, dovetail.DEFAULT_BUDGET.max_candidates
    )

    # The arguments several subcommands share, each declared once.
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("text", "records"), default="text",
        help="report style: human text or key=value records",
    )
    subject = argparse.ArgumentParser(add_help=False)
    subject.add_argument("machine", help="machine description file")
    subject.add_argument("n", type=int, help="input value")
    bounds = argparse.ArgumentParser(add_help=False)
    bounds.add_argument("--k", type=int, default=default_k, help="omega instance bound")
    bounds.add_argument("--instance-budget", type=int, default=default_ib)

    p = sub.add_parser(
        "check", parents=[bounds, fmt],
        help="verify a proof file against a target formula",
    )
    p.add_argument("proof", help="proof file (binary canonical or text format)")
    p.add_argument("--target", required=True, help="target formula text")
    p.add_argument("--gamma", help="file of assumption formulas, one per line")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser(
        "encode", parents=[subject, fmt], help="emit halting statements as formulas"
    )
    p.add_argument("which", choices=("q1", "q2", "q3", "haltedby"))
    p.add_argument("--t", type=int, help="step bound for haltedby")
    p.add_argument("--outcome", choices=("yes", "no"), help="outcome for haltedby")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser(
        "simulate", parents=[subject, fmt], help="run a machine with a step budget"
    )
    p.add_argument("--budget", type=int, default=10_000)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser(
        "hsearch", parents=[subject, bounds, fmt], help="three-thread halting search"
    )
    p.add_argument("--mode", choices=("pure", "witness"), default="witness")
    p.add_argument("--budget-steps", type=int, default=default_steps)
    p.add_argument("--budget-candidates", type=int, default=default_cand)
    p.add_argument("--out", help="write the winning proof's bytes here")
    p.set_defaults(fn=cmd_hsearch)

    p = sub.add_parser(
        "omega-check", parents=[subject, bounds, fmt],
        help="build and check the loops certificate for (machine, n)",
    )
    p.set_defaults(fn=cmd_omega_check)

    return parser


# Each bounded argument's least value (0: a natural number, 1: positive), in
# the order a subcommand checks them.
_LEAST = dict(
    n=0, budget=1, budget_steps=1, budget_candidates=1, k=0, instance_budget=1
)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for dest, least in _LEAST.items():
            if getattr(args, dest, least) < least:
                name = dest if dest == "n" else "--" + dest.replace("_", "-")
                must = "be positive" if least else "be a natural number"
                raise CliError(f"{name} must {must}", EXIT_PARSE)
        return args.fn(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except (arithmetize.EncodingOverflow, arithmetize.RunAnalysisError) as exc:
        what = "overflow" if isinstance(exc, arithmetize.EncodingOverflow) else "failed"
        print(f"encoding {what}: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
