"""Span recorder for the traced benchmark run.

`Tracer.install` wraps a fixed list of omegacheck's public functions in every
module namespace that binds them (``substitute``, for instance, is bound in
``syntax``, ``kernel``, ``omega`` and ``dovetail``), so calls made from
inside the program are seen as well as the benchmark's own calls. Each call
becomes one span: name, start, end, parent span and the benchmark op it
belongs to. Spans stay in memory and are written as JSON lines by
`write_spans`. A span's self time is its duration minus the time covered by
its child spans.

Hot inner helpers (``machines.step``, ``term_vars``, ``decode_term``, the
evaluator's recursion) are deliberately not wrapped: a span per call there
would cost more than the work it measures. Nothing is patched unless
`install` is called, and `uninstall` restores every original binding.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# Rules the kernel step metrics report by name; every other rule is summed
# into `other`.
STEP_RULES = ("eval-true", "mp", "logic")


def _step_span(args, kwargs) -> str:
    step = args[0] if args else kwargs.get("step")
    rule = getattr(step, "rule", None)
    return f"kernel.step.{rule if rule in STEP_RULES else 'other'}"


# (module, attribute, span name). Several functions may share one span name
# when a single metric covers them; a callable computes the name per call.
TARGETS = (
    ("syntax", "eval_bounded", "syntax.eval_bounded"),
    ("syntax", "is_delta0", "syntax.delta0_closed"),
    ("syntax", "is_closed", "syntax.delta0_closed"),
    ("syntax", "free_vars", "syntax.delta0_closed"),
    ("syntax", "substitute", "syntax.substitute"),
    ("syntax", "numeral", "syntax.numeral"),
    ("syntax", "parse_formula", "syntax.parse_formula"),
    ("arithmetize", "halted_by_formula", "arithmetize.halted_by_formula"),
    ("arithmetize", "halting_body", "arithmetize.halting_body"),
    ("machines", "run", "machines.run"),
    ("wire", "serialize_proof", "wire.serialize"),
    ("omega", "serialize_omega_proof", "wire.serialize"),
    ("wire", "deserialize_proof", "wire.deserialize"),
    ("omega", "deserialize_omega_proof", "wire.deserialize"),
    ("wire", "proof_at_index", "wire.proof_at_index"),
    ("kernel", "check_proof", "kernel.check_proof"),
    ("kernel", "check_step", _step_span),
    ("omega", "check_instance", "omega.check_instance"),
    ("omega", "LoopsPremiseMachine.generate", "omega.generate"),
    ("omega", "build_loops_certificate", "omega.build_loops_certificate"),
    ("dovetail", "halting_search", "dovetail.halting_search"),
    ("dovetail", "bfs_search", "dovetail.bfs_search"),
    ("cli", "main", "cli.main"),
    ("cli", "parse_proof_text", "cli.parse_proof_text"),
)


PACKAGE = "omegacheck"
# Spans past this many are aggregated but not kept, which bounds the memory
# and the file of a run that makes millions of calls.
MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        # Counts gathered at the same boundaries as the spans.
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.op: int | None = None
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []
        self._next_id = 0
        # Time spent in observers (e.g. sizing a tableau) is excluded from
        # every enclosing span.
        self._excluded = 0.0
        self._tableau_sizes: dict[tuple, int] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [
            m
            for name, m in sys.modules.items()
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        observers = {
            "syntax.parse_formula": self._observe_parse,
            "arithmetize.halted_by_formula": self._observe_tableau,
            "machines.run": self._observe_run,
            "wire.serialize": self._observe_serialize,
            "wire.deserialize": self._observe_deserialize,
            "dovetail.halting_search": self._observe_hsearch,
            "dovetail.bfs_search": self._observe_bfs,
        }
        for module_name, attr, span in TARGETS:
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            cls_name, _, fn_name = attr.rpartition(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, fn_name, None) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            observe = observers.get(span) if isinstance(span, str) else self._observe_step
            wrapper = self._wrap(original, span, observe)
            if cls_name:
                self._patch(owner, fn_name, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key, wrapper) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def _wrap(self, fn, span, observe):
        stack = self._stack
        perf = time.perf_counter
        named = isinstance(span, str)

        def wrapper(*args, **kwargs):
            name = span if named else span(args, kwargs)
            ident = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [ident, 0.0]
            stack.append(frame)
            result = error = None
            excluded_before = self._excluded
            start = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = perf()
                stack.pop()
                duration = (end - start) - (self._excluded - excluded_before)
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                self.total_s[name] += duration
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((ident, name, start, end, parent, self.op))
                if observe is not None:
                    observed = perf()
                    observe(args, kwargs, result, error)
                    self._excluded += perf() - observed

        wrapper.__wrapped__ = fn
        return wrapper

    # -- observers: counts at the span boundaries --------------------------

    def _observe_parse(self, args, kwargs, result, error):
        text = args[0] if args else kwargs.get("text", "")
        self.counts["syntax.parse_formula.chars"] += len(text)

    def _observe_tableau(self, args, kwargs, result, error):
        if error is not None:
            return
        # Size of the tableau's wire encoding, memoised per argument list
        # (a machine description is hashable) so repeats cost nothing.
        key = (args, tuple(sorted(kwargs.items())))
        size = self._tableau_sizes.get(key)
        if size is None:
            wire = sys.modules[f"{PACKAGE}.wire"]
            buf = bytearray()
            wire.encode_formula(result, buf)
            size = self._tableau_sizes[key] = len(buf)
        self.counts["arithmetize.tableau_bytes"] += size

    def _observe_run(self, args, kwargs, result, error):
        if error is not None:
            return
        # The simulator reports no step count on timeout, when it used its
        # whole budget (corpus machines never get stuck).
        budget = args[2] if len(args) > 2 else kwargs.get("budget", 0)
        self.counts["machines.sim_steps"] += result.steps if result.steps is not None else budget

    def _observe_serialize(self, args, kwargs, result, error):
        if error is None:
            self.counts["wire.bytes_encoded"] += len(result)

    def _observe_deserialize(self, args, kwargs, result, error):
        data = args[0] if args else kwargs.get("data", b"")
        self.counts["wire.bytes_decoded"] += len(data)
        if error is not None and type(error).__name__ == "MalformedEncoding":
            self.counts["wire.malformed"] += 1

    def _observe_step(self, args, kwargs, result, error):
        if error is None and result[0] is not None:
            self.counts["kernel.step.rejected"] += 1

    def _observe_hsearch(self, args, kwargs, result, error):
        if error is not None:
            return
        units = [p.units for p in result.progress]
        for i, n in enumerate(units, start=1):
            self.counts[f"dovetail.units.thread{i}"] += n
        self.counts["dovetail.oracle_steps"] += sum(units)
        if result.thread is not None:
            self.counts["dovetail.winner_units"] += units[result.thread - 1]

    def _observe_bfs(self, args, kwargs, result, error):
        if error is None:
            self.counts["dovetail.oracle_steps"] += result.steps

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON array per line: [id, name, start, end, parent id, op]."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, traced_wall: float, untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, by name, as (value, unit)."""
    m: dict[str, tuple[float, str]] = {}

    def calls(name):
        m[f"{name}.calls"] = (tr.calls.get(name, 0), "count")

    def self_s(name):
        m[f"{name}.self_s"] = (tr.self_s.get(name, 0.0), "s")

    def count(name, unit):
        m[name] = (tr.counts.get(name, 0), unit)

    calls("syntax.eval_bounded")
    self_s("syntax.eval_bounded")
    self_s("syntax.delta0_closed")
    calls("syntax.substitute")
    self_s("syntax.substitute")
    self_s("syntax.numeral")
    self_s("syntax.parse_formula")
    count("syntax.parse_formula.chars", "chars")

    calls("arithmetize.halted_by_formula")
    self_s("arithmetize.halted_by_formula")
    self_s("arithmetize.halting_body")
    count("arithmetize.tableau_bytes", "bytes")

    calls("machines.run")
    self_s("machines.run")
    count("machines.sim_steps", "count")

    self_s("wire.serialize")
    self_s("wire.deserialize")
    count("wire.bytes_encoded", "bytes")
    count("wire.bytes_decoded", "bytes")
    m["wire.decode_mb_per_s"] = (
        _ratio(tr.counts.get("wire.bytes_decoded", 0) / 1e6, tr.total_s.get("wire.deserialize", 0.0)),
        "MB/s",
    )
    calls("wire.proof_at_index")
    self_s("wire.proof_at_index")
    m["wire.malformed_frac"] = (
        _ratio(tr.counts.get("wire.malformed", 0), tr.calls.get("wire.deserialize", 0)),
        "ratio",
    )

    calls("kernel.check_proof")
    self_s("kernel.check_proof")
    for rule in STEP_RULES + ("other",):
        calls(f"kernel.step.{rule}")
        self_s(f"kernel.step.{rule}")
    steps = sum(tr.calls.get(f"kernel.step.{r}", 0) for r in STEP_RULES + ("other",))
    m["kernel.reject_frac"] = (_ratio(tr.counts.get("kernel.step.rejected", 0), steps), "ratio")

    calls("omega.check_instance")
    self_s("omega.check_instance")
    self_s("omega.generate")
    self_s("omega.build_loops_certificate")

    self_s("dovetail.halting_search")
    self_s("dovetail.bfs_search")
    for i in (1, 2, 3):
        count(f"dovetail.units.thread{i}", "count")
    units = sum(tr.counts.get(f"dovetail.units.thread{i}", 0) for i in (1, 2, 3))
    m["dovetail.useful_frac"] = (_ratio(tr.counts.get("dovetail.winner_units", 0), units), "ratio")
    search_s = tr.total_s.get("dovetail.halting_search", 0.0) + tr.total_s.get("dovetail.bfs_search", 0.0)
    m["dovetail.oracle_steps_per_s"] = (_ratio(tr.counts.get("dovetail.oracle_steps", 0), search_s), "1/s")

    self_s("cli.main")
    self_s("cli.parse_proof_text")

    m["trace.overhead_frac"] = (_ratio(traced_wall, untraced_wall) - 1.0, "ratio")
    return m


# Metrics whose value must repeat exactly across traced runs on one seed.
COUNT_UNITS = frozenset({"count", "bytes", "chars"})
