"""The machine-premise rule: conclude `forall x phi(x)` from a program that
maps each numeral to a proof of the corresponding instance.

Full verification of such a step would mean deciding, for every natural
number, that the premise program halts with a correct proof; no checker can
do that, and this module does not try. The verdict type has no
unconditional acceptance: a step is accepted *up to* an instance bound k,
rejected at a specific instance, or abandoned when an instance exceeds its
budget. That shape is deliberate and load-bearing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Union, runtime_checkable

from . import wire
from .arithmetize import (
    DEFAULT_HORIZON,
    DEFAULT_MAX_TRACE_STEPS,
    LOOPS_VAR,
    halting_body,
)
from .kernel import (
    Proof,
    ProofStep,
    REASON_BUDGET_EXHAUSTED,
    RULE_EVAL_TRUE,
    Verdict,
    _drain,
    check_proof,
    check_units,
)
from .machines import MachineDesc, RunResult, run
from .syntax import ForAll, Formula, Not, Or, free_vars, numeral, substitute

DEFAULT_OMEGA_BOUND = 50
DEFAULT_INSTANCE_BUDGET = 10**6

REASON_MALFORMED = "malformed-encoding"


@dataclass(frozen=True)
class GenResult:
    proof_bytes: Optional[bytes]
    steps_used: int
    exhausted: bool = False


@runtime_checkable
class PremiseMachine(Protocol):
    """Deterministic generator: instance index in, proof bytes out, metered."""

    def generate(self, index: int, budget: int) -> GenResult: ...


@dataclass(frozen=True)
class LoopsPremiseMachine:
    """Premise machine of the non-halting certificate.

    On instance index t it simulates the subject machine for up to t steps
    (each simulated step costs one budget unit, plus one to emit) and then
    emits a one-step eval-true proof of phi(t). Whether that instance is
    actually true is the verifier's business, not this machine's.
    """

    machine: MachineDesc
    input_n: int
    var: str
    phi: Formula

    def generate(self, index: int, budget: int) -> GenResult:
        cost = 1  # emission
        if index > 0:
            if budget <= 0:
                return GenResult(None, 0, exhausted=True)
            result: RunResult = run(self.machine, self.input_n, min(index, budget))
            used = result.steps if result.steps is not None else min(index, budget)
            cost += used
        if cost > budget:
            return GenResult(None, budget, exhausted=True)
        instance = substitute(self.phi, self.var, numeral(index))
        proof = Proof((ProofStep(instance, RULE_EVAL_TRUE),), instance)
        return GenResult(wire.serialize_proof(proof), cost)


@dataclass(frozen=True)
class OmegaStep:
    gamma: frozenset[Formula]
    var: str
    phi: Formula
    premise_machine: PremiseMachine
    conclusion: Formula

    def __post_init__(self):
        if free_vars(self.phi) != frozenset({self.var}):
            raise ValueError("phi must have exactly the rule variable free")
        if self.conclusion != ForAll(self.var, self.phi):
            raise ValueError("conclusion must be the universal closure of phi")

    def instance_units(self, step: int, k: int, per_instance_budget: int):
        """Check instances 0..k in order, yielding once between instances;
        the return value is None when all of them verify, else the rejection
        of proof step `step` at the first failing instance."""
        if k < 0:
            raise ValueError("k must be a natural number")
        for index in range(k + 1):
            if index:
                yield
            bad = check_instance(self, index, per_instance_budget)
            if bad is not None:
                exhausted = bad.kind == "budget_exhausted"
                reason = REASON_BUDGET_EXHAUSTED if exhausted else bad.reason
                return Verdict(False, step, reason, instance=index)
        return None


@dataclass(frozen=True)
class OmegaVerdict:
    kind: str  # one of KINDS; there is no unconditional acceptance
    bound: Optional[int] = None  # accepted_up_to
    index: Optional[int] = None  # failing / exhausted instance
    reason: Optional[str] = None

    KINDS = frozenset({"accepted_up_to", "rejected", "budget_exhausted"})

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown verdict kind {self.kind!r}")


def check_instance(
    s: OmegaStep, index: int, per_instance_budget: int = DEFAULT_INSTANCE_BUDGET
) -> Optional[OmegaVerdict]:
    """Run the premise machine on one instance and kernel-check its output.

    None means the instance verified; otherwise the failing verdict."""
    produced = s.premise_machine.generate(index, per_instance_budget)
    if produced.exhausted:
        return OmegaVerdict("budget_exhausted", index=index)
    if produced.proof_bytes is None:
        return OmegaVerdict("rejected", index=index, reason=REASON_MALFORMED)
    try:
        proof = wire.deserialize_proof(produced.proof_bytes)
    except wire.MalformedEncoding:
        return OmegaVerdict("rejected", index=index, reason=REASON_MALFORMED)
    target = substitute(s.phi, s.var, numeral(index))
    verdict = check_proof(s.gamma, proof, target)
    if not verdict.accepted:
        return OmegaVerdict("rejected", index=index, reason=verdict.reason)
    return None


def check_omega_bounded(
    s: OmegaStep,
    k: int,
    per_instance_budget: int = DEFAULT_INSTANCE_BUDGET,
) -> OmegaVerdict:
    """Check instances 0..k in order; report the first failure.

    Instances are independent, so a parallel checker is allowed as long as
    it reports the smallest failing instance, which is what the sequential
    `OmegaStep.instance_units` does by construction.
    """
    proof = OmegaProof((s,), s.conclusion)
    verdict = check_omega_proof(s.gamma, proof, s.conclusion, k, per_instance_budget)
    kind = "accepted_up_to" if verdict.kind == "accepted_conditional" else verdict.kind
    return OmegaVerdict(kind, bound=verdict.bound, index=verdict.instance, reason=verdict.reason)


def build_loops_certificate(
    m: MachineDesc,
    n: int,
    var: str = LOOPS_VAR,
    horizon: int = DEFAULT_HORIZON,
    max_steps: int = DEFAULT_MAX_TRACE_STEPS,
) -> OmegaStep:
    """Certificate whose conclusion is loops_formula(m, n).

    Sound for any machine and input: building succeeds whenever the
    halting bodies encode (else EncodingOverflow or RunAnalysisError), but
    the instances only verify when the machine really has not halted by
    each checked step bound.
    """
    body_yes = halting_body(m, n, "yes", var, horizon, max_steps)
    body_no = halting_body(m, n, "no", var, horizon, max_steps)
    phi = Not(Or(body_yes, body_no))
    return OmegaStep(
        gamma=frozenset(),
        var=var,
        phi=phi,
        premise_machine=LoopsPremiseMachine(m, n, var, phi),
        conclusion=ForAll(var, phi),
    )


# ---------------------------------------------------------------------------
# Proofs mixing finitary steps with omega steps


@dataclass(frozen=True)
class OmegaProof:
    steps: tuple[Union[ProofStep, OmegaStep], ...]
    target: Formula

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a proof has at least one step")
        if self.steps[-1].conclusion != self.target:
            raise ValueError("target must equal the last step's conclusion")

    @property
    def omega_step_count(self) -> int:
        return sum(1 for s in self.steps if isinstance(s, OmegaStep))


@dataclass(frozen=True)
class OmegaProofVerdict:
    kind: str
    bound: Optional[int] = None  # the k the acceptance is conditioned on
    step: Optional[int] = None
    instance: Optional[int] = None
    reason: Optional[str] = None

    KINDS = frozenset({"accepted_conditional", "rejected", "budget_exhausted"})

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown verdict kind {self.kind!r}")


def check_omega_proof(
    gamma,
    proof: OmegaProof,
    target: Formula,
    k: int = DEFAULT_OMEGA_BOUND,
    per_instance_budget: int = DEFAULT_INSTANCE_BUDGET,
) -> OmegaProofVerdict:
    """Finitary steps are checked exactly as check_proof does; omega steps
    instance by instance up to k. Acceptance is always conditioned on k."""
    verdict = _drain(check_units(gamma, proof.steps, target, k, per_instance_budget))
    if verdict.accepted:
        return OmegaProofVerdict("accepted_conditional", bound=k)
    if verdict.reason == REASON_BUDGET_EXHAUSTED:
        return OmegaProofVerdict("budget_exhausted", step=verdict.step, instance=verdict.instance)
    return OmegaProofVerdict(
        "rejected", step=verdict.step, instance=verdict.instance, reason=verdict.reason
    )


# ---------------------------------------------------------------------------
# Wire format: finitary step tags plus one omega tag

_PM_LOOPS = 0


def serialize_omega_proof(proof: OmegaProof) -> bytes:
    from .machines import machine_to_text

    out = bytearray()
    for s in proof.steps:
        if isinstance(s, OmegaStep):
            if not isinstance(s.premise_machine, LoopsPremiseMachine):
                raise ValueError(
                    "only the loops premise machine has a wire representation"
                )
            out.append(wire.OMEGA_STEP_TAG)
            gamma_bytes = sorted(
                bytes(_encode_formula(g)) for g in s.gamma
            )
            out += len(gamma_bytes).to_bytes(2, "big")
            for chunk in gamma_bytes:
                out += chunk
            data = bytearray()
            wire.encode_formula(s.phi, data)
            name = s.var.encode("ascii")
            out.append(len(name))
            out += name
            out += data
            text = machine_to_text(s.premise_machine.machine).encode("utf-8")
            out.append(_PM_LOOPS)
            out += len(text).to_bytes(4, "big")
            out += text
            out += s.premise_machine.input_n.to_bytes(4, "big")
        else:
            wire.encode_step(s, out)
    return bytes(out)


def _encode_formula(f: Formula) -> bytearray:
    buf = bytearray()
    wire.encode_formula(f, buf)
    return buf


def deserialize_omega_proof(data: bytes) -> OmegaProof:
    from .machines import MachineFormatError, parse_machine

    r = wire.Reader(data)
    if r.at_end():
        raise wire.MalformedEncoding("empty input")
    steps: list[Union[ProofStep, OmegaStep]] = []
    while not r.at_end():
        if r.data[r.pos] == wire.OMEGA_STEP_TAG:
            r.u8()
            gamma = []
            for _ in range(r.u16()):
                gamma.append(wire.decode_formula(r))
            var = r.name()
            phi = wire.decode_formula(r)
            kind = r.u8()
            if kind != _PM_LOOPS:
                raise wire.MalformedEncoding(f"unknown premise machine kind {kind}")
            text = r.take(r.u32())
            try:
                machine = parse_machine(text.decode("utf-8"))
            except (MachineFormatError, UnicodeDecodeError) as exc:
                raise wire.MalformedEncoding(str(exc)) from exc
            input_n = r.u32()
            try:
                steps.append(
                    OmegaStep(
                        gamma=frozenset(gamma),
                        var=var,
                        phi=phi,
                        premise_machine=LoopsPremiseMachine(machine, input_n, var, phi),
                        conclusion=ForAll(var, phi),
                    )
                )
            except ValueError as exc:
                raise wire.MalformedEncoding(str(exc)) from exc
        else:
            steps.append(wire.decode_step(r))
    return OmegaProof(tuple(steps), steps[-1].conclusion)
