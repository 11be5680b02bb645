"""The machine-premise rule: conclude `forall x phi(x)` from a program that
maps each numeral to a proof of the corresponding instance.

Full verification of such a step would mean deciding, for every natural
number, that the premise program halts with a correct proof; no checker can
do that, and this module does not try. The verdict type has no
unconditional acceptance: a step is accepted *up to* an instance bound k,
rejected at a specific instance, or abandoned when an instance exceeds its
budget. That shape is deliberate and load-bearing.

Each instance's proof is kernel-checked. Premise output equal to the
canonical encoding of the instance's one-step eval-true proof is compared
with it rather than decoded, which is sound when phi's own encoding reads
back to phi (`OmegaStep._readable_closed_spans`); other output is decoded.
That encoding copies phi's closed quantifiers, which `substitute` leaves as
they are, from phi's one encoding (`_closed_spans`, the codec's span memo).
The readback keeps the decoder's memo too, and a witness-mode halting search
seeds its other encodes and decodes with the two memos (`dovetail`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import islice
from types import SimpleNamespace
from typing import Optional

from . import wire
from .arithmetize import loops_formula
from .kernel import (
    DEFAULT_INSTANCE_BUDGET,
    Proof,
    ProofStep,
    REASON_BUDGET_EXHAUSTED,
    RULE_EVAL_TRUE,
    Verdict,
    _drain,
    check_proof,
    check_units,
)
from .machines import (
    MachineDesc,
    MachineFormatError,
    configs,
    machine_to_text,
    parse_machine,
)
from .syntax import ForAll, Formula, free_vars, is_closed, numeral, substitute

DEFAULT_OMEGA_BOUND = 50

REASON_MALFORMED = "malformed-encoding"


@dataclass(frozen=True)
class GenResult:
    proof_bytes: Optional[bytes]  # None exactly when exhausted
    steps_used: int
    exhausted: bool = False


@dataclass(frozen=True)
class LoopsPremiseMachine:
    """Premise machine of the non-halting certificate.

    On instance index t it simulates the subject machine for up to t steps
    (each simulated step costs one budget unit, plus one to emit) and then
    emits a one-step eval-true proof of phi(t). Whether that instance is
    actually true is the verifier's business, not this machine's. The run
    is kept between instances and resumed (see `_simulate`).
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
            cost += self._simulate(min(index, budget))
        if cost > budget:
            return GenResult(None, budget, exhausted=True)
        instance = substitute(self.phi, self.var, numeral(index))
        return GenResult(_encode_eval_true(instance, self._closed_spans[1]), cost)

    def _simulate(self, steps: int) -> int:
        """The steps `run` takes with a budget of `steps`: the halting step
        if it is at most `steps`, else `steps`. The one run goes on from
        the last call."""
        r = self._run
        if r.halt is None and r.seen < steps:
            accepting = (self.machine.accept_yes, self.machine.accept_no)
            for c in islice(r.configs, steps - r.seen):  # a stuck run ends
                r.seen += 1
                if c.state in accepting:
                    r.halt = r.seen
        return steps if r.halt is None else min(r.halt, steps)

    @cached_property
    def _run(self) -> SimpleNamespace:
        # the run's configurations, how many were read, the halting step
        return SimpleNamespace(
            configs=configs(self.machine, self.input_n), seen=0, halt=None
        )

    @cached_property
    def _closed_spans(self) -> tuple[bytes, dict]:
        return _closed_spans(self.phi)


def _closed_spans(phi: Formula) -> tuple[bytes, dict]:
    """phi's encoding, and the span memo of its closed quantifiers in it."""
    spans = {}
    data = bytes(wire.encode_formula(phi, bytearray(), spans))
    return data, {q: (data, *span[1:]) for q, span in spans.items() if is_closed(q)}


def _encode_eval_true(instance: Formula, closed: dict) -> bytes:
    """The one-step eval-true proof of `instance`, encoded. `closed` is
    copied, so that the instance's own quantifiers stay out of it."""
    out = bytearray()
    wire.encode_step(ProofStep(instance, RULE_EVAL_TRUE), out, dict(closed))
    return bytes(out)


@dataclass(frozen=True)
class OmegaStep:
    gamma: frozenset[Formula]
    var: str
    phi: Formula
    premise_machine: LoopsPremiseMachine
    conclusion: Formula

    def __post_init__(self):
        if free_vars(self.phi) != frozenset({self.var}):
            raise ValueError("phi must have exactly the rule variable free")
        if self.conclusion != ForAll(self.var, self.phi):
            raise ValueError("conclusion must be the universal closure of phi")

    @cached_property
    def _readable_closed_spans(self) -> Optional[tuple[dict, dict]]:
        """If phi's encoding reads back to phi, the encoder's spans of phi's
        closed quantifiers and the decoder's own span memo of that readback
        (`wire.Reader.spans`, possibly None), else None. Substituting a
        closed numeral renames nothing and keeps names and nesting, so then
        every instance reads back too. Both memos are seeds for the codec,
        which copies them."""
        pm = self.premise_machine
        try:
            if isinstance(pm, LoopsPremiseMachine) and pm.phi is self.phi:
                data, closed = pm._closed_spans  # built once, shared with `generate`
            else:
                data, closed = _closed_spans(self.phi)
            r = wire.Reader(data)
            if wire.decode_formula(r) is self.phi and r.at_end():
                return closed, r.spans
        except (ValueError, wire.MalformedEncoding):
            pass
        return None

    def instance_units(self, step: int, k: int, per_instance_budget: int):
        """Check instances 0..k in order, yielding once between instances;
        the return value is None when all of them verify, else the rejection
        of proof step `step` at the first failing instance."""
        if k < 0:
            raise ValueError("k must be a natural number")
        for index in range(k + 1):
            if index:
                yield
            reason = check_instance(self, index, per_instance_budget)
            if reason is not None:
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
) -> Optional[str]:
    """Run the premise machine on one instance and kernel-check its output.

    Output equal to the encoding of the instance's one-step eval-true proof
    is compared, not decoded, when phi reads back; other output is decoded.

    None means the instance verified; otherwise the reason it did not."""
    produced = s.premise_machine.generate(index, per_instance_budget)
    if produced.exhausted:
        return REASON_BUDGET_EXHAUSTED
    target = substitute(s.phi, s.var, numeral(index))
    readable = s._readable_closed_spans
    if readable and produced.proof_bytes == _encode_eval_true(target, readable[0]):
        proof = Proof((ProofStep(target, RULE_EVAL_TRUE),), target)
    else:
        try:
            proof = wire.deserialize_proof(produced.proof_bytes)
        except wire.MalformedEncoding:
            return REASON_MALFORMED
    return check_proof(s.gamma, proof, target).reason


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
    proof = Proof((s,), s.conclusion)
    verdict = check_omega_proof(s.gamma, proof, s.conclusion, k, per_instance_budget)
    kind = "accepted_up_to" if verdict.kind == "accepted_conditional" else verdict.kind
    return OmegaVerdict(
        kind, bound=verdict.bound, index=verdict.instance, reason=verdict.reason
    )


def build_loops_certificate(
    m: MachineDesc, n: int, q: Optional[Formula] = None
) -> OmegaStep:
    """Certificate whose conclusion is loops_formula(m, n); a caller that has
    built that formula passes it as `q`.

    Sound for any machine and input: building succeeds whenever the
    halting bodies encode (else EncodingOverflow or RunAnalysisError), but
    the instances only verify when the machine really has not halted by
    each checked step bound.
    """
    q = loops_formula(m, n) if q is None else q
    return OmegaStep(
        gamma=frozenset(),
        var=q.var,
        phi=q.body,
        premise_machine=LoopsPremiseMachine(m, n, q.var, q.body),
        conclusion=q,
    )


# ---------------------------------------------------------------------------
# Proofs mixing finitary steps with omega steps

OmegaProof = Proof  # a proof whose steps may include omega steps


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
    proof: Proof,
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
        return OmegaProofVerdict(
            "budget_exhausted", step=verdict.step, instance=verdict.instance
        )
    return OmegaProofVerdict(
        "rejected", step=verdict.step, instance=verdict.instance, reason=verdict.reason
    )


# ---------------------------------------------------------------------------
# Wire format: the finitary steps' codec plus one omega step, tag 0x30:
# gamma's formulas (u16 count, then in strictly increasing order of their
# encodings, so that a step has one encoding), the variable, phi, the premise
# machine's kind (u8, 0 for loops), its subject machine's text (u32 length,
# then UTF-8) and its input (u32).

_PM_LOOPS = 0
STEP_TAGS = wire.STEP_TAGS | {wire.OMEGA_STEP_TAG}  # what a proof starts with


def _encode_step(s, out: bytearray, spans: dict | None = None) -> None:
    if not isinstance(s, OmegaStep):
        return wire.encode_step(s, out, spans=spans)
    if not isinstance(s.premise_machine, LoopsPremiseMachine):
        raise ValueError("only the loops premise machine has a wire representation")
    out.append(wire.OMEGA_STEP_TAG)
    gamma = sorted(wire.encode_formula(g, bytearray(), spans) for g in s.gamma)
    out += len(gamma).to_bytes(2, "big") + b"".join(gamma)
    wire.put_field(out, "v", s.var)
    wire.put_field(out, "f", s.phi, spans)
    text = machine_to_text(s.premise_machine.machine).encode("utf-8")
    out.append(_PM_LOOPS)
    out += len(text).to_bytes(4, "big")
    out += text
    out += s.premise_machine.input_n.to_bytes(4, "big")


def _decode_step(r: wire.Reader):
    if r.data[r.pos] != wire.OMEGA_STEP_TAG:
        return wire.decode_step(r)
    r.pos += 1
    gamma = []
    previous = b""
    for _ in range(r.u16()):
        start = r.pos
        gamma.append(r.field("f"))
        if r.data[start : r.pos] <= previous:
            raise wire.MalformedEncoding("gamma is not in increasing order")
        previous = r.data[start : r.pos]
    var = r.field("v")
    phi = r.field("f")
    kind = r.u8()
    if kind != _PM_LOOPS:
        raise wire.MalformedEncoding(f"unknown premise machine kind {kind}")
    try:
        machine = parse_machine(r.take(r.u32()).decode("utf-8"))
    except (MachineFormatError, UnicodeDecodeError) as exc:
        raise wire.MalformedEncoding(str(exc)) from exc
    premise_machine = LoopsPremiseMachine(machine, r.u32(), var, phi)
    try:
        return OmegaStep(frozenset(gamma), var, phi, premise_machine, ForAll(var, phi))
    except ValueError as exc:
        raise wire.MalformedEncoding(str(exc)) from exc


# The finitary proof codec, reading and writing omega steps as well.
serialize_omega_proof = partial(wire.serialize_proof, write_step=_encode_step)
deserialize_omega_proof = partial(wire.deserialize_proof, read_step=_decode_step)
