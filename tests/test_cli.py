from pathlib import Path

import pytest

from omegacheck.arithmetize import halts_no_formula, halts_yes_formula, loops_formula
from omegacheck.cli import main, parse_proof_text, proof_to_text
from omegacheck.kernel import (
    ProofStep,
    RULE_EVAL_TRUE,
    RULE_LOGIC,
    RULE_MP,
    check_proof,
    make_proof,
)
from omegacheck.omega import OmegaProof, build_loops_certificate, serialize_omega_proof
from omegacheck.machines import (
    ALWAYS_YES,
    CORPUS,
    EVEN,
    LOOP,
    MachineDesc,
    machine_to_text,
)
from omegacheck.syntax import (
    Exists,
    ForAll,
    Var,
    eval_bounded,
    is_delta0,
    parse_formula,
    print_formula,
)
from omegacheck.wire import serialize_proof


@pytest.fixture
def machine_files(tmp_path):
    paths = {}
    for name, m in (("ay", ALWAYS_YES), ("loop", LOOP), ("even", EVEN)):
        p = tmp_path / f"{name}.tm"
        p.write_text(machine_to_text(m))
        paths[name] = str(p)
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_accepts_valid_text_proof(tmp_path, capsys):
    proof = tmp_path / "p.proof"
    proof.write_text("1. 0 = 0 BY eval\n")
    code, out, _ = run_cli(capsys, "check", str(proof), "--target", "0 = 0")
    assert code == 0
    assert "verdict: accepted" in out


def test_check_rejects_wrong_target(tmp_path, capsys):
    proof = tmp_path / "p.proof"
    proof.write_text("1. 0 = 0 BY eval\n")
    code, out, _ = run_cli(capsys, "check", str(proof), "--target", "0 <= 0")
    assert code == 2
    assert "target-mismatch" in out


def test_check_parse_error_exit(tmp_path, capsys):
    proof = tmp_path / "p.proof"
    proof.write_text("not a proof\n")
    code, _, err = run_cli(capsys, "check", str(proof), "--target", "0 = 0")
    assert code == 4
    assert err


def test_check_binary_and_gamma(tmp_path, capsys):
    a = parse_formula("0 = 0")
    impl = parse_formula("0 = 0 -> 0 <= 0")
    proof = make_proof(
        [
            ProofStep(a, "premise"),
            ProofStep(impl, "premise"),
            ProofStep(parse_formula("0 <= 0"), RULE_MP, premises=(1, 0)),
        ]
    )
    path = tmp_path / "p.opb"
    path.write_bytes(serialize_proof(proof))
    gamma = tmp_path / "gamma.txt"
    gamma.write_text("0 = 0\n0 = 0 -> 0 <= 0\n")
    code, out, _ = run_cli(
        capsys,
        "check",
        str(path),
        "--target",
        "0 <= 0",
        "--gamma",
        str(gamma),
    )
    assert code == 0


def test_omega_proof_check_reports_conditional(machine_files, tmp_path, capsys):
    out_path = tmp_path / "loop.oob"
    code, out, _ = run_cli(
        capsys,
        "hsearch",
        machine_files["loop"],
        "0",
        "--out",
        str(out_path),
    )
    assert code == 0
    code, q3, _ = run_cli(capsys, "encode", machine_files["loop"], "0", "q3")
    assert code == 0
    code, out, _ = run_cli(
        capsys,
        "check",
        str(out_path),
        "--target",
        q3.strip(),
        "--k",
        "25",
    )
    assert code == 0
    assert "conditional on k=25" in out


def test_check_mixed_proof_reports_detail(tmp_path, capsys):
    cert = build_loops_certificate(LOOP, 0)
    bad = ProofStep(parse_formula("0 = 0"), RULE_MP, premises=(0, 0))
    path = tmp_path / "mixed.oob"
    path.write_bytes(serialize_omega_proof(OmegaProof((cert, bad), bad.conclusion)))
    code, out, _ = run_cli(
        capsys,
        "check",
        str(path),
        "--target",
        "0 = 0",
        "--k",
        "3",
        "--format",
        "records",
    )
    assert code == 2
    assert out.splitlines()[-4:] == [
        "verdict=rejected",
        "step=2",
        "reason=rule-mismatch",
        "detail=first premise is not an implication",
    ]


def test_check_reports_exhausted_instance(tmp_path, capsys):
    cert = build_loops_certificate(LOOP, 0)
    path = tmp_path / "loop.oob"
    path.write_bytes(serialize_omega_proof(OmegaProof((cert,), cert.conclusion)))
    code, out, _ = run_cli(
        capsys,
        "check",
        str(path),
        "--target",
        print_formula(cert.conclusion),
        "--k",
        "25",
        "--instance-budget",
        "3",
        "--format",
        "records",
    )
    assert code == 3
    # instance 3 needs three simulated steps plus one to emit its proof
    assert out.splitlines()[-3:] == ["verdict=budget-exhausted", "step=1", "instance=3"]


def test_encode_records_format(machine_files, capsys):
    code, text, _ = run_cli(capsys, "encode", machine_files["loop"], "0", "q3")
    assert code == 0
    code, records, _ = run_cli(
        capsys, "encode", machine_files["loop"], "0", "q3", "--format", "records"
    )
    assert code == 0
    assert records == f"formula={text}"


def test_encode_q1_reparses(machine_files, capsys):
    code, out, _ = run_cli(capsys, "encode", machine_files["ay"], "0", "q1")
    assert code == 0
    f = parse_formula(out.strip())
    assert isinstance(f, Exists)
    assert is_delta0(f.body)


def test_encode_q3_is_pi1(machine_files, capsys):
    code, out, _ = run_cli(capsys, "encode", machine_files["loop"], "0", "q3")
    assert code == 0
    f = parse_formula(out.strip())
    assert isinstance(f, ForAll)
    assert is_delta0(f.body)


@pytest.mark.parametrize("name", CORPUS)
def test_encode_prints_the_librarys_statements(tmp_path, capsys, name):
    m, path = CORPUS[name], tmp_path / "m.tm"
    path.write_text(machine_to_text(m))
    statements = {"q1": halts_yes_formula, "q2": halts_no_formula, "q3": loops_formula}
    for n in (0, 2):
        for which, statement in statements.items():
            argv = ["encode", str(path), str(n), which, "--format", "records"]
            expected = f"formula={print_formula(statement(m, n))}\n"
            assert run_cli(capsys, *argv) == (0, expected, ""), (which, n)


def test_encode_the_other_outcome_past_the_coding_limit(machine_files, capsys):
    # EVEN on 201 halts no at step 203, past the 128-step coding limit.
    even = machine_files["even"]
    assert run_cli(capsys, "encode", even, "201", "q1") == (0, "exists t. S(t) <= t\n", "")
    code, _, err = run_cli(capsys, "encode", even, "201", "q2")
    assert code == 5 and "overflow" in err


def test_encode_haltedby_true_by_simulator(machine_files, capsys):
    code, out, _ = run_cli(
        capsys,
        "encode",
        machine_files["even"],
        "4",
        "haltedby",
        "--t",
        "100",
        "--outcome",
        "yes",
    )
    assert code == 0
    f = parse_formula(out.strip())
    assert is_delta0(f)
    assert eval_bounded(f) is True


def test_encode_overflow_exit(machine_files, capsys):
    code, _, err = run_cli(
        capsys,
        "encode",
        machine_files["loop"],
        "0",
        "haltedby",
        "--t",
        "4000",
        "--outcome",
        "yes",
    )
    assert code == 5
    assert "overflow" in err


def test_encode_machine_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.tm"
    bad.write_text("nonsense\n")
    code, _, err = run_cli(capsys, "encode", str(bad), "0", "q1")
    assert code == 4


def test_simulate_exit_codes(machine_files, capsys):
    code, out, _ = run_cli(
        capsys, "simulate", machine_files["loop"], "0", "--budget", "100"
    )
    assert code == 3
    assert "timeout" in out
    code, out, _ = run_cli(capsys, "simulate", machine_files["ay"], "0")
    assert code == 0
    code, out, _ = run_cli(capsys, "simulate", machine_files["even"], "3")
    assert code == 2


def test_simulate_budget_past_the_largest_index(machine_files, tmp_path, capsys):
    # A budget larger than any index still simulates: a machine with no
    # transitions gets stuck and times out, and EVEN halts with no.
    stuck = tmp_path / "stuck.tm"
    stuck.write_text(machine_to_text(MachineDesc((), "q", "Y", "N")))
    budget = str(10**20)
    code, out, _ = run_cli(capsys, "simulate", str(stuck), "0", "--budget", budget)
    assert code == 3
    assert "timeout" in out
    code, _, _ = run_cli(
        capsys, "simulate", machine_files["even"], "3", "--budget", budget
    )
    assert code == 2


def test_hsearch_witness_reports_thread(machine_files, capsys):
    code, out, _ = run_cli(
        capsys, "hsearch", machine_files["ay"], "5", "--mode", "witness"
    )
    assert code == 0
    assert "outcome: halts_yes" in out
    assert "thread: 1" in out


def test_hsearch_labels_a_loops_answer_conditional(machine_files, capsys):
    # A loops answer holds up to k only, so it carries the label `check`
    # gives an accepted machine-premise proof; a halting answer has none.
    args = ("hsearch", machine_files["loop"], "0", "--k", "5", "--format", "records")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    lines = out.splitlines()
    assert "outcome=loops" in lines and "conditional=conditional on k=5" in lines
    code, out, _ = run_cli(capsys, "hsearch", machine_files["even"], "7", "--k", "5")
    assert code == 0
    assert "outcome: halts_no" in out and "conditional" not in out


def test_hsearch_out_in_a_missing_directory_exits_4(machine_files, tmp_path, capsys):
    target = tmp_path / "nodir" / "x.bin"
    code, out, err = run_cli(
        capsys, "hsearch", machine_files["ay"], "0", "--out", str(target)
    )
    assert code == 4
    assert err.startswith("--out: ") and "x.bin" in err
    assert out == "" and not target.exists()


def test_hsearch_budget_exhausted_exit(machine_files, capsys):
    code, out, _ = run_cli(
        capsys,
        "hsearch",
        machine_files["loop"],
        "0",
        "--mode",
        "pure",
        "--budget-steps",
        "200",
        "--budget-candidates",
        "30",
    )
    assert code == 3
    assert "budget_exhausted" in out


def test_omega_check_exit_codes(machine_files, capsys):
    code, out, _ = run_cli(
        capsys, "omega-check", machine_files["loop"], "0", "--k", "50"
    )
    assert code == 0
    assert "accepted_up_to" in out
    code, out, _ = run_cli(capsys, "omega-check", machine_files["ay"], "0")
    assert code == 2


def test_records_format_is_stable(machine_files, capsys):
    args = (
        "omega-check",
        machine_files["loop"],
        "0",
        "--k",
        "10",
        "--format",
        "records",
    )
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second
    assert "verdict=accepted_up_to" in first[1]


def test_proof_text_roundtrip():
    a = parse_formula("0 = 0")
    b = parse_formula("0 <= S(0)")
    proof = make_proof(
        [
            ProofStep(a, RULE_EVAL_TRUE),
            ProofStep(b, RULE_EVAL_TRUE),
            ProofStep(
                parse_formula("0 = 0 -> 0 <= S(0) -> 0 = 0 & 0 <= S(0)"),
                RULE_LOGIC,
                payload=("and-intro", (a, b)),
            ),
            ProofStep(
                parse_formula("0 <= S(0) -> 0 = 0 & 0 <= S(0)"),
                RULE_MP,
                premises=(2, 0),
            ),
            ProofStep(parse_formula("0 = 0 & 0 <= S(0)"), RULE_MP, premises=(3, 1)),
        ]
    )
    text = proof_to_text(proof)
    back = parse_proof_text(text)
    assert back == proof
    assert check_proof(frozenset(), back, proof.target).accepted


def test_env_var_overrides_default_k(machine_files, capsys, monkeypatch):
    monkeypatch.setenv("OMEGACHECK_K", "7")
    code, out, _ = run_cli(
        capsys, "omega-check", machine_files["loop"], "0", "--format", "records"
    )
    assert code == 0
    assert "k=7" in out and "bound=7" in out


def test_negative_budget_is_a_usage_error(machine_files, capsys):
    code, _, err = run_cli(
        capsys, "simulate", machine_files["loop"], "0", "--budget", "0"
    )
    assert code == 4
    assert "positive" in err


def test_unbound_target_variables_warned(tmp_path, capsys):
    proof = tmp_path / "p.proof"
    proof.write_text("1. 0 = 0 BY eval\n")
    code, _, err = run_cli(capsys, "check", str(proof), "--target", "x = x")
    assert code == 2
    assert "unbound" in err


# `check` loads the proof before it reads the target, but reports as if it did
# not: a target error first, and the unbound-variable warning before the
# proof's error or report.


@pytest.mark.parametrize(
    "gamma, target, first",
    [
        ("missing", "0 = ?", "gamma"),
        (None, "0 = ?", "target"),
        ("readable", "0 = 0", "proof"),
    ],
    ids=["gamma", "target", "proof"],
)
def test_check_reports_its_first_input_error(tmp_path, capsys, gamma, target, first):
    # The order is --gamma file, target, proof file; the proof file is missing.
    files = {name: tmp_path / f"{name}.txt" for name in ("gamma", "proof")}
    if gamma == "readable":
        files["gamma"].write_text("0 = 0\n")
    argv = ["check", str(files["proof"]), "--target", target]
    if gamma is not None:
        argv += ["--gamma", str(files["gamma"])]
    errors = {
        "gamma": f"no such file: {files['gamma']}\n",
        "target": "formula: unexpected character '?' (at position 4)\n",
        "proof": f"no such file: {files['proof']}\n",
    }
    assert run_cli(capsys, *argv) == (4, "", errors[first])


def test_an_unbound_target_is_warned_of_before_the_proof_error(tmp_path, capsys):
    proof = tmp_path / "p.proof"
    proof.write_bytes(b"\xff")
    code, out, err = run_cli(capsys, "check", str(proof), "--target", "x = x")
    assert (code, out) == (4, "")
    assert err == (
        "warning: unbound variables in formula: x\n"
        "proof file: neither valid binary nor text\n"
    )


def test_a_target_that_is_the_printed_conclusion_still_warns(tmp_path, capsys):
    proof = tmp_path / "p.proof"
    proof.write_text("1. x = x BY eval\n")
    argv = ["check", str(proof), "--target", "x = x", "--format", "records"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "target=x = x" in out.splitlines()
    assert err == "warning: unbound variables in formula: x\n"


def test_a_target_that_is_the_printed_conclusion_is_not_parsed(
    tmp_path, capsys, monkeypatch
):
    proof = make_proof([ProofStep(parse_formula("S(0) = S(0)"), RULE_EVAL_TRUE)])
    path = tmp_path / "p.opb"
    path.write_bytes(serialize_proof(proof))
    parsed = []
    monkeypatch.setattr(
        "omegacheck.cli.parse_formula",
        lambda text, memo=None: parsed.append(text) or parse_formula(text, memo),
    )
    for target in ["S(0) = S(0)", " S(0) = S(0)", "S(0)  = S(0)"]:
        code, out, _ = run_cli(capsys, "check", str(path), "--target", target)
        assert code == 0
        assert "target: S(0) = S(0)" in out.splitlines()
    assert parsed == [" S(0) = S(0)", "S(0)  = S(0)"]


@pytest.mark.parametrize("unreadable", ["proof", "gamma", "machine"])
def test_a_file_that_cannot_be_read_exits_4(
    machine_files, tmp_path, capsys, monkeypatch, unreadable
):
    files = {"proof": tmp_path / "p.proof", "gamma": tmp_path / "gamma.txt"}
    files["proof"].write_text("1. 0 = 0 BY eval\n")
    files["gamma"].write_text("0 = 0\n")
    files["machine"] = Path(machine_files["loop"])
    path, read_bytes = files[unreadable], Path.read_bytes

    def refuse(self):
        if self == path:
            raise PermissionError(13, "Permission denied", str(self))
        return read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", refuse)
    check = ["check", str(files["proof"]), "--gamma", str(files["gamma"])]
    if unreadable == "machine":
        argv = ["simulate", str(path), "0"]
    else:
        argv = check + ["--target", "0 = 0"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (4, "", f"cannot read {path}: Permission denied\n")
    if unreadable == "proof":  # a bad target is still reported first
        code, out, err = run_cli(capsys, *check, "--target", "0 = ?")
        assert (code, out) == (4, "")
        assert err == "formula: unexpected character '?' (at position 4)\n"


def test_a_missing_file_is_reported_as_before(tmp_path, capsys):
    missing = tmp_path / "missing.tm"
    code, out, err = run_cli(capsys, "simulate", str(missing), "0")
    assert (code, out, err) == (4, "", f"no such file: {missing}\n")


def test_analysis_failure_reported_as_encoding_limit(tmp_path, capsys):
    walker = tmp_path / "walker.tm"
    walker.write_text(
        "start: q\nyes: Y\nno: N\nblank: _\nq _ -> q _ L\nq 1 -> q 1 L\n"
    )
    code, _, err = run_cli(capsys, "encode", str(walker), "0", "q1")
    assert code == 5
    assert "failed" in err or "overflow" in err


SELF_BOUND = "forall x <= x. 0 = 0"


@pytest.mark.parametrize("entry", ["target", "proof line", "gamma"])
def test_bound_mentioning_its_variable_is_a_parse_error(tmp_path, capsys, entry):
    proof = tmp_path / "p.proof"
    target = "0 = 0"
    argv = []
    if entry == "target":
        proof.write_text("1. 0 = 0 BY eval\n")
        target = SELF_BOUND
    elif entry == "proof line":
        proof.write_text(f"1. {SELF_BOUND} BY eval\n")
    else:
        proof.write_text("1. 0 = 0 BY eval\n")
        gamma = tmp_path / "gamma.txt"
        gamma.write_text(SELF_BOUND + "\n")
        argv = ["--gamma", str(gamma)]
    code, _, err = run_cli(capsys, "check", str(proof), "--target", target, *argv)
    assert code == 4
    assert "bound of x mentions x (at position 12)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "p.proof", "--target", "0 = 0", "--k", "abc"],
        ["simulate"],
    ],
    ids=["bad int value", "missing positional"],
)
def test_usage_errors_exit_4(capsys, argv):
    # Exit 2 means "rejected"; a mistyped command line is unparseable input.
    with pytest.raises(SystemExit) as raised:
        main(argv)
    assert raised.value.code == 4
    assert "usage:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as raised:
        main(["simulate", "--help"])
    assert raised.value.code == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text",
    [
        "# a comment line\n1. 0 = 0 BY eval\n",
        "  1. 0 = 0 BY eval\n",
    ],
    ids=["comment first", "indented first line"],
)
def test_text_proof_starting_with_a_step_tag_byte(tmp_path, capsys, text):
    # '#', ' ' and '0' are binary step tags; the file is still a text proof.
    proof = tmp_path / "p.proof"
    proof.write_text(text)
    code, out, err = run_cli(capsys, "check", str(proof), "--target", "0 = 0")
    assert (code, err) == (0, "")
    assert "verdict: accepted" in out


@pytest.mark.parametrize(
    "text, error",
    [
        ("5. 0 = 0 BY eval\n", "proof line 1: step 1 is labelled '5'"),
        ("². 0 = 0 BY eval\n", "proof line 1: step 1 is labelled '²'"),
        ("01. 0 = 0 BY eval\n", "proof line 1: step 1 is labelled '01'"),
        ("1. 0 = 0 BY eval\n\n1. 0 = 0 BY eval\n", "line 3: step 2 is labelled '1'"),
        ("0. 0 = 0 BY eval\n", "proof line 1: step 1 is labelled '0'"),
    ],
    ids=["5", "superscript", "leading zero", "repeated", "first step numbered 0"],
)
def test_step_label_must_be_its_position(tmp_path, capsys, text, error):
    # `mp p p` and the like name steps by position, so a label that is not
    # the position would mislead. A file starting with '0' is tried as
    # binary first and then read as text.
    proof = tmp_path / "p.proof"
    proof.write_text(text)
    code, out, err = run_cli(capsys, "check", str(proof), "--target", "0 = 0")
    assert (code, out) == (4, "")
    assert err.endswith(f"{error}\n")


def test_a_variable_named_BY_reads_back():
    # The step splits at the ` BY ` before `logic`, not at the last one.
    scheme = ("exists-intro", ("x", parse_formula("x = BY"), Var("BY")))
    conclusion = parse_formula("BY = BY -> exists x. x = BY")
    proof = make_proof([ProofStep(conclusion, RULE_LOGIC, (), scheme)])
    text = proof_to_text(proof)
    assert text == (
        "1. BY = BY -> exists x. x = BY BY logic exists-intro ; x ; x = BY ; BY\n"
    )
    assert parse_proof_text(text) == proof


def check_error(tmp_path, capsys, data: bytes):
    proof = tmp_path / "p.proof"
    proof.write_bytes(data)
    code, _, err = run_cli(capsys, "check", str(proof), "--target", "0 = 0")
    assert code == 4
    return err


def test_unreadable_file_reports_both_readings(tmp_path, capsys):
    # Neither reading works, and the file starts with a step tag ('#').
    err = check_error(tmp_path, capsys, b"# a comment line\nnot a proof\n")
    assert err == (
        "proof file: as binary: unexpected end of input;"
        " as text: proof line 2: expected `k. ...`\n"
    )


def test_unreadable_file_points_at_the_bad_line(tmp_path, capsys):
    err = check_error(tmp_path, capsys, b"# c\n1. 0 = 0 BY eval\n2. 0 = 0 BY mp 1 x\n")
    assert err == (
        "proof file: as binary: bad name 'c\\n1. 0 = 0 BY eval\\n2. 0 = 0 BY m';"
        " as text: proof line 3: bad number 'x'\n"
    )


def test_unreadable_file_that_is_not_text(tmp_path, capsys):
    err = check_error(tmp_path, capsys, b"#\xff")
    assert err.startswith("proof file: as binary: ")
    assert err.endswith("; as text: not UTF-8\n")
    err = check_error(tmp_path, capsys, b"\xff")
    assert err == "proof file: neither valid binary nor text\n"


@pytest.mark.parametrize(
    "spec,message",
    [
        ("axiom 0 ; this is ignored", "cannot read rule specification"),
        ("gen x 1 ; 2", "cannot read rule specification"),
        ("mp 1 2 ; 3", "cannot read rule specification"),
        ("gen 1x 1", "bad name '1x'"),
        ("induction forall ; 0 = 0", "bad name 'forall'"),
    ],
)
def test_rule_text_is_read_as_strictly_as_binary(tmp_path, capsys, spec, message):
    proof = tmp_path / "p.proof"
    proof.write_text(f"1. forall x. ~S(x) = 0 BY {spec}\n")
    code, _, err = run_cli(
        capsys, "check", str(proof), "--target", "forall x. ~S(x) = 0"
    )
    assert code == 4
    assert message in err


@pytest.mark.parametrize(
    "spec",
    ["axiom +0_0", "axiom 00", "axiom ٠", "mp 1_0 1", "mp 1 ١"],
)
def test_numbers_in_proof_text_have_one_spelling(tmp_path, capsys, spec):
    # Only 0 and [1-9][0-9]* in ASCII: what is read prints back the same.
    proof = tmp_path / "p.proof"
    proof.write_text(f"1. forall x. ~S(x) = 0 BY {spec}\n", encoding="utf-8")
    code, _, err = run_cli(
        capsys, "check", str(proof), "--target", "forall x. ~S(x) = 0"
    )
    assert code == 4
    assert "bad number" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "{loop}", "-1"],
        ["encode", "{loop}", "-1", "q3"],
        ["omega-check", "{loop}", "-1"],
        ["hsearch", "{loop}", "-1"],
    ],
    ids=["simulate", "encode", "omega-check", "hsearch"],
)
def test_negative_input_is_a_usage_error(machine_files, capsys, argv):
    argv = [a.format(loop=machine_files["loop"]) for a in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == 4
    assert "n must be a natural number" in err


def test_negative_haltedby_step_bound_is_a_usage_error(machine_files, capsys):
    argv = ["encode", machine_files["loop"], "0", "haltedby", "--t", "-1"]
    code, _, err = run_cli(capsys, *argv, "--outcome", "yes")
    assert code == 4
    assert "--t must be a natural number" in err


@pytest.mark.parametrize(
    "argv, first",
    [
        (
            ["hsearch", "{loop}", "0", "--budget-steps", "0", "--budget-candidates",
             "0", "--k", "-1", "--instance-budget", "0"],
            "--budget-steps must be positive",
        ),
        (
            ["hsearch", "{loop}", "-1", "--budget-candidates", "0", "--k", "-1"],
            "n must be a natural number",
        ),
        (
            ["hsearch", "{loop}", "0", "--budget-candidates", "0", "--k", "-1"],
            "--budget-candidates must be positive",
        ),
        (
            ["omega-check", "{loop}", "-1", "--k", "-1", "--instance-budget", "0"],
            "n must be a natural number",
        ),
        (
            ["omega-check", "{loop}", "0", "--k", "-1", "--instance-budget", "0"],
            "--k must be a natural number",
        ),
        (
            ["simulate", "{loop}", "-1", "--budget", "0"],
            "n must be a natural number",
        ),
        (
            ["check", "{missing}", "--target", "0 = 0", "--k", "-1",
             "--instance-budget", "0"],
            "--k must be a natural number",
        ),
        (
            ["check", "{missing}", "--target", "0 = 0", "--instance-budget", "0"],
            "--instance-budget must be positive",
        ),
    ],
)
def test_the_first_bad_bound_is_reported(machine_files, tmp_path, capsys, argv, first):
    # Bounds are checked before any file is read, in one order for all
    # subcommands: n, the budgets, --k, --instance-budget.
    missing = str(tmp_path / "missing.proof")
    argv = [a.format(loop=machine_files["loop"], missing=missing) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (4, "", first + "\n")


def test_a_negative_k_from_the_environment_is_a_usage_error(
    machine_files, capsys, monkeypatch
):
    monkeypatch.setenv("OMEGACHECK_K", "-3")
    code, out, err = run_cli(capsys, "omega-check", machine_files["loop"], "0")
    assert (code, out, err) == (4, "", "--k must be a natural number\n")


def test_gamma_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    proof = tmp_path / "p.txt"
    proof.write_text("1. 0 = 0 BY eval\n")
    gamma = tmp_path / "g.bin"
    gamma.write_bytes(b"0 = 0\n\xff\xfe\n")
    argv = ["check", str(proof), "--target", "0 = 0", "--gamma", str(gamma)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 4
    assert "gamma file: not UTF-8" in err


@pytest.mark.parametrize(
    "variable",
    [
        "OMEGACHECK_K",
        "OMEGACHECK_INSTANCE_BUDGET",
        "OMEGACHECK_SEARCH_STEPS",
        "OMEGACHECK_SEARCH_CANDIDATES",
    ],
)
def test_malformed_environment_value_is_refused(
    machine_files, capsys, monkeypatch, variable
):
    monkeypatch.setenv(variable, "abc")
    code, out, err = run_cli(capsys, "omega-check", machine_files["loop"], "0")
    assert (code, out) == (4, "")
    assert variable in err
