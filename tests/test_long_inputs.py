"""Long inputs get a documented exit code from the command line.

Each case runs `python -m omegacheck.cli` in a child process whose address
space is capped at 300 MB, so a layer that put the whole input on a tape, or
kept a copy of it per configuration, would fail with a `MemoryError`
traceback and exit 1.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import omegacheck
from omegacheck.machines import ALWAYS_YES, EVEN, LOOP, MachineDesc, machine_to_text

resource = pytest.importorskip("resource")

ADDRESS_SPACE = 300 * 2**20


def _cap_address_space():
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    soft = ADDRESS_SPACE if hard == resource.RLIM_INFINITY else min(hard, ADDRESS_SPACE)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize(
    "argv, code, stderr",
    [
        (("encode", "even.tm", "10000000", "q1"), 5, "encoding failed:"),
        (("hsearch", "even.tm", "10000000"), 5, "encoding failed:"),
        (("omega-check", "loop.tm", "20000", "--k", "3"), 5, "encoding failed:"),
        (("hsearch", "always_yes.tm", "100000000"), 5, "encoding overflow:"),
        (("omega-check", "loop.tm", "2000", "--k", "3"), 0, ""),
        # A loops certificate writes its input as a u32.
        (("hsearch", "stuck.tm", str(2**32), "--k", "3"), 5, "encoding overflow:"),
        (("hsearch", "stuck.tm", str(2**32 - 1), "--k", "3"), 0, ""),
        # The writer adds a tape cell at every step, so the run analysis
        # keeps configurations for its repeat test only up to its cell
        # horizon, and gives up at its step horizon.
        (("encode", "writer.tm", "0", "q1"), 5, "encoding failed:"),
        (("hsearch", "writer.tm", "0"), 5, "encoding failed:"),
        (("omega-check", "writer.tm", "0", "--k", "3"), 5, "encoding failed:"),
    ],
)
def test_a_long_input_exits_with_a_documented_code(tmp_path, argv, code, stderr):
    stuck = MachineDesc((), "q", "Y", "N")  # no transitions
    rules = (("q", "_", "q", "1", "L"), ("q", "1", "q", "1", "L"))
    writer = MachineDesc(rules, "q", "Y", "N")  # writes a 1 and moves left, forever
    for name, m in (
        ("even", EVEN),
        ("loop", LOOP),
        ("always_yes", ALWAYS_YES),
        ("stuck", stuck),
        ("writer", writer),
    ):
        (tmp_path / f"{name}.tm").write_text(machine_to_text(m))
    env = dict(os.environ, PYTHONPATH=str(Path(omegacheck.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "omegacheck.cli", *argv],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=_cap_address_space,
    )
    assert done.returncode == code, done.stderr
    assert done.stderr.startswith(stderr), done.stderr
    assert "Traceback" not in done.stderr, done.stderr
