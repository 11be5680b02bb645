"""The benchmark calls the program by name: `perfbench/tracer.py` wraps each
of its `TARGETS`, and each workload's ops call functions through the
program's modules. A renamed or re-signed function shows up here as an
unresolved target or a failed op. The files under `perfbench/` are only read.
"""

import importlib
import importlib.util
import pkgutil
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import omegacheck

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer, workloads = load("tracer"), load("workloads")


def test_every_trace_target_is_a_callable():
    unresolved = []
    for module, attr, _span in tracer.TARGETS:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        for name in attr.split("."):
            owner = getattr(owner, name, None)
        if not callable(owner):
            unresolved.append(f"{module}.{attr}")
    assert unresolved == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_benchmark_op_passes_once(workload, tmp_path):
    # One pass from seed 1; an op labelled with a known defect may fail.
    mods = SimpleNamespace(
        **{
            info.name: importlib.import_module(f"{tracer.PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(omegacheck.__path__)
        }
    )
    [ops] = workloads.WORKLOADS[workload](mods, random.Random(1), 1, tmp_path)
    failed = []
    for op in ops:
        try:
            mismatch = op.check(op.call())
        except Exception as exc:
            mismatch = f"raised {type(exc).__name__}: {exc}"
        if mismatch is not None and op.defect is None:
            failed.append((op.label, mismatch))
    assert failed == []
