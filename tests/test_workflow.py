"""The CI workflow is valid YAML with no repeated key, and each of its steps
has exactly one of `run` and `uses`, a `run` step also a name."""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


class _UniqueKeyLoader(yaml.SafeLoader):
    """Refuses a mapping that repeats a key, which the safe loader reads as
    the key's last value, silently dropping the others."""

    def construct_mapping(self, node, deep=False):
        keys = [self.construct_object(key, deep=deep) for key, _ in node.value]
        repeated = {key for key in keys if keys.count(key) > 1}
        if repeated:
            raise yaml.constructor.ConstructorError(
                None, None, f"duplicate keys {repeated}", node.start_mark
            )
        return super().construct_mapping(node, deep)


def _steps(text: str) -> list[dict]:
    workflow = yaml.load(text, Loader=_UniqueKeyLoader)
    return [step for job in workflow["jobs"].values() for step in job["steps"]]


def test_every_workflow_step_runs_one_thing_under_a_name():
    steps = _steps(WORKFLOW.read_text())
    assert steps
    for step in steps:
        assert ("run" in step) != ("uses" in step), step
        assert "name" in step or "run" not in step, step


def test_a_step_with_two_run_keys_is_refused():
    text = "jobs:\n  j:\n    steps:\n      - name: a\n        run: x\n        run: y\n"
    with pytest.raises(yaml.constructor.ConstructorError, match="duplicate keys"):
        _steps(text)
