"""The CI workflow runs its checks through pytest: no step runs Python
from a heredoc but the one that reads tier-1's JUnit report, and each scale
step selects a test of tests/test_at_scale.py that exists, so renaming a
test cannot silently drop it from CI."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text("utf-8")


def steps() -> dict[str, str]:
    """Each step's name and text."""
    parts = re.split(r"^ +- name: (.*)$", WORKFLOW, flags=re.MULTILINE)
    return dict(zip(parts[1::2], parts[2::2]))


def test_no_heredoc_python_but_the_junit_gate():
    with_heredocs = [name for name, text in steps().items() if "<<" in text]
    assert with_heredocs == ["fail on any failure or error other than C2"]


def test_every_scale_step_selects_one_test_that_exists():
    module = ast.parse((ROOT / "tests" / "test_at_scale.py").read_text("utf-8"))
    tests = [node.name for node in module.body
             if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")]
    selected = re.findall(r"-m scale -k (\S+)", WORKFLOW)
    for name in selected:
        assert [test for test in tests if name in test] == [name]
    assert sorted(set(selected)) == sorted(tests)
