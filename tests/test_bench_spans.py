"""The benchmark's tracer wraps loopwave functions by name; check that every
name it lists still resolves, so that a refactor cannot silently break
``bench/run.py --trace 1``.  The bench file is read, not imported or run."""

import ast
import importlib
from pathlib import Path

import pytest

SPANS_FILE = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans() -> list[tuple[str, str, str]]:
    tree = ast.parse(SPANS_FILE.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no SPANS list")


@pytest.mark.skipif(not SPANS_FILE.is_file(), reason="no bench/ directory beside the tests")
def test_every_traced_name_resolves():
    spans = _spans()
    assert spans
    for module_name, attr, _ in spans:
        module = importlib.import_module("loopwave." + module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            # The tracer patches methods on the class itself, so they must be
            # defined there, not inherited.
            assert method in vars(getattr(module, cls_name)), f"{module_name}.{attr}"
        else:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
