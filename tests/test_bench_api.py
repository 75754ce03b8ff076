"""The benchmark's workloads and checks drive loopwave through its public
names (``lw.<name>`` after ``import loopwave as lw``); check that every such
name resolves and is exported in ``__all__``, so that a rename cannot
silently break ``bench/run.py``.  The bench files are read, not imported."""

import ast
from pathlib import Path

import pytest

import loopwave
import loopwave.cli

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
FILES = ["workloads.py", "checks.py"]


def _public_uses(path: Path) -> tuple[set[str], set[str]]:
    """Names read as attributes of the loopwave alias, and as attributes of
    ``loopwave.cli`` when the module is imported whole."""
    tree = ast.parse(path.read_text())
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "loopwave"
    }
    names, cli = set(), set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in aliases:
            names.add(node.attr)
        elif (
            isinstance(node.value, ast.Attribute)
            and node.value.attr == "cli"
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "loopwave"
        ):
            cli.add(node.attr)
    names.discard("cli")
    return names, cli


@pytest.mark.skipif(not BENCH_DIR.is_dir(), reason="no bench/ directory beside the tests")
@pytest.mark.parametrize("name", FILES)
def test_every_public_name_resolves(name):
    names, cli = _public_uses(BENCH_DIR / name)
    for attr in sorted(names):
        assert hasattr(loopwave, attr), f"bench/{name} uses lw.{attr}, which loopwave does not define"
        assert attr in loopwave.__all__, f"bench/{name} uses lw.{attr}, which is not in loopwave.__all__"
    for attr in sorted(cli):
        assert callable(getattr(loopwave.cli, attr, None)), f"bench/{name} uses loopwave.cli.{attr}"


@pytest.mark.skipif(not BENCH_DIR.is_dir(), reason="no bench/ directory beside the tests")
def test_workloads_use_the_package():
    names, cli = _public_uses(BENCH_DIR / "workloads.py")
    assert {"build_rep", "verify_cuntz", "check_intertwine", "cascade"} <= names
    assert cli == {"main"}
