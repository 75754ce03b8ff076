"""One round of each benchmark workload, run as the benchmark runs it: in a
fresh interpreter from the root of the checkout.  Every job's output is
checked by the benchmark's own numpy checks, so a wrong answer from the
package fails here as well as in a timed run."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _one_round(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
    assert result["attempted"] > 0
    return result


@pytest.mark.parametrize("workload", ["loop-sweep", "representations", "cli-files"])
def test_one_round_is_correct(workload):
    _one_round(workload, 0)


@pytest.mark.parametrize("workload", ["loop-sweep", "representations", "cli-files"])
def test_traced_round_reports_every_layer(workload):
    # The tracer reads arguments of the calls it wraps (it sums verify_qmf's
    # grid_size, for one), so a program change that breaks the per-layer
    # measurement of any workload shows here.
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    result = _one_round(workload, 1)
    assert set(spans.UNITS) <= set(result["metrics"])
