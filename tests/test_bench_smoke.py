"""One round of each benchmark workload, run as the benchmark runs it: in a
fresh interpreter from the root of the checkout.  Every job's output is
checked by the benchmark's own numpy checks, so a wrong answer from the
package fails here as well as in a timed run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["loop-sweep", "representations", "cli-files"])
def test_one_round_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0"],
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
