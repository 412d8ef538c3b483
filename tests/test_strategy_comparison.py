"""The strategy comparison script, run as a user runs it."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# stdout of the same comparison run one seed at a time through run_simulation
EXPECTED = """\
scenario1: episodes=5, seeds=3
strategy           gross_utility           net_utility          channels_won         bid_precision
greedy             0.000 +-0.000        -0.300 +-0.115         0.000 +-0.000         0.000 +-0.000
llm                0.000 +-0.000        -0.200 +-0.100         0.000 +-0.000         0.000 +-0.000
myopic             0.378 +-0.021        -0.110 +-0.021         0.702 +-0.175         0.127 +-0.009
agent vs greedy on bid_precision: 0/3 seeds, sign test p=1.0000
agent vs greedy on channels_won: 0/3 seeds, sign test p=1.0000
agent vs myopic on bid_precision: 0/3 seeds, sign test p=1.0000
agent vs myopic on channels_won: 0/3 seeds, sign test p=1.0000
"""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_output_does_not_depend_on_jobs(jobs):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "scripts" / "strategy_comparison.py"),
            "--preset", "scenario1", "--seeds", "3", "--episodes", "5", "--jobs", jobs,
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == EXPECTED
