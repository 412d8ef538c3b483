"""The head-to-head comparison block that `hetmarket sweep` prints."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from hetmarket.cli import _sign_test_p, main

# stdout of the same comparison run one seed at a time through run_simulation
EXPECTED = """\
scenario1: episodes=5, seeds=3
strategy           gross_utility           net_utility          channels_won         bid_precision
greedy             0.000 +-0.000        -0.300 +-0.115         0.000 +-0.000         0.000 +-0.000
llm                0.000 +-0.000        -0.200 +-0.100         0.000 +-0.000         0.000 +-0.000
myopic             0.378 +-0.021        -0.110 +-0.021         0.702 +-0.175         0.127 +-0.009
agent vs greedy on bid_precision: won 0, lost 0, tied 3 of 3 seeds, sign test p=1.0000
agent vs greedy on channels_won: won 0, lost 0, tied 3 of 3 seeds, sign test p=1.0000
agent vs myopic on bid_precision: won 0, lost 3, tied 0 of 3 seeds, sign test p=1.0000
agent vs myopic on channels_won: won 0, lost 3, tied 0 of 3 seeds, sign test p=1.0000
"""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_output_does_not_depend_on_jobs(tmp_path, capsys, jobs):
    out = tmp_path / "out"
    code = main(["sweep", "--preset", "scenario1", "--offline", "--horizons", "5",
                 "--seeds", "3", "--jobs", jobs, "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == EXPECTED + f"wrote {out / 'sweep.csv'} (3 rows)\n"


def test_tied_and_valueless_seeds_are_not_losses(tmp_path, capsys):
    # every seed ties on channels won; on bid precision 8 of the 12 seeds
    # have no value on one side, and the other 4 tie
    code = main(["sweep", "--preset", "scenario1", "--offline", "--horizons", "5",
                 "--seeds", "12", "--out", str(tmp_path / "out")])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("agent vs greedy")] == [
        "agent vs greedy on bid_precision: won 0, lost 0, tied 4 of 4 seeds, sign test p=1.0000",
        "agent vs greedy on channels_won: won 0, lost 0, tied 12 of 12 seeds, sign test p=1.0000",
    ]


@pytest.mark.parametrize("trials", [20, 1023, 1024, 1100])
def test_sign_test_is_correctly_rounded_at_any_size(trials):
    for successes in (0, 1, trials // 2, trials - 1, trials):
        total = sum(math.comb(trials, k) for k in range(successes, trials + 1))
        assert _sign_test_p(successes, trials) == float(Fraction(total, 2**trials))


def test_sweep_of_more_than_1023_seeds(tmp_path):
    # 2.0 ** 1024 overflows a float
    code = main(["sweep", "--preset", "scenario1", "--offline", "--horizons", "1",
                 "--seeds", "1030", "--out", str(tmp_path / "out")])
    assert code == 0
