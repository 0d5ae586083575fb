"""The quick demos run end to end (demo_model_comparison.py takes ~20 s and is run by hand)."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name, expect",
    [
        ("demo_filter_smooth.py", ["UE smoothed corr(1,2)", "BB smoothed corr(1,2)"]),
        ("demo_grid_search.py", ["recovered = ", "loglik at argmax"]),
    ],
)
def test_demo_runs(name, expect, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert all(line in out for line in expect)
