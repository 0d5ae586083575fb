"""The quick demos run end to end (demo_model_comparison.py takes ~20 s and is run by hand).

Every demo's imports from the package are checked without running it,
so a renamed function cannot break the slow demo unnoticed.
"""

import ast
import importlib
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


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_demo_imports_exist(path):
    imports = [
        node
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "wishartsv"
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        missing = [alias.name for alias in node.names if not hasattr(module, alias.name)]
        assert not missing, f"{path.name}: {node.module} has no {missing}"
