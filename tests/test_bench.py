"""The benchmark's smoke run, one round of every workload with all its checks, passes traced and untraced.

Each run works on a copy of ``bench/`` and ``src/`` under the test's own
directory, so the checkout's ``bench/_work`` is left as it is.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_passes(tmp_path, trace):
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    run = subprocess.run([sys.executable, "bench/run.py", "--smoke", "--trace", trace],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == {"smoke": "pass"}
