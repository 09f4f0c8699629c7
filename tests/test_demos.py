"""Smoke test: the demos run to completion against the source tree.

Demo 05 (classification) takes over ten seconds; the `classify` path it
exercises is covered by the acceptance criteria.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script",
    [
        "01_markov_decomposition.py",
        "02_product_growth.py",
        "03_slow_recurrence.py",
        "04_splitting.py",
    ],
)
def test_demo_runs(script):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
