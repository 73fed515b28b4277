"""Smoke test: the narrative demos run to completion.  Demo 05 (mixture
clustering) is the slowest, at about 10 s on two cores."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import twcm

ROOT = Path(__file__).resolve().parents[1]
DEMOS = (
    "01_density_and_conditionals.py",
    "02_sampling_fidelity.py",
    "03_ifm_fitting.py",
    "04_bootstrap_uncertainty.py",
    "05_mixture_clustering.py",
    "06_circular_ar2.py",
)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    src = str(Path(twcm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
