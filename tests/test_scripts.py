"""Smoke tests: the demo and campaign scripts run to completion and pass."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("output_format", ["text", "json"])
def test_run_demo(output_format):
    result = run_script("scripts/run_demo.py", "--format", output_format)
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("(exit 0)") == 12


def test_verification_campaign_small():
    result = run_script(
        "scripts/verification_campaign.py",
        "--max-degree", "4",
        "--max-step", "3",
        "--trials", "2",
        "--prime-bound", "50",
        "--occupancy-bound", "4",
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 4
    assert all(line.startswith("PASS") for line in lines), result.stdout
