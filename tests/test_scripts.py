"""Smoke tests: the demo, campaign and benchmark scripts run to completion and pass,
and ``python -m tepperlab.cli`` gives what ``cli.main`` gives in-process."""
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from tepperlab import cli

ROOT = Path(__file__).resolve().parents[1]


def run_script(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["tepper", "--n", "3", "--x", "5"], 0),
        (["sweep", "--max-degree", "2", "--max-step", "2", "--trials", "1", "--format", "json"], 0),
        (["wilson", "--p", "9", "--route", "naive"], 1),
        (["lemma", "--poly", "x^3", "--n", "3"], 2),
        (["frobnicate"], 2),
        (["occupancy", "--wagons", "10", "--passengers", "9", "--occupied", "5", "--oracle", "--budget", "1000"], 3),
    ],
    ids=["exit-0-text", "exit-0-json", "exit-1", "exit-2-input-error", "exit-2-usage", "exit-3-budget"],
)
def test_the_module_run_as_a_process_matches_main(monkeypatch, argv, expected):
    monkeypatch.delenv(cli.BUDGET_ENV_VAR, raising=False)  # run_script copies os.environ
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage error: its text may vary, so compare the exit code only
            code, out, err = exc.code, None, None
    process = run_script("-m", "tepperlab.cli", *argv)
    assert process.returncode == code == expected
    if out is not None:
        assert (process.stdout, process.stderr) == (out.getvalue(), err.getvalue())


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


def test_verification_campaign_stdout_is_deterministic():
    # Block timings go to stderr; stdout must be identical for one configuration.
    small = ("--max-degree", "4", "--max-step", "3", "--trials", "2", "--prime-bound", "50", "--occupancy-bound", "4")
    runs = [run_script("scripts/verification_campaign.py", *small) for _ in range(2)]
    assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    lines = runs[0].stdout.splitlines()
    assert len(lines) == 4
    assert all(re.fullmatch(r"PASS [a-z -]+: (\d+)/\1", line) for line in lines), runs[0].stdout


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--trials", "٣"], "argument --trials: '٣' is not an integer (a sign and ASCII digits)"),
        (["--seed", " 1_0 "], "argument --seed: ' 1_0 ' is not an integer (a sign and ASCII digits)"),
        (["--occupancy-bound", "-1"], "argument --occupancy-bound: must be >= 0"),
        (["--max-step", "0"], "argument --max-step: must be >= 1"),
        # A block that checks nothing would print "PASS ...: 0/0".
        (["--trials", "0"], "argument --trials: must be >= 1"),
        (["--prime-bound", "1"], "argument --prime-bound: must be >= 2"),
    ],
)
def test_verification_campaign_integer_options_use_the_cli_converters(argv, message):
    # Bare int() would read "٣" as 3, and --max-step 0 would fail in randint with a traceback.
    result = run_script("scripts/verification_campaign.py", *argv)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.endswith(f"error: {message}\n"), result.stderr


@pytest.mark.parametrize("workload", ["symbolic_highdeg", "cli_mix", "modular_counting"])
def test_benchmark_traced_run_records_every_required_layer(workload):
    # The traced run fails when a layer the workload must exercise records no
    # calls, e.g. when library code stops going through a wrapped Polynomial method.
    result = run_script(
        "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr
    assert json.loads(result.stdout.splitlines()[-1])["correct"] is True
