"""Replay of the committed CLI output corpus: every call's output is unchanged.

Each line of ``cli_corpus.jsonl`` holds an argv and the sha256 of what
``cli.main`` gave for it: the exit code, stdout and stderr.  For an argparse
usage error only the exit code is hashed, since CPython may reword its usage
text between releases.  The argvs are frozen in the file: the ``cli_mix``
benchmark requests for seeds 1-5, the ``run_demo.py`` commands (a test checks
that each keeps its lines) and edge cases, in text and JSON.

The lines of the costly inputs in ``test_cli.REFUSALS``, bare and with
``--format json``, are replayed in one child process under the same 2 GB
address-space limit (Linux) and timeout as that test: a defect that allocates
before it prices then fails in the child, not as gigabytes in pytest.

A change that alters output on purpose rewrites the lines it changes; print a
line for an argv with ``PYTHONPATH=src python tests/test_cli_corpus.py ARGV...``.
"""
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tepperlab import cli

CORPUS = Path(__file__).with_name("cli_corpus.jsonl")


def outcome_digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            outcome = [cli.main(argv), out.getvalue(), err.getvalue()]
        except SystemExit as exc:
            outcome = [exc.code]
    return hashlib.sha256(json.dumps(outcome).encode()).hexdigest()


def corpus_line(argv: list[str]) -> str:
    return json.dumps({"argv": argv, "sha256": outcome_digest(argv)})


# The child imports this module for outcome_digest, so test_cli (and pytest with it) is imported in the tests alone.
_CHILD = (
    "import json, sys; from test_cli_corpus import outcome_digest; "
    "print(json.dumps(list(map(outcome_digest, json.load(sys.stdin)))))"
)


def test_cli_output_matches_the_committed_corpus():
    from test_cli import REFUSALS, _limit_address_space

    entries = [json.loads(line) for line in CORPUS.read_text().splitlines()]
    assert len(entries) >= 1700
    costly = [argv for refused, _ in REFUSALS for argv in (refused, [*refused, "--format", "json"])]
    in_child = [entry for entry in entries if entry["argv"] in costly]
    in_process = [entry for entry in entries if entry["argv"] not in costly]
    assert len(in_child) == len(costly), "every costly input of test_cli.REFUSALS keeps its corpus lines"
    limit = _limit_address_space if sys.platform == "linux" else None
    child = subprocess.run(
        [sys.executable, "-c", _CHILD], input=json.dumps([entry["argv"] for entry in in_child]),
        cwd=CORPUS.parents[1], env=dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "tests"])),
        preexec_fn=limit, capture_output=True, text=True, timeout=10,
    )
    assert (child.returncode, child.stderr) == (0, ""), child.stderr[-2000:]
    digests = json.loads(child.stdout) + [outcome_digest(entry["argv"]) for entry in in_process]
    changed = [entry["argv"] for entry, digest in zip(in_child + in_process, digests) if digest != entry["sha256"]]
    assert not changed, f"{len(changed)} of {len(entries)} calls changed output, first: {changed[:5]}"


def test_the_corpus_pins_every_run_demo_command_in_text_and_json():
    showcase = runpy.run_path(str(CORPUS.parents[1] / "scripts" / "run_demo.py"))["SHOWCASE"]
    wanted = [argv for command in showcase for argv in (command, [*command, "--format", "json"])]
    pinned = {tuple(json.loads(line)["argv"]) for line in CORPUS.read_text().splitlines()}
    missing = [argv for argv in wanted if tuple(argv) not in pinned]
    assert not missing, f"run_demo.py commands with no corpus line: {missing}"


if __name__ == "__main__":
    print(corpus_line(sys.argv[1:]))
