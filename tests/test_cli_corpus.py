"""Replay of the committed CLI output corpus: every call's output is unchanged.

Each line of ``cli_corpus.jsonl`` holds an argv and the sha256 of what
``cli.main`` gave for it: the exit code, stdout and stderr.  For an argparse
usage error only the exit code is hashed, since CPython may reword its usage
text between releases.  The argvs are frozen in the file: the ``cli_mix``
benchmark requests for seeds 1-5, the ``run_demo.py`` commands and edge cases,
in text and JSON.

A change that alters output on purpose rewrites the lines it changes; print a
line for an argv with ``PYTHONPATH=src python tests/test_cli_corpus.py ARGV...``.
"""
import hashlib
import io
import json
import os
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


def test_cli_output_matches_the_committed_corpus(monkeypatch):
    monkeypatch.delenv(cli.BUDGET_ENV_VAR, raising=False)
    entries = [json.loads(line) for line in CORPUS.read_text().splitlines()]
    assert len(entries) >= 1700
    changed = [entry["argv"] for entry in entries if outcome_digest(entry["argv"]) != entry["sha256"]]
    assert not changed, f"{len(changed)} of {len(entries)} calls changed output, first: {changed[:5]}"


if __name__ == "__main__":
    os.environ.pop(cli.BUDGET_ENV_VAR, None)
    print(corpus_line(sys.argv[1:]))
