"""Scale measured times to a nominal machine speed.

On a shared host the same pure-Python work runs 20-40% slower for minutes at
a time, which would swamp any bound a metric could have.  A run therefore
times a fixed reference workload, which calls nothing from tepperlab, every
``INTERVAL_S`` seconds between items, and scales the times of each pass by
``nominal / median(reference times near that pass)``.  A change to tepperlab leaves the
reference alone, so it shows in full in the scaled times; a slow spell of the
host slows the reference too, and cancels out.

A slow spell does not slow every kind of code alike, so each workload has a
reference in its own mix: Fraction arithmetic, big-int sums, or argparse and
string formatting.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.5
WINDOW_S = 2.0


def fraction_work() -> Fraction:
    """Taylor shift by 3 of a fixed degree-90 rational polynomial."""
    coeffs = [Fraction((-1) ** i * (37 * i % 199 - 99), i % 9 + 1) for i in range(91)]
    for i in range(90):
        for j in range(89, i - 1, -1):
            coeffs[j] += 3 * coeffs[j + 1]
    return coeffs[0]


def bigint_work() -> int:
    """An alternating binomial power sum over int."""
    n = 700
    return sum((-1) ** k * math.comb(n, k) * k**n for k in range(n + 1))


def argparse_work() -> int:
    """Build a nine-command argparse parser, parse, and format JSON."""
    size = 0
    for trial in range(18):
        parser = argparse.ArgumentParser(prog="reference")
        sub = parser.add_subparsers(dest="command", required=True)
        for name in ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota"):
            command = sub.add_parser(name, help=f"{name} command")
            command.add_argument("--n", type=int, required=True)
            command.add_argument("--format", choices=("text", "json"), default="text")
            command.add_argument("--x", default=None)
        options = parser.parse_args(["gamma", "--n", str(trial), "--format", "json"])
        size += len(json.dumps({"command": options.command, "n": options.n, "text": f"{options.n} {options.x}"}))
    return size


# Reference name -> (function, median seconds on the machine the baseline was
# taken on: a 2-vCPU Intel Xeon KVM guest, CPython 3.11).  Scaled times read
# as seconds on that machine at its usual speed.
REFERENCES = {
    "fraction": (fraction_work, 0.021),
    "bigint": (bigint_work, 0.015),
    "argparse": (argparse_work, 0.028),
}


class Calibration:
    """Reference timings taken through one run."""

    def __init__(self, reference: str) -> None:
        self._work, self._nominal_s = REFERENCES[reference]
        self.samples: list[tuple[float, float]] = []  # (end time, duration)
        self._due = 0.0

    def sample_if_due(self) -> None:
        if time.perf_counter() < self._due:
            return
        start = time.perf_counter()
        self._work()
        end = time.perf_counter()
        self.samples.append((end, end - start))
        self._due = end + INTERVAL_S

    def factor(self, start: float, end: float) -> float:
        """Multiply a time measured between ``start`` and ``end`` by this to get
        it at nominal speed.  Uses the reference timings within WINDOW_S of
        that interval, since the host's speed changes within a run too."""
        near = [d for t, d in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return self._nominal_s / statistics.median(near or [d for _, d in self.samples])
