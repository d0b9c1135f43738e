#!/usr/bin/env python3
"""Seeded large-scale verification campaign over every identity family.

Runs the symbolic sweeps, the dual-path cross-check, the occupancy oracle
grid, and the modular-route agreement at configurable bounds, then prints
one summary line per family on stdout and its wall time on stderr.  Exits 1
if anything fails.  The integer options go through the ``tepperlab`` CLI's
converters, so a malformed or out-of-range value exits 2; so does a bound
that leaves a block with nothing to check (``--trials 0``, ``--prime-bound 1``).

Usage: python scripts/verification_campaign.py [--max-degree 12] [--max-step 8]
       [--trials 10] [--seed 0] [--prime-bound 200] [--occupancy-bound 6]
"""
import argparse
import random
import sys
import time

from tepperlab import (
    DifferenceParams,
    OccupancyParams,
    alternating_sum_symbolic,
    identities,
    iterated_difference,
    numtheory,
    sweep_conjecture,
)
from tepperlab.cli import _integer, _nonnegative, _positive


def _at_least_two(text: str) -> int:
    return _integer(text, 2)


def banner(label: str, passed: int, total: int, elapsed: float) -> bool:
    # Timings go to stderr so that stdout is identical for identical configurations.
    ok = passed == total
    print(f"{'PASS' if ok else 'FAIL'} {label}: {passed}/{total}")
    print(f"{label}: {elapsed:.2f}s", file=sys.stderr)
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-degree", type=_nonnegative, default=12)
    parser.add_argument("--max-step", type=_positive, default=8)
    parser.add_argument("--trials", type=_positive, default=10)
    parser.add_argument("--seed", type=_integer, default=0)
    parser.add_argument("--prime-bound", type=_at_least_two, default=200)
    parser.add_argument("--occupancy-bound", type=_nonnegative, default=6)
    args = parser.parse_args()

    all_ok = True

    start = time.perf_counter()
    reports = sweep_conjecture(args.max_degree, args.max_step, args.trials, args.seed)
    all_ok &= banner(
        "step-l sweep", sum(r.passed for r in reports), len(reports), time.perf_counter() - start
    )

    rng = random.Random(args.seed)
    start = time.perf_counter()
    agreements = 0
    instances = 1000
    for _ in range(instances):
        p = identities.random_polynomial(rng, rng.randint(0, args.max_degree))
        params = DifferenceParams(order=rng.randint(0, args.max_degree), step=rng.randint(1, args.max_step))
        agreements += iterated_difference(p, params) == alternating_sum_symbolic(p, params)
    all_ok &= banner("dual-path agreement", agreements, instances, time.perf_counter() - start)

    start = time.perf_counter()
    agree = total = 0
    bound = args.occupancy_bound
    for n in range(bound + 1):
        for p in range(bound + 1):
            for r in range(n + 1):
                total += 1
                agree += identities.verify_occupancy(OccupancyParams(n, p, r), with_oracle=True).passed
    all_ok &= banner("occupancy oracle grid", agree, total, time.perf_counter() - start)

    start = time.perf_counter()
    primes = [p for p in range(2, args.prime_bound + 1) if numtheory.is_prime_trial(p)]
    routes_ok = sum(all(numtheory.wilson_route(r)(p).passed for r in numtheory.WILSON_ROUTES) for p in primes)
    all_ok &= banner("modular route agreement", routes_ok, len(primes), time.perf_counter() - start)

    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
