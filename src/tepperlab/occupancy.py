"""Exact counts of passenger-to-wagon assignments by number of occupied wagons.

The closed form counts assignments of p passengers to n wagons that occupy
exactly r wagons as C(n,r) times the inclusion-exclusion surjection count

    sum_{i=0}^{r} (-1)^i C(r,i) (r-i)^p

with the 0^0 = 1 convention so that degenerate parameters (p = 0 or r = 0)
stay well defined.  ``brute_force_occupancy`` is the independent oracle: it
enumerates all n^p assignments and counts image sizes directly, guarded by
an enumeration budget.  It splits the passengers into a head of p // 2,
whose n^(p//2) image masks it tabulates, and a tail it loops over.  For
each tail one ``operator.countOf`` pipeline ORs the tail mask into every
head mask, takes each bit count and counts those equal to r, so every
assignment's mask and comparison run in C at a memory cost of n^(p//2)
masks.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from decimal import Decimal

from .errors import BudgetExceededError, InputError
from .exact import alternating_binomials, binomial

DEFAULT_ENUMERATION_BUDGET = 10**7


@dataclass(frozen=True)
class OccupancyParams:
    """n wagons, p passengers, and the target count r of occupied wagons."""

    wagons: int
    passengers: int
    occupied: int

    def __post_init__(self) -> None:
        if self.wagons < 0 or self.passengers < 0 or self.occupied < 0:
            raise InputError("wagons, passengers, and occupied must be >= 0")
        if self.occupied > self.wagons:
            raise InputError(
                f"occupied ({self.occupied}) must not exceed wagons ({self.wagons})"
            )


def surjection_count(onto: int, domain: int) -> int:
    """Number of surjections from a ``domain``-set onto an ``onto``-set."""
    if onto < 0 or domain < 0:
        raise InputError("set sizes must be >= 0")
    return sum(w * (onto - i) ** domain for i, w in enumerate(alternating_binomials(onto)))


def exact_occupancy_count(params: OccupancyParams) -> int:
    """Assignments of p passengers to n wagons occupying exactly r wagons."""
    return binomial(params.wagons, params.occupied) * surjection_count(
        params.occupied, params.passengers
    )


def brute_force_occupancy(
    params: OccupancyParams, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> int:
    """The same count by exhaustive enumeration of all n^p assignments.

    The first p // 2 passengers form a head table of n^(p//2) image masks,
    one per head assignment.  For each assignment of the other passengers,
    a lazy map ORs the tail's mask (``itertools.repeat``) into every head
    mask and takes each bit count, and ``operator.countOf`` counts those
    equal to r.  Every assignment gets its
    own mask, bit count and comparison, nothing is merged or cached, and
    the extra memory is n^(p//2) masks (one entry when p = 1): no list is
    built per tail.

    Raises BudgetExceededError when n^p, or n^p * ceil(n/4096) for masks
    wider than 4096 bits, exceeds ``budget``; callers record the oracle as
    unavailable in that case.
    """
    n, p, r = params.wagons, params.passengers, params.occupied
    total = n**p
    if total > budget:
        raise BudgetExceededError(
            # Decimal prints n^p in full where str(int) stops at 4300 digits.
            f"enumerating {n}^{p} = {Decimal(total)} assignments exceeds the budget of {budget}"
        )
    # An assignment costs about as much as OR-ing and counting 30 words of its
    # mask, so up to 64 words (4096 wagons) the assignment is the unit, and
    # beyond that each 4096 wagons count once.  With no passengers the one
    # mask is 0.
    units = total * ((n + 4095) // 4096) if p else total
    if units > budget:
        raise BudgetExceededError(
            f"enumerating {n}^{p} = {Decimal(total)} assignments of {n}-bit masks counts "
            f"{Decimal(units)}, one per assignment per 4096 bits, which exceeds the budget of {budget}"
        )
    heads = [0]
    for _ in range(p // 2):
        heads = [mask | 1 << wagon for mask in heads for wagon in range(n)]
    count = 0
    for tail in itertools.product(range(n), repeat=p - p // 2):
        mask = 0
        for wagon in tail:
            mask |= 1 << wagon
        masks = map(operator.or_, itertools.repeat(mask, len(heads)), heads)
        count += operator.countOf(map(int.bit_count, masks), r)
    return count


def alternating_power_sum(n: int, p: int) -> int:
    """C(n,1) 1^p - C(n,2) 2^p + ... + (-1)^(n-1) C(n,n) n^p.

    Zero for every 1 <= p < n; equals (-1)^(p-1) p! when p = n.  Accepts any
    p >= 1 and returns the raw signed value without classifying it.
    """
    if p < 1:
        raise InputError("alternating_power_sum requires p >= 1")
    if n < 0:
        raise InputError("alternating_power_sum requires n >= 0")
    # The k = 0 term 0^p vanishes for p >= 1.
    return -sum(w * k**p for k, w in enumerate(alternating_binomials(n)))


def stirling2(items: int, blocks: int) -> int:
    """Stirling partition number S(items, blocks).

    Standard recurrence S(p,r) = r*S(p-1,r) + S(p-1,r-1) with S(0,0) = 1.
    Cross-check: surjection_count(r, p) == factorial(r) * stirling2(p, r).
    """
    if items < 0 or blocks < 0:
        raise InputError("stirling2 arguments must be >= 0")
    if blocks > items:
        return 0
    row = [1] + [0] * blocks
    for _ in range(items):
        for r in range(blocks, 0, -1):
            row[r] = r * row[r] + row[r - 1]
        row[0] = 0
    return row[blocks]
