"""Exact counts of passenger-to-wagon assignments by number of occupied wagons.

The closed form counts assignments of p passengers to n wagons that occupy
exactly r wagons as C(n,r) times the inclusion-exclusion surjection count

    sum_{i=0}^{r} (-1)^i C(r,i) (r-i)^p

with the 0^0 = 1 convention so that degenerate parameters (p = 0 or r = 0)
stay well defined.  ``brute_force_occupancy`` is the independent oracle: it
enumerates all n^p assignments and counts image sizes directly, priced by
``oracle_cost`` against its budget.  It splits the passengers into a head of p // 2,
whose n^(p//2) image masks it tabulates, and a tail it loops over.  For
each tail one ``operator.countOf`` pipeline ORs the tail mask into every
head mask, takes each bit count and counts those equal to r, so every
assignment's mask and comparison run in C at a memory cost of n^(p//2)
masks.
"""
from __future__ import annotations

import itertools
import operator
from decimal import MAX_EMAX, Context, Decimal, localcontext

from .errors import DEFAULT_BUDGET, InputError, check_budget
from .exact import alternating_binomials, binomial, product_cost, row_cost


class OccupancyParams:
    """n wagons, p passengers, and the target count r of occupied wagons."""

    __slots__ = ("wagons", "passengers", "occupied")

    def __init__(self, wagons: int, passengers: int, occupied: int) -> None:
        if wagons < 0 or passengers < 0 or occupied < 0:
            raise InputError("wagons, passengers, and occupied must be >= 0")
        if occupied > wagons:
            raise InputError(f"occupied ({occupied}) must not exceed wagons ({wagons})")
        self.wagons, self.passengers, self.occupied = wagons, passengers, occupied


def surjection_count(onto: int, domain: int) -> int:
    """Number of surjections from a ``domain``-set onto an ``onto``-set."""
    if onto < 0 or domain < 0:
        raise InputError("set sizes must be >= 0")
    return sum(w * (onto - i) ** domain for i, w in enumerate(alternating_binomials(onto)))


def power_sum_cost(n: int, p: int) -> int:
    """Budget units for the sum of C(n,k) k^p: the row, then n powers of p*log2(k) bits, on average about
    p*log2(n)*7/8, each squared up at half a product per step and times a binomial."""
    bits = p * max(n.bit_length() - 1, 0) * 7 // 8
    return row_cost(n) + n * (product_cost(bits // 2, bits // 2) // 2 + product_cost(bits, n))


def closed_form_cost(params: OccupancyParams) -> int:
    """Budget units for ``exact_occupancy_count``: C(n,r), of r factors of log2(n) bits, and the surjection sum."""
    bits = params.occupied * params.wagons.bit_length()
    return product_cost(bits, bits // 2) + power_sum_cost(params.occupied, params.passengers)


def exact_occupancy_count(params: OccupancyParams) -> int:
    """Assignments of p passengers to n wagons occupying exactly r wagons."""
    return binomial(params.wagons, params.occupied) * surjection_count(
        params.occupied, params.passengers
    )


def oracle_cost(params: OccupancyParams) -> int | Decimal:
    """Budget units for ``brute_force_occupancy``: n^p assignments, each once per 1024 bits of its mask
    (OR-ing and counting 1024 bits costs about a loop step), or 8 per tail for its pipeline where that is more,
    and p for its loops.  Past 2^64 assignments n^p keeps Decimal's 28 digits (Infinity past its exponent range)."""
    n, p = params.wagons, params.passengers
    width = -(-n // 1024) if p else 1
    if p * (n.bit_length() - 1) > 64:
        with localcontext(Context(Emax=MAX_EMAX, traps=[])):
            return Decimal(n) ** p * width + p
    return max(n**p * width, 8 * n ** (p - p // 2)) + p


def brute_force_occupancy(params: OccupancyParams, budget: int = DEFAULT_BUDGET) -> int:
    """The same count by exhaustive enumeration of all n^p assignments.

    The first p // 2 passengers form a head table of n^(p//2) image masks,
    one per head assignment.  For each assignment of the other passengers,
    a lazy map ORs the tail's mask (``itertools.repeat``) into every head
    mask and takes each bit count, and ``operator.countOf`` counts those
    equal to r.  Every assignment gets its
    own mask, bit count and comparison, nothing is merged or cached, and
    the extra memory is n^(p//2) masks (one entry when p = 1): no list is
    built per tail.

    Raises BudgetExceededError when ``oracle_cost`` exceeds ``budget``;
    callers record the oracle as unavailable in that case.
    """
    n, p, r = params.wagons, params.passengers, params.occupied
    check_budget(oracle_cost(params), budget, f"enumerating {n}^{p} assignments")
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
