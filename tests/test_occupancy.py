"""Occupancy closed form vs. enumeration oracle, power sums, Stirling link."""
import itertools
import tracemalloc

import pytest

from tepperlab import (
    BudgetExceededError,
    DifferenceParams,
    IdentityReport,
    InputError,
    OccupancyParams,
    Polynomial,
    alternating_power_sum,
    alternating_sum_numeric,
    brute_force_occupancy,
    exact_occupancy_count,
    factorial,
    stirling2,
    surjection_count,
)
from tepperlab.identities import verify_occupancy


def count_by_enumeration(n, p, r):
    """Independent in-test oracle: count images of size r over all n^p maps."""
    return sum(
        1 for a in itertools.product(range(n), repeat=p) if len(set(a)) == r
    )


def test_params_reject_too_many_occupied():
    with pytest.raises(InputError):
        OccupancyParams(wagons=3, passengers=2, occupied=5)


def test_exact_count_three_wagons_two_passengers():
    assert count_by_enumeration(3, 2, 2) == 6
    assert exact_occupancy_count(OccupancyParams(3, 2, 2)) == 6


def test_exact_count_pigeonhole_zero():
    assert exact_occupancy_count(OccupancyParams(5, 3, 5)) == 0


def test_exact_count_all_distinct_is_factorial():
    assert exact_occupancy_count(OccupancyParams(4, 4, 4)) == 24


def test_brute_force_examples():
    assert brute_force_occupancy(OccupancyParams(3, 2, 2)) == 6
    assert brute_force_occupancy(OccupancyParams(2, 3, 1)) == 2
    assert brute_force_occupancy(OccupancyParams(1, 1, 1)) == 1


def test_brute_force_budget_guard():
    with pytest.raises(BudgetExceededError):
        brute_force_occupancy(OccupancyParams(10, 9, 3), budget=1000)


def test_check_occupancy_records_oracle():
    # Without the oracle the closed form is also the computed value.
    for with_oracle in (True, False):
        report = verify_occupancy(OccupancyParams(3, 2, 2), with_oracle=with_oracle)
        assert report == IdentityReport("occupancy", "wagons=3 passengers=2 occupied=2", 6, 6, True)


def test_surjection_examples():
    assert surjection_count(2, 2) == 2  # the two bijections
    assert surjection_count(3, 3) == 6
    assert surjection_count(3, 2) == 0  # no surjection onto a larger set


def test_surjection_degenerate_convention():
    assert surjection_count(0, 0) == 1
    assert surjection_count(0, 3) == 0
    assert surjection_count(3, 0) == 0


def test_alternating_power_sum_examples():
    assert alternating_power_sum(3, 2) == 0  # 3*1 - 3*4 + 1*9
    assert alternating_power_sum(2, 2) == -2  # 2*1 - 1*4
    assert alternating_power_sum(4, 1) == 0  # 4 - 12 + 12 - 4


def test_alternating_power_sum_requires_positive_p():
    with pytest.raises(InputError):
        alternating_power_sum(3, 0)


def test_stirling2_examples():
    assert stirling2(3, 2) == 3  # {12|3}, {13|2}, {23|1}
    assert stirling2(5, 5) == 1
    assert stirling2(0, 0) == 1
    assert stirling2(4, 2) == 7


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("p", range(7))
def test_closed_form_equals_enumeration(n, p):
    for r in range(n + 1):
        params = OccupancyParams(n, p, r)
        assert exact_occupancy_count(params) == brute_force_occupancy(params)


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("p", range(9))
def test_counts_partition_all_assignments(n, p):
    total = sum(exact_occupancy_count(OccupancyParams(n, p, r)) for r in range(n + 1))
    assert total == n**p


def test_surjections_factor_through_stirling():
    for p in range(16):
        for r in range(16):
            assert surjection_count(r, p) == factorial(r) * stirling2(p, r)


def test_power_sum_vanishes_below_n():
    for n in range(2, 31):
        for p in range(1, n):
            assert alternating_power_sum(n, p) == 0


def test_power_sum_diagonal_is_signed_factorial():
    for p in range(1, 21):
        assert alternating_power_sum(p, p) == (-1) ** (p - 1) * factorial(p)


def test_bridge_to_alternating_sum():
    # the order-n sum of x^p at x = n is literally the surjection count
    for n in range(13):
        value = alternating_sum_numeric(
            Polynomial.monomial(n), DifferenceParams(order=n, step=1), n
        )
        assert value == surjection_count(n, n) == factorial(n)
    for n in range(9):
        for p in range(9):
            value = alternating_sum_numeric(
                Polynomial.monomial(p), DifferenceParams(order=n, step=1), n
            )
            assert value == surjection_count(n, p)


@pytest.mark.parametrize("p", range(7))
def test_oracle_matches_in_test_enumeration_for_odd_and_even_p(p):
    # n = 0 and p = 0 included; odd p puts the extra passenger in the tail.
    for n in range(6):
        for r in range(n + 1):
            assert brute_force_occupancy(OccupancyParams(n, p, r)) == count_by_enumeration(n, p, r)


@pytest.mark.parametrize("r", range(8))
def test_oracle_matches_the_closed_form_at_the_benchmarks_largest_size(r):
    # 7^7 = 823543 assignments, the largest oracle call of the modular_counting workload.
    params = OccupancyParams(7, 7, r)
    assert brute_force_occupancy(params) == exact_occupancy_count(params)


def _oracle_peak_bytes(params):
    tracemalloc.start()
    try:
        count = brute_force_occupancy(params)
        return count, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_memory_stays_at_the_head_table():
    # A list of all 400^2 masks would take about 1.3 MB; the head table has 400.
    count, peak = _oracle_peak_bytes(OccupancyParams(400, 2, 2))
    assert count == 400 * 399
    assert peak < 256 * 1024


def test_oracle_with_one_passenger_builds_no_per_wagon_table():
    # A table of 20000 single-wagon masks would take about 25 MB.
    count, peak = _oracle_peak_bytes(OccupancyParams(20000, 1, 1))
    assert count == 20000
    assert peak < 2 * 1024 * 1024


def test_budget_counts_each_4096_bits_of_a_mask_beyond_4096_wagons():
    # n^p = 10^6 assignments fit a budget of 10^7, but each mask is 10^6 bits:
    # 10^6 * ceil(10^6/4096) = 2.45e8.
    with pytest.raises(
        BudgetExceededError, match="1000000-bit masks counts 245000000, one per assignment per 4096 bits"
    ):
        brute_force_occupancy(OccupancyParams(10**6, 1, 1), budget=10**7)
    # Up to 4096 wagons n^p alone decides: 4096^1 fits a budget of 4096, 4097^1 counts 2 * 4097.
    assert brute_force_occupancy(OccupancyParams(4096, 1, 1), budget=4096) == 4096
    with pytest.raises(BudgetExceededError, match="counts 8194,"):
        brute_force_occupancy(OccupancyParams(4097, 1, 1), budget=8193)
    # 215^3 (4-word masks, about 2 s) still fits the default budget, as before the width counted.
    assert brute_force_occupancy(OccupancyParams(215, 3, 1)) == 215
    # 20000 * ceil(20000/4096) = 100000 fits the default budget.
    assert brute_force_occupancy(OccupancyParams(20000, 1, 1)) == 20000
    # With no passengers the one assignment sets no bit, whatever the width.
    assert brute_force_occupancy(OccupancyParams(10**9, 0, 0), budget=1) == 1


def test_budget_names_the_assignment_count_when_it_alone_exceeds():
    with pytest.raises(BudgetExceededError) as excinfo:
        brute_force_occupancy(OccupancyParams(100, 4, 3), budget=10**7)
    assert str(excinfo.value) == "enumerating 100^4 = 100000000 assignments exceeds the budget of 10000000"
