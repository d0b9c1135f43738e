"""Occupancy closed form vs. enumeration oracle, power sums, Stirling link."""
import itertools
import re
import sys
import time
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


@pytest.mark.parametrize("n", [0, 8, 9])
@pytest.mark.parametrize("p", range(7))
def test_oracle_matches_the_closed_form_across_the_byte_boundary(n, p):
    # Up to 8 wagons each mask is one byte of a single int: no wagons leave no lane from p = 2, and 8 wagons use
    # the byte's top bit.  9 wagons give the first mask wider than a byte, which takes the map pipeline.
    # At most 9^6 assignments; p = 0 is the one empty assignment on either path.
    for r in range(n + 1):
        params = OccupancyParams(n, p, r)
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


def test_oracle_memory_on_the_byte_path_stays_near_the_head_table():
    # The head table of 2^11 masks is a list of about 16 KB (building it holds the 8 KB table of 2^10 too), and
    # each tail's ints and bytes take about 2 KB apiece.  A list of the tail's 2^11 masks would add another
    # 16 KB, and a list of all 2^22 masks about 34 MB.
    count, peak = _oracle_peak_bytes(OccupancyParams(2, 22, 2))
    assert count == 2**22 - 2
    assert peak < 2 * sys.getsizeof([0] * 2**11)


def test_oracle_with_one_passenger_builds_no_per_wagon_table():
    # A table of 20000 single-wagon masks would take about 25 MB.
    count, peak = _oracle_peak_bytes(OccupancyParams(20000, 1, 1))
    assert count == 20000
    assert peak < 2 * 1024 * 1024


def test_budget_counts_each_1024_bits_of_a_mask_beyond_1024_wagons():
    # n^p = 10^6 assignments of 10^6-bit masks cost ceil(10^6/1024) = 977 units each, and 1 for the loop:
    # 977000001, far past the default budget.
    message = "enumerating 1000000^1 assignments costs 977000001 units, which exceeds the budget of 10000000"
    with pytest.raises(BudgetExceededError, match=f"^{re.escape(message)}$"):
        brute_force_occupancy(OccupancyParams(10**6, 1, 1))
    # Up to 1024 wagons an assignment costs one unit: 1024^2 + 2 = 1048578 fits a budget of its own size,
    # and 1025 wagons cost 2 units an assignment, 2 * 1025^2 + 2 = 2101252.
    assert brute_force_occupancy(OccupancyParams(1024, 2, 1), budget=1048578) == 1024
    with pytest.raises(BudgetExceededError, match="costs 2101252 units, which exceeds the budget of 1048578$"):
        brute_force_occupancy(OccupancyParams(1025, 2, 1), budget=1048578)
    # 215^3 (4-word masks, about 1 s) fits the default budget: 9938375 assignments and 3 for the loops.
    assert brute_force_occupancy(OccupancyParams(215, 3, 1)) == 215
    # 20000 * ceil(20000/1024) + 1 = 400001 fits the default budget.
    assert brute_force_occupancy(OccupancyParams(20000, 1, 1)) == 20000
    # Where the tails outnumber the assignment units, each tail's pipeline costs 8: 1024 wagons and one
    # passenger cost 8 * 1024 + 1 = 8193, 1025 wagons 8 * 1025 + 1 = 8201.
    assert brute_force_occupancy(OccupancyParams(1024, 1, 1), budget=8193) == 1024
    with pytest.raises(BudgetExceededError, match="costs 8201 units, which exceeds the budget of 8193$"):
        brute_force_occupancy(OccupancyParams(1025, 1, 1), budget=8193)
    # With no passengers the one assignment sets no bit, whatever the width; its one pipeline costs 8.
    assert brute_force_occupancy(OccupancyParams(10**9, 0, 0), budget=8) == 1
    with pytest.raises(BudgetExceededError, match="costs 8 units, which exceeds the budget of 7$"):
        brute_force_occupancy(OccupancyParams(10**9, 0, 0), budget=7)
    # One wagon costs nothing per assignment, but its head and tail loops still take p steps.
    message = "enumerating 1^100000000 assignments costs 100000008 units"
    with pytest.raises(BudgetExceededError, match=re.escape(message)):
        brute_force_occupancy(OccupancyParams(1, 10**8, 1))


def test_budget_names_the_assignment_count_when_it_alone_exceeds():
    with pytest.raises(BudgetExceededError) as excinfo:
        brute_force_occupancy(OccupancyParams(100, 4, 3), budget=10**7)
    assert str(excinfo.value) == (
        "enumerating 100^4 assignments costs 100000004 units, which exceeds the budget of 10000000"
    )


def test_an_enumeration_past_2_to_the_64_is_priced_without_building_n_to_the_p():
    # 3^(10^9) has 477 million digits; its price keeps Decimal's 28 and the refusal comes at once.
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as excinfo:
        brute_force_occupancy(OccupancyParams(3, 10**9, 0))
    assert time.perf_counter() - start < 0.1
    assert str(excinfo.value) == (
        "enumerating 3^1000000000 assignments costs 5.243997032955288263560669589E+477121254 units, "
        "which exceeds the budget of 10000000"
    )
    # Up to 2^64 the price is exact: 2^64 assignments and 64 for the loops, then 2^65 + 65.
    with pytest.raises(BudgetExceededError, match="costs 18446744073709551680 units"):
        brute_force_occupancy(OccupancyParams(2, 64, 0))
    with pytest.raises(BudgetExceededError, match="costs 36893488147419103297 units"):
        brute_force_occupancy(OccupancyParams(2, 65, 0))
