"""Checks for the curve point-count module.

The independent oracle evaluates the fiber form through its power-sum
expression x^n + y^n + (-x-y)^n with scalar code arithmetic, never touching
the vectorized alpha-product kernel.  Over L = F_q the form vanishes
identically (x^(2q-1) = x there), which freezes the degree-one counts.
"""

import numpy as np
import pytest

from altsums.curves import (
    CurveCount,
    NonRationalMomentError,
    count_points,
    curve_moment_report,
    curve_weighted_sum,
    modified_third_moment,
    triple_sum_direct,
)
from altsums.cyclotomic import CycInt
from altsums.fields import BudgetExceededError
from altsums.traces import SystemParams, empirical_moment, trace_table

P33 = SystemParams(p=3, f=1)
P55 = SystemParams(p=5, f=1)
P39 = SystemParams(p=3, f=2)
P327 = SystemParams(p=3, f=3)


def brute_counts(params, degree):
    """Histogram of x^n + y^n + (-x-y)^n over all pairs, scalar ops only."""
    L = params.extension(degree)
    n = params.n
    counts = [0] * L.order
    for xc in range(L.order):
        xn = L.pow_code(xc, n)
        for yc in range(L.order):
            s = L.neg_code(L.add_code(xc, yc))
            v = L.add_code(L.add_code(xn, L.pow_code(yc, n)), L.pow_code(s, n))
            counts[v] += 1
    return counts


@pytest.mark.parametrize("params,degree", [(P33, 2), (P33, 3), (P55, 2), (P327, 3)])
def test_counts_match_power_sum_oracle(params, degree):
    got = count_points(params, degree)
    assert list(got.counts) == brute_counts(params, degree)


@pytest.mark.parametrize("params,degree", [(P33, 1), (P55, 1), (P327, 3), (P39, 2)])
def test_form_vanishes_identically_over_base_q(params, degree):
    # these choices make L = F_q, where x^(2q-1) = x for every x
    count = count_points(params, degree)
    N = count.field_order
    assert count.counts[0] == N * N
    assert all(c == 0 for c in count.counts[1:])


@pytest.mark.parametrize("params,degree", [(P33, 2), (P33, 4), (P55, 2)])
def test_fiber_sum_and_zero_fiber(params, degree):
    count = count_points(params, degree)
    N = count.field_order
    assert count.total() == N * N
    assert count.zero_fiber() >= 3 * N - 2


@pytest.mark.parametrize("params,degree", [(P33, 2), (P33, 3), (P55, 2)])
def test_homogeneity_of_fibers(params, degree):
    # N(t) = N(lambda^n t): nonzero fibers are constant on cosets of the
    # n-th powers, so a shift of the dlog by n fixes the histogram
    count = count_points(params, degree)
    M = count.field_order - 1
    n = params.n
    for m in range(M):
        assert count.counts[1 + (m + n) % M] == count.counts[1 + m]


def test_worker_count_does_not_change_counts():
    base = count_points(P33, 4, workers=1)
    for workers in (3, 8):
        assert count_points(P33, 4, workers=workers).counts == base.counts


def test_precondition_roots_must_embed():
    with pytest.raises(ValueError, match="subfield"):
        count_points(P39, 1)
    count_points(P39, 2)  # F_9 contains F_9


def test_budget():
    with pytest.raises(BudgetExceededError):
        count_points(P33, 8)  # 3^8 = 6561 > 4096
    with pytest.raises(BudgetExceededError):
        count_points(P33, 4, budget=50)
    assert count_points(P33, 4, budget=81).field_order == 81


@pytest.mark.parametrize("params,degree", [(P33, 2), (P33, 3), (P55, 2), (P39, 2)])
def test_weighted_sum_equals_direct_triple_sum(params, degree):
    count = count_points(params, degree)
    W = curve_weighted_sum(params, count)
    assert W == triple_sum_direct(params, degree)


def test_weighted_sum_conj_invariant_after_gauss_normalization():
    # the normalized value is rational, hence real
    for params, degree in [(P33, 2), (P33, 3), (P55, 2)]:
        value = modified_third_moment(params, degree)
        assert value.denominator >= 1  # exact Fraction came back


def test_modified_moment_frozen_degree_one():
    assert modified_third_moment(P33, 1) == 0
    assert modified_third_moment(P55, 1) == 0
    assert modified_third_moment(P327, 3) == 0


def test_modified_moment_accepts_precomputed_count():
    count = count_points(P33, 2)
    assert modified_third_moment(P33, 2, count=count) == \
        modified_third_moment(P33, 2)


@pytest.mark.parametrize("params,degrees", [(P33, (1, 2, 3, 4)), (P55, (1, 2))])
def test_error_bound_against_empirical_moment(params, degrees):
    for D in degrees:
        report = curve_moment_report(params, D)
        assert report.ok, (params.label(), D, report)
        gap = abs(float(report.modified - report.empirical_m3))
        assert gap <= report.bound


def test_report_reuses_precomputed_count_and_table():
    for D in (1, 2, 3, 4):
        given = curve_moment_report(P33, D, count=count_points(P33, D),
                                    table=trace_table(P33, D))
        assert given == curve_moment_report(P33, D)


def test_report_contents():
    report = curve_moment_report(P33, 2)
    assert report.degree == 2
    assert report.field_order == 9
    assert report.bound == pytest.approx(1.0)  # q / sqrt(9) = 1
    assert report.empirical_m3 == empirical_moment(P33, 2, 3)


def test_curve_count_fields():
    count = count_points(P33, 2)
    assert isinstance(count, CurveCount)
    assert count.field_text.startswith("p=3 d=2")
    assert count.degree == 2
    assert len(count.counts) == 9


def test_weighted_sum_is_cyclotomic_integer():
    count = count_points(P33, 2)
    W = curve_weighted_sum(P33, count)
    assert isinstance(W, CycInt)
    assert W.conj().conj() == W
