"""Checks for the curve point-count module.

The independent oracle evaluates the fiber form through its power-sum
expression x^n + y^n + (-x-y)^n with scalar code arithmetic, never touching
the vectorized alpha-product kernel.  Over L = F_q the form vanishes
identically (x^(2q-1) = x there), which freezes the degree-one counts.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from altsums import curves, traces
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
from altsums.traces import SystemParams, trace_table

P33 = SystemParams(p=3, f=1)
P55 = SystemParams(p=5, f=1)
P39 = SystemParams(p=3, f=2)
P327 = SystemParams(p=3, f=3)


def _sweep_cases():
    """One seeded (p, f, base_degree, multiplier, D) per (p, f, base_degree).

    #L <= 243 keeps the scalar oracle fast.  D is drawn among the degrees
    whose L contains F_q, preferring an L larger than F_q when there is one.
    """
    rng = random.Random(4)
    cases = []
    for p in (3, 5, 7, 11, 13):
        for f in (1, 2):
            for b in (1, 2):
                fit = [D for D in range(1, 7)
                       if p ** (b * D) <= 243 and (b * D) % f == 0]
                c = rng.randrange(2, p)
                D = rng.choice([D for D in fit if b * D > f] or fit)
                params = SystemParams(p=p, f=f, base_degree=b, multiplier=c)
                cases.append(pytest.param(params, D,
                                          id=f"p{p}-f{f}-b{b}-c{c}-D{D}"))
    return cases


SWEEP = _sweep_cases()


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


@pytest.mark.parametrize("params,degree",
                         [(P33, 2), (P33, 3), (P55, 2), (P327, 3)] + SWEEP)
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


def test_budget_is_checked_before_the_field_is_built(monkeypatch):
    def no_build(p, d, **kwargs):
        raise AssertionError(f"built F_{p}^{d}")

    monkeypatch.setattr(traces, "build_field", no_build)
    monkeypatch.setattr(curves, "build_field", no_build)
    with pytest.raises(BudgetExceededError, match="59049"):
        count_points(P33, 10)


@pytest.mark.parametrize("params,degree",
                         [(P33, 2), (P33, 3), (P55, 2), (P39, 2)] + SWEEP)
def test_weighted_sum_equals_direct_triple_sum(params, degree):
    count = count_points(params, degree)
    W = curve_weighted_sum(params, count)
    assert W == triple_sum_direct(params, degree)


def test_weighted_sum_conj_invariant_after_gauss_normalization():
    # the normalized value is rational, hence real
    for params, degree in [(P33, 2), (P33, 3), (P55, 2)]:
        value = modified_third_moment(count_points(params, degree))
        assert value.denominator >= 1  # exact Fraction came back


def test_modified_moment_frozen_degree_one():
    assert modified_third_moment(count_points(P33, 1)) == 0
    assert modified_third_moment(count_points(P55, 1)) == 0
    assert modified_third_moment(count_points(P327, 3)) == 0


def report_at(params, degree):
    """The curve report of one degree, against its trace table's M3."""
    return curve_moment_report(count_points(params, degree),
                               trace_table(params, degree).moment(3))


@pytest.mark.parametrize("params,degrees", [(P33, (1, 2, 3, 4)), (P55, (1, 2))])
def test_error_bound_against_empirical_moment(params, degrees):
    for D in degrees:
        report = report_at(params, D)
        assert report.ok, (params.label(), D, report)
        gap = abs(float(report.modified - report.empirical_m3))
        assert gap <= report.bound


def test_report_contents():
    report = report_at(P33, 2)
    assert report.degree == 2
    assert report.field_order == 9
    assert report.bound == pytest.approx(1.0)  # q / sqrt(9) = 1
    assert report.empirical_m3 == trace_table(P33, 2).moment(3)
    assert (report.modified, report.within_bound) == (Fraction(2, 3), True)


def test_report_takes_degree_and_field_from_the_count():
    report = curve_moment_report(count_points(P33, 3), Fraction(-8, 9))
    assert (report.degree, report.field_order) == (3, 27)
    assert report.modified == Fraction(-8, 9)
    assert report.bound == pytest.approx(3 / math.sqrt(27))
    assert report.within_bound


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
