"""Checks for the curve point-count module.

count_points reads the fiber form off its sum form x^n + y^n + (-x-y)^n by
homogeneity.  Two oracles count every pair instead: `brute_counts`, the sum
form in scalar code arithmetic, and the product form x y (x + y) prod
(x - alpha y)^2 with its alphas embedded (oracles.product_form_values).
Over L = F_q the form vanishes identically (x^(2q-1) = x there), which
freezes the degree-one counts.
"""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from altsums import curves
from altsums.characters import chi2_minus_one, gauss_sum
from altsums.curves import (
    CurveCount,
    NonRationalMomentError,
    count_points,
    modified_third_moment,
)
from altsums.cyclotomic import CycInt
from altsums.fields import BudgetExceededError, FieldDescriptor
from altsums.traces import SystemParams, trace_table
from oracles import curve_weighted_sum, product_form_values, triple_sum_direct

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


@pytest.mark.parametrize("params,degree", [(P39, 4), (SystemParams(5, 2), 4), (P327, 6)])
def test_counts_match_the_product_form_at_many_alphas(params, degree):
    # q = 9, 25 and 27 over 3^4, 5^4 and 3^6: 7, 23 and 25 factors
    # (x - alpha y)^2, each alpha embedded, where the count reads the sum form
    assert np.array_equal(count_points(params, degree).counts,
                          product_form_counts(params, params.extension(degree)))


def product_form_counts(params, L):
    """The fiber counts over L of the product form, pair by pair."""
    return sum(np.bincount(v, minlength=L.order) for v in product_form_values(params, L))


@pytest.mark.parametrize("params,degree", [(P33, 4), (P55, 2), (SystemParams(7, 1), 3)],
                         ids=["3^4-g5", "5^2-g3", "7^3-g1"])
def test_chunk_size_changes_no_count(monkeypatch, params, degree):
    """count_points walks L CHUNK codes at a time: chunks of 1, g, #L - 1,
    #L and 2 #L codes give the one-chunk count, the product form's."""
    L = params.extension(degree)
    whole = count_points(params, degree, field=L)
    assert len(whole.classes) == math.gcd(params.n, L.order - 1)
    assert L.order <= curves.CHUNK  # so `whole` is one chunk
    oracle = product_form_counts(params, L)
    for chunk in (1, len(whole.classes), L.order - 1, L.order, 2 * L.order):
        monkeypatch.setattr(curves, "CHUNK", chunk)
        count = count_points(params, degree, field=L)
        assert count == whole, chunk
        assert np.array_equal(count.counts, oracle), chunk


def test_a_count_peaks_near_its_rendered_counts():
    """At 3^12, with L and its log and Zech tables held, count_points holds
    chunk temporaries and the rendered counts for the moment: under 32
    bytes per element (16.5 with numpy 2.4.6; 65 when whole-L arrays were
    formed at once)."""
    params = SystemParams(3, 1)
    L = params.extension(12)
    count_points(params, 12, budget=3**12, field=L)  # builds the log and Zech tables
    tracemalloc.start()
    try:
        count_points(params, 12, budget=3**12, field=L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * L.order


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
    assert count.total() == N * N == count.counts.sum()
    assert count.zero_fiber() >= 3 * N - 2
    assert count.zero_fiber() == count.counts[0]


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
    # every field, memoized or not, goes through the constructor
    def no_build(self, p, d):
        raise AssertionError(f"built F_{p}^{d}")

    monkeypatch.setattr(FieldDescriptor, "__init__", no_build)
    with pytest.raises(BudgetExceededError, match="59049"):
        count_points(P33, 10)


@pytest.mark.parametrize("params,degree",
                         [(P33, 2), (P33, 3), (P55, 2), (P39, 2)] + SWEEP)
def test_weighted_sum_equals_direct_triple_sum(params, degree):
    L = params.extension(degree)
    W = curve_weighted_sum(params, L, count_points(params, degree, field=L).counts)
    assert W == triple_sum_direct(params, degree)


def test_modified_moment_frozen_degree_one():
    assert count_points(P33, 1).modified == 0
    assert count_points(P55, 1).modified == 0
    assert count_points(P327, 3).modified == 0


def _psi_c_route(params, L, counts):
    """chi_2(-1) W_c conj(g_c)^3 in Z[zeta_p], with W_c and g_c built from
    psi_c (the multiplier embedded in L): the ring route to #L^3 M3."""
    return (chi2_minus_one(L) * curve_weighted_sum(params, L, counts)
            * gauss_sum(params.context(), L).conj() ** 3)


@pytest.mark.parametrize("params,degree", [
    (SystemParams(5, 1), 3), (SystemParams(7, 1), 2),
    (SystemParams(3, 1, base_degree=2), 2), (SystemParams(3, 2), 4),
    (P33, 2), (P33, 3), (P55, 2), (SystemParams(1021, 1), 1)])
def test_modified_moment_equals_the_psi_c_route(params, degree):
    """The pipeline reads psi_1 off L's trace table and tests V conj(g) for
    rationality on two count vectors; for every c in F_p^x (1, 2 and -1 at
    p = 1021) its M3 is the psi_c route's rational over #L^3, and
    modified_third_moment takes the same value again from the counts.  One
    fiber count 1 too many, at a t with Tr(t) != 0, is refused by both."""
    for c in range(1, params.p) if params.p < 100 else (1, 2, params.p - 1):
        params_c = params._replace(multiplier=c)
        L = params_c.extension(degree)
        count = count_points(params_c, degree, field=L)
        num = _psi_c_route(params_c, L, count.counts).as_rational()
        assert num is not None
        assert count.modified == Fraction(num, L.order**3), c
        assert modified_third_moment(L, count.counts) == count.modified
        doctored = count.counts.copy()
        doctored[np.flatnonzero(L.trace_abs_by_code)[0]] += 1
        with pytest.raises(NonRationalMomentError, match="not rational over"):
            modified_third_moment(L, doctored)
        assert _psi_c_route(params_c, L, doctored).as_rational() is None


def test_modified_moment_is_exact_where_hash_l_times_v_passes_int64():
    """Weights c = 2^52 - 1 on t = 1 and t = -1 alone, F_3^x in L = F_3^7:
    Tr(+-1) = +-7 and chi_2(-1) = -1 (d odd) give V = +-c g_3, a rational
    multiple of g.  The bincount stays exact (sum |w| < 2^53), but #L c
    passes 2^63, so int64 arithmetic would wrap.  The ring route is exact."""
    params, L = P33, FieldDescriptor(3, 7)
    counts = np.zeros(L.order, dtype=np.int64)
    counts[[1, L.neg_code(1)]] = c = 2**52 - 1
    assert L.order * c >= 2**63
    num = _psi_c_route(params, L, counts).as_rational()
    assert num is not None
    assert modified_third_moment(L, counts) == Fraction(num, L.order**3)


def _exact_configs():
    """Every (p, f, base_degree, multiplier) with p <= 13, f and base_degree
    in {1, 2} and multipliers 1 and 2, with its degrees D of #L <= 3^8 whose
    L contains F_q; the benchmarked 3^1..3^7, 5^1..5^5 and, at multiplier
    2, 7^1..7^4 are among them."""
    cases = []
    for p in (3, 5, 7, 11, 13):
        for f in (1, 2):
            for b in (1, 2):
                for c in (1, 2):
                    degrees = [D for D in range(1, 9)
                               if p ** (b * D) <= 3**8 and (b * D) % f == 0]
                    cases.append(pytest.param(SystemParams(p, f, b, c), degrees,
                                              id=f"p{p}-f{f}-b{b}-c{c}"))
    return cases


@pytest.mark.parametrize("params,degrees", _exact_configs())
def test_curve_side_equals_the_trace_m3_exactly(params, degrees):
    for D in degrees:
        count = count_points(params, D, budget=3**8)
        assert count.modified == trace_table(params, D).moment(3), (params.label(), D)


def test_curve_side_equals_the_trace_m3_exactly_at_3_to_the_12():
    """The identity at 531441 elements, past every size the sweep reaches."""
    count = count_points(P33, 12, budget=3**12)
    assert count.modified == trace_table(P33, 12).moment(3)


def test_curve_count_fields():
    count = count_points(P33, 2)
    assert isinstance(count, CurveCount)
    assert count._fields == ("params", "degree", "field_text", "field_order",
                             "zeros", "classes", "modified")
    assert count.field_text.startswith("p=3 d=2")
    assert (count.degree, count.field_order) == (2, 9)
    # n = 5 and #L - 1 = 8 are coprime: one class; P's roots in F_9 are F_3's
    assert (count.zeros, count.classes) == (3, (6,))
    assert count.counts.tolist() == [33] + [6] * 8
    assert count.modified == Fraction(2, 3) == trace_table(P33, 2).moment(3)


def test_weighted_sum_is_cyclotomic_integer():
    L = P33.extension(2)
    W = curve_weighted_sum(P33, L, count_points(P33, 2, field=L).counts)
    assert isinstance(W, CycInt)
    assert W.conj().conj() == W
