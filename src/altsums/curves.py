"""Point counts of the fiber curves f(x, y) = t.

Here f(x, y) = x y (x + y) prod over alpha in F_q minus {0, -1} of
(x - alpha y)^2, a form of degree n = 2q - 1 that equals
x^n + y^n + (-x-y)^n by the split polynomial identity.  The affine fiber
counts N_L(t) = #{(x, y) in L^2 : f(x, y) = t}, weighted by psi(t) chi_2(-t)
and normalized by the cubed Gauss sum, give a modified third moment within
q / sqrt(#L) of the empirical third moment of the trace function.

The counts follow from homogeneity in one pass over L: f(x, 0) = 0 and
f(u y, y) = y^n P(u) with P(u) = f(u, 1), and y -> y^n maps L^x g-to-one
onto the g-th powers, g = gcd(n, #L - 1).  Hence N(0) = #L + (#L - 1)
#{u : P(u) = 0} and N(t) = g #{u : P(u) != 0, dlog P(u) = dlog t mod g}
for t != 0, where the dlog of code j >= 1 (the element gen^(j-1)) is j - 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .characters import chi2_minus_one, gauss_sum, psi_exponent_table
from .cyclotomic import CycInt
from .fields import BudgetExceededError, FieldDescriptor, build_field, embed
from .identities import _split_alphas
from .traces import SystemParams

DEFAULT_POINT_BUDGET = 4096  # largest #L counted by default
ROW_CHUNK = 256              # x-rows per block of triple_sum_direct: bounds its memory


class NonRationalMomentError(RuntimeError):
    """The curve-weighted sum failed to normalize to a rational number."""


class CurveCount(NamedTuple):
    """Affine point counts of f(x, y) = t, indexed by the element code of t."""

    params: SystemParams
    degree: int
    field_text: str
    counts: tuple[int, ...]

    @property
    def field_order(self) -> int:
        return len(self.counts)

    def total(self) -> int:
        return sum(self.counts)

    def zero_fiber(self) -> int:
        return self.counts[0]


def _alpha_codes(params: SystemParams, L: FieldDescriptor) -> list[int]:
    """Codes in L of the embedded elements of F_q minus {0, -1}."""
    Fq = build_field(params.p, params.f)
    return [embed(Fq, L, Fq.element(c)).code for c in _split_alphas(Fq)]


def _eval_rows(L: FieldDescriptor, alphas: list[int],
               x_codes: np.ndarray, y_codes: np.ndarray) -> np.ndarray:
    """Value codes of f on the grid x_codes x y_codes."""
    X = x_codes[:, None]
    Y = y_codes[None, :]
    acc = L.mul_codes_vec(L.mul_codes_vec(X, Y), L.add_codes_vec(X, Y))
    for a in alphas:
        term = L.add_codes_vec(X, L.mul_codes_vec(np.int64(L.neg_code(a)), Y))
        acc = L.mul_codes_vec(acc, L.mul_codes_vec(term, term))
    return acc


def _check_geometry(params: SystemParams, degree: int, budget: int):
    d = params.base_degree * degree
    # before the build, which is slow for large #L; since p > 2, p^d passes
    # the budget once d reaches its bit length, and a huge d never forms p**d
    if d >= budget.bit_length():
        raise BudgetExceededError(f"#L = p^d = {params.p}^{d} exceeds the "
                                  f"point-count budget {budget}")
    if params.p**d > budget:
        raise BudgetExceededError(
            f"#L = {params.p**d} exceeds the point-count budget {budget}")
    L = params.extension(degree)
    if d % params.f != 0:
        raise ValueError(
            f"roots live in a degree-{params.f} field, which is not a "
            f"subfield of {L.canonical_text()}")
    return L


def count_points(params: SystemParams, degree: int, *,
                 budget: int = DEFAULT_POINT_BUDGET) -> CurveCount:
    L = _check_geometry(params, degree, budget)
    N = L.order
    g = math.gcd(params.n, N - 1)
    P = _eval_rows(L, _alpha_codes(params, L), np.arange(N, dtype=np.int64),
                   np.ones(1, dtype=np.int64)).ravel()
    classes = np.bincount((P[P != 0] - 1) % g, minlength=g)
    hist = np.empty(N, dtype=np.int64)
    hist[0] = N + (N - 1) * int(np.count_nonzero(P == 0))
    hist[1:] = g * classes[np.arange(N - 1) % g]
    return CurveCount(params=params, degree=degree,
                      field_text=L.canonical_text(),
                      counts=tuple(hist.tolist()))


def curve_weighted_sum(params: SystemParams, count: CurveCount) -> CycInt:
    """W = sum over t in L^x of psi(t) chi_2(-t) N_L(t), exact."""
    L = params.extension(count.degree)
    e_tab = psi_exponent_table(params.context(), L)
    # chi_2(-t) for t = gen^j is (-1)^(j + (#L - 1)/2); sum |W| <= #L^2 fits int64
    j = np.arange(L.order - 1)
    signed = np.where((j + (L.order - 1) // 2) % 2 == 0, 1, -1) * \
        np.array(count.counts, dtype=np.int64)[1:]
    w = np.zeros(params.p, dtype=np.int64)
    np.add.at(w, e_tab[1:], signed)
    return CycInt.from_power_counts(params.p, w.tolist())


def triple_sum_direct(params: SystemParams, degree: int, *,
                      budget: int = DEFAULT_POINT_BUDGET) -> CycInt:
    """sum of psi(f(x,y)) chi_2(-f(x,y)) over pairs with f(x,y) != 0.

    Independent route to curve_weighted_sum: the same weight is attached
    pair by pair instead of fiber by fiber, never forming the histogram.
    """
    L = _check_geometry(params, degree, budget)
    N = L.order
    alphas = _alpha_codes(params, L)
    ys = np.arange(N, dtype=np.int64)
    e_tab = psi_exponent_table(params.context(), L)
    half = (N - 1) // 2
    even = np.zeros(params.p, dtype=np.int64)
    odd = np.zeros(params.p, dtype=np.int64)
    for start in range(0, N, ROW_CHUNK):
        rows = np.arange(start, min(start + ROW_CHUNK, N), dtype=np.int64)
        v = _eval_rows(L, alphas, rows, ys).ravel()
        v = v[v != 0]
        exps = e_tab[v]
        neg_parity = (v - 1 + half) % 2
        even += np.bincount(exps[neg_parity == 0], minlength=params.p)
        odd += np.bincount(exps[neg_parity == 1], minlength=params.p)
    return CycInt.from_power_counts(params.p, (even - odd).tolist())


def modified_third_moment(count: CurveCount) -> Fraction:
    """(chi_2(-1)/g)^3 * W as an exact rational, over the field of `count`.

    Uses 1/g = conj(g)/#L, so the value is chi_2(-1) W conj(g)^3 / (#L)^3;
    a non-rational numerator is a hard error.
    """
    params = count.params
    L = params.extension(count.degree)
    W = curve_weighted_sum(params, count)
    g = gauss_sum(params.context(), L)
    num = W * g.conj() ** 3
    r = num.as_rational()
    if r is None:
        raise NonRationalMomentError(
            f"curve-weighted sum is not rational over {L.canonical_text()}")
    return Fraction(chi2_minus_one(L) * r, L.order**3)


class CurveMomentReport(NamedTuple):
    degree: int
    field_order: int
    modified: Fraction
    empirical_m3: Fraction
    bound: float                 # q / sqrt(#L)
    within_bound: bool

    @property
    def ok(self) -> bool:
        return self.within_bound


def curve_moment_report(count: CurveCount, m3: Fraction) -> CurveMomentReport:
    """Compare the curve-side moment of `count` with `m3`, the empirical
    third moment of the trace table of the same params and degree."""
    modified = modified_third_moment(count)
    bound = count.params.q / math.sqrt(count.field_order)
    gap = abs(float(modified - m3))
    return CurveMomentReport(degree=count.degree, field_order=count.field_order,
                             modified=modified, empirical_m3=m3,
                             bound=bound, within_bound=gap <= bound)
