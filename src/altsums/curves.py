"""Brute-force point counts of the fiber curves f(x, y) = t.

Here f(x, y) = x y (x + y) prod over alpha in F_q minus {0, -1} of
(x - alpha y)^2, a form of degree n = 2q - 1 that equals
x^n + y^n + (-x-y)^n by the split polynomial identity.  Counting every
affine pair (x, y) in L^2 and histogramming by the value of f gives the
fiber counts N_L(t); weighting them by psi(t) chi_2(-t) and normalizing by
the cubed Gauss sum reconstructs a modified third moment that differs from
the empirical third moment of the trace function by at most q / sqrt(#L).

The enumeration is honest: the x-range is cut into fixed-size chunks, each
worker evaluates f on its rows against the full y-vector, and the private
integer histograms are merged by addition, so the result is independent of
the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .characters import chi2_minus_one, gauss_sum, psi_exponent_table
from .cyclotomic import CycInt
from .fields import BudgetExceededError, FieldDescriptor, build_field, embed
from .traces import SystemParams, TraceTable, empirical_moment

DEFAULT_POINT_BUDGET = 4096  # largest #L enumerated by default (#L^2 pairs)
ROW_CHUNK = 256              # x-rows per work unit; fixed, not worker-dependent


class NonRationalMomentError(RuntimeError):
    """The curve-weighted sum failed to normalize to a rational number."""


@dataclass(frozen=True)
class CurveCount:
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
    """Codes in L of the embedded elements of F_q minus {0, -1}, sorted."""
    Fq = build_field(params.p, params.f)
    minus_one = Fq.neg_code(1)
    return [embed(Fq, L, Fq.element(c)).code
            for c in range(1, Fq.order) if c != minus_one]


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
    L = params.extension(degree)
    if (params.base_degree * degree) % params.f != 0:
        raise ValueError(
            f"roots live in a degree-{params.f} field, which is not a "
            f"subfield of {L.canonical_text()}")
    if L.order > budget:
        raise BudgetExceededError(
            f"#L = {L.order} exceeds the point-count budget {budget}")
    return L


def count_points(params: SystemParams, degree: int, *,
                 budget: int = DEFAULT_POINT_BUDGET,
                 workers: int = 1) -> CurveCount:
    L = _check_geometry(params, degree, budget)
    N = L.order
    alphas = _alpha_codes(params, L)
    ys = np.arange(N, dtype=np.int64)
    starts = range(0, N, ROW_CHUNK)

    def run(start: int) -> np.ndarray:
        rows = np.arange(start, min(start + ROW_CHUNK, N), dtype=np.int64)
        values = _eval_rows(L, alphas, rows, ys)
        return np.bincount(values.ravel(), minlength=N)

    if workers <= 1:
        parts = [run(s) for s in starts]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, starts))
    hist = np.sum(parts, axis=0)
    return CurveCount(params=params, degree=degree,
                      field_text=L.canonical_text(),
                      counts=tuple(int(c) for c in hist))


def curve_weighted_sum(params: SystemParams, count: CurveCount) -> CycInt:
    """W = sum over t in L^x of psi(t) chi_2(-t) N_L(t), exact."""
    L = params.extension(count.degree)
    e_tab = psi_exponent_table(params.context(), L)
    half = (L.order - 1) // 2
    w = [0] * params.p
    for c in range(1, L.order):
        sign = 1 if (c - 1 + half) % 2 == 0 else -1
        w[int(e_tab[c])] += sign * count.counts[c]
    return CycInt.from_power_counts(params.p, w)


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


def modified_third_moment(params: SystemParams, degree: int, *,
                          count: CurveCount | None = None,
                          budget: int = DEFAULT_POINT_BUDGET,
                          workers: int = 1) -> Fraction:
    """(chi_2(-1)/g)^3 * W as an exact rational.

    Uses 1/g = conj(g)/#L, so the value is chi_2(-1) W conj(g)^3 / (#L)^3;
    a non-rational numerator is a hard error.
    """
    if count is None:
        count = count_points(params, degree, budget=budget, workers=workers)
    L = params.extension(count.degree)
    W = curve_weighted_sum(params, count)
    g = gauss_sum(params.context(), L)
    num = W * g.conj() ** 3
    r = num.as_rational()
    if r is None:
        raise NonRationalMomentError(
            f"curve-weighted sum is not rational over {L.canonical_text()}")
    return Fraction(chi2_minus_one(L) * r, L.order**3)


@dataclass(frozen=True)
class CurveMomentReport:
    degree: int
    field_order: int
    modified: Fraction
    empirical_m3: Fraction
    bound: float                 # q / sqrt(#L)
    within_bound: bool

    @property
    def ok(self) -> bool:
        return self.within_bound


def curve_moment_report(params: SystemParams, degree: int, *,
                        count: CurveCount | None = None,
                        table: TraceTable | None = None,
                        budget: int = DEFAULT_POINT_BUDGET,
                        workers: int = 1, cache_dir=None) -> CurveMomentReport:
    """Compare the curve-side moment with the direct empirical third moment.

    A precomputed `count` or trace `table` of this degree is used as is.
    """
    modified = modified_third_moment(params, degree, count=count,
                                     budget=budget, workers=workers)
    m3 = empirical_moment(params, degree, 3, table=table, cache_dir=cache_dir)
    L = params.extension(degree)
    bound = params.q / math.sqrt(L.order)
    gap = abs(float(modified - m3))
    return CurveMomentReport(degree=degree, field_order=L.order,
                             modified=modified, empirical_m3=m3,
                             bound=bound, within_bound=gap <= bound)
