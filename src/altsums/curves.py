"""Point counts of the fiber curves f(x, y) = t.

Here f(x, y) = x y (x + y) prod over alpha in F_q minus {0, -1} of
(x - alpha y)^2, a form of degree n = 2q - 1 that equals
x^n + y^n + (-x-y)^n by the split polynomial identity.  The affine fiber
counts N_L(t) = #{(x, y) in L^2 : f(x, y) = t}, weighted by psi(t) chi_2(-t)
and normalized by the cubed Gauss sum, give a modified third moment that
equals the empirical third moment M3 = sum_t T(t)^3 / #L exactly:
* Summing psi(t (x + y + z)) over t leaves #L [x + y + z = 0], so
  sum_t S(t)^3 = #L sum over x + y = -z of chi_2(xyz) psi(x^n + y^n + z^n),
  and x^n + y^n + (-x-y)^n = f(x, y) by the split identity.
* Where f != 0, the square factor is nonzero and chi_2(-xy(x+y)) =
  chi_2(-f).  Where f = 0 but xy(x+y) != 0, x = alpha y for one alpha, and
  those pairs give chi_2(-alpha(1 + alpha)) sum over y != 0 of chi_2(y) = 0.
  Hence sum_t S(t)^3 = #L W, W = sum over t != 0 of psi(t) chi_2(-t) N(t).
* n = -1 mod p, so chi_2(n) = chi_2(-1), and (n - 1)/2 = q - 1 is even, so
  A = -chi_2(-1) g and M3 = -W / A^3 = (chi_2(-1)/g)^3 W.  As chi_2(-t) =
  chi_2(-1) chi_2(t), W = chi_2(-1) V with V = sum over t != 0 of psi(t)
  chi_2(t) N(t), and M3 = V / g^3 = V conj(g)^3 / #L^3 = chi_2(-1) V conj(g)
  / #L^2, as conj(g)^2 = chi_2(-1) #L: one integer, read off two integer
  count vectors with no ring arithmetic (modified_third_moment).
So a modified moment that differs from M3 falsifies the counts, the traces
or one of the identities above.

The counts follow from homogeneity in one pass over L: f(x, 0) = 0 and
f(u y, y) = y^n P(u) with P(u) = f(u, 1), and y -> y^n maps L^x g-to-one
onto the g-th powers, g = gcd(n, #L - 1).  Hence N(0) = #L + (#L - 1)
#{u : P(u) = 0} and N(t) = g #{u : P(u) != 0, dlog P(u) = dlog t mod g}
for t != 0, where the dlog of code j >= 1 (the element gen^(j-1)) is j - 1.
P is read off the sum form in passes whose number does not depend on q; the
tests evaluate the product form, and so check the identity over L as well.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .characters import _chi2_counts, chi2_minus_one
from .fields import BudgetExceededError, FieldDescriptor
from .traces import SystemParams, _Int64Record

DEFAULT_POINT_BUDGET = 4096  # largest #L counted by default


class NonRationalMomentError(RuntimeError):
    """The curve-weighted sum failed to normalize to a rational number."""


class CurveCount(_Int64Record, namedtuple(
        "CurveCount", "params degree field_text counts modified")):
    """Affine point counts of f(x, y) = t over L by the code of t, one read-only
    int64 array as a TraceTable's numerators are (see _Int64Record), with the
    exact curve-side moment `modified` taken from them and L's text, not L."""

    __slots__ = ()
    _array = "counts"

    @property
    def field_order(self) -> int:
        return len(self.counts)

    def total(self) -> int:
        return int(self.counts.sum())

    def zero_fiber(self) -> int:
        return int(self.counts[0])


def countable(params: SystemParams, degree: int, budget: int) -> bool:
    """Whether count_points counts the degree-`degree` level: #L is within
    `budget` and F_q is a subfield of L.  The sum form needs no F_q in L, but
    the rule fixes which levels `all` counts at f > 1, and so its bytes.
    Builds no field: since p > 2, p^d passes the budget once d reaches its
    bit length, and a huge d never forms p**d."""
    d = params.base_degree * degree
    return d < budget.bit_length() and params.p**d <= budget and d % params.f == 0


def count_points(params: SystemParams, degree: int, *,
                 budget: int = DEFAULT_POINT_BUDGET,
                 field: FieldDescriptor | None = None) -> CurveCount:
    """The fiber counts over L, the `field` the caller holds or else one built
    after the budget check (SystemParams.extension), with their curve-side
    moment, taken while L is at hand; the count does not keep L.  Refuses
    exactly the levels that are not `countable`."""
    if not countable(params, degree, budget):
        if countable(params._replace(f=1), degree, budget):  # #L is within budget
            raise ValueError(
                f"roots live in a degree-{params.f} field, which is not a "
                f"subfield of {params.extension(degree, field).canonical_text()}")
        d = params.base_degree * degree
        size = f"p^d = {params.p}^{d}" if d >= budget.bit_length() else params.p**d
        raise BudgetExceededError(f"#L = {size} exceeds the point-count budget {budget}")
    L = params.extension(degree, field)
    N, M = L.order, L.order - 1
    g = math.gcd(params.n, M)
    # c^n at every code c: both factors are below 2^24, so int64 is exact
    pw = np.concatenate(([0], 1 + np.arange(M, dtype=np.int64) * (params.n % M) % M))
    # P(u) = u^n + 1 + (-u-1)^n = u^n + 1 - (u+1)^n, as n is odd
    u1 = L.add_codes_vec(np.arange(N, dtype=np.int64), 1)
    minus = L.mul_codes_vec(L.neg_code(1), pw[u1])
    P = L.add_codes_vec(L.add_codes_vec(pw, 1), minus)
    classes = np.bincount((P[P != 0] - 1) % g, minlength=g)
    hist = np.empty(N, dtype=np.int64)
    hist[0] = N + M * int(np.count_nonzero(P == 0))
    hist[1:] = g * classes[np.arange(M) % g]
    hist.flags.writeable = False  # the count's own array, not a copy
    return CurveCount(params, degree, L.canonical_text(), hist,
                      modified_third_moment(L, hist))


def modified_third_moment(L: FieldDescriptor, counts: np.ndarray) -> Fraction:
    """V conj(g)^3 / #L^3 = chi_2(-1) r / #L^2, r = V conj(g), as an exact
    rational for the fiber `counts` over L by the code of t; an r that is not
    rational is a hard error.  V and g are read off L's own trace table
    (psi_1) as power counts v and gc, and r is rational iff #L v - r gc is a
    constant vector, as sum_k zeta_p^k = 0 is the one relation on the powers
    of zeta_p (g != 0, so gc is not constant).  For c in F_p^x, psi_c =
    sigma_c(psi_1), sigma_c: zeta_p -> zeta_p^c, and no count depends on c:
    r_c = sigma_c(r_1) = r_1."""
    N, e = L.order, L.trace_abs_by_code
    # the counts sum to at most #L^2 <= 2^48: exact; #L v, up to 2^72, in ints
    v = [N * x for x in _chi2_counts(L.p, e, counts).tolist()]
    gc = _chi2_counts(L.p, e).tolist()
    k = next(k for k in range(L.p) if gc[k] != gc[0])  # fixes r
    dv, dg = v[k] - v[0], gc[k] - gc[0]
    if any((x - v[0]) * dg != dv * (y - gc[0]) for x, y in zip(v, gc)):
        raise NonRationalMomentError(
            f"curve-weighted sum is not rational over {L.canonical_text()}")
    return chi2_minus_one(L) * Fraction(dv, dg) / N**2


class CurveMomentReport(NamedTuple):
    degree: int
    field_order: int
    modified: Fraction
    empirical_m3: Fraction
    bound: float                 # q / sqrt(#L): printed, read by no check
    within_bound: bool

    @property
    def ok(self) -> bool:
        """The curve side equals M3 exactly, as the module docstring proves."""
        return self.modified == self.empirical_m3


def curve_moment_report(count: CurveCount, m3: Fraction) -> CurveMomentReport:
    """Compare the curve-side moment of `count` with `m3`, the empirical
    third moment of the trace table of the same params and degree."""
    bound = count.params.q / math.sqrt(count.field_order)
    gap = abs(float(count.modified - m3))
    return CurveMomentReport(degree=count.degree, field_order=count.field_order,
                             modified=count.modified, empirical_m3=m3,
                             bound=bound, within_bound=gap <= bound)
