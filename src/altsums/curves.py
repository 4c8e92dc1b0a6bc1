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

The counts follow from homogeneity in chunks of L: f(x, 0) = 0 and
f(u y, y) = y^n P(u) with P(u) = f(u, 1), and y -> y^n maps L^x g-to-one
onto the g-th powers, g = gcd(n, #L - 1).  Hence N(0) = #L + (#L - 1)
#{u : P(u) = 0} and N(t) = g #{u : P(u) != 0, dlog P(u) = dlog t mod g}
for t != 0, where the dlog of code j >= 1 (the element gen^(j-1)) is j - 1.
So the count is the number of roots of P in L and the g class totals.
P is read off the sum form in passes whose number does not depend on q; the
tests evaluate the product form, and so check the identity over L as well.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

import numpy as np

from .characters import _chi2_counts, chi2_minus_one
from .fields import BudgetExceededError, FieldDescriptor, _field_text
from .traces import SystemParams

DEFAULT_POINT_BUDGET = 4096  # largest #L counted by default
CHUNK = 1 << 14  # codes u per pass of count_points


class NonRationalMomentError(RuntimeError):
    """The curve-weighted sum failed to normalize to a rational number."""


class CurveCount(namedtuple("CurveCount", "params degree field_text field_order "
                                          "zeros classes modified")):
    """Affine point counts of f(x, y) = t over L, as what determines them: the
    number `zeros` of roots of P in L and the g = gcd(n, #L - 1) class totals
    `classes` (see the module docstring), with the exact curve-side moment
    `modified` taken from them and L's text, not L."""

    __slots__ = ()

    @property
    def counts(self) -> np.ndarray:
        """N(t) by the code of t: a new read-only int64 array per read."""
        g = len(self.classes)
        counts = np.empty(self.field_order, dtype=np.int64)
        counts[0] = self.zero_fiber()
        counts[1:].reshape(-1, g)[:] = np.multiply(self.classes, g, dtype=np.int64)
        counts.flags.writeable = False
        return counts

    def total(self) -> int:
        """#L^2, as sum(classes) = #L - zeros and each class has (#L - 1)/g codes."""
        return self.zero_fiber() + (self.field_order - 1) * sum(self.classes)

    def zero_fiber(self) -> int:
        return self.field_order + (self.field_order - 1) * self.zeros


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
        d = params.base_degree * degree
        if countable(params._replace(f=1), degree, budget):  # #L is within budget
            raise ValueError(  # L named from its modulus: no table is built
                f"roots live in a degree-{params.f} field, which is not a "
                f"subfield of {_field_text(params.p, d)}")
        size = f"p^d = {params.p}^{d}" if d >= budget.bit_length() else params.p**d
        raise BudgetExceededError(f"#L = {size} exceeds the point-count budget {budget}")
    L = params.extension(degree, field)
    N, M = L.order, L.order - 1
    g, e, minus_one = math.gcd(params.n, M), params.n % M, L.neg_code(1)
    zeros, classes = 0, np.zeros(g, dtype=np.int64)
    for start in range(0, N, CHUNK):
        u = np.arange(start, min(start + CHUNK, N), dtype=np.int64)
        u1 = L.add_codes_vec(u, 1)
        # c^n at the codes u and u + 1: both factors are below 2^24, so int64 is exact
        un, u1n = (np.where(c == 0, 0, 1 + (c - 1) * e % M) for c in (u, u1))
        # P(u) = u^n + 1 + (-u-1)^n = u^n + 1 - (u+1)^n, as n is odd
        P = L.add_codes_vec(L.add_codes_vec(un, 1), L.mul_codes_vec(minus_one, u1n))
        P = P[P != 0]
        zeros += len(u) - len(P)
        classes += np.bincount((P - 1) % g, minlength=g)
    count = CurveCount(params, degree, L.canonical_text(), N, zeros,
                       tuple(classes.tolist()), None)
    return count._replace(modified=modified_third_moment(L, count.counts))


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
