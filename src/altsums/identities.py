"""Symbolic verification of the polynomial identities behind the trace sums.

Everything here is exact polynomial algebra over small finite fields:

* the split identity in F_q[x, y],
      x^n + y^n + (-x-y)^n = x y (x+y) prod over alpha in F_q minus {0,-1}
                             of (x - alpha y)^2,   n = 2q - 1;
* the same identity grouped into Frobenius orbits, where each orbit of alpha
  contributes one irreducible homogeneous factor with prime-field
  coefficients, so the right side lives in F_p[x, y];
* the one-variable derivative bookkeeping for P(x) = x^n + 1 - (x+1)^n:
  P vanishes on all of F_q, P' = -x^(n-1) + (x+1)^(n-1) vanishes on
  F_q minus {0,-1}, hence (x - alpha)^2 divides P there.  The x^n and
  constant terms of P cancel, so deg P = 2q - 2 and the leading coefficient
  is -binom(2q-1, 1) = 1 mod p, matching the degree of the factored side;
* the F_p-linear span of the (2q-2)-nd roots of unity inside F_{q^2}: it is
  all of F_{q^2} = F_q + zeta F_q for any primitive root zeta, which has
  relative trace zero to F_q;
* the four-value virtual character table (2q-1, q-1, q-1, -1) on
  F_q + F_q indexed by vanishing pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (FieldDescriptor, _poly_gcd, _poly_monic, _poly_pow_mod,
                     _poly_reduce, build_field, factor_prime_power, prime_factors)

Monomial = tuple[int, int]


class IdentityFalsifiedError(AssertionError):
    """An exact identity check failed; carries the first counterexample."""


# -- sparse bivariate polynomials over a field (coefficient = element code) -----

class BivariatePoly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldDescriptor, coeffs: dict[Monomial, int] | None = None):
        self.field = field
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v != 0}

    @classmethod
    def zero(cls, field):
        return cls(field)

    @classmethod
    def monomial(cls, field, i: int, j: int, code: int = 1):
        return cls(field, {(i, j): code})

    @classmethod
    def linear_form(cls, field, a_code: int, b_code: int):
        """a*x + b*y."""
        return cls(field, {(1, 0): a_code, (0, 1): b_code})

    def __add__(self, other: "BivariatePoly") -> "BivariatePoly":
        F = self.field
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = F.add_code(out.get(k, 0), c)
        return BivariatePoly(F, out)

    def __neg__(self) -> "BivariatePoly":
        F = self.field
        return BivariatePoly(F, {k: F.neg_code(c) for k, c in self.coeffs.items()})

    def __sub__(self, other: "BivariatePoly") -> "BivariatePoly":
        return self + (-other)

    def __mul__(self, other: "BivariatePoly") -> "BivariatePoly":
        F = self.field
        out: dict[Monomial, int] = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                k = (i1 + i2, j1 + j2)
                out[k] = F.add_code(out.get(k, 0), F.mul_code(c1, c2))
        return BivariatePoly(F, out)

    def __eq__(self, other) -> bool:
        return (isinstance(other, BivariatePoly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, tuple(sorted(self.coeffs.items()))))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def total_degree(self) -> int:
        return max((i + j for i, j in self.coeffs), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {i + j for i, j in self.coeffs}
        return len(degs) <= 1

    def x_degree(self) -> int:
        return max((i for i, _ in self.coeffs), default=-1)

    def coeff(self, i: int, j: int) -> int:
        return self.coeffs.get((i, j), 0)

    def dehomogenize(self) -> list[int]:
        """Codes of h(x, 1), dense in x."""
        out = [0] * (self.x_degree() + 1)
        F = self.field
        for (i, _), c in self.coeffs.items():
            out[i] = F.add_code(out[i], c)
        return out


def binomial_power(field: FieldDescriptor, a_code: int, b_code: int,
                   n: int) -> BivariatePoly:
    """(a*x + b*y)^n by binomial expansion."""
    out: dict[Monomial, int] = {}
    for k in range(n + 1):
        c = field.from_int(math.comb(n, k)).code
        c = field.mul_code(c, field.mul_code(field.pow_code(a_code, k),
                                             field.pow_code(b_code, n - k)))
        if c:
            out[(k, n - k)] = c
    return BivariatePoly(field, out)


def mismatch_list(lhs: BivariatePoly, rhs: BivariatePoly):
    keys = sorted(set(lhs.coeffs) | set(rhs.coeffs))
    out = []
    for k in keys:
        a, b = lhs.coeff(*k), rhs.coeff(*k)
        if a != b:
            out.append((k, lhs.field.poly_int(a), rhs.field.poly_int(b)))
    return tuple(out)


def require_ok(report) -> None:
    """Raise IdentityFalsifiedError unless report.ok; embed a counterexample."""
    if report.ok:
        return
    detail = ""
    mism = getattr(report, "mismatches", ())
    if mism:
        (i, j), a, b = mism[0]
        detail = f"; first mismatch at x^{i} y^{j}: {a} != {b}"
    raise IdentityFalsifiedError(f"{type(report).__name__} failed{detail}")


# -- split identity over F_q ------------------------------------------------------

@dataclass(frozen=True)
class SplitIdentityReport:
    q: int
    p: int
    f: int
    field_text: str
    degree: int
    factor_count: int
    homogeneous_ok: bool
    equal: bool
    mismatches: tuple

    @property
    def ok(self) -> bool:
        return self.equal and self.homogeneous_ok and self.factor_count == self.q - 2


def _identity_sides(F: FieldDescriptor, n: int, factors):
    """x^n + y^n + (-x-y)^n and x y (x+y) prod h^2 over the factors h, in F."""
    minus_one = F.neg_code(1)
    lhs = (binomial_power(F, 1, 0, n) + binomial_power(F, 0, 1, n)
           + binomial_power(F, minus_one, minus_one, n))
    rhs = (BivariatePoly.monomial(F, 1, 0) * BivariatePoly.monomial(F, 0, 1)
           * BivariatePoly.linear_form(F, 1, 1))
    for h in factors:
        rhs = rhs * h * h
    return lhs, rhs


def verify_identity_split(q: int) -> SplitIdentityReport:
    p, f = factor_prime_power(q)
    if p == 2:
        raise ValueError("odd q required")
    F = build_field(p, f)
    n = 2 * q - 1
    minus_one = F.neg_code(1)
    alphas = [c for c in range(1, F.order) if c != minus_one]
    lhs, rhs = _identity_sides(
        F, n, [BivariatePoly.linear_form(F, 1, F.neg_code(a)) for a in alphas])
    return SplitIdentityReport(
        q=q, p=p, f=f, field_text=F.canonical_text(), degree=n,
        factor_count=len(alphas),
        homogeneous_ok=(lhs.is_homogeneous() and rhs.is_homogeneous()
                        and rhs.total_degree() == n),
        equal=lhs == rhs, mismatches=mismatch_list(lhs, rhs))


# -- dense univariate helpers over a field (codes) ---------------------------------

def u_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def u_degree(a: list[int]) -> int:
    return len(u_trim(list(a))) - 1


def u_add(F, a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = F.add_code(out[i], c)
    return u_trim(out)


def u_neg(F, a):
    return [F.neg_code(c) for c in a]


def u_mul(F, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = F.add_code(out[i + j], F.mul_code(ca, cb))
    return u_trim(out)


def u_eval(F, a, x_code: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = F.add_code(F.mul_code(acc, x_code), c)
    return acc


def u_deriv(F, a):
    return u_trim([F.mul_code(c, F.from_int(k).code)
                   for k, c in enumerate(a)][1:])


def u_div_linear(F, a, alpha_code: int):
    """Divide by the monic linear (x - alpha); returns (quotient, remainder)."""
    quot = [0] * max(len(a) - 1, 0)
    acc = 0
    for k in range(len(a) - 1, -1, -1):
        acc = F.add_code(F.mul_code(acc, alpha_code), a[k])
        if k > 0:
            quot[k - 1] = acc
    return quot, acc


# -- irreducibility over the prime field (integer coefficient lists mod p) -----------

def fp_irreducible(coeffs, p) -> bool:
    """Rabin's test for a polynomial over F_p (any nonzero leading coeff)."""
    h = _poly_monic(coeffs, p)
    r = len(h) - 1
    if r < 1:
        return False
    x = _poly_reduce([0, 1], h, p)
    if _poly_pow_mod(x, p**r, h, p) != x:
        return False
    for s in prime_factors(r):
        g = _poly_pow_mod(x, p ** (r // s), h, p)
        g[1] -= 1  # x^(p^(r/s)) - x
        if len(_poly_gcd(g, h, p)) > 1:
            return False
    return True


def enumerate_monic_irreducibles(p: int, degree: int):
    """All monic irreducible polynomials of the given degree over F_p."""
    from itertools import product as iproduct
    out = []
    for tail in iproduct(range(p), repeat=degree):
        poly = list(tail) + [1]
        if fp_irreducible(poly, p):
            out.append(tuple(poly))
    return out


# -- grouped identity over F_p ------------------------------------------------------

@dataclass(frozen=True)
class GroupedIdentityReport:
    q: int
    p: int
    f: int
    orbit_count: int
    factor_degrees: tuple[int, ...]
    degrees_sum_ok: bool            # sum of degrees = q - 2
    prime_field_coeffs_ok: bool     # every orbit factor descends to F_p
    irreducible_ok: bool            # each dehomogenized factor irreducible
    complete_ok: bool               # factors = all monic irreducibles of
                                    # degree dividing f except x and x + 1
    equal: bool                     # grouped identity holds in F_p[x, y]
    mismatches: tuple

    @property
    def ok(self) -> bool:
        return (self.degrees_sum_ok and self.prime_field_coeffs_ok
                and self.irreducible_ok and self.complete_ok and self.equal)


def _frobenius_orbits(F: FieldDescriptor, codes):
    """Orbits of x -> x^p, each sorted, ordered by smallest member."""
    remaining = set(codes)
    orbits = []
    while remaining:
        start = min(remaining)
        orbit = []
        c = start
        while c not in orbit:
            orbit.append(c)
            c = F.frobenius_code(c)
        for c in orbit:
            remaining.discard(c)
        orbits.append(tuple(sorted(orbit)))
    return orbits


def verify_identity_grouped(q: int) -> GroupedIdentityReport:
    p, f = factor_prime_power(q)
    if p == 2:
        raise ValueError("odd q required")
    Fq = build_field(p, f)
    Fp = build_field(p, 1)
    n = 2 * q - 1
    minus_one = Fq.neg_code(1)
    alphas = [c for c in range(1, Fq.order) if c != minus_one]
    orbits = _frobenius_orbits(Fq, alphas)

    prime_ok = True
    irred_ok = True
    factors_fp: list[BivariatePoly] = []
    factor_polys: set[tuple[int, ...]] = set()
    for orbit in orbits:
        h = BivariatePoly.monomial(Fq, 0, 0)
        for beta in orbit:
            h = h * BivariatePoly.linear_form(Fq, 1, Fq.neg_code(beta))
        down: dict[Monomial, int] = {}
        for key, c in h.coeffs.items():
            if not Fq.in_subfield_code(1, c):
                prime_ok = False
                break
            down[key] = Fp.from_int(Fq.element(c).as_int()).code
        else:
            h_p = BivariatePoly(Fp, down)
            factors_fp.append(h_p)
            dense = [Fp.element(c).as_int() if c else 0 for c in h_p.dehomogenize()]
            factor_polys.add(tuple(dense))
            if not fp_irreducible(dense, p):
                irred_ok = False

    expected: set[tuple[int, ...]] = set()
    for r in range(1, f + 1):
        if f % r == 0:
            for poly in enumerate_monic_irreducibles(p, r):
                if poly not in {(0, 1), (1, 1)}:  # exclude x and x + 1
                    expected.add(poly)
    complete_ok = prime_ok and factor_polys == expected

    lhs, rhs = _identity_sides(Fp, n, factors_fp)
    equal = prime_ok and lhs == rhs

    degrees = tuple(sorted(len(orbit) for orbit in orbits))
    return GroupedIdentityReport(
        q=q, p=p, f=f, orbit_count=len(orbits), factor_degrees=degrees,
        degrees_sum_ok=sum(degrees) == q - 2,
        prime_field_coeffs_ok=prime_ok, irreducible_ok=irred_ok,
        complete_ok=complete_ok, equal=equal,
        mismatches=mismatch_list(lhs, rhs) if prime_ok else ())


# -- derivative bookkeeping ----------------------------------------------------------

@dataclass(frozen=True)
class DerivativeReport:
    q: int
    n: int
    degree: int                      # computed degree of P
    degree_ok: bool                  # degree = 2q - 2 (x^n and 1 cancel)
    leading_coeff_one: bool          # -binom(n, 1) = 1 mod p
    vanishes_on_field: bool          # P(beta) = 0 for all beta in F_q
    derivative_formula_ok: bool      # P' = -x^(n-1) + (x+1)^(n-1)
    derivative_vanishes_ok: bool     # P'(alpha) = 0 off {0, -1}
    double_root_division_ok: bool    # (x - alpha)^2 | P by actual division
    product_form_ok: bool            # P = x (x+1) prod (x - alpha)^2

    @property
    def ok(self) -> bool:
        return (self.degree_ok and self.leading_coeff_one
                and self.vanishes_on_field and self.derivative_formula_ok
                and self.derivative_vanishes_ok and self.double_root_division_ok
                and self.product_form_ok)


def verify_derivative_steps(q: int) -> DerivativeReport:
    p, f = factor_prime_power(q)
    if p == 2:
        raise ValueError("odd q required")
    F = build_field(p, f)
    n = 2 * q - 1

    def binom_poly(shift_one: bool, e: int) -> list[int]:
        # (x + 1)^e if shift_one else x^e, as dense codes
        if not shift_one:
            return [0] * e + [1]
        return [F.from_int(math.comb(e, k)).code for k in range(e + 1)]

    P = u_add(F, u_add(F, binom_poly(False, n), [1]),
              u_neg(F, binom_poly(True, n)))
    degree = u_degree(P)
    lead = P[degree] if degree >= 0 else 0

    vanish_field = all(u_eval(F, P, c) == 0 for c in range(F.order))

    dP = u_deriv(F, P)
    dP_expected = u_add(F, u_neg(F, binom_poly(False, n - 1)),
                        binom_poly(True, n - 1))
    minus_one = F.neg_code(1)
    alphas = [c for c in range(1, F.order) if c != minus_one]
    dvanish = all(u_eval(F, dP, a) == 0 for a in alphas)

    division_ok = True
    for a in alphas:
        q1, r1 = u_div_linear(F, P, a)
        q2, r2 = u_div_linear(F, q1, a)
        if r1 != 0 or r2 != 0:
            division_ok = False
            break

    prod = u_mul(F, [0, 1], [1, 1])  # x (x + 1)
    for a in sorted(alphas):
        lin = [F.neg_code(a), 1]
        prod = u_mul(F, prod, u_mul(F, lin, lin))

    return DerivativeReport(
        q=q, n=n, degree=degree,
        degree_ok=(degree == 2 * q - 2),
        leading_coeff_one=(lead == 1),
        vanishes_on_field=vanish_field,
        derivative_formula_ok=(u_trim(list(dP)) == u_trim(list(dP_expected))),
        derivative_vanishes_ok=dvanish,
        double_root_division_ok=division_ok,
        product_form_ok=(u_trim(list(P)) == prod))


# -- span of roots of unity (wild inertia dimension) -----------------------------------

def multiplicative_order(a: int, m: int) -> int:
    if math.gcd(a, m) != 1:
        raise ValueError("not a unit")
    k = 1
    acc = a % m
    while acc != 1:
        acc = acc * a % m
        k += 1
    return k


def _fp_rank(rows: list[np.ndarray], p: int) -> int:
    if not rows:
        return 0
    mat = np.array(rows, dtype=np.int64) % p
    rank = 0
    ncols = mat.shape[1]
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i, col] % p:
                pivot = i
                break
        if pivot is None:
            continue
        mat[[r, pivot]] = mat[[pivot, r]]
        inv = pow(int(mat[r, col]), p - 2, p)
        mat[r] = mat[r] * inv % p
        for i in range(len(mat)):
            if i != r and mat[i, col]:
                mat[i] = (mat[i] - mat[i, col] * mat[r]) % p
        r += 1
        rank += 1
        if r == len(mat):
            break
    return rank


@dataclass(frozen=True)
class UnitySpanReport:
    p: int
    root_order: int
    field_text: str
    field_degree: int
    zeta_log: int
    dimension: int


def unity_root_span(p: int, root_order: int, *, zeta_index: int = 1) -> UnitySpanReport:
    """F_p-linear span of the group of root_order-th roots of unity.

    The containing field has degree equal to the order of p modulo
    root_order; zeta is the zeta_index-th primitive root in dlog order.
    """
    if root_order < 1 or math.gcd(p, root_order) != 1:
        raise ValueError("root order must be positive and prime to p")
    deg = multiplicative_order(p, root_order) if root_order > 1 else 1
    L = build_field(p, deg)
    step = (L.order - 1) // root_order
    ks = [k for k in range(1, root_order + 1) if math.gcd(k, root_order) == 1]
    k = ks[(zeta_index - 1) % len(ks)]
    zeta_log = (step * k) % (L.order - 1)
    rows = [L.coeff_vector(1 + (j * step) % (L.order - 1))
            for j in range(root_order)]
    return UnitySpanReport(p=p, root_order=root_order,
                           field_text=L.canonical_text(), field_degree=deg,
                           zeta_log=zeta_log, dimension=_fp_rank(rows, p))


@dataclass(frozen=True)
class WildInertiaReport:
    q: int
    p: int
    f: int
    n: int
    root_order: int                 # n - 1 = 2q - 2
    field_text: str
    field_degree: int               # must be 2f
    zeta_log: int
    dimension: int
    dimension_ok: bool              # spans all of the quadratic extension
    trace_zero_ok: bool             # Tr to F_q of zeta is 0
    coset_ok: bool                  # roots = F_q^x union zeta * F_q^x
    direct_sum_ok: bool             # F_q + zeta F_q has full rank 2f

    @property
    def ok(self) -> bool:
        return (self.field_degree == 2 * self.f and self.dimension_ok
                and self.trace_zero_ok and self.coset_ok and self.direct_sum_ok)


def wild_inertia_span(q: int, *, zeta_index: int = 1) -> WildInertiaReport:
    p, f = factor_prime_power(q)
    if p == 2:
        raise ValueError("odd q required")
    n = 2 * q - 1
    order = n - 1
    span = unity_root_span(p, order, zeta_index=zeta_index)
    L = build_field(p, span.field_degree)
    M = L.order - 1
    step = M // order
    zeta_code = 1 + span.zeta_log

    trace_zero = (span.field_degree == 2 * f
                  and L.trace_to_code(f, zeta_code) == 0)

    inv_zeta = L.inv_code(zeta_code)
    coset_ok = True
    root_codes = [1 + (j * step) % M for j in range(order)]
    for c in root_codes:
        if not (L.in_subfield_code(f, c)
                or L.in_subfield_code(f, L.mul_code(c, inv_zeta))):
            coset_ok = False
            break

    sub_rows = [L.coeff_vector(c) for c in range(L.order)
                if c and L.in_subfield_code(f, c)]
    zeta_rows = [L.coeff_vector(L.mul_code(zeta_code, c)) for c in range(L.order)
                 if c and L.in_subfield_code(f, c)]
    direct_sum_ok = (_fp_rank(sub_rows, p) == f
                     and _fp_rank(zeta_rows, p) == f
                     and _fp_rank(sub_rows + zeta_rows, p) == 2 * f)

    return WildInertiaReport(
        q=q, p=p, f=f, n=n, root_order=order,
        field_text=span.field_text, field_degree=span.field_degree,
        zeta_log=span.zeta_log, dimension=span.dimension,
        dimension_ok=(span.dimension == 2 * f),
        trace_zero_ok=trace_zero, coset_ok=coset_ok,
        direct_sum_ok=direct_sum_ok)


# -- virtual character table -----------------------------------------------------------

@dataclass(frozen=True)
class VirtualCharacterTable:
    """Values of 2 Reg - 1 on F_q + F_q, by vanishing pattern of (a, b)."""

    q: int
    zero_zero: int
    nonzero_zero: int
    zero_nonzero: int
    both_nonzero: int

    def value(self, a_is_zero: bool, b_is_zero: bool) -> int:
        if a_is_zero and b_is_zero:
            return self.zero_zero
        if a_is_zero or b_is_zero:
            return self.zero_nonzero if a_is_zero else self.nonzero_zero
        return self.both_nonzero

    def weighted_sum(self) -> int:
        q = self.q
        return (self.zero_zero + (q - 1) * (self.nonzero_zero + self.zero_nonzero)
                + (q - 1) ** 2 * self.both_nonzero)


def virtual_character_table(q: int) -> VirtualCharacterTable:
    return VirtualCharacterTable(q=q, zero_zero=2 * q - 1,
                                 nonzero_zero=q - 1, zero_nonzero=q - 1,
                                 both_nonzero=-1)
