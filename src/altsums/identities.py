"""Symbolic verification of the polynomial identities behind the trace sums.

Everything here is exact polynomial algebra over small finite fields:

* the split identity in F_q[x, y],
      x^n + y^n + (-x-y)^n = x y (x+y) prod over alpha in F_q minus {0,-1}
                             of (x - alpha y)^2,   n = 2q - 1;
* the same identity grouped into Frobenius orbits, where each orbit of alpha
  contributes one irreducible homogeneous factor with prime-field
  coefficients, so the right side lives in F_p[x, y]; each factor passes
  Rabin's test (`fp_irreducible`), and they are all monic irreducibles of
  degree dividing f but x and x + 1 by a count per degree (`_necklace_count`);
* the one-variable derivative bookkeeping for P(x) = x^n + 1 - (x+1)^n:
  P vanishes on all of F_q, P' = -x^(n-1) + (x+1)^(n-1) vanishes on
  F_q minus {0,-1}, hence (x - alpha)^2 divides P there.  The x^n and
  constant terms of P cancel, so deg P = 2q - 2 and the leading coefficient
  is -binom(2q-1, 1) = 1 mod p, matching the degree of the factored side.
  The pointwise steps are one synthetic-division pass over F_q, at every
  point at once (`u_double_division`), and one Horner pass for P' (`u_eval`);
* the F_p-linear span of the (2q-2)-nd roots of unity inside F_{q^2}: it is
  all of F_{q^2} = F_q + zeta F_q for the primitive root zeta, which has
  relative trace zero to F_q;
* the four-value virtual character table (2q-1, q-1, q-1, -1) on
  F_q + F_q indexed by vanishing pattern.

Both sides of the split and grouped identities are degree-n forms, and a
form is determined by its value at y = 1, so each is checked as the dense
one-variable equality P(x) = x (x+1) prod h(x)^2 that the derivative
bookkeeping also ends in (`dehomogenized_sides`).  A dense polynomial over
F_q is an int64 array of element codes, constant term first, with no high
zero codes; P comes from binomials mod p, and each product step is a few
vectorized code operations over the longer operand (`u_mul`).  Every check of
q reads one P and one split product (`_split`).
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache, partial, reduce
from itertools import accumulate, combinations, zip_longest
from typing import NamedTuple

import numpy as np

from .fields import (FieldDescriptor, _companion, _mat_pow_mod, build_field,
                     factor_prime_power, prime_factors)


class IdentityFalsifiedError(AssertionError):
    """An exact identity check failed; carries the first counterexample."""


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


# -- dense univariate code arrays over a field; the zero polynomial is empty -------

def _int_codes(F: FieldDescriptor, ints) -> np.ndarray:
    """Codes of prime-field ints, one gather: log_by_int is -1 at 0."""
    return 1 + F.log_by_int[np.array([v % F.p for v in ints], dtype=np.int64)]


def _binomials(e: int) -> list[int]:
    """binom(e, k) for k = 0..e, each from the one before."""
    return list(accumulate(range(1, e + 1), lambda c, k: c * (e - k + 1) // k, initial=1))


def u_mul(F, a, b):
    """a b: the longer operand times each nonzero coefficient of the shorter,
    added in at its shift."""
    if len(a) < len(b):
        a, b = b, a
    out = np.zeros(len(a) + len(b) - 1 if len(b) else 0, dtype=np.int64)
    for j in np.flatnonzero(b).tolist():
        out[j:j + len(a)] = F.add_codes_vec(out[j:j + len(a)], F.mul_codes_vec(a, b[j]))
    return out


def u_deriv(F, a):
    return np.trim_zeros(F.mul_codes_vec(a[1:], _int_codes(F, range(1, len(a)))), "b")


def u_eval(F, a, x0):
    """a(x0) at every code of x0 at once, by Horner."""
    x0 = np.asarray(x0, dtype=np.int64)
    r = np.zeros_like(x0)
    for c in reversed(a):
        r = F.add_codes_vec(F.mul_codes_vec(r, x0), c)
    return r


def u_double_division(F, a, x0):
    """Remainders of a by x - x0 and of that quotient by x - x0 again, a(x0)
    and a'(x0), at every code of x0 at once: one synthetic division whose
    first accumulator passes through the quotient's coefficients, which the
    second runs Horner on.  (x - x0)^2 | a exactly where both are zero."""
    x0 = np.asarray(x0, dtype=np.int64)
    r1 = r2 = np.zeros_like(x0)
    for c in reversed(a):
        r2 = F.add_codes_vec(F.mul_codes_vec(r2, x0), r1)
        r1 = F.add_codes_vec(F.mul_codes_vec(r1, x0), c)
    return r1, r2


# -- both sides of the identity at y = 1 --------------------------------------------

def dehomogenized_sides(F: FieldDescriptor, n: int, factors):
    """x^n + 1 - (x+1)^n and x (x+1) (prod h)^2 over the factors h, dense in F.

    They are x^n + y^n + (-x-y)^n (n odd) and x y (x+y) prod h(x, y)^2 at
    y = 1, each h monic in x.  A form of degree m is equal to another exactly
    when the two are equal at y = 1, since its x^i y^(m-i) coefficient is
    that of x^i; and both sides at y = 1 have degree one less than their
    forms (the x^n terms on the left cancel, -n = 1 mod p), so equal sides
    here mean equal forms.
    """
    lhs = _int_codes(F, [(k == 0) + (k == n) - c for k, c in enumerate(_binomials(n))])
    h = reduce(partial(u_mul, F), factors, np.ones(1, dtype=np.int64))
    return np.trim_zeros(lhs, "b"), u_mul(F, [0, 1, 1], u_mul(F, h, h))  # x (x + 1)


def mismatch_list(F: FieldDescriptor, n: int, lhs, rhs):
    """((i, n - i), a, b) for each x^i y^(n-i) whose coefficients differ."""
    return tuple(((i, n - i), F.poly_int(a), F.poly_int(b))
                 for i, (a, b) in enumerate(zip_longest(lhs.tolist(), rhs.tolist(),
                                                        fillvalue=0))
                 if a != b)


# -- split identity over F_q ------------------------------------------------------

class SplitIdentityReport(NamedTuple):
    q: int
    p: int
    f: int
    field_text: str
    degree: int
    factor_count: int
    equal: bool
    mismatches: tuple

    @property
    def ok(self) -> bool:
        return self.equal and self.factor_count == self.q - 2


def _odd_q(q: int) -> tuple[int, int, int]:
    """(p, f, n = 2q - 1) for an odd prime power q = p^f."""
    p, f = factor_prime_power(q)
    if p == 2:
        raise ValueError("odd q required")
    return p, f, 2 * q - 1


def _split_alphas(F: FieldDescriptor) -> list[int]:
    """Codes of F minus {0, -1}, the alpha of the factors (x - alpha y)^2."""
    minus_one = F.neg_code(1)
    return [c for c in range(1, F.order) if c != minus_one]


@lru_cache(maxsize=1)  # `identity` and `all` check one q at a time
def _split(q: int):
    """(p, f, n, F_q, alphas, P, x (x+1) prod (x - alpha)^2) for odd q: the
    alphas the codes of F_q minus {0, -1}, P and the product read-only code
    arrays, which the cache shares between callers."""
    p, f, n = _odd_q(q)
    F = build_field(p, f)
    alphas = tuple(_split_alphas(F))
    P, prod = dehomogenized_sides(F, n, [[F.neg_code(a), 1] for a in alphas])
    P.flags.writeable = prod.flags.writeable = False
    return p, f, n, F, alphas, P, prod


def verify_identity_split(q: int) -> SplitIdentityReport:
    p, f, n, F, alphas, P, prod = _split(q)
    return SplitIdentityReport(
        q=q, p=p, f=f, field_text=F.canonical_text(), degree=n,
        factor_count=len(alphas), equal=np.array_equal(P, prod),
        mismatches=mismatch_list(F, n, P, prod))


# -- irreducibility over the prime field (integer coefficient lists mod p) -----------

def fp_irreducible(coeffs, p) -> bool:
    """Rabin's test for a polynomial h over F_p (any nonzero leading coeff),
    on the companion matrix C of monic h: g(C) = C^(p^k) - C for
    g = x^(p^k) - x, invertible exactly when g is prime to h.  So h of degree
    r is irreducible when C^(p^r) = C and, for each prime s of r,
    C^(p^(r/s)) - C has full rank."""
    h = np.trim_zeros(np.array([c % p for c in coeffs], dtype=np.int64), "b")
    r = len(h) - 1
    if r < 1:
        return False
    C = _companion(h * pow(int(h[-1]), -1, p) % p, p)
    return (np.array_equal(_mat_pow_mod(C, p**r, p), C)
            and all(_fp_rank(list(_mat_pow_mod(C, p ** (r // s), p) - C), p) == r
                    for s in prime_factors(r)))


def _necklace_count(p: int, r: int) -> int:
    """Monic irreducibles of degree r over F_p: (1/r) sum over d | r of
    mu(d) p^(r/d), mu nonzero only on products of distinct primes of r."""
    primes = prime_factors(r)
    return sum((-1) ** k * p ** (r // math.prod(ds))
               for k in range(len(primes) + 1) for ds in combinations(primes, k)) // r


# -- grouped identity over F_p ------------------------------------------------------

class GroupedIdentityReport(NamedTuple):
    q: int
    p: int
    f: int
    orbit_count: int
    factor_degrees: tuple[int, ...]
    degrees_sum_ok: bool            # sum of degrees = q - 2
    prime_field_coeffs_ok: bool     # every orbit factor descends to F_p
    irreducible_ok: bool            # each dehomogenized factor irreducible
    complete_ok: bool               # factors = all monic irreducibles of
                                    # degree dividing f except x and x + 1,
                                    # by a count per degree (necklace count)
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
        orbit = [min(remaining)]
        while (c := F.frobenius_code(orbit[-1])) != orbit[0]:
            orbit.append(c)
        remaining -= set(orbit)
        orbits.append(tuple(sorted(orbit)))
    return orbits


def verify_identity_grouped(q: int) -> GroupedIdentityReport:
    """The orbit factors are multiplied in F_q, where their prime-field
    coefficients already lie, and compared with the split check's P."""
    p, f, n, Fq, alphas, P, _ = _split(q)
    orbits = _frobenius_orbits(Fq, alphas)

    prime_ok = True
    irred_ok = True
    factors: list[np.ndarray] = []
    factor_polys: set[tuple[int, ...]] = set()
    for orbit in orbits:
        h = reduce(partial(u_mul, Fq), ([Fq.neg_code(beta), 1] for beta in orbit),
                   np.ones(1, dtype=np.int64))
        if not all(Fq.in_subfield_code(1, c) for c in h.tolist()):
            prime_ok = False
            continue
        dense = [Fq.prime_int(c) for c in h.tolist()]
        factors.append(h)
        factor_polys.add(tuple(dense))
        if not fp_irreducible(dense, p):
            irred_ok = False

    # distinct irreducible factors, not x or x + 1, as many per degree r | f
    # as the necklace count (two fewer for r = 1) and none of another degree:
    # a subset of equal size of that finite set is all of it
    expected = Counter({r: _necklace_count(p, r) - 2 * (r == 1)
                        for r in range(1, f + 1) if f % r == 0})
    complete_ok = (prime_ok and irred_ok and len(factor_polys) == len(orbits)
                   and not factor_polys & {(0, 1), (1, 1)}
                   and Counter(len(h) - 1 for h in factor_polys) == expected)

    rhs = dehomogenized_sides(Fq, n, factors)[1]
    equal = prime_ok and np.array_equal(P, rhs)

    degrees = tuple(sorted(len(orbit) for orbit in orbits))
    return GroupedIdentityReport(
        q=q, p=p, f=f, orbit_count=len(orbits), factor_degrees=degrees,
        degrees_sum_ok=sum(degrees) == q - 2,
        prime_field_coeffs_ok=prime_ok, irreducible_ok=irred_ok,
        complete_ok=complete_ok, equal=equal,
        mismatches=mismatch_list(Fq, n, P, rhs) if prime_ok else ())


# -- derivative bookkeeping ----------------------------------------------------------

class DerivativeReport(NamedTuple):
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
    p, f, n, F, alphas, P, prod = _split(q)
    degree = len(P) - 1

    # P(x0) and the second remainder at every x0 in F_q, read at each alpha
    value, second = u_double_division(F, P, np.arange(F.order))
    at_alpha = np.array(alphas, dtype=np.int64)

    dP = u_deriv(F, P)
    dP_expected = np.trim_zeros(_int_codes(
        F, [c - (k == n - 1) for k, c in enumerate(_binomials(n - 1))]), "b")
    dP_at_alpha = u_eval(F, dP, at_alpha)

    return DerivativeReport(
        q=q, n=n, degree=degree,
        degree_ok=(degree == 2 * q - 2),
        leading_coeff_one=degree >= 0 and int(P[-1]) == 1,
        vanishes_on_field=not value.any(),
        derivative_formula_ok=np.array_equal(dP, dP_expected),
        derivative_vanishes_ok=not dP_at_alpha.any(),
        double_root_division_ok=not (value[at_alpha] | second[at_alpha]).any(),
        product_form_ok=np.array_equal(P, prod))


# -- span of the (2q-2)-nd roots of unity (wild inertia dimension) -----------------

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
    r = 0
    for col in range(mat.shape[1]):
        nonzero = np.flatnonzero(mat[r:, col])
        if not nonzero.size:
            continue
        mat[[r, r + nonzero[0]]] = mat[[r + nonzero[0], r]]
        mat[r] = mat[r] * pow(int(mat[r, col]), p - 2, p) % p
        others = np.arange(len(mat)) != r
        mat[others] = (mat[others] - np.outer(mat[others, col], mat[r])) % p
        r += 1
        if r == len(mat):
            break
    return r


class WildInertiaReport(NamedTuple):
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


def wild_inertia_span(q: int) -> WildInertiaReport:
    """The F_p-span of the (2q-2)-nd roots of unity, in the field L of degree
    the order of p mod 2q - 2, with zeta the first primitive root in dlog
    order.  F_q^x in L^x has the codes 1 + k (#L - 1)/(q - 1), k < q - 1."""
    p, f, n = _odd_q(q)
    order = n - 1
    deg = multiplicative_order(p, order)
    L = build_field(p, deg)
    M = L.order - 1
    step = M // order
    zeta_code = 1 + step
    roots = [1 + j * step for j in range(order)]
    dimension = _fp_rank([L.coeff_vector(c) for c in roots], p)

    trace_zero = deg == 2 * f and L.trace_to_code(f, zeta_code) == 0

    inv_zeta = L.inv_code(zeta_code)
    coset_ok = all(L.in_subfield_code(f, c)
                   or L.in_subfield_code(f, L.mul_code(c, inv_zeta))
                   for c in roots)

    units = [1 + k * (M // (q - 1)) for k in range(q - 1)]
    sub_rows = [L.coeff_vector(c) for c in units]
    zeta_rows = [L.coeff_vector(L.mul_code(zeta_code, c)) for c in units]
    direct_sum_ok = (_fp_rank(sub_rows, p) == f
                     and _fp_rank(zeta_rows, p) == f
                     and _fp_rank(sub_rows + zeta_rows, p) == 2 * f)

    return WildInertiaReport(
        q=q, p=p, f=f, n=n, root_order=order,
        field_text=L.canonical_text(), field_degree=deg,
        zeta_log=step, dimension=dimension,
        dimension_ok=(dimension == 2 * f),
        trace_zero_ok=trace_zero, coset_ok=coset_ok,
        direct_sum_ok=direct_sum_ok)


# -- virtual character table -----------------------------------------------------------

class VirtualCharacterTable(NamedTuple):
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
