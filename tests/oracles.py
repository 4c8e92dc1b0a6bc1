"""Exact reference implementations that the production code is tested against.

Each quantity has one production algorithm in `altsums` and, here, an
independent oracle that only tests import.

* Trace numerators.  The kernel in `altsums.traces` computes every
  numerator -S(t) conj(A) with one complex FFT and a certified rounding.
  `exact_numerators` computes the same numerators in exact int64 arithmetic
  over Z[zeta_p]: an additive Fourier transform of zeta-power counts, then
  one circulant product against conj(A).  It costs O(#L p^2 d) time and
  (#L, p) arrays.
* Single sums.  `raw_sum` computes one S(t) in O(#L) by signed zeta-power
  counts, and `normalized_trace` the exact T(t) = -S(t)/A from it;
  `raw_sum_naive` accumulates S(t) term by term, an independent cross-check
  of both.  The descent form D(t) = -sum psi(x^n / t + x) chi_2(x / t)
  satisfies sum |S|^2 = sum |D|^2 over nonzero parameters whenever x -> x^n
  is a bijection (`descent_consistency`).
* Characters.  `psi_table` computes every psi exponent one element at a
  time, as a Frobenius-orbit sum, and every oracle here reads it (never
  `altsums.characters.psi_exponent_table`, c times L's trace table);
  `normalization_constant_direct` sums the Gauss sum over it.  `psi`,
  `psi_exponent`, `sum_psi` and `sum_chi2` evaluate the characters one
  element, or one orthogonality sum, at a time.
* The complex embedding.  `complex_value` evaluates a CycInt at zeta_p =
  exp(2 pi i / p), the float check of the Gauss unit the trace kernel takes
  in closed form (`traces._gauss_unit`).
* The curve side.  `count_points` reads the fiber form f off its sum form
  x^n + y^n + (-x-y)^n by homogeneity; `product_form_values` evaluates its
  product form x y (x + y) prod (x - alpha y)^2 at every pair, a Zech pass
  per factor, with each alpha in F_q minus {0, -1} embedded into L one
  element at a time (`alpha_codes`, through `fields.embed`).  Their
  agreement checks the split identity over L.  `curve_weighted_sum`
  attaches the weight psi(t) chi_2(-t) to a fiber histogram one t at a
  time; `triple_sum_direct` attaches psi(f) chi_2(-f) pair by pair, never
  forming the histogram that `count_points` makes.
* The group side.  `oracle_spectrum` is the law of fix - 1 that a level's
  regime (`verdict.regime_for`) predicts for its traces.
* Irreducibles over F_p.  `brute_irreducible` tries every monic divisor of
  lower degree, where `identities.fp_irreducible` runs Rabin's test on a
  companion matrix; `enumerate_monic_irreducibles` lists a degree's monic
  irreducibles with it, which the grouped identity only counts
  (`identities._necklace_count`).
* Field moduli.  `fields._find_modulus` skips a candidate with a root in
  F_p^x before it tests x for primitivity; `unfiltered_modulus` puts every
  candidate whose norm generates F_p^x through that test.
"""

import cmath
import math
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np

from altsums.characters import CharacterContext, chi2_code
from altsums.cyclotomic import CycInt
from altsums.fields import (BudgetExceededError, FieldDescriptor, _x_is_primitive,
                            build_field, embed, prime_factors)
from altsums.groups import spectrum
from altsums.identities import _split_alphas
from altsums.traces import NonRationalTraceError, SystemParams
from altsums.verdict import regime_for

ROW_CHUNK = 256  # x-rows per block of product_form_values: bounds its memory


def _additive_fft_counts(params: SystemParams, L: FieldDescriptor) -> np.ndarray:
    """Counts of S(t) on zeta^0..zeta^(p-1) for every t; row = element code.

    Lay h(x) = chi_2(x) * zeta^e(x^n) out as H[a, k]: a = poly_int(x), the
    base-p packing of the coordinates a_i of x, and k the zeta exponent.  As
    e(t*x) = sum_i a_i * w_i(t) mod p with w_i(t) = e(t * x^i), the row of S(t)
    is F[w(t)] for the d-dimensional (d = [L : F_p]) transform
    F[w] = sum_a roll(H[a], <a, w>), taken one coordinate per stage.  Each
    x != 0 puts one +-1 into H and a stage only shifts and adds rows, so the
    l1 norm of every row stays at most #L - 1 and |H| <= #L - 1 in every
    stage: int64 is exact.
    """
    p, d, N = L.p, L.d, L.order
    M = N - 1
    e_tab = psi_table(params.context(), L)
    logs = np.arange(M, dtype=np.int64)
    H = np.zeros((N, p), dtype=np.int64)
    # poly_int is injective, so plain assignment places every term
    H[L.antilog_int, e_tab[1 + (params.n % M) * logs % M]] = np.where(logs % 2 == 0, 1, -1)

    k = np.arange(p)
    mul = np.outer(k, k) % p                  # [a_i, w] = a_i * w
    sub = (k[None, :] - k[:, None]) % p       # [m, j] = j - m
    for i in range(d):
        lo = p**i
        blocks = H.reshape(N // (lo * p), p, lo, p)  # axis 1 is coordinate i
        acc = np.zeros((N // (lo * p), lo, p, p), dtype=np.int64)
        for ai in range(p):
            acc += blocks[:, ai][..., sub[mul[ai]]]  # zeta^(a_i*w) shifts exponent j
        H = acc.transpose(0, 2, 1, 3).reshape(N, p)

    x_logs = L.log_by_int[p ** np.arange(d)]  # dlog of x^i
    rows = np.zeros(N, dtype=np.int64)  # t = 0 has w = 0
    for i in range(d):  # digit i of the row of t = g^tau is w_i(g^tau)
        rows[1:] += e_tab[1 + (logs + x_logs[i]) % M] * p**i
    return H[rows]


def _finish(counts: np.ndarray, conjA: CycInt, N: int,
            field_text: str) -> np.ndarray:
    """Numerators of -S * conj(A) per row, as one int64 array.

    Rows are counts of S on zeta powers, entries at most #L - 1 in l1 norm;
    the product with conj(A) is one circulant matrix product, which stays
    exact while p * (#L - 1) * max|conj(A)| < 2**63.
    """
    p = conjA.p
    bound = p * (N - 1) * max(abs(c) for c in conjA.coeffs)
    if bound >= 2**63:
        raise BudgetExceededError(
            f"p * (#L - 1) * max|conj(A)| = {bound} overflows int64 over {field_text}")
    a = np.array(conjA.coeffs + (0,), dtype=np.int64)
    k = np.arange(p)
    prod = -(counts @ a[(k[None, :] - k[:, None]) % p])  # [t, k] = -sum_j S_j a_(k-j)
    reduced = prod[:, :-1] - prod[:, -1:]  # power basis, as CycInt.from_power_counts
    bad = np.flatnonzero(reduced[:, 1:].any(axis=1))
    if bad.size:
        raise NonRationalTraceError(
            f"non-rational normalized trace at t_index={bad[0]} over {field_text}")
    return reduced[:, 0].copy()  # not a view that keeps `reduced` alive


def exact_numerators(params: SystemParams, L: FieldDescriptor) -> np.ndarray:
    """The numerators of every trace over L, computed exactly."""
    conjA = normalization_constant_direct(params, L).conj()
    return _finish(_additive_fft_counts(params, L), conjA, L.order,
                   L.canonical_text())


# -- single sums ----------------------------------------------------------------

def _signed_sum(params: SystemParams, L: FieldDescriptor, codes: np.ndarray,
                plus: np.ndarray) -> CycInt:
    """sum of +-psi(u) over the element codes u, + where `plus` holds."""
    p = params.p
    exps = psi_table(params.context(), L)[codes]
    counts = np.bincount(exps[plus], minlength=p) - np.bincount(exps[~plus], minlength=p)
    return CycInt.from_power_counts(p, counts.tolist())


def raw_sum(params: SystemParams, L: FieldDescriptor, t: int) -> CycInt:
    """S(t) for the one code t in O(#L); trace_table computes every t at once."""
    M = L.order - 1
    logs = np.arange(M, dtype=np.int64)  # x = g^log runs over L^x
    codes = L.add_codes_vec(1 + (params.n % M) * logs % M,
                            L.mul_codes_vec(np.int64(t), 1 + logs))
    return _signed_sum(params, L, codes, logs % 2 == 0)


def raw_sum_naive(params: SystemParams, L: FieldDescriptor, t: int) -> CycInt:
    """S(t) by scalar term-by-term accumulation; cross-check implementation."""
    e_tab = psi_table(params.context(), L)
    acc = CycInt.zero(params.p)
    n = params.n
    for code in range(1, L.order):
        arg = L.add_code(L.pow_code(code, n), L.mul_code(t, code))
        acc = acc + chi2_code(L, code) * CycInt.root(params.p, int(e_tab[arg]))
    return acc


def normalized_trace(params: SystemParams, L: FieldDescriptor, t: int) -> Fraction:
    """T(t) = -S(t)/A as an exact rational; raises if not rational."""
    S = raw_sum(params, L, t)
    A = normalization_constant_direct(params, L)
    num = (-S) * A.conj()
    r = num.as_rational()
    if r is None:
        raise NonRationalTraceError(
            f"non-rational normalized trace at t_code={t} over {L.canonical_text()}")
    return Fraction(r, L.order)


# -- descent form -------------------------------------------------------------

def descent_trace(params: SystemParams, L: FieldDescriptor, t: int) -> CycInt:
    """-sum over x in L^x of psi(x^n / t + x) chi_2(x / t); the code t must
    be nonzero."""
    if t == 0:
        raise ValueError("descent trace is only defined for nonzero t")
    M = L.order - 1
    tau = t - 1
    logs = np.arange(M, dtype=np.int64)
    # x^n / t plus x itself, signed by chi_2(x / t)
    codes = L.add_codes_vec(1 + ((params.n % M) * logs - tau) % M, 1 + logs)
    return -_signed_sum(params, L, codes, (logs - tau) % 2 == 0)


class DescentReport(NamedTuple):
    degree: int
    applicable: bool      # gcd(n, #L - 1) = 1, so x -> x^n is a bijection
    equal: bool | None
    lhs: CycInt | None    # sum over s != 0 of |S(s)|^2
    rhs: CycInt | None    # sum over t != 0 of |D(t)|^2


def descent_consistency(params: SystemParams, degree: int) -> DescentReport:
    """Exact equality of sum |S|^2 and sum |D|^2 over nonzero parameters."""
    L = params.extension(degree)
    if math.gcd(params.n, L.order - 1) != 1:
        return DescentReport(degree, False, None, None, None)
    lhs = CycInt.zero(params.p)
    rhs = CycInt.zero(params.p)
    for code in range(1, L.order):
        s_val = raw_sum(params, L, code)
        d_val = descent_trace(params, L, code)
        lhs = lhs + s_val.abs_squared()
        rhs = rhs + d_val.abs_squared()
    return DescentReport(degree, True, lhs == rhs, lhs, rhs)


# -- characters -----------------------------------------------------------------

@lru_cache(maxsize=None)
def psi_table(ctx: CharacterContext, L: FieldDescriptor) -> np.ndarray:
    """Exponent a(u) with psi_{L/k}(u) = zeta_p^a(u) for every element code
    u: a(u) = Tr_{L/F_p}(c u) for the multiplier c in F_p^x, found in L as
    L.code_from_poly_int(c), summed over the Frobenius orbit of c u by scalar
    code arithmetic (L.trace_to_code).  Read-only, and kept per (ctx, L) for
    the test session."""
    c = L.code_from_poly_int(ctx.multiplier)
    table = np.array([L.prime_int(L.trace_to_code(1, L.mul_code(c, u)))
                      for u in range(L.order)], dtype=np.int64)
    table.flags.writeable = False
    return table


def normalization_constant_direct(params: SystemParams, L: FieldDescriptor) -> CycInt:
    """A(L, n, psi) = -chi_2(n (-1)^((n-1)/2)) g_L, the Gauss sum g_L =
    sum over L^x of psi(x) chi_2(x) summed over psi_table."""
    p, n = params.p, params.n
    e = psi_table(params.context(), L)[1:]
    g = CycInt.from_power_counts(p, (np.bincount(e[0::2], minlength=p)
                                     - np.bincount(e[1::2], minlength=p)).tolist())
    sign = chi2_code(L, L.code_from_poly_int(n * (-1) ** ((n - 1) // 2) % p))
    return (-sign) * g


def complex_value(z: CycInt) -> complex:
    """z at zeta_p = exp(2 pi i / p)."""
    w = cmath.exp(2j * cmath.pi / z.p)
    return sum(c * w**i for i, c in enumerate(z.coeffs))


def psi_exponent(ctx: CharacterContext, L: FieldDescriptor, x: int) -> int:
    return int(psi_table(ctx, L)[x])


def psi(ctx: CharacterContext, L: FieldDescriptor, x: int) -> CycInt:
    return CycInt.root(ctx.base.p, psi_exponent(ctx, L, x))


def sum_psi(ctx: CharacterContext, L: FieldDescriptor) -> CycInt:
    """sum over all of L of psi(u); orthogonality says 0 for nontrivial psi."""
    p = ctx.base.p
    counts = np.bincount(psi_table(ctx, L), minlength=p)
    return CycInt.from_power_counts(p, counts.tolist())


def sum_chi2(L: FieldDescriptor) -> int:
    """sum over L^x of chi_2; orthogonality says 0."""
    return sum(chi2_code(L, c) for c in range(1, L.order))


# -- the curve side -------------------------------------------------------------

def alpha_codes(params: SystemParams, L: FieldDescriptor) -> list[int]:
    """Codes in L of F_q minus {0, -1}, each element of F_q embedded."""
    Fq = build_field(params.p, params.f)
    return [embed(Fq, L, c) for c in _split_alphas(Fq)]


def curve_weighted_sum(params: SystemParams, L: FieldDescriptor, counts) -> CycInt:
    """W = sum over t in L^x of psi(t) chi_2(-t) N_L(t), one t at a time, for
    the fiber `counts` N_L over L by the code of t."""
    w = [0] * params.p
    e = psi_table(params.context(), L)
    for t in range(1, L.order):
        w[int(e[t])] += chi2_code(L, L.neg_code(t)) * int(counts[t])
    return CycInt.from_power_counts(params.p, w)


def _eval_rows(L: FieldDescriptor, alphas: list[int],
               x_codes: np.ndarray, y_codes: np.ndarray) -> np.ndarray:
    """Value codes of the product form f on the grid x_codes x y_codes, one
    factor (x - alpha y)^2 per alpha."""
    X = x_codes[:, None]
    Y = y_codes[None, :]
    acc = L.mul_codes_vec(L.mul_codes_vec(X, Y), L.add_codes_vec(X, Y))
    for a in alphas:
        term = L.add_codes_vec(X, L.mul_codes_vec(np.int64(L.neg_code(a)), Y))
        acc = L.mul_codes_vec(acc, L.mul_codes_vec(term, term))
    return acc


def product_form_values(params: SystemParams, L: FieldDescriptor) -> Iterator[np.ndarray]:
    """The value codes of the product form f over every pair of L, ROW_CHUNK
    x-rows at a time; L must contain F_q."""
    alphas = alpha_codes(params, L)
    ys = np.arange(L.order, dtype=np.int64)
    for start in range(0, L.order, ROW_CHUNK):
        rows = np.arange(start, min(start + ROW_CHUNK, L.order), dtype=np.int64)
        yield _eval_rows(L, alphas, rows, ys).ravel()


def triple_sum_direct(params: SystemParams, degree: int) -> CycInt:
    """sum of psi(f(x,y)) chi_2(-f(x,y)) over pairs with f(x,y) != 0.

    Independent route to curve_weighted_sum: the same weight is attached
    pair by pair instead of fiber by fiber, never forming the histogram.
    """
    L = params.extension(degree)  # F_q lies in L
    e_tab = psi_table(params.context(), L)
    half = (L.order - 1) // 2
    even = np.zeros(params.p, dtype=np.int64)
    odd = np.zeros(params.p, dtype=np.int64)
    for v in product_form_values(params, L):
        v = v[v != 0]
        exps = e_tab[v]
        neg_parity = (v - 1 + half) % 2
        even += np.bincount(exps[neg_parity == 0], minlength=params.p)
        odd += np.bincount(exps[neg_parity == 1], minlength=params.p)
    return CycInt.from_power_counts(params.p, (even - odd).tolist())


# -- the group side -------------------------------------------------------------

def oracle_spectrum(params: SystemParams, degree: int) -> dict[int, Fraction]:
    """The law of fix - 1 on the coset of Alt(2q) that regime_for names for
    the degree-`degree` level."""
    return spectrum(2 * params.q, *regime_for(params, degree))


# -- irreducibles over the prime field --------------------------------------------

def brute_irreducible(coeffs, p) -> bool:
    """Trial division by every monic polynomial of degree at most half."""

    def trim(a):
        a = [c % p for c in a]
        while a and a[-1] == 0:
            a.pop()
        return a

    def remainder(a, b):
        a = trim(a)
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b):
            shift = len(a) - len(b)
            c = a[-1] * inv % p
            for i, bc in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bc) % p
            a = trim(a)
        return a

    h = trim(coeffs)
    r = len(h) - 1
    return r >= 1 and all(remainder(h, list(tail) + [1])
                          for deg in range(1, r // 2 + 1)
                          for tail in product(range(p), repeat=deg))


def enumerate_monic_irreducibles(p: int, degree: int) -> list[tuple[int, ...]]:
    """All monic irreducibles of the given degree over F_p, constant term first."""
    return [tail + (1,) for tail in product(range(p), repeat=degree)
            if brute_irreducible(tail + (1,), p)]


# -- field moduli ---------------------------------------------------------------------

def unfiltered_modulus(p: int, d: int) -> tuple[int, ...]:
    """The lex-smallest monic degree-d m, constant term first, modulo which x
    generates: every m whose norm (-1)^d m(0) generates F_p^x (as x's norm
    must) is tested for primitivity, with no root pre-check."""
    for tail in product(range(p), repeat=d):
        m = tail + (1,)
        norm = (-1) ** d * m[0] % p
        if norm and all(pow(norm, (p - 1) // r, p) != 1 for r in prime_factors(p - 1)) \
                and _x_is_primitive(m, p):
            return m
    raise AssertionError(f"no primitive modulus for p={p} d={d}")
