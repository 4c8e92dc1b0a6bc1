"""Characters of finite fields and their Gauss sums, in exact arithmetic.

For a base field k of characteristic p and a multiplier c in F_p^x, the
additive character is psi_k(x) = zeta_p^Tr_{k/F_p}(c*x), and on an extension
L/k it is pulled back through the relative trace:

    psi_{L/k}(u) = zeta_p^Tr_{k/F_p}(c * Tr_{L/k}(u)) = zeta_p^(c * Tr_{L/F_p}(u)),

the second form because the traces are F_p-linear and c lies in F_p; the code
evaluates it as c times L's own absolute trace table, with nothing embedded.

The quadratic character chi_2 of L^x is discrete-log parity; chi_2(0) = 0.
Composing the base quadratic character with the norm gives the same function,
since the norm of a generator generates.

The Gauss sum g_L = sum_x psi(x) chi_2(x) satisfies, as exact identities,
g * conj(g) = #L, g^2 = chi_2(-1) * #L and conj(g) = chi_2(-1) * g; these are
verified objects here, not assumptions.  The normalization constant of the
twisted sums is A(L, n, psi) = -chi_2(n * (-1)^((n-1)/2)) * g_L, and building
it over every extension at once exposes the power law A(L) = A(k)^[L:k].
The pipeline takes no Gauss sum in Z[zeta_p]: the trace kernel has g_L in
closed form, and the curve moment reads the zeta-power counts of _chi2_counts.
"""

from __future__ import annotations

from collections import namedtuple
from operator import index

import numpy as np

from .cyclotomic import CycInt
from .fields import FieldDescriptor, _Checked, build_field


class CharacterContext(_Checked, namedtuple("CharacterContext", "base multiplier",
                                            defaults=(1,))):
    """Base field plus the additive-character multiplier c in F_p^x, an int
    1 <= c < p, so psi_{L/k}(u) = zeta_p^(c Tr_{L/F_p}(u)) on every extension
    L.  Validated by the constructor, `_make` and `_replace` alike: a
    non-integer multiplier raises TypeError, a numpy int is stored as int."""

    __slots__ = ()

    def __new__(cls, base: FieldDescriptor, multiplier: int = 1) -> CharacterContext:
        multiplier = index(multiplier)
        if not 1 <= multiplier < base.p:
            raise ValueError("psi multiplier must be nonzero mod p")
        return super().__new__(cls, base, multiplier)

    @classmethod
    def make(cls, base: FieldDescriptor, multiplier: int = 1) -> CharacterContext:
        """The context of the int `multiplier` reduced mod p."""
        return cls(base, multiplier % base.p)

    def extension(self, degree: int) -> FieldDescriptor:
        return build_field(self.base.p, self.base.d * degree)


def chi2_code(L: FieldDescriptor, code: int) -> int:
    """Quadratic character by dlog parity; 0 on the zero element."""
    if code == 0:
        return 0
    return 1 if (code - 1) % 2 == 0 else -1


def chi2_minus_one(L: FieldDescriptor) -> int:
    """chi_2(-1) = +1 iff #L = 1 mod 4."""
    return 1 if L.order % 4 == 1 else -1


def psi_exponent_table(ctx: CharacterContext, L: FieldDescriptor) -> np.ndarray:
    """Exponent a(u) = c Tr_{L/F_p}(u) mod p with psi_{L/k}(u) = zeta_p^a(u),
    by element code: L's own absolute trace table times the multiplier c in
    F_p^x, read-only.  The pipeline reads L's table itself (psi_1), as no
    trace or moment depends on c (traces._trace_numerators)."""
    table = ctx.multiplier * L.trace_abs_by_code % L.p
    table.setflags(write=False)
    return table


def _chi2_counts(p: int, e: np.ndarray, w=None) -> np.ndarray:
    """Int64 counts c, sum_k c[k] zeta_p^k = sum over L^x of zeta_p^e(x)
    chi_2(x) w(x), for a psi exponent table `e` and integer weights `w`
    (default 1), both by code.  Code j >= 1 has chi_2 = (-1)^(j-1); a float64
    bincount adds integers exactly while sum |w| < 2^53."""
    even, odd = (None, None) if w is None else (w[1::2], w[2::2])
    counts = (np.bincount(e[1::2], even, minlength=p)
              - np.bincount(e[2::2], odd, minlength=p))
    return counts.astype(np.int64)


def gauss_sum(ctx: CharacterContext, L: FieldDescriptor) -> CycInt:
    """g_L = sum over L^x of psi(x) chi_2(x)."""
    p = ctx.base.p
    return CycInt.from_power_counts(p, _chi2_counts(p, psi_exponent_table(ctx, L)))


class GaussIdentityReport(namedtuple("GaussIdentityReport",
                                     "field_text g norm_ok square_ok conj_ok")):
    """The Gauss sum g of L (`field_text`), a CycInt, and its identities:
    g * conj(g) = #L (`norm_ok`), g^2 = chi_2(-1) * #L (`square_ok`) and
    conj(g) = chi_2(-1) * g (`conj_ok`)."""

    __slots__ = ()

    @property
    def all_ok(self) -> bool:
        return self.norm_ok and self.square_ok and self.conj_ok


def gauss_identities(ctx: CharacterContext, L: FieldDescriptor) -> GaussIdentityReport:
    g = gauss_sum(ctx, L)
    s = chi2_minus_one(L)
    N = L.order
    return GaussIdentityReport(
        field_text=L.canonical_text(),
        g=g,
        norm_ok=(g * g.conj()) == CycInt.rational(ctx.base.p, N),
        square_ok=(g * g) == CycInt.rational(ctx.base.p, s * N),
        conj_ok=g.conj() == (s * g),
    )


def normalization_constant(ctx: CharacterContext, L: FieldDescriptor, n: int) -> CycInt:
    """A(L, n, psi) = -chi_2(n * (-1)^((n-1)/2)) * g_L; needs n odd, prime to p."""
    p = ctx.base.p
    if n % 2 == 0:
        raise ValueError("n must be odd")
    if n % p == 0:
        raise ValueError("n must be prime to the characteristic")
    d = (n - 1) // 2
    sign = chi2_code(L, L.code_from_poly_int(n * (-1) ** (d % 2) % p))
    return (-sign) * gauss_sum(ctx, L)


class HasseDavenportRow(namedtuple("HasseDavenportRow",
                                   "degree field_text direct powered")):
    """A(L, n, psi) on the degree-D extension L, `direct` and as the base
    field's A to the D (`powered`), both CycInts."""

    __slots__ = ()

    @property
    def equal(self) -> bool:
        return self.direct == self.powered


class HasseDavenportReport(namedtuple("HasseDavenportReport", "n base_text rows")):
    """The Hasse-Davenport check for n over the base field (`base_text`), a
    HasseDavenportRow per degree."""

    __slots__ = ()

    @property
    def all_equal(self) -> bool:
        return all(r.equal for r in self.rows)


def hasse_davenport_check(ctx: CharacterContext, n: int,
                          degrees) -> HasseDavenportReport:
    """Exact check of A(L_D, n, psi_{L/k}) == A(k, n, psi_k)^D over extensions."""
    base_A = normalization_constant(ctx, ctx.base, n)
    rows = []
    for D in degrees:
        L = ctx.extension(D)
        direct = normalization_constant(ctx, L, n)
        rows.append(HasseDavenportRow(
            degree=D, field_text=L.canonical_text(),
            direct=direct, powered=base_A**D))
    return HasseDavenportReport(n=n, base_text=ctx.base.canonical_text(),
                                rows=tuple(rows))
