"""Character and Gauss-sum facts, with hand-derived frozen values.

The F_3 Gauss sum is small enough to expand by hand:
g = psi(1)chi(1) + psi(2)chi(2) = zeta - zeta^2, and
(zeta - zeta^2)^2 = zeta^2 - 2 + zeta = -3 = chi_2(-1) * 3, with chi_2(-1) = -1
since 3 = 3 mod 4.  Those values are frozen below.
"""

import random

import numpy as np
import pytest

from altsums import fields
from altsums.characters import (CharacterContext, chi2_code,
                                chi2_minus_one, gauss_identities, gauss_sum,
                                hasse_davenport_check, normalization_constant,
                                psi_exponent_table)
from altsums.cyclotomic import CycInt
from altsums.fields import FieldDescriptor, build_field
from oracles import psi, psi_exponent, psi_table, sum_chi2, sum_psi


def ctx_for(p, f0=1, mult=1):
    return CharacterContext.make(build_field(p, f0), mult)


# -- chi_2 ---------------------------------------------------------------------

def test_chi2_frozen_values():
    F3 = build_field(3, 1)
    assert chi2_code(F3, 0) == 0
    assert chi2_code(F3, 1) == 1
    assert chi2_code(F3, F3.code_from_poly_int(2)) == -1  # -1 is not a square mod 3
    F9 = build_field(3, 2)
    assert chi2_code(F9, F9.neg_code(1)) == 1  # -1 = g^4 is a square in F_9
    assert chi2_minus_one(F9) == 1
    assert chi2_minus_one(F3) == -1
    assert chi2_minus_one(build_field(5, 1)) == 1


@pytest.mark.parametrize("p,d", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)])
def test_chi2_is_multiplicative_and_balanced(p, d):
    L = build_field(p, d)
    assert sum_chi2(L) == 0
    rng = random.Random(p + d)
    for _ in range(50):
        a = rng.randrange(1, L.order)
        b = rng.randrange(1, L.order)
        assert chi2_code(L, L.mul_code(a, b)) == chi2_code(L, a) * chi2_code(L, b)


def test_chi2_counts_squares():
    L = build_field(3, 2)
    squares = {L.mul_code(c, c) for c in range(1, L.order)}
    for c in range(1, L.order):
        assert chi2_code(L, c) == (1 if c in squares else -1)


# -- psi -------------------------------------------------------------------------

@pytest.mark.parametrize("p,f0,D", [(3, 1, 1), (3, 1, 2), (3, 1, 3),
                                    (5, 1, 1), (5, 1, 2), (3, 2, 2), (7, 1, 1)])
def test_psi_is_additive_character_and_sums_to_zero(p, f0, D):
    ctx = ctx_for(p, f0)
    L = ctx.extension(D)
    assert sum_psi(ctx, L).is_zero
    tab = psi_exponent_table(ctx, L)
    rng = random.Random(D * 10 + p)
    for _ in range(60):
        a = rng.randrange(L.order)
        b = rng.randrange(L.order)
        s = L.add_code(a, b)
        assert (tab[a] + tab[b]) % p == tab[s]
    assert tab[0] == 0


def test_psi_exponent_frozen_f3():
    # Tr is the identity on the base field itself, so psi(x) = zeta^x
    ctx = ctx_for(3)
    F3 = ctx.base
    assert psi_exponent(ctx, F3, 0) == 0
    assert psi_exponent(ctx, F3, 1) == 1
    assert psi_exponent(ctx, F3, F3.code_from_poly_int(2)) == 2
    assert psi(ctx, F3, 1) == CycInt.root(3)


def test_psi_multiplier_changes_character():
    ctx1 = ctx_for(5, mult=1)
    ctx2 = ctx_for(5, mult=2)
    F5 = build_field(5, 1)
    assert psi_exponent(ctx1, F5, 1) == 1
    assert psi_exponent(ctx2, F5, 1) == 2


def _psi_configs():
    """(p, base_degree, multiplier, D): p up to 13, base_degree 1 and 2, each
    multiplier 1..3 nonzero mod p, every #L <= 3^6.  q = p^f does not enter
    psi, so the f of SystemParams needs no axis here."""
    return [(p, b, c, D) for p in (3, 5, 7, 11, 13) for b in (1, 2)
            for c in (1, 2, 3) if c % p for D in range(1, 7) if p**(b * D) <= 3**6]


@pytest.mark.parametrize("p,b,c,D", _psi_configs())
def test_psi_table_equals_the_frobenius_orbit_oracle(p, b, c, D):
    ctx = ctx_for(p, b, c)
    L = ctx.extension(D)
    assert np.array_equal(psi_exponent_table(ctx, L), psi_table(ctx, L))


@pytest.mark.parametrize("p,b", [(p, b) for p in (3, 5, 7) for b in (1, 2)])
def test_psi_table_is_c_times_the_trace_table_with_nothing_embedded(
        monkeypatch, p, b):
    # every c in F_p^x and every #L <= 5^6: c lies in F_p, so no search for a
    # root of the base modulus in L is needed
    def refuse(sub, sup):
        raise AssertionError(f"embedded F_{sub.order} into F_{sup.order}")

    monkeypatch.setattr(fields, "_embedding_log", refuse)
    base = build_field(p, b)
    for D in range(1, 9):
        if p**(b * D) > 5**6:
            break
        L = FieldDescriptor(p, b * D)
        for c in range(1, p):
            tab = psi_exponent_table(CharacterContext(base, c), L)
            assert np.array_equal(tab, c * L.trace_abs_by_code % p)
            assert not tab.flags.writeable


def test_make_takes_an_int_multiplier_only():
    base = build_field(5, 2)
    assert CharacterContext.make(base, 7) == CharacterContext(base, 2)
    for not_an_int in ("2", None):
        with pytest.raises(TypeError):
            CharacterContext.make(base, not_an_int)


@pytest.mark.parametrize("p,d", sorted({(p, b * D) for p, b, _, D in _psi_configs()}))
def test_the_field_generator_is_x(p, d):
    # x^i = g^i for i < d, the fact the trace kernel's row index rests on
    L = build_field(p, d)
    powers = p ** np.arange(d)
    assert np.array_equal(L.antilog_int[:d], powers)
    assert np.array_equal(L.log_by_int[powers], np.arange(d))


def test_psi_nontrivial_on_extension_of_bigger_base():
    ctx = ctx_for(3, f0=2)
    L = ctx.extension(2)  # F_81 over F_9
    tab = psi_exponent_table(ctx, L)
    assert set(np.unique(tab)) == {0, 1, 2}


# -- Gauss sums -------------------------------------------------------------------

def test_gauss_sum_frozen_f3():
    ctx = ctx_for(3)
    g = gauss_sum(ctx, ctx.base)
    z, z2 = CycInt.root(3), CycInt.root(3, 2)
    assert g == z - z2
    assert g * g == CycInt.rational(3, -3)


def test_gauss_sum_f9_is_three():
    # Over F_9 the quadratic Gauss sum is rational: chi_2(-1) = +1 forces
    # g real, and |g|^2 = 9 pins it to +-3; the power law makes it +3.
    ctx = ctx_for(3)
    g = gauss_sum(ctx, ctx.extension(2))
    assert g == CycInt.rational(3, 3)


@pytest.mark.parametrize("p,f0,D", [(3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 1, 4),
                                    (5, 1, 1), (5, 1, 2), (7, 1, 1), (7, 1, 2),
                                    (3, 2, 1), (3, 2, 2), (11, 1, 1)])
def test_gauss_identities_hold(p, f0, D):
    ctx = ctx_for(p, f0)
    rep = gauss_identities(ctx, ctx.extension(D))
    assert rep.norm_ok and rep.square_ok and rep.conj_ok


def test_gauss_sum_naive_crosscheck():
    # term-by-term accumulation, no bincount
    for (p, d) in [(3, 2), (5, 1), (7, 1)]:
        ctx = ctx_for(p)
        L = ctx.extension(d)
        acc = CycInt.zero(p)
        for code in range(1, L.order):
            acc = acc + chi2_code(L, code) * psi(ctx, L, code)
        assert acc == gauss_sum(ctx, L)


# -- normalization constant and the power law ---------------------------------------

def test_normalization_constant_frozen_f3_n5():
    # n = 5: (n-1)/2 = 2, so the sign argument is 5*(+1) = -1 mod 3, and
    # chi_2(-1) = -1 over F_3, so A = +g.
    ctx = ctx_for(3)
    assert normalization_constant(ctx, ctx.base, 5) == gauss_sum(ctx, ctx.base)


def test_normalization_constant_rejects_bad_n():
    ctx = ctx_for(3)
    with pytest.raises(ValueError):
        normalization_constant(ctx, ctx.base, 4)
    with pytest.raises(ValueError):
        normalization_constant(ctx, ctx.base, 9)


@pytest.mark.parametrize("p,n,maxD", [(3, 5, 6), (5, 9, 4), (7, 13, 2), (3, 17, 4)])
def test_hasse_davenport_power_law(p, n, maxD):
    ctx = ctx_for(p)
    rep = hasse_davenport_check(ctx, n, range(1, maxD + 1))
    assert rep.all_equal
    assert [r.degree for r in rep.rows] == list(range(1, maxD + 1))


def test_hasse_davenport_bigger_base():
    ctx = ctx_for(3, f0=2)  # base F_9, extensions F_81, F_729
    rep = hasse_davenport_check(ctx, 5, [1, 2, 3])
    assert rep.all_equal


def test_multiplier_must_be_nonzero():
    with pytest.raises(ValueError):
        CharacterContext.make(build_field(3, 1), 0)
    with pytest.raises(ValueError):
        CharacterContext.make(build_field(3, 1), 3)
