"""Checks for the exact polynomial-identity module.

Oracles: hand-expanded coefficients for the smallest field, pointwise
evaluation of both sides of the split identity over F_{q^2} with scalar
field arithmetic, the necklace formula for counts
of monic irreducibles, a brute-force product table as an independent
irreducibility test, and rank examples where the mod-p answer differs from
the rational one.
"""

import random

import pytest

from altsums.fields import build_field, embed, factor_prime_power
from altsums.identities import (
    DerivativeReport,
    GroupedIdentityReport,
    IdentityFalsifiedError,
    SplitIdentityReport,
    UnitySpanReport,
    WildInertiaReport,
    _fp_rank,
    _split_alphas,
    dehomogenized_sides,
    enumerate_monic_irreducibles,
    fp_irreducible,
    mismatch_list,
    multiplicative_order,
    require_ok,
    u_add,
    u_degree,
    u_deriv,
    u_div_linear,
    u_eval,
    u_mul,
    u_neg,
    u_trim,
    unity_root_span,
    verify_derivative_steps,
    verify_identity_grouped,
    verify_identity_split,
    virtual_character_table,
    wild_inertia_span,
)

IDENTITY_SIZES = [3, 5, 7, 9, 11, 25, 27]


# -- split identity ---------------------------------------------------------------


def split_sides(F, q):
    """Both sides at y = 1 as the split check builds them."""
    factors = [[F.neg_code(a), 1] for a in _split_alphas(F)]
    return dehomogenized_sides(F, 2 * q - 1, factors)


def as_ints(F, codes):
    return [F.prime_int(c) for c in codes]


def test_split_identity_frozen_q3():
    # x^5 + y^5 + (-x-y)^5 = x^4 y + 2 x^3 y^2 + 2 x^2 y^3 + x y^4 over F_3,
    # and x y (x+y) (x-y)^2 expands to the same
    F = build_field(3, 1)
    lhs, rhs = split_sides(F, 3)
    assert as_ints(F, lhs) == [0, 1, 2, 2, 1]
    assert as_ints(F, rhs) == [0, 1, 2, 2, 1]


@pytest.mark.parametrize("q", IDENTITY_SIZES)
def test_split_sides_match_pointwise_evaluation(q):
    """Both sides of the bivariate identity at (x, 1), for every x in
    F_{q^2}, by scalar arithmetic with alpha embedded from F_q.  The sides
    have degree at most n < q^2, so agreeing at q^2 points makes them equal
    as polynomials."""
    p, f = factor_prime_power(q)
    n = 2 * q - 1
    F, L = build_field(p, f), build_field(p, 2 * f)
    lhs, rhs = split_sides(F, q)
    assert len(lhs) <= n + 1 and len(rhs) <= n + 1
    alphas = [embed(F, L, a) for a in range(1, F.order) if a != F.neg_code(1)]
    assert len(alphas) == q - 2

    def horner(codes, x):
        acc = 0
        for c in reversed(codes):
            acc = L.add_code(L.mul_code(acc, x), embed(F, L, c))
        return acc

    for x in range(L.order):
        x1 = L.add_code(x, 1)
        left = L.add_code(L.add_code(L.pow_code(x, n), 1), L.pow_code(L.neg_code(x1), n))
        right = L.mul_code(x, x1)
        for a in alphas:
            right = L.mul_code(right, L.pow_code(L.add_code(x, L.neg_code(a)), 2))
        assert left == right
        assert horner(lhs, x) == left
        assert horner(rhs, x) == right


@pytest.mark.parametrize("q", IDENTITY_SIZES)
def test_split_identity_holds(q):
    report = verify_identity_split(q)
    assert report.ok
    assert report.equal
    assert report.degree == 2 * q - 1
    assert report.factor_count == q - 2
    assert report.mismatches == ()
    require_ok(report)


def test_split_identity_detects_wrong_factor_set():
    # dropping the constraint alpha != -1 must break the identity
    F = build_field(3, 1)
    n = 5
    factors = [[F.neg_code(a), 1] for a in range(1, F.order)]  # has alpha = -1
    lhs, rhs = dehomogenized_sides(F, n, factors)
    assert lhs != rhs
    mism = mismatch_list(F, n, lhs, rhs)
    assert mism != ()
    assert all(i + j == n for (i, j), _, _ in mism)


def test_require_ok_raises_with_counterexample():
    report = SplitIdentityReport(
        q=3, p=3, f=1, field_text="p=3 d=1 modulus=[1,1]", degree=5,
        factor_count=1, equal=False,
        mismatches=(((4, 1), 1, 2),))
    with pytest.raises(IdentityFalsifiedError, match=r"x\^4 y\^1"):
        require_ok(report)
    good = verify_identity_split(3)
    require_ok(good)  # no raise


def test_split_identity_rejects_even_q():
    with pytest.raises(ValueError):
        verify_identity_split(4)


# -- irreducibility over the prime field --------------------------------------------


def brute_irreducible(coeffs, p):
    """Trial division by every lower-degree monic polynomial."""
    from itertools import product as iproduct

    def trim(a):
        a = [c % p for c in a]
        while a and a[-1] == 0:
            a.pop()
        return a

    def divmod_(a, b):
        a = trim(list(a))
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b):
            shift = len(a) - len(b)
            c = a[-1] * inv % p
            for i, bc in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bc) % p
            a = trim(a)
        return a

    h = trim(list(coeffs))
    r = len(h) - 1
    if r < 1:
        return False
    for deg in range(1, r // 2 + 1):
        for tail in iproduct(range(p), repeat=deg):
            b = list(tail) + [1]
            if not divmod_(h, b):
                return False
    return True


def test_fp_irreducible_matches_trial_division():
    from itertools import product as iproduct
    for p, degree in [(3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3),
                      (7, 2), (7, 3)]:
        for tail in iproduct(range(p), repeat=degree):
            poly = list(tail) + [1]
            assert fp_irreducible(poly, p) == brute_irreducible(poly, p), poly


def test_fp_irreducible_ignores_a_scalar_factor():
    from itertools import product as iproduct
    for p, degree in [(3, 1), (3, 2), (3, 4), (5, 2), (5, 3), (7, 2)]:
        for tail in iproduct(range(p), repeat=degree):
            h = list(tail) + [1]
            for c in range(2, p):
                assert fp_irreducible([c * a for a in h], p) == \
                    fp_irreducible(h, p), (c, h)


def test_monic_irreducible_counts_match_necklace_formula():
    # (1/r) sum over d | r of mu(d) p^(r/d)
    expected = {(3, 1): 3, (3, 2): 3, (3, 3): 8, (3, 4): 18,
                (5, 1): 5, (5, 2): 10, (7, 1): 7, (11, 1): 11}
    for (p, r), count in expected.items():
        assert len(enumerate_monic_irreducibles(p, r)) == count


def test_degree_two_irreducibles_over_f3_frozen():
    got = set(enumerate_monic_irreducibles(3, 2))
    assert got == {(1, 0, 1), (2, 1, 1), (2, 2, 1)}


# -- grouped identity -----------------------------------------------------------------


@pytest.mark.parametrize("q", IDENTITY_SIZES)
def test_grouped_identity_holds(q):
    report = verify_identity_grouped(q)
    assert report.ok
    assert report.equal
    assert report.prime_field_coeffs_ok
    assert report.irreducible_ok
    assert report.complete_ok
    assert sum(report.factor_degrees) == q - 2
    require_ok(report)


def test_grouped_identity_frozen_orbit_shapes():
    assert verify_identity_grouped(9).factor_degrees == (1, 2, 2, 2)
    assert verify_identity_grouped(27).factor_degrees == (1,) + (3,) * 8
    assert verify_identity_grouped(25).factor_degrees == (1, 1, 1) + (2,) * 10
    for q in [3, 5, 7, 11]:
        report = verify_identity_grouped(q)
        assert report.factor_degrees == (1,) * (q - 2)


def test_grouped_orbit_count_matches_split_factor_count():
    for q in [9, 25, 27]:
        grouped = verify_identity_grouped(q)
        split = verify_identity_split(q)
        assert sum(grouped.factor_degrees) == split.factor_count


# -- univariate helpers ----------------------------------------------------------------


def test_univariate_arithmetic_against_random_evaluation():
    rng = random.Random(73)
    F = build_field(5, 2)
    for _ in range(25):
        a = [rng.randrange(F.order) for _ in range(rng.randrange(1, 7))]
        b = [rng.randrange(F.order) for _ in range(rng.randrange(1, 7))]
        x0 = rng.randrange(F.order)
        assert u_eval(F, u_add(F, a, b), x0) == F.add_code(
            u_eval(F, a, x0), u_eval(F, b, x0))
        assert u_eval(F, u_mul(F, a, b), x0) == F.mul_code(
            u_eval(F, a, x0), u_eval(F, b, x0))
        assert u_eval(F, u_neg(F, a), x0) == F.neg_code(u_eval(F, a, x0))


def test_u_div_linear_reconstructs():
    rng = random.Random(74)
    F = build_field(3, 2)
    for _ in range(25):
        a = u_trim([rng.randrange(F.order) for _ in range(rng.randrange(2, 8))])
        alpha = rng.randrange(F.order)
        quot, rem = u_div_linear(F, a, alpha)
        lin = [F.neg_code(alpha), 1]
        back = u_add(F, u_mul(F, lin, quot), [rem])
        assert back == u_trim(list(a))
        assert rem == u_eval(F, a, alpha)


def test_u_deriv_product_rule():
    rng = random.Random(75)
    F = build_field(5, 1)
    for _ in range(20):
        a = [rng.randrange(F.order) for _ in range(rng.randrange(1, 6))]
        b = [rng.randrange(F.order) for _ in range(rng.randrange(1, 6))]
        lhs = u_deriv(F, u_mul(F, a, b))
        rhs = u_add(F, u_mul(F, u_deriv(F, a), b), u_mul(F, a, u_deriv(F, b)))
        assert u_trim(lhs) == u_trim(rhs)


def test_u_degree_and_trim():
    assert u_degree([0, 0]) == -1
    assert u_degree([]) == -1
    assert u_degree([1, 2, 0]) == 1
    assert u_trim([1, 0, 0]) == [1]


# -- derivative bookkeeping ---------------------------------------------------------------


def test_derivative_frozen_q3():
    # P = x^4 + 2x^3 + 2x^2 + x over F_3, P' = x^3 + x + 1
    F = build_field(3, 1)
    n = 5
    import math as _math
    P = u_add(F, u_add(F, [0] * n + [1], [1]),
              u_neg(F, [F.code_from_poly_int(_math.comb(n, k) % 3) for k in range(n + 1)]))
    assert as_ints(F, P) == [0, 1, 2, 2, 1]
    dints = as_ints(F, u_deriv(F, P))
    assert dints == [1, 1, 0, 1]


@pytest.mark.parametrize("q", IDENTITY_SIZES)
def test_derivative_steps_hold(q):
    report = verify_derivative_steps(q)
    assert report.ok
    assert report.degree == 2 * q - 2
    assert report.leading_coeff_one
    assert report.vanishes_on_field
    assert report.derivative_formula_ok
    assert report.derivative_vanishes_ok
    assert report.double_root_division_ok
    assert report.product_form_ok
    require_ok(report)


def test_derivative_degree_drop_is_two():
    # the x^n and constant terms cancel; nothing else does at the top
    for q in [3, 5, 7, 9]:
        report = verify_derivative_steps(q)
        assert report.n - report.degree == 1


# -- mod-p rank ------------------------------------------------------------------------------


def test_fp_rank_differs_from_rational_rank():
    import numpy as np
    rows = [np.array([1, 2]), np.array([2, 1])]
    assert _fp_rank(rows, 3) == 1  # det = -3, vanishes mod 3 only
    assert _fp_rank(rows, 5) == 2


def test_fp_rank_examples():
    import numpy as np
    eye = [np.array([1, 0, 0]), np.array([0, 1, 0]), np.array([0, 0, 1])]
    assert _fp_rank(eye, 7) == 3
    assert _fp_rank([np.array([0, 0])], 3) == 0
    assert _fp_rank([], 3) == 0
    rows = [np.array([1, 1, 0]), np.array([0, 1, 1]), np.array([1, 0, 4])]
    assert _fp_rank(rows, 5) == 2  # row3 = row1 - row2 mod 5
    assert _fp_rank(rows, 3) == 3


def test_fp_rank_random_invariance_under_row_ops():
    import numpy as np
    rng = random.Random(76)
    for _ in range(20):
        p = rng.choice([3, 5, 7])
        rows = [np.array([rng.randrange(p) for _ in range(4)])
                for _ in range(3)]
        base = _fp_rank(rows, p)
        shuffled = rows[::-1]
        assert _fp_rank(shuffled, p) == base
        scaled = [rows[0] * 2 % p] + rows[1:]
        assert _fp_rank(scaled, p) == base if p != 2 else True
        added = [rows[0], (rows[1] + 3 * rows[0]) % p, rows[2]]
        assert _fp_rank(added, p) == base


# -- roots-of-unity spans -----------------------------------------------------------------------


def test_multiplicative_order():
    assert multiplicative_order(3, 4) == 2
    assert multiplicative_order(5, 8) == 2
    assert multiplicative_order(3, 16) == 4
    assert multiplicative_order(3, 52) == 6
    assert multiplicative_order(5, 6) == 2
    assert multiplicative_order(7, 3) == 1
    with pytest.raises(ValueError):
        multiplicative_order(3, 6)


def test_unity_root_span_frozen():
    r = unity_root_span(5, 6)
    assert r.field_degree == 2 and r.dimension == 2
    r = unity_root_span(3, 2)
    assert r.field_degree == 1 and r.dimension == 1
    r = unity_root_span(7, 3)
    assert r.field_degree == 1 and r.dimension == 1
    r = unity_root_span(3, 8)
    assert r.field_degree == 2 and r.dimension == 2


def test_unity_root_span_rejects_bad_order():
    with pytest.raises(ValueError):
        unity_root_span(3, 6)
    with pytest.raises(ValueError):
        unity_root_span(3, 0)


@pytest.mark.parametrize("q", [3, 5, 9, 27])
def test_wild_inertia_span(q):
    report = wild_inertia_span(q)
    assert report.ok
    assert report.root_order == 2 * q - 2
    assert report.field_degree == 2 * report.f
    assert report.dimension == 2 * report.f
    assert report.trace_zero_ok
    assert report.coset_ok
    assert report.direct_sum_ok


@pytest.mark.parametrize("q", [3, 5, 9])
def test_wild_inertia_zeta_choice_invariance(q):
    a = wild_inertia_span(q, zeta_index=1)
    b = wild_inertia_span(q, zeta_index=2)
    assert a.zeta_log != b.zeta_log
    assert (a.dimension, a.trace_zero_ok, a.coset_ok, a.direct_sum_ok) == \
           (b.dimension, b.trace_zero_ok, b.coset_ok, b.direct_sum_ok)


def test_wild_inertia_field_sizes_frozen():
    assert wild_inertia_span(3).field_text.startswith("p=3 d=2")
    assert wild_inertia_span(5).field_text.startswith("p=5 d=2")
    assert wild_inertia_span(9).field_text.startswith("p=3 d=4")
    assert wild_inertia_span(27).field_text.startswith("p=3 d=6")


# -- virtual character table ----------------------------------------------------------------------


@pytest.mark.parametrize("q", IDENTITY_SIZES)
def test_virtual_character_table(q):
    table = virtual_character_table(q)
    assert (table.zero_zero, table.nonzero_zero,
            table.zero_nonzero, table.both_nonzero) == (2 * q - 1, q - 1, q - 1, -1)
    assert table.weighted_sum() == q * q
    assert table.value(True, True) == 2 * q - 1
    assert table.value(False, True) == q - 1
    assert table.value(True, False) == q - 1
    assert table.value(False, False) == -1


def test_virtual_character_weighted_sum_by_enumeration():
    for q in [3, 5, 9]:
        table = virtual_character_table(q)
        total = sum(table.value(a == 0, b == 0)
                    for a in range(q) for b in range(q))
        assert total == q * q
