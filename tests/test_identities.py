"""Checks for the exact polynomial-identity module.

Oracles: hand-expanded coefficients for the smallest field, pointwise
evaluation of both sides of the split identity over F_{q^2} with scalar
field arithmetic, scalar Horner evaluation and long division against the
vectorized product and division passes, the necklace formula for counts
of monic irreducibles, trial division (`oracles.brute_irreducible`) as an
independent irreducibility test, and rank examples where the mod-p answer
differs from the rational one.
"""

import math
import random
import re

import numpy as np
import pytest

from altsums import identities
from altsums.cli import main
from altsums.fields import build_field, embed, factor_prime_power
from altsums.identities import (
    DerivativeReport,
    GroupedIdentityReport,
    IdentityFalsifiedError,
    SplitIdentityReport,
    WildInertiaReport,
    _fp_rank,
    _necklace_count,
    _split_alphas,
    dehomogenized_sides,
    fp_irreducible,
    mismatch_list,
    multiplicative_order,
    require_ok,
    u_deriv,
    u_double_division,
    u_mul,
    verify_derivative_steps,
    verify_identity_grouped,
    verify_identity_split,
    wild_inertia_span,
)
from oracles import brute_irreducible, enumerate_monic_irreducibles

IDENTITY_SIZES = [3, 5, 7, 9, 11, 25, 27]


# -- split identity ---------------------------------------------------------------


def split_sides(F, q):
    """Both sides at y = 1 as the split check builds them."""
    factors = [[F.neg_code(a), 1] for a in _split_alphas(F)]
    return dehomogenized_sides(F, 2 * q - 1, factors)


def as_ints(F, codes):
    return [F.prime_int(c) for c in codes.tolist()]


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
        for c in reversed(codes.tolist()):
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
    assert not np.array_equal(lhs, rhs)
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
    with pytest.raises(ValueError):
        wild_inertia_span(4)


# -- irreducibility over the prime field --------------------------------------------


def test_fp_irreducible_matches_trial_division():
    from itertools import product as iproduct
    # r = 6 is the first degree with two primes, so both rank conditions run
    for p, degree in [(3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (5, 2), (5, 3),
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


NECKLACE_COUNTS = {  # (1/r) sum over d | r of mu(d) p^(r/d)
    (3, 1): 3, (3, 2): 3, (3, 3): 8, (3, 4): 18, (5, 1): 5, (5, 2): 10,
    (7, 1): 7, (11, 1): 11}


def test_monic_irreducible_counts_match_necklace_formula():
    for (p, r), count in NECKLACE_COUNTS.items():
        assert len(enumerate_monic_irreducibles(p, r)) == count


@pytest.mark.parametrize("p,r", sorted(NECKLACE_COUNTS) + [(3, 6), (5, 4)])
def test_necklace_count_matches_trial_division(p, r):
    assert _necklace_count(p, r) == len(enumerate_monic_irreducibles(p, r))


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


def duplicate_an_orbit(orbits):
    """The second of two orbits of equal length replaced by the first: the
    same degree multiset, every factor still irreducible over F_p."""
    i, j = next((i, j) for j, b in enumerate(orbits) for i, a in enumerate(orbits[:j])
                if len(a) == len(b))
    return orbits[:j] + [orbits[i]] + orbits[j + 1:]


@pytest.mark.parametrize("tamper", [duplicate_an_orbit, lambda orbits: orbits[:-1]],
                         ids=["duplicated", "dropped"])
def test_grouped_completeness_sees_a_wrong_factor_set(monkeypatch, capsys, tamper):
    """Repeated or missing irreducible factors fail the count per degree, and
    `identity` exits 1 with one FALSIFIED line."""
    orbits = identities._frobenius_orbits
    monkeypatch.setattr(identities, "_frobenius_orbits",
                        lambda F, codes: tamper(orbits(F, codes)))
    report = verify_identity_grouped(9)
    assert report.prime_field_coeffs_ok and report.irreducible_ok
    assert not report.complete_ok
    assert not report.ok
    assert main(["identity", "--q", "9"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("FALSIFIED: GroupedIdentityReport failed")
    assert err.count("\n") == 1


# -- univariate code arrays ------------------------------------------------------------


def horner(F, a, x0):
    """a(x0) by scalar Horner."""
    acc = 0
    for c in reversed(a):
        acc = F.add_code(F.mul_code(acc, x0), c)
    return acc


def long_division(F, a, x0):
    """(quotient, remainder) of a by x - x0: take off c x^(k-1) (x - x0) for
    the leading c x^k, from the top down."""
    rem = list(a)
    quot = [0] * max(len(a) - 1, 0)
    for k in range(len(a) - 1, 0, -1):
        quot[k - 1], rem[k] = rem[k], 0
        rem[k - 1] = F.add_code(rem[k - 1], F.mul_code(quot[k - 1], x0))
    return quot, rem[0] if rem else 0


def random_poly(F, rng, top):
    """A random code array of fewer than top coefficients, high zeros dropped
    (the zero polynomial included)."""
    return np.trim_zeros(np.array([rng.randrange(F.order)
                                   for _ in range(rng.randrange(1, top))]), "b")


def random_polys(F, rng):
    """(a, root, m): random dense a, (x - root)^m dividing a for m = 0, 1, 2."""
    for _ in range(25):
        a = random_poly(F, rng, 8)
        root = rng.randrange(F.order)
        lin = [F.neg_code(root), 1]
        yield a, root, 0
        yield u_mul(F, lin, a), root, 1
        yield u_mul(F, u_mul(F, lin, lin), a), root, 2


def test_univariate_arithmetic_against_random_evaluation():
    """u_mul commutes with evaluation, which the division pass's first
    remainder gives at every x0 of F_9 and F_25 at once, with either operand
    the shorter; the product of nonzero arrays has no high zero code."""
    rng = random.Random(73)
    for F in (build_field(3, 2), build_field(5, 2)):
        everywhere = list(range(F.order))
        for a, _, _ in random_polys(F, rng):
            b = random_poly(F, rng, 7)
            at = {x: (horner(F, a, x), horner(F, b, x)) for x in everywhere}
            assert u_double_division(F, a, everywhere)[0].tolist() == \
                [va for va, _ in at.values()]
            want = [F.mul_code(*v) for v in at.values()]
            for prod in (u_mul(F, a, b), u_mul(F, b, a)):
                assert u_double_division(F, prod, everywhere)[0].tolist() == want
                assert len(prod) == (len(a) + len(b) - 1 if len(a) and len(b) else 0)
                assert prod.dtype == np.int64 and prod[-1:].all()


def test_double_division_matches_long_division():
    """Both remainders against dividing twice by scalar long division over
    F_9 and F_25, at 0, at a planted root and at random points; the quotient
    rebuilds the polynomial, and a root planted m times zeroes the first m
    remainders."""
    rng = random.Random(74)
    for F in (build_field(3, 2), build_field(5, 2)):
        for a, root, m in random_polys(F, rng):
            x0s = sorted({0, root, *rng.sample(range(F.order), 5)})
            r1, r2 = u_double_division(F, a, x0s)
            for x0, got1, got2 in zip(x0s, r1.tolist(), r2.tolist()):
                quot, rem = long_division(F, a, x0)
                lin = [F.neg_code(x0), 1]
                rebuilt = u_mul(F, lin, np.array(quot, dtype=np.int64)).tolist() or [0]
                rebuilt[0] = F.add_code(rebuilt[0], rem)
                assert np.array_equal(np.trim_zeros(np.array(rebuilt), "b"), a)
                assert (got1, got2) == (rem, long_division(F, quot, x0)[1])
                if x0 == root:
                    assert [got1, got2][:m] == [0] * m


def test_u_deriv_product_rule():
    """(a b)' = a' b + a b' over F_5 and F_9, the sum taken by scalar
    addition in the test; u_deriv drops the high zero codes that k = 0 mod p
    leaves."""
    rng = random.Random(75)
    for F in (build_field(5, 1), build_field(3, 2)):
        for _ in range(20):
            a, b = random_poly(F, rng, 8), random_poly(F, rng, 8)
            lhs = u_deriv(F, u_mul(F, a, b))
            terms = [u_mul(F, u_deriv(F, a), b), u_mul(F, a, u_deriv(F, b))]
            rhs = [0] * max(map(len, terms))
            for term in terms:
                for k, c in enumerate(term.tolist()):
                    rhs[k] = F.add_code(rhs[k], c)
            assert np.array_equal(lhs, np.trim_zeros(np.array(rhs, dtype=np.int64), "b"))


# -- derivative bookkeeping ---------------------------------------------------------------


def test_derivative_frozen_q3():
    # P = x^4 + 2x^3 + 2x^2 + x over F_3, P' = x^3 + x + 1
    F = build_field(3, 1)
    P, _ = split_sides(F, 3)
    assert as_ints(F, P) == [0, 1, 2, 2, 1]
    assert as_ints(F, u_deriv(F, P)) == [1, 1, 0, 1]
    # x^3 over F_3 has derivative 3 x^2 = 0: the high zero codes go
    assert u_deriv(F, np.array([1, 0, 0, 1])).tolist() == []


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


@pytest.mark.parametrize("q", [5, 9])
def test_derivative_steps_see_a_simple_root(monkeypatch, q):
    """P with (x - alpha)^2 replaced by x - alpha at one alpha still vanishes
    on all of F_q, but its second remainder at alpha is not zero, so the
    double-root check must fail on the division pass's second accumulator,
    and its derivative, read as the first remainder of its own division pass
    at the alphas, with it."""
    p, f, n, F, alphas, P, prod = identities._split(q)
    alpha = alphas[-1]
    _, rhs = dehomogenized_sides(F, n, [[F.neg_code(a), 1] for a in alphas if a != alpha])
    simple = u_mul(F, rhs, [F.neg_code(alpha), 1])
    monkeypatch.setattr(identities, "_split",
                        lambda q: (p, f, n, F, alphas, simple, prod))
    report = verify_derivative_steps(q)
    assert report.vanishes_on_field
    assert not report.double_root_division_ok
    assert not report.derivative_vanishes_ok
    assert not report.ok


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


@pytest.mark.parametrize("q", [3, 5, 9, 25, 27])
def test_wild_inertia_zeta_choice_invariance(q):
    """Every primitive (2q-2)-nd root zeta in F_{q^2} has trace 0 to F_q, and
    the roots split into F_q^x and zeta F_q^x; the report's zeta is the first
    in dlog order."""
    p, f = factor_prime_power(q)
    L = build_field(p, 2 * f)
    step = (L.order - 1) // (2 * q - 2)
    roots = {1 + j * step for j in range(2 * q - 2)}
    units = {c for c in range(1, L.order) if L.in_subfield_code(f, c)}
    assert len(units) == q - 1 and units < roots
    primitive = [1 + k * step for k in range(1, 2 * q - 2)
                 if math.gcd(k, 2 * q - 2) == 1]
    assert len(primitive) >= 2
    for zeta in primitive:
        assert L.trace_to_code(f, zeta) == 0
        assert {L.mul_code(zeta, u) for u in units} == roots - units
    assert wild_inertia_span(q).zeta_log == primitive[0] - 1 == step


@pytest.mark.parametrize("q", [3, 5, 9, 25])
def test_wild_direct_sum_ranks_every_unit(monkeypatch, q):
    """direct_sum_ok ranks the coordinates of all of F_q^x, of zeta F_q^x and
    of both together, found here by a scan of F_{q^2}; on true inputs fewer
    units would give the same ranks, so the rows themselves are checked."""
    seen = []
    rank = identities._fp_rank
    monkeypatch.setattr(identities, "_fp_rank",
                        lambda rows, p: seen.append(rows) or rank(rows, p))
    report = wild_inertia_span(q)
    p, f = factor_prime_power(q)
    L = build_field(p, 2 * f)
    units = [c for c in range(1, L.order) if L.in_subfield_code(f, c)]
    sub = [L.coeff_vector(c) for c in units]
    shifted = [L.coeff_vector(L.mul_code(report.zeta_log + 1, c)) for c in units]
    assert [sorted(map(tuple, rows)) for rows in seen[1:]] == \
        [sorted(map(tuple, rows)) for rows in (sub, shifted, sub + shifted)]
    assert report.direct_sum_ok


def test_wild_inertia_field_sizes_frozen():
    assert wild_inertia_span(3).field_text.startswith("p=3 d=2")
    assert wild_inertia_span(5).field_text.startswith("p=5 d=2")
    assert wild_inertia_span(9).field_text.startswith("p=3 d=4")
    assert wild_inertia_span(27).field_text.startswith("p=3 d=6")


def test_identity_reads_one_split_product(monkeypatch, capsys):
    """`identity` builds P and x (x+1) prod (x - alpha)^2 once for all three
    checks, and the grouped check multiplies its factors in F_q itself: two
    calls of dehomogenized_sides (split, grouped) and no prime field F_3."""
    sides, build = identities.dehomogenized_sides, identities.build_field
    calls, fields = [], []
    monkeypatch.setattr(identities, "dehomogenized_sides",
                        lambda *args: calls.append(args[1]) or sides(*args))
    monkeypatch.setattr(identities, "build_field",
                        lambda p, d: fields.append((p, d)) or build(p, d))
    identities._split.cache_clear()
    assert main(["identity", "--q", "81"]) == 0
    capsys.readouterr()
    assert calls == [161, 161]
    assert (3, 1) not in fields
    P, prod = identities._split(81)[5:]  # shared by the cache: read-only
    assert not (P.flags.writeable or prod.flags.writeable)


# -- virtual character table ----------------------------------------------------------------------


def printed_virtual_character(q, capsys):
    """The values and the sum of the row `identity` writes straight from q."""
    assert main(["identity", "--q", str(q)]) == 0
    row = capsys.readouterr().out.splitlines()[-1]
    match = re.fullmatch(r"virtual_character,1,values=(-?\d+)/(-?\d+)/(-?\d+)/(-?\d+)"
                         r" sum=(\d+)", row)
    *table, total = map(int, match.groups())
    return table, total


@pytest.mark.parametrize("q", IDENTITY_SIZES)
def test_virtual_character_table(q, capsys):
    """The printed row is 2 Reg - 1 on F_q + F_q by vanishing pattern, and
    its printed sum is q^2."""
    table, total = printed_virtual_character(q, capsys)
    assert table == [2 * q - 1, q - 1, q - 1, -1]
    assert total == q * q


def test_virtual_character_weighted_sum_by_enumeration(capsys):
    """The printed sum is the sum of the row's values over every pair (a, b)
    of F_q x F_q, enumerated here."""
    for q in [3, 5, 9]:
        table, total = printed_virtual_character(q, capsys)
        # zero/zero, nonzero/zero, zero/nonzero and nonzero/nonzero, in print order
        value = dict(zip([(True, True), (False, True), (True, False), (False, False)], table))
        assert sum(value[a == 0, b == 0] for a in range(q) for b in range(q)) == total == q * q
