"""Field construction against a brute-force polynomial-arithmetic oracle.

The oracle below re-implements modulus search and field arithmetic with
nothing but dense coefficient lists mod p, sharing no code with the library,
so table bugs and search-order bugs cannot cancel.
"""

import random
from itertools import product

import numpy as np
import pytest

from altsums.fields import (BudgetExceededError, FieldDescriptor, _find_modulus,
                            _x_is_primitive, build_field, embed, is_prime, prime_factors)
from oracles import unfiltered_modulus


# -- independent oracle ------------------------------------------------------

def oracle_reduce(a, m, p):
    d = len(m) - 1
    a = [c % p for c in a]
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i]
        if c:
            for j in range(d + 1):
                a[i - d + j] = (a[i - d + j] - c * m[j]) % p
    return (a[:d] + [0] * d)[:d]


def oracle_mul(a, b, m, p):
    out = [0] * (2 * len(m))
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return oracle_reduce(out, m, p)


def oracle_modulus(p, d):
    """Lex-smallest monic degree-d modulus making x a generator, by brute force."""
    n_units = p**d - 1
    one = [1] + [0] * (d - 1)
    for tail in product(range(p), repeat=d):
        m = list(tail) + [1]
        x = oracle_reduce([0, 1], m, p)
        if x == [0] * d:
            continue
        seen = x
        order = 1
        while seen != one:
            seen = oracle_mul(seen, [0, 1], m, p)
            order += 1
            if order > n_units:
                break
        if order == n_units:
            return tuple(m)
    raise AssertionError("oracle found no primitive modulus")


FROZEN_MODULI = {
    # brute-force-verified lex-smallest primitive moduli, constant term first
    (3, 1): (1, 1),      # x + 1, so x = -1 = 2 generates F_3^x
    (5, 1): (2, 1),      # x + 2, x = 3 has order 4
    (3, 2): (2, 1, 1),   # x^2 + x + 2
    (5, 2): (2, 1, 1),   # x^2 + x + 2, x has order 24
    (7, 1): (2, 1),
}


@pytest.mark.parametrize("p,d", sorted(FROZEN_MODULI))
def test_modulus_matches_frozen_and_oracle(p, d):
    assert oracle_modulus(p, d) == FROZEN_MODULI[(p, d)]
    assert build_field(p, d).modulus == FROZEN_MODULI[(p, d)]


@pytest.mark.parametrize("p,d", [(p, d) for p in (3, 5, 7, 11, 13)
                                 for d in range(1, 7) if p**d <= 3**6])
def test_modulus_matches_oracle(p, d):
    assert build_field(p, d).modulus == oracle_modulus(p, d)


SEARCHED_MODULI = {
    # lex-smallest primitive moduli found by an unfiltered search over every
    # monic candidate; too slow for oracle_modulus inside the test suite
    (3, 8): (2, 0, 0, 0, 0, 1, 0, 0, 1),
    (3, 10): (2, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1),
    (5, 7): (2, 0, 0, 0, 0, 0, 1, 1),
    (7, 6): (3, 0, 0, 0, 1, 1, 1),
}


@pytest.mark.parametrize("p,d", sorted(SEARCHED_MODULI))
def test_modulus_matches_unfiltered_search(p, d):
    assert build_field(p, d).modulus == SEARCHED_MODULI[(p, d)]


@pytest.mark.parametrize("p", [p for p in range(3, 24) if is_prime(p)])
def test_root_pre_check_keeps_every_modulus(p):
    """A candidate with a root in F_p^x is reducible (d > 1), so skipping it
    changes no choice: every p^d <= 2^16 against the search without it."""
    for d in range(1, 17):
        if p**d <= 2**16:
            assert _find_modulus(p, d) == unfiltered_modulus(p, d), (p, d)


def oracle_order_of_x(m, p):
    """The least e >= 1 with x^e = 1 mod m, one multiplication by x at a time."""
    d = len(m) - 1
    one = [1] + [0] * (d - 1)
    cur, e = oracle_reduce([0, 1], m, p), 1
    while cur != one:
        cur, e = oracle_mul(cur, [0, 1], m, p), e + 1
    return e


@pytest.mark.parametrize("p,d", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3), (7, 2)])
def test_x_is_primitive_matches_the_order_of_x(p, d):
    """Every monic m with m(0) != 0, reducible ones and irreducible ones whose
    x is not a generator (x^2 + 1 over F_3, where x has order 4) included."""
    for tail in product(range(p), repeat=d):
        if tail[0]:
            m = tail + (1,)
            assert _x_is_primitive(m, p) == (oracle_order_of_x(m, p) == p**d - 1), m


def test_x_is_not_primitive_mod_an_irreducible_of_smaller_order():
    assert oracle_order_of_x((1, 0, 1), 3) == 4  # x^2 + 1 over F_3: x^2 = -1
    assert not _x_is_primitive((1, 0, 1), 3)


def test_canonical_text_format():
    assert build_field(3, 2).canonical_text() == "p=3 d=2 modulus=[2,1,1]"
    assert build_field(3, 1).canonical_text() == "p=3 d=1 modulus=[1,1]"


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_field(6, 2)
    with pytest.raises(ValueError):
        build_field(2, 3)
    with pytest.raises(ValueError):
        build_field(3, 0)
    with pytest.raises(BudgetExceededError):
        build_field(3, 16)
    with pytest.raises(BudgetExceededError):
        build_field(3, 10**9)  # refused without forming 3**(10**9)
    with pytest.raises(BudgetExceededError):
        build_field(10**18 + 3, 1)  # a prime, refused before trial division
    with pytest.raises(BudgetExceededError):
        build_field(13, 7)


def test_shared_instance():
    assert build_field(3, 2) is build_field(3, 2)


@pytest.mark.parametrize("table", ["antilog_int", "log_by_int", "zech_log",
                                   "trace_abs_by_code"])
def test_tables_are_read_only(table):
    """build_field's memo shares each table, and the trace kernel reads the
    trace table in place: no caller can write into one."""
    for F in (build_field(3, 2), FieldDescriptor(5, 3)):
        with pytest.raises(ValueError):
            getattr(F, table)[1] = 0


# -- tables against one multiplication by x at a time ---------------------------

def oracle_antilog(modulus, p):
    """Base-p packings of x^0, ..., x^(p^d - 2) mod the modulus, in log order."""
    d = len(modulus) - 1
    digits = [1] + [0] * (d - 1)
    out = []
    for _ in range(p**d - 1):
        out.append(sum(c * p**i for i, c in enumerate(digits)))
        carry = digits[-1]
        digits = [0] + digits[:-1]
        digits = [(digits[i] - carry * modulus[i]) % p for i in range(d)]
    assert digits == [1] + [0] * (d - 1)  # x has order p^d - 1
    return out


# Blocks are a power of two B with B^2 >= #F; the sweep includes sizes where B
# does not divide #F - 1 (7, 11, 3^3, 11^2, 13^2, 101^2, ...), so the last
# block is cut short.
ANTILOG_SWEEP = [(p, d) for p in (3, 5, 7, 11, 13) for d in range(1, 9)
                 if p**d <= 3**8] + [(101, 1), (1009, 1), (101, 2)]


@pytest.mark.parametrize("p,d", ANTILOG_SWEEP)
def test_tables_match_the_loop_oracle(p, d):
    """Antilog vs the loop; trace, coordinates and Zech logs vs the route
    through the full matrix of coordinates, one row per log."""
    F = build_field(p, d)
    M = F.order - 1
    antilog = oracle_antilog(F.modulus, p)
    assert F.antilog_int.tolist() == antilog
    digmat = np.array([[v // p**i % p for i in range(d)] for v in antilog])

    orbits = [[(i * p**j) % M for j in range(d)] for i in range(d)]
    tr_basis = digmat[orbits].sum(axis=1) % p  # row i: trace of x^i
    assert not tr_basis[:, 1:].any()
    assert F.trace_abs_by_code.tolist() == [0] + (digmat @ tr_basis[:, 0] % p).tolist()

    for code in range(F.order):
        want = digmat[code - 1] if code else np.zeros(d, dtype=np.int64)
        assert F.coeff_vector(code).tolist() == want.tolist()

    log = {v: j for j, v in enumerate(antilog)}
    assert F.zech_log.tolist() == [log.get(v - v % p + (v % p + 1) % p, -1)
                                   for v in antilog]


# -- arithmetic cross-checks ---------------------------------------------------

FIELDS = [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2), (11, 1)]


@pytest.mark.parametrize("p,d", FIELDS)
def test_zech_addition_matches_polynomial_addition(p, d):
    """100 random pairs: table addition vs digitwise coefficient addition."""
    F = build_field(p, d)
    rng = random.Random(p * 100 + d)
    for _ in range(100):
        a = rng.randrange(F.order)
        b = rng.randrange(F.order)
        va = F.poly_int(a)
        vb = F.poly_int(b)
        digits = []
        x, y = va, vb
        for _ in range(d):
            digits.append(((x % p) + (y % p)) % p)
            x //= p
            y //= p
        vs = sum(c * p**i for i, c in enumerate(digits))
        assert F.poly_int(F.add_code(a, b)) == vs


@pytest.mark.parametrize("p,d", FIELDS)
def test_mul_matches_polynomial_mul(p, d):
    F = build_field(p, d)
    m = list(F.modulus)
    rng = random.Random(p * 31 + d)
    for _ in range(60):
        a = rng.randrange(F.order)
        b = rng.randrange(F.order)
        pa = list(F.coeff_vector(a))
        pb = list(F.coeff_vector(b))
        prod = oracle_mul(pa, pb, m, p)
        vs = sum(c * p**i for i, c in enumerate(prod))
        assert F.poly_int(F.mul_code(a, b)) == vs


@pytest.mark.parametrize("p,d", FIELDS)
def test_field_axioms_spotcheck(p, d):
    F = build_field(p, d)
    rng = random.Random(d * 1000 + p)
    add, mul = F.add_code, F.mul_code
    for _ in range(50):
        a, b, c = (rng.randrange(F.order) for _ in range(3))
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, F.neg_code(a)) == 0
        if b != 0:
            assert mul(b, F.inv_code(b)) == 1


def test_vectorized_ops_match_scalar():
    """Every pair of codes of F_9 and F_27, zeros included, as two arrays and
    as one scalar code against the array of all codes, in both orders."""
    for F in (build_field(3, 2), build_field(3, 3)):
        codes = np.arange(F.order)
        a, b = (grid.ravel() for grid in np.meshgrid(codes, codes))
        pairs = list(zip(a.tolist(), b.tolist()))
        assert F.add_codes_vec(a, b).tolist() == [F.add_code(x, y) for x, y in pairs]
        assert F.mul_codes_vec(a, b).tolist() == [F.mul_code(x, y) for x, y in pairs]
        for c in range(F.order):
            adds = [F.add_code(x, c) for x in range(F.order)]
            muls = [F.mul_code(x, c) for x in range(F.order)]
            assert F.add_codes_vec(codes, c).tolist() == adds
            assert F.add_codes_vec(c, codes).tolist() == adds
            assert F.mul_codes_vec(codes, c).tolist() == muls
            assert F.mul_codes_vec(c, codes).tolist() == muls


# -- Frobenius, trace, norm -----------------------------------------------------

@pytest.mark.parametrize("p,d", [(3, 2), (3, 3), (3, 4), (5, 2), (7, 2)])
def test_frobenius_is_automorphism_fixing_prime_field(p, d):
    F = build_field(p, d)
    fixed = [c for c in range(F.order) if F.frobenius_code(c) == c]
    assert len(fixed) == p
    for c in fixed:
        assert F.in_subfield_code(1, c)
    rng = random.Random(42)
    frob = F.frobenius_code
    for _ in range(50):
        a = rng.randrange(F.order)
        b = rng.randrange(F.order)
        assert frob(F.add_code(a, b)) == F.add_code(frob(a), frob(b))
        assert frob(F.mul_code(a, b)) == F.mul_code(frob(a), frob(b))


def test_trace_examples():
    F9 = build_field(3, 2)
    assert F9.trace_abs_by_code[0] == 0
    assert F9.trace_abs_by_code[1] == 2  # 1 + 1 over two conjugates
    # the order-4 element i satisfies i + i^3 = i - i = 0
    i4 = 1 + (F9.order - 1) // 4
    assert F9.pow_code(i4, 4) == 1 and F9.pow_code(i4, 2) != 1
    assert F9.trace_abs_by_code[i4] == 0


@pytest.mark.parametrize("p,d,e", [(3, 2, 1), (3, 4, 2), (3, 4, 1), (5, 2, 1), (3, 3, 1)])
def test_relative_trace_linear_and_surjective(p, d, e):
    F = build_field(p, d)
    sub_codes = {c for c in range(F.order) if F.in_subfield_code(e, c)}
    images = set()
    for c in range(F.order):
        t = F.trace_to_code(e, c)
        assert t in sub_codes
        images.add(t)
    assert images == sub_codes  # surjective
    rng = random.Random(5)
    for _ in range(40):
        a = rng.randrange(F.order)
        b = rng.randrange(F.order)
        s = F.add_code(a, b)
        assert F.trace_to_code(e, s) == F.add_code(F.trace_to_code(e, a),
                                                   F.trace_to_code(e, b))


# -- embeddings -------------------------------------------------------------------

def test_embed_prime_field_is_integer_inclusion():
    for (p, d) in [(3, 2), (3, 3), (5, 2), (7, 2)]:
        sub = build_field(p, 1)
        sup = build_field(p, d)
        for c in range(p):
            assert embed(sub, sup, sub.code_from_poly_int(c)) == sup.code_from_poly_int(c)


def test_embed_minus_one_has_order_two():
    sub = build_field(3, 1)
    sup = build_field(3, 2)
    img = embed(sub, sup, sub.code_from_poly_int(2))
    assert img == sup.neg_code(1)
    assert sup.mul_code(img, img) == 1


@pytest.mark.parametrize("p,e,d", [(3, 1, 2), (3, 1, 3), (3, 2, 4), (5, 1, 2), (3, 2, 6)])
def test_embed_is_field_homomorphism(p, e, d):
    sub = build_field(p, e)
    sup = build_field(p, d)
    rng = random.Random(e * 100 + d)
    for _ in range(60):
        a = rng.randrange(sub.order)
        b = rng.randrange(sub.order)
        assert embed(sub, sup, sub.add_code(a, b)) == sup.add_code(embed(sub, sup, a),
                                                                   embed(sub, sup, b))
        assert embed(sub, sup, sub.mul_code(a, b)) == sup.mul_code(embed(sub, sup, a),
                                                                   embed(sub, sup, b))
    assert embed(sub, sup, 1) == 1


@pytest.mark.parametrize("p,e,d", [(3, 1, 2), (3, 1, 3), (3, 2, 4), (5, 1, 2)])
def test_trace_after_embed_is_multiplication_by_degree(p, e, d):
    sub = build_field(p, e)
    sup = build_field(p, d)
    k = sub.code_from_poly_int(d // e % p)
    rng = random.Random(9)
    for _ in range(10):
        a = rng.randrange(sub.order)
        back = sup.trace_to_code(e, embed(sub, sup, a))
        assert back == embed(sub, sup, sub.mul_code(a, k))


def test_embed_refuses_a_code_outside_the_subfield():
    sub, sup = build_field(3, 1), build_field(3, 2)
    for code in (-1, sub.order):
        with pytest.raises(ValueError):
            embed(sub, sup, code)


@pytest.mark.parametrize("p,d", [(3, 1), (3, 2), (5, 3), (7, 2)])
def test_prime_int_reads_the_prime_field(p, d):
    F = build_field(p, d)
    assert [F.prime_int(F.code_from_poly_int(c)) for c in range(p)] == list(range(p))
    outside = [c for c in range(F.order) if not F.in_subfield_code(1, c)]
    assert len(outside) == F.order - p
    for code in outside[:5] + [-1, F.order]:
        with pytest.raises(ValueError):
            F.prime_int(code)


def test_prime_int_refuses_nonconstant_coordinates():
    """An F_p element whose table entry is not a constant polynomial: the
    tables are broken, which is a RuntimeError, not a bad argument."""
    F = FieldDescriptor(3, 2)
    doctored = F.antilog_int.copy()
    minus_one = F.neg_code(1)
    doctored[minus_one - 1] = 5  # 2 + x, where -1 = 2 belongs
    F.antilog_int = doctored
    with pytest.raises(RuntimeError):
        F.prime_int(minus_one)


def test_generator_powers_cover_group():
    F = build_field(5, 2)
    seen = {F.pow_code(2, k) for k in range(F.order - 1)}
    assert len(seen) == F.order - 1


def test_prime_helpers():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert prime_factors(720) == (2, 3, 5)
    assert prime_factors(3**8 - 1) == (2, 5, 41)
