"""Ring laws and frozen arithmetic facts for Z[zeta_p]."""

import cmath
import random

import pytest

from altsums.cyclotomic import CycInt
from oracles import complex_value


def rand_elem(rng, p, span=9):
    return CycInt(p, [rng.randrange(-span, span + 1) for _ in range(p - 1)])


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_ring_axioms_random_triples(p):
    rng = random.Random(p)
    for _ in range(250):
        a, b, c = (rand_elem(rng, p) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + CycInt.zero(p) == a
        assert a * CycInt.one(p) == a
        assert (a - a).is_zero


@pytest.mark.parametrize("p", [3, 5, 7])
def test_conjugation_is_ring_automorphism_and_involution(p):
    rng = random.Random(100 + p)
    for _ in range(200):
        a, b = rand_elem(rng, p), rand_elem(rng, p)
        assert a.conj().conj() == a
        assert (a + b).conj() == a.conj() + b.conj()
        assert (a * b).conj() == a.conj() * b.conj()


def test_power_basis_relation():
    # 1 + z + z^2 + ... + z^(p-1) = 0
    for p in (3, 5, 7):
        total = sum((CycInt.root(p, k) for k in range(p)), CycInt.zero(p))
        assert total.is_zero


def test_frozen_values_p3():
    z = CycInt.root(3)
    z2 = CycInt.root(3, 2)
    assert z + z2 == CycInt.rational(3, -1)
    assert z * z2 == CycInt.one(3)
    assert (z - z2) ** 2 == CycInt.rational(3, -3)
    assert z.conj() == z2
    assert CycInt.root(3, 5) == z2  # exponents mod p


def test_rationality_detection():
    z = CycInt.root(5)
    assert CycInt.rational(5, 7).as_rational() == 7
    assert z.as_rational() is None
    # zeta * zeta^4 = 1 is rational even though the factors are not
    assert (z * CycInt.root(5, 4)).as_rational() == 1
    assert CycInt.zero(7).as_rational() == 0
    assert CycInt.zero(7).is_zero


def test_from_power_counts_reduction():
    # w = (0,...,0,1) stands for zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
    p = 5
    v = CycInt.from_power_counts(p, [0, 0, 0, 0, 1])
    assert v == CycInt(p, (-1, -1, -1, -1))
    total = sum((CycInt.root(p, k) for k in range(1, p)), CycInt.zero(p))
    assert total == CycInt.rational(p, -1)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_complex_embedding_is_multiplicative(p):
    rng = random.Random(p * 7)
    for _ in range(50):
        a, b = rand_elem(rng, p, 4), rand_elem(rng, p, 4)
        lhs = complex_value(a * b)
        rhs = complex_value(a) * complex_value(b)
        assert cmath.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-9)


def test_complex_embedding_of_root():
    for p in (3, 5, 7):
        got = complex_value(CycInt.root(p))
        want = cmath.exp(2j * cmath.pi / p)
        assert cmath.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


def test_abs_squared_of_root_is_one():
    for p in (3, 5, 7):
        assert CycInt.root(p).abs_squared() == CycInt.one(p)


def test_pow_matches_repeated_multiplication():
    rng = random.Random(17)
    for p in (3, 5):
        a = rand_elem(rng, p, 3)
        acc = CycInt.one(p)
        for k in range(6):
            assert a**k == acc
            acc = acc * a


def test_mixed_int_arithmetic():
    z = CycInt.root(3)
    assert 1 + z + z.conj() == CycInt.zero(3)
    assert 2 * z == z + z
    assert (3 - z) - 3 == -z


def test_rejects_bad_shapes():
    with pytest.raises(ValueError):
        CycInt(3, (1, 2, 3))
    with pytest.raises(ValueError):
        CycInt.root(3) + CycInt.root(5)
