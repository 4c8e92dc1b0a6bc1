"""Group-statistics oracle against brute-force permutation enumeration.

The enumeration helpers below count permutations and set partitions directly,
so the class-size formula, the closed-form spectrum, the Bell-triangle route,
the hook length formula, and the rim-hook recursion are each checked against
something that shares no code with them.  The closed-form spectrum is also
swept against class sums over partitions(m) for every m up to 30.
"""

import math
from fractions import Fraction
from itertools import permutations

import pytest

from altsums.groups import (REGIMES, TWISTS, bell_number, character_value,
                            class_size, conjugate_partition, exact_moment,
                            partitions, singleton_free_partitions, specht_dim,
                            spectrum, tensor_square_check)


def cycle_type_of(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    parts = []
    for i in range(len(perm)):
        if not seen[i]:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            parts.append(length)
    return tuple(sorted(parts, reverse=True))


def cycle_type_sign(lam: tuple[int, ...]) -> int:
    return -1 if (sum(lam) - len(lam)) % 2 else 1


def perm_sign(perm) -> int:
    return cycle_type_sign(cycle_type_of(perm))


def inversion_sign(perm) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def class_sum_spectrum(m, regime, twist):
    """The fix - 1 law as a sum over cycle types, sized by class_size."""
    weights: dict[int, int] = {}
    for lam in partitions(m):
        sign = cycle_type_sign(lam)
        if (regime, sign) in (("alt", -1), ("coset", 1)):
            continue
        v = lam.count(1) - 1
        if twist == "sgn":
            v *= sign
        weights[v] = weights.get(v, 0) + class_size(m, lam)
    order = math.factorial(m) if regime == "sym" else math.factorial(m) // 2
    return {v: Fraction(w, order) for v, w in sorted(weights.items())}


# -- class data ----------------------------------------------------------------

@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_class_sizes_match_enumeration(m):
    counts: dict[tuple[int, ...], int] = {}
    fixed: dict[tuple[int, ...], set[int]] = {}
    for perm in permutations(range(m)):
        ct = cycle_type_of(perm)
        counts[ct] = counts.get(ct, 0) + 1
        fixed.setdefault(ct, set()).add(sum(1 for i in range(m) if perm[i] == i))
    assert set(partitions(m)) == set(counts)
    for lam in partitions(m):
        assert class_size(m, lam) == counts[lam]
        assert fixed[lam] == {lam.count(1)}


def test_partition_count_small():
    assert len(list(partitions(6))) == 11
    assert len(list(partitions(10))) == 42
    assert sorted(partitions(4)) == [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]


def test_cycle_type_signs():
    assert cycle_type_sign((6,)) == -1
    assert cycle_type_sign((5, 1)) == 1
    assert cycle_type_sign((2, 2, 1, 1)) == 1
    for perm in permutations(range(6)):
        assert perm_sign(perm) == inversion_sign(perm)


def test_alt6_exotic_swap_values():
    # the two order-3 classes of Alt(6) carry different deleted-permutation
    # values (2 vs -1), the pair the exceptional outer automorphism exchanges
    assert class_size(6, (3, 1, 1, 1)) == class_size(6, (3, 3)) == 40
    assert character_value((5, 1), (3, 1, 1, 1)) == 2
    assert character_value((5, 1), (3, 3)) == -1
    # the 3-cycles are the only even permutations fixing exactly 3 points
    assert spectrum(6, "alt", "plain")[2] == Fraction(40, 360)


def test_spectrum_range_guard():
    for m in (0, 1):
        with pytest.raises(ValueError):
            spectrum(m)
        with pytest.raises(ValueError):
            exact_moment(m, 3)
    for m in (31, 34, 54):
        for regime, twist in (("alt", "plain"), ("coset", "sgn")):
            assert sum(spectrum(m, regime, twist).values()) == 1
        assert exact_moment(m, 3, "alt", "plain") == 1
        assert exact_moment(m, 3, "coset", "sgn") == -1


def test_each_spectrum_call_returns_a_new_dict():
    first = spectrum(6, "alt", "plain")
    first[2] = Fraction(1)
    again = spectrum(6, "alt", "plain")
    assert again is not first and again[2] == Fraction(40, 360)


def test_spectrum_rejects_unknown_regime_and_twist():
    with pytest.raises(ValueError):
        spectrum(6, "even", "plain")
    with pytest.raises(ValueError):
        spectrum(6, "alt", "sign")


@pytest.mark.parametrize("m", range(2, 31))
def test_spectrum_equals_class_sum_over_partitions(m):
    for regime in REGIMES:
        for twist in TWISTS:
            got = spectrum(m, regime, twist)
            want = class_sum_spectrum(m, regime, twist)
            assert list(got.items()) == list(want.items())
            assert 0 not in got.values()


# -- moments --------------------------------------------------------------------

def brute_moment(m, power, regime, twist):
    total = 0
    count = 0
    for perm in permutations(range(m)):
        s = perm_sign(perm)
        if regime == "alt" and s != 1:
            continue
        if regime == "coset" and s != -1:
            continue
        fix = sum(1 for i in range(m) if perm[i] == i)
        v = fix - 1
        if twist == "sgn":
            v *= s
        total += v**power
        count += 1
    return Fraction(total, count)


@pytest.mark.parametrize("m", [5, 6, 7])
@pytest.mark.parametrize("regime,twist", [("alt", "plain"), ("coset", "sgn"),
                                          ("sym", "plain"), ("coset", "plain")])
@pytest.mark.parametrize("power", [1, 2, 3])
def test_exact_moment_matches_brute_force(m, regime, twist, power):
    assert exact_moment(m, power, regime, twist) == \
        brute_moment(m, power, regime, twist)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_third_moment_one_on_alt_minus_one_on_twisted_coset(q):
    m = 2 * q
    assert exact_moment(m, 3, "alt", "plain") == 1
    assert exact_moment(m, 3, "coset", "sgn") == -1
    assert exact_moment(m, 2, "alt", "plain") == 1
    assert exact_moment(m, 2, "coset", "sgn") == 1
    assert exact_moment(m, 1, "alt", "plain") == 0


def test_sym_average_is_mean_of_alt_and_coset():
    for power in (1, 2, 3, 4):
        s = exact_moment(8, power, "sym")
        a = exact_moment(8, power, "alt")
        c = exact_moment(8, power, "coset")
        assert s == (a + c) / 2


# -- set-partition route -----------------------------------------------------------

def brute_singleton_free(n):
    """Count set partitions of range(n) with every block of size >= 2."""

    def rec(elems):
        if not elems:
            return 1
        rest = elems[1:]
        total = 0
        # block of elems[0] = {elems[0]} + a nonempty subset of the rest
        for mask in range(1, 1 << len(rest)):
            others = [rest[i] for i in range(len(rest)) if not mask >> i & 1]
            total += rec(others)
        return total

    return rec(list(range(n)))


def test_bell_numbers_frozen():
    assert [bell_number(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]


def test_singleton_free_counts_frozen_and_brute():
    assert [singleton_free_partitions(n) for n in range(2, 8)] == \
        [1, 1, 4, 11, 41, 162]
    for n in range(2, 7):
        assert singleton_free_partitions(n) == brute_singleton_free(n)


@pytest.mark.parametrize("m", [6, 7, 8, 9])
def test_sym_moments_equal_singleton_free_counts(m):
    for power in range(2, 6):
        if m >= power:
            assert exact_moment(m, power, "sym") == \
                singleton_free_partitions(power)
    assert exact_moment(m, 1, "sym") == 0


# -- spectra --------------------------------------------------------------------------

def test_alt6_spectrum_frozen():
    got = spectrum(6, "alt", "plain")
    assert got == {-1: Fraction(130, 360), 0: Fraction(144, 360),
                   1: Fraction(45, 360), 2: Fraction(40, 360),
                   5: Fraction(1, 360)}
    assert sum(got.values()) == 1


def test_coset6_twisted_spectrum_frozen():
    got = spectrum(6, "coset", "sgn")
    assert got == {-3: Fraction(15, 360), -1: Fraction(90, 360),
                   0: Fraction(120, 360), 1: Fraction(135, 360)}
    assert sum(got.values()) == 1


@pytest.mark.parametrize("m", [6, 8, 10])
def test_no_permutation_fixes_exactly_m_minus_one_points(m):
    # fix = m-1 is impossible, so the plain value m-2 never occurs
    for regime in ("sym", "alt", "coset"):
        assert m - 2 not in spectrum(m, regime, "plain")


def test_spectra_sum_to_one_everywhere():
    for regime in ("sym", "alt", "coset"):
        for twist in ("plain", "sgn"):
            assert sum(spectrum(10, regime, twist).values()) == 1


# -- hook lengths and character values ---------------------------------------------

def brute_standard_tableaux(lam):
    """Count standard Young tableaux by filling cells in increasing order."""
    lam = tuple(sorted(lam, reverse=True))

    def rec(rows):
        total_cells = sum(rows)
        if total_cells == 0:
            return 1
        total = 0
        for i, r in enumerate(rows):
            # the largest entry sits at the end of a row that stays a partition
            if r > 0 and (i == len(rows) - 1 or rows[i + 1] < r):
                total += rec(rows[:i] + (r - 1,) + rows[i + 1:])
        return total

    return rec(lam)


@pytest.mark.parametrize("lam", [(1,), (2, 1), (3, 2), (4, 2), (4, 1, 1),
                                 (3, 3, 1), (2, 2, 2), (5, 1)])
def test_specht_dim_matches_tableau_enumeration(lam):
    assert specht_dim(lam) == brute_standard_tableaux(lam)


def test_specht_dim_frozen_examples():
    assert specht_dim((5, 1)) == 5
    assert specht_dim((4, 2)) == 9
    assert specht_dim((4, 1, 1)) == 10
    assert specht_dim((6,)) == 1


def test_conjugate_partition():
    assert conjugate_partition((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate_partition(()) == ()


def test_character_value_on_identity_is_dimension():
    for lam in [(4, 2), (4, 1, 1), (3, 3), (5, 1), (6,), (1, 1, 1, 1, 1, 1)]:
        m = sum(lam)
        assert character_value(lam, (1,) * m) == specht_dim(lam)


@pytest.mark.parametrize("m", [6, 7])
def test_standard_character_is_fix_minus_one(m):
    for mu in partitions(m):
        assert character_value((m - 1, 1), mu) == mu.count(1) - 1


def test_sign_character_via_conjugate():
    # chi_(1^m) is the sign character
    for mu in partitions(6):
        assert character_value((1,) * 6, mu) == cycle_type_sign(mu)


def test_character_orthogonality_sym6():
    lams = [(6,), (5, 1), (4, 2), (4, 1, 1)]
    for a in lams:
        for b in lams:
            inner = sum(class_size(6, mu) * character_value(a, mu)
                        * character_value(b, mu)
                        for mu in partitions(6))
            assert inner == (math.factorial(6) if a == b else 0)


def test_character_value_rejects_mismatched_sizes():
    with pytest.raises(ValueError):
        character_value((3, 1), (5,))


# -- tensor square -------------------------------------------------------------------

@pytest.mark.parametrize("n", [5, 7, 9])
def test_tensor_square_small_with_characters(n):
    rep = tensor_square_check(n)
    assert rep.dim_ok
    assert rep.char_checked
    assert rep.char_ok
    assert rep.mismatches == ()


def test_tensor_square_large_dims_only():
    rep = tensor_square_check(13)
    assert rep.dim_ok
    assert not rep.char_checked
    assert rep.char_ok is None
    assert rep.dims == {"trivial": 1, "standard": 13, "two_row": 77, "hook": 78}
    assert sum(rep.dims.values()) == 169


def test_tensor_square_pointwise_identity_sym6_explicit():
    # (fix-1)^2 = chi_(6) + chi_(5,1) + chi_(4,2) + chi_(4,1,1) on every class
    for mu in partitions(6):
        lhs = (mu.count(1) - 1) ** 2
        rhs = sum(character_value(lam, mu)
                  for lam in [(6,), (5, 1), (4, 2), (4, 1, 1)])
        assert lhs == rhs
