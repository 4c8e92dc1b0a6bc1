"""Exact character statistics of Sym(m), Alt(m), and the odd coset.

The statistics of interest are those of the deleted permutation character
fix - 1 (optionally twisted by sgn), averaged over Sym(m), Alt(m), or the
odd coset, as exact rationals.  They come from a closed form in O(m):
a permutation with k fixed points is a k-subset times a derangement of the
other m - k points, and among the D(n) derangements of n points the even
ones outnumber the odd ones by (-1)^(n-1) (n-1), so

    #{sigma : k fixed points, sign s} = C(m,k) (D(m-k) + s e(m-k)) / 2,
    e(n) = (-1)^(n-1) (n-1).

Independent routes kept deliberately separate for cross-checking:
  * partitions / class_size: cycle-type class sums;
  * singleton_free_partitions: Bell-triangle inclusion-exclusion, which
    equals the m-independent Sym moments E[(fix-1)^n] for m >= n;
  * specht_dim: hook length formula;
  * character_value: Murnaghan-Nakayama rim-hook recursion on beta-sets.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

REGIMES = ("sym", "alt", "coset")
TWISTS = ("plain", "sgn")
CHAR_LIMIT = 10  # tensor_square_check checks characters pointwise up to m = CHAR_LIMIT


def partitions(m: int, _max: int | None = None):
    """Partitions of m as descending tuples."""
    if m == 0:
        yield ()
        return
    if _max is None or _max > m:
        _max = m
    for first in range(_max, 0, -1):
        for rest in partitions(m - first, first):
            yield (first,) + rest


def class_size(m: int, cycle_type: tuple[int, ...]) -> int:
    if sum(cycle_type) != m:
        raise ValueError("cycle type does not partition m")
    denom = 1
    mult: dict[int, int] = {}
    for part in cycle_type:
        mult[part] = mult.get(part, 0) + 1
    for part, a in mult.items():
        denom *= part**a * math.factorial(a)
    return math.factorial(m) // denom


def spectrum(m: int, regime: str = "alt",
             twist: str = "plain") -> dict[int, Fraction]:
    """Value -> exact probability of fix - 1 (times sgn if twisted) under the
    regime's uniform measure; zero-probability values are left out.  Each
    call returns a new dict."""
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if twist not in TWISTS:
        raise ValueError(f"unknown twist {twist!r}")
    return dict(_spectrum(m, regime, twist))


@lru_cache(maxsize=2)  # a run asks for at most two: alt/plain and coset/sgn
def _spectrum(m: int, regime: str, twist: str) -> tuple[tuple[int, Fraction], ...]:
    signs = {"sym": (1, -1), "alt": (1,), "coset": (-1,)}[regime]
    derangements = [1, 0]
    for n in range(2, m + 1):
        derangements.append((n - 1) * (derangements[-1] + derangements[-2]))
    weights: dict[int, int] = {}
    for k in range(m + 1):
        n = m - k
        excess = n - 1 if n % 2 else 1 - n  # even minus odd derangements
        for s in signs:
            count = math.comb(m, k) * (derangements[n] + s * excess) // 2
            if count:
                v = s * (k - 1) if twist == "sgn" else k - 1
                weights[v] = weights.get(v, 0) + count
    order = math.factorial(m) if regime == "sym" else math.factorial(m) // 2
    return tuple((v, Fraction(w, order)) for v, w in sorted(weights.items()))


def exact_moment(m: int, power: int, regime: str = "alt",
                 twist: str = "plain") -> Fraction:
    return sum(v**power * pr for v, pr in spectrum(m, regime, twist).items())


# -- set-partition cross-check ---------------------------------------------------

def bell_number(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def singleton_free_partitions(n: int) -> int:
    """Set partitions of an n-set with every block of size >= 2.

    Inclusion-exclusion over the set of singletons:
    sum_k (-1)^(n-k) C(n,k) Bell(k).  Equals the Sym(m) moment
    E[(fix - 1)^n] for any m >= n.
    """
    return sum((-1) ** (n - k) * math.comb(n, k) * bell_number(k)
               for k in range(n + 1))


# -- Specht module dimensions and character values ----------------------------------

def conjugate_partition(lam: tuple[int, ...]) -> tuple[int, ...]:
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > j) for j in range(lam[0]))


def specht_dim(lam: tuple[int, ...]) -> int:
    """Hook length formula."""
    lam = tuple(sorted(lam, reverse=True))
    m = sum(lam)
    conj = conjugate_partition(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return math.factorial(m) // hooks


def character_value(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Irreducible Sym character chi_lam on class mu (rim-hook recursion).

    Works on the beta-set of lam: removing a rim hook of length k moves one
    beta element down by k, with sign (-1)^(number of occupied slots jumped).
    """
    lam = tuple(sorted(lam, reverse=True))
    mu = tuple(sorted(mu, reverse=True))
    if sum(lam) != sum(mu):
        raise ValueError("lam and mu must partition the same integer")
    ell = len(lam)
    beta = frozenset(lam[i] + (ell - 1 - i) for i in range(ell))

    @lru_cache(maxsize=None)
    def rec(bset: frozenset, parts: tuple[int, ...]) -> int:
        if not parts:
            return 1
        k = parts[0]
        rest = parts[1:]
        total = 0
        for b in bset:
            if b >= k and (b - k) not in bset:
                between = sum(1 for c in bset if b - k < c < b)
                moved = (bset - {b}) | {b - k}
                total += (-1) ** between * rec(frozenset(moved), rest)
        return total

    return rec(beta, mu)


# -- tensor square of the deleted permutation module --------------------------------

class TensorSquareReport(NamedTuple):
    n: int                      # dim of the deleted permutation module of Sym(n+1)
    m: int                      # n + 1
    dims: dict[str, int]
    dim_ok: bool
    char_checked: bool
    char_ok: bool | None
    mismatches: tuple[tuple[tuple[int, ...], int, int], ...]


def tensor_square_check(n: int) -> TensorSquareReport:
    """(fix-1)^2 decomposes into four irreducibles; dims always, values if m small.

    The constituents for Sym(m), m = n+1, are the partitions (m), (m-1,1),
    (m-2,2), (m-2,1,1) with dimensions 1, n, (n+1)(n-2)/2, n(n-1)/2; they sum
    to n^2.  For m <= CHAR_LIMIT the identity is also verified pointwise on
    every conjugacy class via the rim-hook recursion.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    m = n + 1
    lams = {
        "trivial": (m,),
        "standard": (m - 1, 1),
        "two_row": (m - 2, 2),
        "hook": (m - 2, 1, 1),
    }
    dims = {k: specht_dim(v) for k, v in lams.items()}
    expected = {"trivial": 1, "standard": n,
                "two_row": (n + 1) * (n - 2) // 2, "hook": n * (n - 1) // 2}
    dim_ok = dims == expected and sum(dims.values()) == n * n
    char_checked = m <= CHAR_LIMIT
    char_ok = None
    mismatches: list[tuple[tuple[int, ...], int, int]] = []
    if char_checked:
        for mu in partitions(m):
            lhs = (mu.count(1) - 1) ** 2
            rhs = sum(character_value(lam, mu) for lam in lams.values())
            if lhs != rhs:
                mismatches.append((mu, lhs, rhs))
        char_ok = not mismatches
    return TensorSquareReport(n=n, m=m, dims=dims, dim_ok=dim_ok,
                              char_checked=char_checked, char_ok=char_ok,
                              mismatches=tuple(mismatches))
