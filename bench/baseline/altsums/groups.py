"""Exact character statistics of Sym(m), Alt(m), and the odd coset.

Everything is driven by cycle-type data: a conjugacy class of Sym(m) is a
partition of m, its size is m! / prod(i^a_i * a_i!), its number of fixed
points is the count of parts equal to 1, and its sign is (-1)^(m - #parts).
The statistics of interest are those of the deleted permutation character
fix - 1 (optionally twisted by sgn), averaged over Sym(m), Alt(m), or the
odd coset, as exact rationals.

Independent routes kept deliberately separate for cross-checking:
  * spectrum / exact_moment: class-weighted sums over cycle types;
  * singleton_free_partitions: Bell-triangle inclusion-exclusion, which
    equals the m-independent Sym moments E[(fix-1)^n] for m >= n;
  * specht_dim: hook length formula;
  * character_value: Murnaghan-Nakayama rim-hook recursion on beta-sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

REGIMES = ("sym", "alt", "coset")
TWISTS = ("plain", "sgn")


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


@dataclass(frozen=True)
class ConjClass:
    cycle_type: tuple[int, ...]
    size: int
    fixed_points: int
    sign: int
    splits_in_alt: bool


@dataclass(frozen=True)
class GroupStats:
    m: int
    classes: tuple[ConjClass, ...]

    def regime_classes(self, regime: str) -> tuple[ConjClass, ...]:
        if regime == "sym":
            return self.classes
        if regime == "alt":
            return tuple(c for c in self.classes if c.sign == 1)
        if regime == "coset":
            return tuple(c for c in self.classes if c.sign == -1)
        raise ValueError(f"unknown regime {regime!r}")

    def regime_order(self, regime: str) -> int:
        full = math.factorial(self.m)
        return full if regime == "sym" else full // 2


@lru_cache(maxsize=None)
def build_stats(m: int) -> GroupStats:
    if not 2 <= m <= 30:
        raise ValueError("m outside the supported range [2, 30]")
    classes = []
    for lam in partitions(m):
        sign = -1 if (m - len(lam)) % 2 else 1
        parts = set(lam)
        splits = (sign == 1 and len(parts) == len(lam)
                  and all(part % 2 == 1 for part in lam))
        classes.append(ConjClass(
            cycle_type=lam, size=class_size(m, lam),
            fixed_points=sum(1 for part in lam if part == 1),
            sign=sign, splits_in_alt=splits))
    stats = GroupStats(m=m, classes=tuple(classes))
    if sum(c.size for c in stats.classes) != math.factorial(m):
        raise RuntimeError("class sizes do not sum to the group order")
    if sum(c.size for c in stats.regime_classes("alt")) != math.factorial(m) // 2:
        raise RuntimeError("even classes do not sum to half the group order")
    return stats


def class_value(c: ConjClass, twist: str = "plain") -> int:
    """Deleted-permutation character value, optionally twisted by sgn."""
    v = c.fixed_points - 1
    if twist == "plain":
        return v
    if twist == "sgn":
        return c.sign * v
    raise ValueError(f"unknown twist {twist!r}")


def exact_moment(stats: GroupStats, power: int, regime: str = "alt",
                 twist: str = "plain") -> Fraction:
    total = sum(c.size * class_value(c, twist) ** power
                for c in stats.regime_classes(regime))
    return Fraction(total, stats.regime_order(regime))


def spectrum(stats: GroupStats, regime: str = "alt",
             twist: str = "plain") -> dict[int, Fraction]:
    """Value -> exact probability under the regime's uniform measure."""
    weights: dict[int, int] = {}
    for c in stats.regime_classes(regime):
        v = class_value(c, twist)
        weights[v] = weights.get(v, 0) + c.size
    order = stats.regime_order(regime)
    return {v: Fraction(w, order) for v, w in sorted(weights.items())}


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

@dataclass(frozen=True)
class TensorSquareReport:
    n: int                      # dim of the deleted permutation module of Sym(n+1)
    m: int                      # n + 1
    dims: dict[str, int]
    dim_ok: bool
    char_checked: bool
    char_ok: bool | None
    mismatches: tuple[tuple[tuple[int, ...], int, int], ...]


def tensor_square_check(n: int, *, char_limit: int = 10) -> TensorSquareReport:
    """(fix-1)^2 decomposes into four irreducibles; dims always, values if m small.

    The constituents for Sym(m), m = n+1, are the partitions (m), (m-1,1),
    (m-2,2), (m-2,1,1) with dimensions 1, n, (n+1)(n-2)/2, n(n-1)/2; they sum
    to n^2.  For m <= char_limit the identity is also verified pointwise on
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
    char_checked = m <= char_limit
    char_ok = None
    mismatches: list[tuple[tuple[int, ...], int, int]] = []
    if char_checked:
        for c in build_stats(m).classes:
            lhs = (c.fixed_points - 1) ** 2
            rhs = sum(character_value(lam, c.cycle_type) for lam in lams.values())
            if lhs != rhs:
                mismatches.append((c.cycle_type, lhs, rhs))
        char_ok = not mismatches
    return TensorSquareReport(n=n, m=m, dims=dims, dim_ok=dim_ok,
                              char_checked=char_checked, char_ok=char_ok,
                              mismatches=tuple(mismatches))
