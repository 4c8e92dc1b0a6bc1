"""
The exact group-theoretic oracle
================================

Character theory of Sym(2q) and Alt(2q) acting through the deleted
permutation representation.  The trace statistics of the previous demo are
predicted exactly by these finite groups: Alt(6) for even degrees over F_3,
the sgn-twisted odd coset for odd degrees.
"""

from altsums import (
    exact_moment,
    singleton_free_partitions,
    spectrum,
    tensor_square_check,
)

# The deleted permutation character is fix(sigma) - 1.  Its exact value
# distribution on Alt(6) and on the sgn-twisted odd coset comes from a closed
# form: C(m,k) times the even (or odd) derangements of the other m - k points
# have k fixed points.
for regime, twist in (("alt", "plain"), ("coset", "sgn")):
    dist = spectrum(6, regime, twist)
    text = ", ".join(f"{v}: {pr}" for v, pr in dist.items())
    print(f"{regime}/{twist} spectrum  {{{text}}}")

# Third moments are +1 on the alternating group and -1 on the twisted coset,
# for every group in the family; m = 54 is Alt(2q) for q = 27.
for m in (6, 10, 14, 54):
    print(f"m = {m:2d}  alt M3 = {exact_moment(m, 3, 'alt', 'plain')}  "
          f"coset/sgn M3 = {exact_moment(m, 3, 'coset', 'sgn')}")

# Cross-check: the full Sym moment E[(fix-1)^k] counts set partitions with
# no singleton block, independent of the group-theory route.
for k in (2, 3, 4):
    print(f"Sym(6) M{k} =", exact_moment(6, k, "sym", "plain"),
          " singleton-free partitions:", singleton_free_partitions(k))

# The tensor square of the (m-1)-dimensional module splits into four
# irreducibles whose hook-length dimensions sum to (m-1)^2; for small m the
# identity is checked pointwise on every cycle type.
for n in (5, 9, 13):
    report = tensor_square_check(n)
    print(f"n = {n:2d}  dims {report.dims}  sum ok: {report.dim_ok}  "
          f"pointwise: {report.char_ok}")
