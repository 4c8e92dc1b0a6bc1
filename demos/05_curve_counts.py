"""
Point counts on fiber curves and the modified third moment
==========================================================

Counts of the affine curves f(x, y) = t for the completely split form
f = x y (x+y) prod (x - alpha y)^2, taken in chunks of L because f is
homogeneous (a count is the number of roots of P(u) = f(u, 1) in L and g
class totals, g = gcd(n, #L - 1)), and the reconstruction of the third
trace moment from those counts.  The two computations share nothing but
the field tables, so their exact equality is a real consistency check.
"""

from altsums import (
    SystemParams,
    count_points,
    modified_third_moment,
    trace_table,
)

params = SystemParams(p=3, f=1)

# Over the base field itself the form vanishes identically (x^n = x on F_q),
# so every pair lands in the zero fiber.
count = count_points(params, 1)
print("degree 1 counts:", count.counts.tolist(), " total:", count.total())

# Over F_9 the fibers split 33 + 8 * 6; the nonzero fibers are equal in size
# because f is homogeneous of degree n and n is coprime to #L - 1 ... almost:
# what matters is f(c x, c y) = c^n f(x, y), which permutes the fibers.
count = count_points(params, 2)
print("degree 2 counts:", count.counts.tolist(),
      " roots of P:", count.zeros, " class totals:", count.classes)
print("fiber sum == (#L)^2:", count.total() == count.field_order ** 2)

# The weighted fiber sum with psi and chi2, divided by the cube of the Gauss
# sum, is an exact rational: the curve-side version of the third moment.
# count_points takes it while it holds L, and keeps it as count.modified;
# modified_third_moment(L, counts) takes it again from any counts over L.
for degree in (2, 3, 4):
    L = params.extension(degree)
    count = count_points(params, degree, field=L)
    curve_side = modified_third_moment(L, count.counts)
    assert curve_side == count.modified
    direct = trace_table(params, degree, field=L).moment(3)
    print(f"degree {degree}: curve side {curve_side} vs direct {direct}")

# The two sides are equal exactly, at every size (the proof is in the
# docstring of altsums.curves).
equal = count_points(params, 4).modified == trace_table(params, 4).moment(3)
print(f"degree 4: curve side equals M3 exactly: {equal}")
