"""
Point counts on fiber curves and the modified third moment
==========================================================

Counts of the affine curves f(x, y) = t for the completely split form
f = x y (x+y) prod (x - alpha y)^2, taken in one pass over L because f is
homogeneous, and the reconstruction of the third trace moment from those
counts.  The two computations share nothing but the field tables, so
agreement within the q/sqrt(#L) bound is a real consistency check.
"""

from altsums import (
    SystemParams,
    count_points,
    curve_moment_report,
    modified_third_moment,
    trace_table,
)

params = SystemParams(p=3, f=1)

# Over the base field itself the form vanishes identically (x^n = x on F_q),
# so every pair lands in the zero fiber.
count = count_points(params, 1)
print("degree 1 counts:", count.counts, " total:", count.total())

# Over F_9 the fibers split 33 + 8 * 6; the nonzero fibers are equal in size
# because f is homogeneous of degree n and n is coprime to #L - 1 ... almost:
# what matters is f(c x, c y) = c^n f(x, y), which permutes the fibers.
count = count_points(params, 2)
print("degree 2 counts:", count.counts)
print("fiber sum == (#L)^2:", count.total() == count.field_order ** 2)

# The weighted fiber sum with psi and chi2, divided by the cube of the Gauss
# sum, is an exact rational: the curve-side version of the third moment.
for degree in (2, 3, 4):
    curve_side = modified_third_moment(count_points(params, degree))
    direct = trace_table(params, degree).moment(3)
    print(f"degree {degree}: curve side {curve_side} vs direct {direct}")

# The packaged report states the error bound; at these sizes the two sides
# agree exactly, far inside the bound.
report = curve_moment_report(count_points(params, 4),
                             trace_table(params, 4).moment(3))
print(f"degree 4: |gap| <= {report.bound:.4f}: {report.within_bound}")
