"""
The split polynomial identity and the wild-inertia span
=======================================================

Two symbolic facts behind the trace statistics: the additive form
x^n + y^n + (-x-y)^n factors completely over F_q, and the (2q-2)-th roots
of unity span the quadratic extension of F_q with trace zero.  Everything
here is exact coefficient arithmetic; a single wrong coefficient raises.
"""

from altsums import (
    verify_derivative_steps,
    verify_identity_grouped,
    verify_identity_split,
    wild_inertia_span,
)

# Split form over F_q: the ratio x/y runs over F_q minus {0, -1} and each
# linear factor appears squared.
for q in (3, 9, 27):
    report = verify_identity_split(q)
    print(f"q = {q:2d}  {report.field_text}  factors: {report.factor_count}  "
          f"equal: {report.equal}")

# Grouped form over the prime field: the squared factors collect into
# Frobenius orbits, i.e. irreducible polynomials over F_p.  The factor list
# must be exactly the monic irreducibles of degree dividing f, minus x and
# x + 1, and the product must match coefficient by coefficient.
report = verify_identity_grouped(9)
print("q = 9 grouped orbits:", report.orbit_count,
      " degrees:", report.factor_degrees,
      " complete:", report.complete_ok, " equal:", report.equal)

# The factorization is forced by calculus: P = x^n + 1 - (x+1)^n has degree
# 2q - 2, vanishes on all of F_q, and P' vanishes off {0, -1}, so every
# other root is (at least) double.  Each step is verified by division.
steps = verify_derivative_steps(9)
print("degree:", steps.degree, " P(F_q) = 0:", steps.vanishes_on_field,
      " double roots:", steps.double_root_division_ok,
      " product form:", steps.product_form_ok)

# The roots of unity of order 2q - 2 live in the quadratic extension and
# span it over F_p: dimension 2f, trace zero for the odd half.
for q in (3, 5, 9, 27):
    span = wild_inertia_span(q)
    print(f"q = {q:2d}  span dim {span.dimension} (expected {2 * span.f})  "
          f"trace zero: {span.trace_zero_ok}  coset: {span.coset_ok}")

# A four-value virtual character bookkeeping device used in the moment
# calculation: 2 Reg - 1 on F_q + F_q, read off which of (a, b) vanish.
# Summed over the element codes (a, b) of F_9 x F_9, code 0 being zero, it
# collapses to q^2.
q = 9
values = {(True, True): 2 * q - 1, (False, True): q - 1,
          (True, False): q - 1, (False, False): -1}
total = sum(values[a == 0, b == 0] for a in range(q) for b in range(q))
print("virtual character values:", *values.values(), " weighted sum:", total)
