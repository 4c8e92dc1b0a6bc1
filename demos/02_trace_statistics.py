"""
Trace tables and moment statistics over an extension tower
==========================================================

Evaluates the normalized trace function of the rank-four system with
q = 3 (so n = 2q - 1 = 5) over extensions of F_3, checks that every value
is a rational integer, and watches the third moment approach +1 or -1
according to the parity of the extension degree.
"""

from altsums import SystemParams, moment_report, trace_table, trace_tables

params = SystemParams(p=3, f=1)
print("n =", params.n, " base field: F_3")

# The degree-2 table: 9 exact values, one per element t of F_9.  Each is a
# numerator -S(t) conj(A) divided by #L = 9; no table is made unless #L
# divides every numerator, so the table holds the integers themselves.
table = trace_table(params, 2)
print("degree 2 values:", table.values.tolist())
print("numerators over #L =", table.denominator, ":", table.numerators.tolist())

# Moments are exact rationals.  The first moment vanishes for degree >= 2,
# the second counts the trivial constituent, the third detects the sign
# character: chi2(-1) on the extension is the target.
for power in (1, 2, 3):
    print(f"M{power} at degree 2:", table.moment(power))

# The full report shows the parity dichotomy.  Odd degrees over F_3 have
# -1 a non-square, so M3 tends to -1; even degrees tend to +1.
for row in moment_report(params, trace_tables(params, 6)):
    print(f"degree {row.degree}  #L = {row.field_order:4d}  "
          f"M3 = {float(row.m3):+.4f}  target {row.m3_target:+d}  "
          f"deviation {row.m3_deviation:.4f}")
