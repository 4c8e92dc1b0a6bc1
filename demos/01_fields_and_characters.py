"""
Finite fields, additive characters, and exact Gauss sums
========================================================

Builds small extension fields with Zech-logarithm arithmetic, evaluates the
canonical additive and quadratic characters on them, and checks the classical
Gauss-sum identities exactly in the cyclotomic ring Z[zeta_p].
"""

from altsums import (
    CharacterContext,
    chi2_code,
    chi2_minus_one,
    build_field,
    gauss_identities,
    gauss_sum,
    hasse_davenport_check,
)

# Every field is described by a deterministic modulus: the lexicographically
# smallest primitive polynomial for its degree.  Elements are codes: 0 is the
# zero element and code j >= 1 is g^(j-1) for the fixed generator g.
F9 = build_field(3, 2)
print("field:", F9.canonical_text())
print("order:", F9.order, " generator code:", 2)

# Addition runs through the Zech table; multiplication is index arithmetic.
a, b = 2, 3               # g and g^2
print("g + g^2 = code", F9.add_code(a, b), " g * g^2 = code", F9.mul_code(a, b))

# The quadratic character is the parity of the discrete log; chi2(-1) tells
# whether -1 is a square, which is the engine of the parity dichotomy later.
print("chi2(g) =", chi2_code(F9, a))
for p, f in ((3, 1), (3, 2), (5, 1), (5, 2)):
    L = build_field(p, f)
    print(f"chi2(-1) on {L.canonical_text()}: {chi2_minus_one(L):+d}")

# Gauss sums live in Z[zeta_p] and are verified exactly, no floats anywhere:
# g * conj(g) = #L and g^2 = chi2(-1) * #L.
ctx = CharacterContext(build_field(3, 1))
for D in (1, 2, 3):
    L = ctx.extension(D)
    report = gauss_identities(ctx, L)
    print(L.canonical_text(), " gauss sum:", gauss_sum(ctx, L),
          " identities ok:", report.all_ok)

# The normalization constants are compatible along extensions:
# A(L_D) equals A(base)^D exactly, degree by degree.
hd = hasse_davenport_check(ctx, 5, range(1, 5))
for row in hd.rows:
    print(f"degree {row.degree}: direct == powered: {row.equal}")
