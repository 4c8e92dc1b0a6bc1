"""Finite fields F_{p^d} with a deterministic discrete-log representation.

The field of order p^d is F_p[x]/(m(x)) where m is the lexicographically
smallest monic degree-d polynomial, coefficients compared as integer tuples
constant term first, whose residue class x generates the multiplicative
group.  That choice is unique, so two builds of the same (p, d) agree
table-for-table and serialized artifacts can be compared byte-wise.  If x
generates, so does its norm (-1)^d m(0) = x^((p^d - 1)/(p - 1)) in F_p^x
(Lidl-Niederreiter, Finite Fields, 3.1); the search skips every other m(0).
DEFAULT_TABLE_BUDGET elements is the only size limit.

An element is an int code, the library's only element type: 0 is zero and
code j >= 1 is g^(j-1) for the generator g = x.  Multiplication is index
addition mod p^d - 1; addition goes through a Zech logarithm table
(zech[m] = dlog(1 + g^m)), built on first use.  Dense int arrays make the
representation cheap to vectorize with numpy.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

DEFAULT_TABLE_BUDGET = 2**24


class BudgetExceededError(ValueError):
    """Requested object is larger than the configured enumeration budget."""


class _Checked:
    """Mixed into a collections.namedtuple whose __new__ checks its fields, so
    that `_make` and `_replace`, which calls it, check them too: namedtuple's
    own `_make` skips __new__."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of n, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


def factor_prime_power(q: int) -> tuple[int, int]:
    """Write q = p^f with p prime, or raise ValueError."""
    facs = prime_factors(q)  # () for q < 2
    if len(facs) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, f = facs[0], 0
    while q % p == 0:
        q //= p
        f += 1
    return p, f


# -- F_p[x]/(m), m monic of degree d, as d x d matrices mod p: C^e for the
#    companion matrix C multiplies by x^e, so C^e = I exactly when x^e = 1,
#    and g(C) is invertible exactly when g is prime to m.

def _companion(modulus, p: int) -> np.ndarray:
    """Multiplication by x mod the monic modulus: row i is x^(i + 1)."""
    d = len(modulus) - 1
    C = np.zeros((d, d), dtype=np.int64)
    C[:-1, 1:] = np.eye(d - 1, dtype=np.int64)
    C[-1] = [-c % p for c in modulus[:d]]
    return C


def _mat_pow_mod(C: np.ndarray, e: int, p: int) -> np.ndarray:
    """C^e mod p by repeated squaring.  Entries stay below p, so a product's
    sums stay below d p^2, under 2^53 for every p^d within the 2^24 table
    budget: int64 is exact."""
    out = np.eye(len(C), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ C % p
        C = C @ C % p
        e >>= 1
    return out


def _x_is_primitive(modulus: tuple[int, ...], p: int) -> bool:
    """x has order p^d - 1 mod the modulus: C^(p^d - 1) = I and no
    C^((p^d - 1)/r) = I for a prime r of p^d - 1."""
    C = _companion(modulus, p)
    n_units = p ** len(C) - 1
    eye = np.eye(len(C), dtype=np.int64)
    return (np.array_equal(_mat_pow_mod(C, n_units, p), eye)
            and not any(np.array_equal(_mat_pow_mod(C, n_units // r, p), eye)
                        for r in prime_factors(n_units)))


def _find_modulus(p: int, d: int) -> tuple[int, ...]:
    # x primitive mod m makes its norm (-1)^d m(0) generate F_p^x, and m, being
    # irreducible, has no root a in F_p^x once d > 1: skipping every other m
    # leaves the choice unchanged, as survivors keep lex order and the full test
    powers = np.vander(np.arange(1, p), d + 1, increasing=True)  # a^i < p^d <= 2^24
    for c0 in range(1, p):
        if any(pow((-1) ** d * c0, (p - 1) // r, p) == 1 for r in prime_factors(p - 1)):
            continue
        for rest in product(range(p), repeat=d - 1):
            modulus = (c0,) + rest + (1,)
            if (d == 1 or (powers @ modulus % p).all()) and _x_is_primitive(modulus, p):
                return modulus
    raise RuntimeError(f"no primitive modulus found for p={p} d={d}")


def _antilog(modulus: tuple[int, ...], p: int) -> np.ndarray:
    """Base-p packings of g^0, ..., g^(p^d - 1) for g = x mod the modulus.

    Multiplying by g^B maps coordinate rows through the d x d matrix whose
    row i is x^(i + B).  Doubling from g^0 fills a block of B >= sqrt(p^d)
    rows; each later block is the one before times that matrix, mod p.
    """
    d = len(modulus) - 1
    n = p**d
    step = _companion(modulus, p)  # multiplication by x
    block = np.eye(1, d, dtype=np.int64)
    while len(block) ** 2 < n:
        block = np.vstack((block, block @ step % p))
        step = step @ step % p
    B = len(block)
    pp = p ** np.arange(d)
    out = np.empty(-(-n // B) * B, dtype=np.int64)
    for start in range(0, n, B):
        out[start:start + B] = block @ pp
        block = block @ step % p
    return out[:n]


def checked_order(p: int, d: int) -> int:
    """p^d for an odd prime p and d >= 1 within the table budget, else ValueError."""
    if d < 1:
        raise ValueError(f"extension degree d={d} must be at least 1")
    # first the budget, which p^d passes once d reaches 25: a huge d never
    # forms p**d, and a huge p never reaches the trial division of is_prime
    if d >= DEFAULT_TABLE_BUDGET.bit_length() or p**d > DEFAULT_TABLE_BUDGET:
        raise BudgetExceededError(
            f"p^d = {p}^{d} exceeds the table budget {DEFAULT_TABLE_BUDGET}")
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if p == 2:
        raise ValueError("characteristic 2 is out of scope (odd p required)")
    return p**d


class FieldDescriptor:
    """Immutable model of F_{p^d}; holds the lookup tables, read-only arrays
    that build_field's memo shares and the trace kernel reads in place.  The
    log and Zech tables, which the kernel never reads, are built on first use.

    Element codes: 0 is the zero element, code j >= 1 is g^(j-1).  Codes
    are the only element type: every method takes and returns them.
    """

    def __init__(self, p: int, d: int):
        self.order = checked_order(p, d)
        self.p = p
        self.d = d
        self.modulus = _find_modulus(p, d)
        self._build_tables()

    def _build_tables(self) -> None:
        p, d, N = self.p, self.d, self.order
        M = N - 1
        antilog = _antilog(self.modulus, p)
        if antilog[M] != 1:
            raise RuntimeError("generator order is not p^d - 1; table build broken")
        antilog = antilog[:M]

        # the absolute trace is F_p-linear: its value on x^i (a Frobenius
        # orbit sum, which must land in F_p) extends its table on base-p
        # packings by coordinate i, the next most significant digit
        pp = p ** np.arange(d)
        trace_by_int = np.zeros(1, dtype=np.int64)
        for i in range(d):
            tr = (antilog[[i * p**j % M for j in range(d)], None] // pp % p).sum(axis=0) % p
            if tr[1:].any():
                raise RuntimeError("absolute trace fell outside the prime field")
            trace_by_int = ((np.arange(p)[:, None] * tr[0] + trace_by_int) % p).ravel()
        trace_by_code = np.concatenate(([0], trace_by_int[antilog]))
        for table in (antilog, trace_by_code):  # see the class
            table.flags.writeable = False

        self.antilog_int = antilog
        self.trace_abs_by_code = trace_by_code
        self.minus_one_log = M // 2

    @cached_property
    def log_by_int(self) -> np.ndarray:
        """dlog by base-p packing, -1 at 0; built on first use, read-only."""
        table = np.full(self.order, -1, dtype=np.int64)
        table[self.antilog_int] = np.arange(self.order - 1, dtype=np.int64)
        table.flags.writeable = False
        return table

    @cached_property
    def zech_log(self) -> np.ndarray:
        """zech[m] = dlog(1 + g^m), -1 where 1 + g^m = 0; built on first use,
        read-only.  Adding 1 changes only the constant coordinate."""
        a0 = self.antilog_int % self.p
        table = self.log_by_int[self.antilog_int - a0 + (a0 + 1) % self.p]
        table.flags.writeable = False
        return table

    # -- identity ---------------------------------------------------------

    def canonical_text(self) -> str:
        coeffs = ",".join(str(c) for c in self.modulus)
        return f"p={self.p} d={self.d} modulus=[{coeffs}]"

    def __repr__(self) -> str:
        return f"FieldDescriptor({self.canonical_text()})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldDescriptor)
                and (self.p, self.d, self.modulus) == (other.p, other.d, other.modulus))

    def __hash__(self) -> int:
        return hash((self.p, self.d, self.modulus))

    # -- scalar code arithmetic -------------------------------------------

    def add_code(self, a: int, b: int) -> int:
        if a == 0:
            return b
        if b == 0:
            return a
        M = self.order - 1
        z = int(self.zech_log[(a - b) % M])
        if z < 0:
            return 0
        return 1 + (b - 1 + z) % M

    def neg_code(self, a: int) -> int:
        if a == 0:
            return 0
        return 1 + (a - 1 + self.minus_one_log) % (self.order - 1)

    def mul_code(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return 1 + (a + b - 2) % (self.order - 1)

    def inv_code(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 + (1 - a) % (self.order - 1)

    def pow_code(self, a: int, k: int) -> int:
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        return 1 + ((a - 1) * k) % (self.order - 1)

    def frobenius_code(self, a: int, times: int = 1) -> int:
        return self.pow_code(a, self.p**times)

    def trace_to_code(self, sub_degree: int, a: int) -> int:
        """Relative trace onto the subfield of degree sub_degree over F_p."""
        if self.d % sub_degree != 0:
            raise ValueError(f"{sub_degree} does not divide d={self.d}")
        step = self.p**sub_degree
        acc = 0
        cur = a
        for _ in range(self.d // sub_degree):
            acc = self.add_code(acc, cur)
            cur = self.pow_code(cur, step)
        return acc

    def in_subfield_code(self, sub_degree: int, a: int) -> bool:
        if self.d % sub_degree != 0:
            return False
        if a == 0:
            return True
        ratio = (self.order - 1) // (self.p**sub_degree - 1)
        return (a - 1) % ratio == 0

    def coeff_vector(self, a: int) -> np.ndarray:
        """Coordinates of the element in the power basis 1, x, ..., x^{d-1}."""
        return self.poly_int(a) // self.p ** np.arange(self.d) % self.p

    def poly_int(self, a: int) -> int:
        """Base-p packing of the coefficient vector (0 encodes zero)."""
        if a == 0:
            return 0
        return int(self.antilog_int[a - 1])

    def prime_int(self, a: int) -> int:
        """The int 0 <= v < p that the code a names; a must lie in F_p."""
        if not (0 <= a < self.order and self.in_subfield_code(1, a)):
            raise ValueError(f"code {a} is not an element of the prime field")
        v = self.poly_int(a)
        if v >= self.p:
            raise RuntimeError("prime-field element with nonconstant coordinates")
        return v

    def code_from_poly_int(self, v: int) -> int:
        v %= self.order
        if v == 0:
            return 0
        j = int(self.log_by_int[v])
        if j < 0:
            raise RuntimeError("poly-int not in table")
        return 1 + j

    # -- vectorized code arithmetic ----------------------------------------

    def add_codes_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        M = self.order - 1
        a, b = np.asarray(a), np.asarray(b)
        # right wherever a and b are nonzero; the outer wheres cover the rest
        z = self.zech_log[(a - b) % M]
        summed = np.where(z < 0, 0, 1 + (b - 1 + z) % M)
        return np.where(a == 0, b, np.where(b == 0, a, summed))

    def mul_codes_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = np.asarray(a), np.asarray(b)
        prod = 1 + (a + b - 2) % (self.order - 1)
        return np.where((a == 0) | (b == 0), 0, prod)


@lru_cache(maxsize=None)
def build_field(p: int, d: int) -> FieldDescriptor:
    """Deterministic model of F_{p^d}; repeated calls share one instance for
    the life of the process.  For the small fields many callers ask for: base
    fields, F_q, the identities' F_{q^2}, hasse_davenport_check's tower and
    API users.  A tower level is built by SystemParams.extension instead."""
    return FieldDescriptor(p, d)


def _embedding_log(sub: FieldDescriptor, sup: FieldDescriptor) -> int:
    if sub.p != sup.p:
        raise ValueError("different characteristics")
    if sup.d % sub.d != 0:
        raise ValueError(f"degree {sub.d} does not divide {sup.d}")
    ratio = (sup.order - 1) // (sub.order - 1)
    # The image must be a root of sub's modulus inside the canonical subfield
    # {0} u <g^ratio>; mapping to a non-root of the right order would preserve
    # multiplication but not addition.  Roots of a primitive polynomial are
    # primitive, so only exponents ratio*k with gcd(k, #sub - 1) = 1 qualify.
    rev = tuple(reversed(sub.modulus))
    for k in range(1, sub.order - 1):
        if math.gcd(k, sub.order - 1) != 1:
            continue
        y_code = 1 + (ratio * k) % (sup.order - 1)
        acc = 0
        for coeff in rev:  # Horner evaluation of sub.modulus at g^(ratio*k)
            acc = sup.mul_code(acc, y_code)
            acc = sup.add_code(acc, sup.code_from_poly_int(coeff))
        if acc == 0:
            return ratio * k
    raise RuntimeError("no root of the subfield modulus found; broken tables")


def embed(sub: FieldDescriptor, sup: FieldDescriptor, code: int) -> int:
    """Field homomorphism F_{p^d} -> F_{p^D} on codes; deterministic root choice."""
    if not 0 <= code < sub.order:
        raise ValueError(f"code {code} is not an element of the stated subfield")
    if code == 0:
        return 0
    e = _embedding_log(sub, sup)
    return 1 + (e * (code - 1)) % (sup.order - 1)
