"""Finite fields F_{p^d} with a deterministic discrete-log representation.

The field of order p^d is F_p[x]/(m(x)) where m is the lexicographically
smallest monic degree-d polynomial, coefficients compared as integer tuples
constant term first, whose residue class x generates the multiplicative
group.  That choice is unique, so two builds of the same (p, d) agree
table-for-table and serialized artifacts can be compared byte-wise.

Elements are ZERO or a power g^j of the generator g = x.  Multiplication is
index addition mod p^d - 1; addition goes through a Zech logarithm table
(zech[m] = dlog(1 + g^m)), built once per field.  Dense int arrays make the
representation cheap to vectorize with numpy.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

import numpy as np

DEFAULT_TABLE_BUDGET = 2**24
MAX_DEGREE = 12


class BudgetExceededError(ValueError):
    """Requested object is larger than the configured enumeration budget."""


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
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    facs = prime_factors(q)
    if len(facs) != 1:
        raise ValueError(f"{q} is not a prime power")
    p = facs[0]
    f = 0
    while q % p == 0:
        q //= p
        f += 1
    if q != 1:
        raise ValueError("not a prime power")
    return p, f


# -- dense polynomial arithmetic over F_p, used to build tables, for the
#    modulus search and for irreducibility tests; coefficient lists are
#    constant term first, and every modulus is monic.

def _poly_reduce(a: list[int], modulus: tuple[int, ...], p: int) -> list[int]:
    d = len(modulus) - 1
    a = [c % p for c in a]
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i]
        if c:
            for j in range(d + 1):
                a[i - d + j] = (a[i - d + j] - c * modulus[j]) % p
    a = a[:d]
    a += [0] * (d - len(a))
    return a


def _poly_mul_mod(a, b, modulus, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _poly_reduce(out, modulus, p)


def _poly_pow_mod(base, e, modulus, p):
    d = len(modulus) - 1
    result = [1] + [0] * (d - 1)
    cur = list(base)
    while e:
        if e & 1:
            result = _poly_mul_mod(result, cur, modulus, p)
        cur = _poly_mul_mod(cur, cur, modulus, p)
        e >>= 1
    return result


def _poly_monic(a, p):
    """a divided by its leading coefficient, high zeros dropped; [] for zero."""
    a = [c % p for c in a]
    while a and a[-1] == 0:
        a.pop()
    inv = pow(a[-1], p - 2, p) if a else 0
    return [c * inv % p for c in a]


def _poly_gcd(a, b, p):
    """Monic gcd over F_p."""
    a, b = _poly_monic(a, p), _poly_monic(b, p)
    while b:
        a, b = b, _poly_monic(_poly_reduce(a, b, p), p)
    return a


def _x_is_primitive(modulus: tuple[int, ...], p: int) -> bool:
    d = len(modulus) - 1
    n_units = p**d - 1
    one = [1] + [0] * (d - 1)
    x = _poly_reduce([0, 1], modulus, p)
    if x == [0] * d:
        return False
    if _poly_pow_mod(x, n_units, modulus, p) != one:
        return False
    for r in prime_factors(n_units):
        if _poly_pow_mod(x, n_units // r, modulus, p) == one:
            return False
    return True


def _find_modulus(p: int, d: int) -> tuple[int, ...]:
    # constant coefficient 0 would make x a zero divisor
    for tail in product(range(p), repeat=d):
        if tail[0] == 0:
            continue
        modulus = tail + (1,)
        if _x_is_primitive(modulus, p):
            return modulus
    raise RuntimeError(f"no primitive modulus found for p={p} d={d}")


class FieldDescriptor:
    """Immutable model of F_{p^d}; holds the lookup tables.

    Element codes: 0 is the zero element, code j >= 1 is g^(j-1).  All
    *_code methods speak codes; FieldElement wraps them for scalar work.
    """

    def __init__(self, p: int, d: int, *, table_budget: int = DEFAULT_TABLE_BUDGET,
                 max_degree: int = MAX_DEGREE):
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if p == 2:
            raise ValueError("characteristic 2 is out of scope (odd p required)")
        if not 1 <= d <= max_degree:
            raise ValueError(f"extension degree d={d} outside [1, {max_degree}]")
        if p**d > table_budget:
            raise BudgetExceededError(
                f"p^d = {p**d} exceeds the table budget {table_budget}")
        self.p = p
        self.d = d
        self.order = p**d
        self.modulus = _find_modulus(p, d)
        self.generator_is_x = True
        self._build_tables()

    def _build_tables(self) -> None:
        p, d, N = self.p, self.d, self.order
        M = N - 1
        p_pows = [p**i for i in range(d)]
        mod_tail = self.modulus[:d]

        antilog = np.empty(M, dtype=np.int64)
        digits = [0] * d
        digits[0] = 1
        for j in range(M):
            antilog[j] = sum(digits[i] * p_pows[i] for i in range(d))
            carry = digits[d - 1]
            digits = [0] + digits[: d - 1]
            if carry:
                digits = [(digits[i] - carry * mod_tail[i]) % p for i in range(d)]
        if digits != [1] + [0] * (d - 1):
            raise RuntimeError("generator order is not p^d - 1; table build broken")

        log_by_int = np.full(N, -1, dtype=np.int64)
        log_by_int[antilog] = np.arange(M, dtype=np.int64)

        a0 = antilog % p
        zech_src = antilog - a0 + (a0 + 1) % p
        zech = log_by_int[zech_src]

        # digit matrix of g^j, one row per log
        pp = np.array(p_pows, dtype=np.int64)
        digmat = (antilog[:, None] // pp[None, :]) % p

        # absolute trace of the basis powers x^i: sum of Frobenius orbits,
        # must land in the prime field
        tr_basis = np.zeros(d, dtype=np.int64)
        for i in range(d):
            acc = np.zeros(d, dtype=np.int64)
            for j in range(d):
                acc += digmat[(i * p**j) % M]
            acc %= p
            if np.any(acc[1:]):
                raise RuntimeError("absolute trace fell outside the prime field")
            tr_basis[i] = acc[0]

        trace_by_code = np.empty(N, dtype=np.int64)
        trace_by_code[0] = 0
        trace_by_code[1:] = (digmat @ tr_basis) % p

        self.antilog_int = antilog
        self.log_by_int = log_by_int
        self.zech_log = zech
        self.trace_abs_by_code = trace_by_code
        self._digmat = digmat
        self.minus_one_log = M // 2

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

    def sub_code(self, a: int, b: int) -> int:
        return self.add_code(a, self.neg_code(b))

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

    def trace_abs_code(self, a: int) -> int:
        return int(self.trace_abs_by_code[a])

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

    def norm_to_code(self, sub_degree: int, a: int) -> int:
        if self.d % sub_degree != 0:
            raise ValueError(f"{sub_degree} does not divide d={self.d}")
        if a == 0:
            return 0
        ratio = (self.order - 1) // (self.p**sub_degree - 1)
        return 1 + ((a - 1) * ratio) % (self.order - 1)

    def in_subfield_code(self, sub_degree: int, a: int) -> bool:
        if self.d % sub_degree != 0:
            return False
        if a == 0:
            return True
        ratio = (self.order - 1) // (self.p**sub_degree - 1)
        return (a - 1) % ratio == 0

    def coeff_vector(self, a: int) -> np.ndarray:
        """Coordinates of the element in the power basis 1, x, ..., x^{d-1}."""
        if a == 0:
            return np.zeros(self.d, dtype=np.int64)
        return self._digmat[a - 1].copy()

    def poly_int(self, a: int) -> int:
        """Base-p packing of the coefficient vector (0 encodes zero)."""
        if a == 0:
            return 0
        return int(self.antilog_int[a - 1])

    def code_from_poly_int(self, v: int) -> int:
        v %= self.order
        if v == 0:
            return 0
        j = int(self.log_by_int[v])
        if j < 0:
            raise RuntimeError("poly-int not in table")
        return 1 + j

    # -- element constructors ----------------------------------------------

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def gen(self) -> "FieldElement":
        if self.order == 2:
            raise ValueError("trivial group")
        return FieldElement(self, 2)

    def from_int(self, c: int) -> "FieldElement":
        c %= self.p
        if c == 0:
            return self.zero()
        return FieldElement(self, self.code_from_poly_int(c))

    def from_log(self, j: int) -> "FieldElement":
        return FieldElement(self, 1 + j % (self.order - 1))

    def element(self, code: int) -> "FieldElement":
        if not 0 <= code < self.order:
            raise ValueError(f"code {code} out of range")
        return FieldElement(self, code)

    def elements(self):
        for code in range(self.order):
            yield FieldElement(self, code)

    # -- vectorized code arithmetic ----------------------------------------

    def add_codes_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        M = self.order - 1
        a = np.asarray(a)
        b = np.asarray(b)
        az = a == 0
        bz = b == 0
        la = np.where(az, 0, a - 1)
        lb = np.where(bz, 0, b - 1)
        z = self.zech_log[(la - lb) % M]
        summed = np.where(z < 0, 0, 1 + (lb + z) % M)
        return np.where(az, b, np.where(bz, a, summed))

    def mul_codes_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a)
        b = np.asarray(b)
        prod = 1 + (a + b - 2) % (self.order - 1)
        return np.where((a == 0) | (b == 0), 0, prod)


class FieldElement:
    """ZERO or a discrete-log power of the field generator."""

    __slots__ = ("field", "code")

    def __init__(self, field: FieldDescriptor, code: int):
        self.field = field
        self.code = code

    @property
    def log(self) -> int | None:
        return None if self.code == 0 else self.code - 1

    @property
    def is_zero(self) -> bool:
        return self.code == 0

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("elements from different fields")
            return other.code
        if isinstance(other, int):
            return self.field.from_int(other).code
        return NotImplemented

    def __add__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.add_code(self.code, c))

    __radd__ = __add__

    def __sub__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub_code(self.code, c))

    def __rsub__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub_code(c, self.code))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg_code(self.code))

    def __mul__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_code(self.code, c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_code(self.code, self.field.inv_code(c)))

    def __pow__(self, k: int):
        return FieldElement(self.field, self.field.pow_code(self.code, k))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv_code(self.code))

    def frobenius(self, times: int = 1) -> "FieldElement":
        return FieldElement(self.field, self.field.frobenius_code(self.code, times))

    def trace_abs(self) -> int:
        return self.field.trace_abs_code(self.code)

    def trace_to(self, sub_degree: int) -> "FieldElement":
        return FieldElement(self.field, self.field.trace_to_code(sub_degree, self.code))

    def norm_to(self, sub_degree: int) -> "FieldElement":
        return FieldElement(self.field, self.field.norm_to_code(sub_degree, self.code))

    def poly_coeffs(self) -> tuple[int, ...]:
        return tuple(int(c) for c in self.field.coeff_vector(self.code))

    def as_int(self) -> int:
        """Integer representative when the element lies in the prime field."""
        if not self.field.in_subfield_code(1, self.code):
            raise ValueError("element is not in the prime field")
        v = self.field.poly_int(self.code)
        if v >= self.field.p:
            raise RuntimeError("prime-field element with nonconstant coordinates")
        return v

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.code == self.field.from_int(other).code
        return (isinstance(other, FieldElement)
                and self.field == other.field and self.code == other.code)

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.d, self.code))

    def __bool__(self) -> bool:
        return self.code != 0

    def __repr__(self) -> str:
        if self.code == 0:
            return "0"
        if self.code == 1:
            return "1"
        return f"g^{self.code - 1}"


_FIELD_CACHE: dict[tuple[int, int], FieldDescriptor] = {}


def build_field(p: int, d: int, *, table_budget: int = DEFAULT_TABLE_BUDGET,
                max_degree: int = MAX_DEGREE) -> FieldDescriptor:
    """Deterministic model of F_{p^d}; repeated calls share one instance."""
    key = (p, d)
    cached = _FIELD_CACHE.get(key)
    if cached is not None:
        if cached.order > table_budget:
            raise BudgetExceededError(
                f"p^d = {cached.order} exceeds the table budget {table_budget}")
        if d > max_degree:
            raise ValueError(f"extension degree d={d} outside [1, {max_degree}]")
        return cached
    field = FieldDescriptor(p, d, table_budget=table_budget, max_degree=max_degree)
    _FIELD_CACHE[key] = field
    return field


@lru_cache(maxsize=None)
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
            acc = sup.add_code(acc, sup.from_int(coeff).code)
        if acc == 0:
            return ratio * k
    raise RuntimeError("no root of the subfield modulus found; broken tables")


def embed(sub: FieldDescriptor, sup: FieldDescriptor, elem: FieldElement) -> FieldElement:
    """Field homomorphism F_{p^d} -> F_{p^D}; deterministic root choice."""
    if elem.field != sub:
        raise ValueError("element does not belong to the stated subfield")
    if elem.code == 0:
        return sup.zero()
    e = _embedding_log(sub, sup)
    return FieldElement(sup, 1 + (e * (elem.code - 1)) % (sup.order - 1))
