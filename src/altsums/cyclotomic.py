"""Exact arithmetic in the cyclotomic integers Z[zeta_p], p an odd prime.

Elements are stored on the power basis 1, zeta, ..., zeta^(p-2) with the
relation zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)).  The basis is a Z-basis,
so equality is coefficient equality and "is rational" is "all non-constant
coefficients vanish".  The Gauss-sum layer (altsums.characters) and the
tests' oracles compute here; the trace kernel and the curve moment do not.
"""

from __future__ import annotations


class CycInt:
    """Element of Z[zeta_p] as an integer coefficient tuple of length p-1."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if p < 3:
            raise ValueError("p must be an odd prime >= 3")
        if len(coeffs) != p - 1:
            raise ValueError(f"need {p - 1} coefficients, got {len(coeffs)}")
        self.p = p
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "CycInt":
        return cls(p, (0,) * (p - 1))

    @classmethod
    def one(cls, p: int) -> "CycInt":
        return cls.rational(p, 1)

    @classmethod
    def rational(cls, p: int, c: int) -> "CycInt":
        return cls(p, (int(c),) + (0,) * (p - 2))

    @classmethod
    def root(cls, p: int, k: int = 1) -> "CycInt":
        """zeta_p^k."""
        w = [0] * p
        w[k % p] = 1
        return cls.from_power_counts(p, w)

    @classmethod
    def from_power_counts(cls, p: int, w) -> "CycInt":
        """sum_k w[k] * zeta^k reduced to the power basis (len(w) == p)."""
        w = [int(c) for c in w]
        if len(w) != p:
            raise ValueError(f"need {p} exponent counts, got {len(w)}")
        top = w[p - 1]
        return cls(p, tuple(w[i] - top for i in range(p - 1)))

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other) -> "CycInt":
        if isinstance(other, CycInt):
            if other.p != self.p:
                raise ValueError("mixed cyclotomic orders")
            return other
        if isinstance(other, int):
            return CycInt.rational(self.p, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return CycInt(self.p, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return CycInt(self.p, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CycInt(self.p, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        p = self.p
        w = [0] * p
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        w[(i + j) % p] += a * b
        return CycInt.from_power_counts(p, w)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers leave the ring")
        result = CycInt.one(self.p)
        cur = self
        while k:
            if k & 1:
                result = result * cur
            cur = cur * cur
            k >>= 1
        return result

    def conj(self) -> "CycInt":
        """Complex conjugation zeta -> zeta^(-1)."""
        p = self.p
        w = [0] * p
        for i, a in enumerate(self.coeffs):
            w[(p - i) % p] += a
        return CycInt.from_power_counts(p, w)

    def abs_squared(self) -> "CycInt":
        return self * self.conj()

    # -- predicates and views -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def as_rational(self) -> int | None:
        """Integer value if the element is rational, else None."""
        if any(c != 0 for c in self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.as_rational() == other
        return isinstance(other, CycInt) and self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __repr__(self) -> str:
        if self.is_zero:
            return "CycInt(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                z = "z" if i == 1 else f"z^{i}"
                terms.append(f"{c}*{z}" if c not in (1, -1) else ("-" + z if c == -1 else z))
        return "CycInt(" + " + ".join(terms).replace("+ -", "- ") + f", p={self.p})"
