"""Exact trace functions of the twisted sums S(t) = sum psi(x^n + t*x) chi_2(x).

For an odd prime power q = p^f, set n = 2q - 1.  Over each extension L of the
base field k, the raw sum

    S(t) = sum over x in L of psi_{L/k}(x^n + t*x) * chi_2(x)

is a cyclotomic integer, and the normalized trace T(t) = -S(t) / A(L, n, psi)
is a rational number with denominator dividing #L (computed exactly as
-S * conj(A) / #L, since A * conj(A) = #L).  That every T(t) is a rational
*integer* is a verification target, checked before any table is made.

The production kernel computes every S(t) at once with one complex FFT of
size #L and rounds -S * conj(A) to int64 numerators: they are integers by a
Galois argument, the rounding error has an a-priori bound below 1/4, and
each rounding is checked (see _trace_numerators).  _table, which makes every
table, computed or loaded, then checks that #L divides each numerator, keeps
the quotients T(t) as the TraceTable's read-only int64 values, and checks
the sum rules M1 = 0 and M2 = (#L - 1)/#L and Frobenius invariance, T(t^p) =
T(t).  This kernel is the only production path to S(t); the exact oracles
it is tested against live with the tests.  trace_table builds one table and
trace_tables the tower of degrees 1..n, one level's field at a time; the
moments and the verdict over them (altsums.verdict) take built tables.  A
disk cache of altsums-trace-v3 files, each the table's int64 numerators
under a two-line header and sealed with a CRC-32 trailer (hashlib would
load OpenSSL), is read back into a table that must hold |T| < sqrt(#L) and
pass the same checks; a file that fails (an older format included) raises
CacheCorruptionError naming it, never recomputed over.
"""

from __future__ import annotations

import math
import os
import zlib
from collections import namedtuple
from fractions import Fraction
from operator import index
from pathlib import Path

import numpy as np

from .characters import CharacterContext
from .fields import FieldDescriptor, _Checked, build_field, checked_order


class NonRationalTraceError(RuntimeError):
    """A computed trace is wrong: not rational, not within 1/4 of an integer
    numerator in the kernel's float value, not an integer, or a table that
    breaks the sum rules M1 = 0 and M2 = (#L - 1)/#L or Frobenius
    invariance.  Each falsifies the computation."""


class CacheCorruptionError(RuntimeError):
    """A trace-table cache file failed its format, checksum, header, length,
    range, integrality, sum-rule or Frobenius checks."""


class SystemParams(_Checked, namedtuple("SystemParams", "p f base_degree multiplier",
                                        defaults=(1, 1))):
    """Configuration (p, q = p^f, base field degree, psi multiplier).

    Validated by every way of making one: the constructor, `_make` and
    `_replace`, which refuse a non-integer field (TypeError) and store numpy
    ints as int.  A collections.namedtuple subclass, as TraceTable is.
    """

    __slots__ = ()

    def __new__(cls, p: int, f: int, base_degree: int = 1,
                multiplier: int = 1) -> SystemParams:
        p, f, base_degree, multiplier = map(index, (p, f, base_degree, multiplier))
        checked_order(p, base_degree)  # p an odd prime; builds no field
        if f < 1:
            raise ValueError("f must be >= 1")
        if multiplier % p == 0:
            raise ValueError("psi multiplier must be nonzero mod p")
        return super().__new__(cls, p, f, base_degree, multiplier)

    @property
    def q(self) -> int:
        return self.p**self.f

    @property
    def n(self) -> int:
        return 2 * self.q - 1

    def context(self) -> CharacterContext:
        return CharacterContext.make(build_field(self.p, self.base_degree), self.multiplier)

    def extension(self, degree: int, field: FieldDescriptor | None = None) -> FieldDescriptor:
        """The degree-`degree` extension L: `field` if it is L, else a new L no memo holds."""
        if field is None:  # FieldDescriptor checks the budget before it builds
            return FieldDescriptor(self.p, self.base_degree * degree)
        if (field.p, field.d) != (self.p, self.base_degree * degree):
            raise ValueError(f"{field!r} is not the degree-{degree} extension")
        return field

    def degrees(self, max_degree: int) -> range:
        """1..max_degree, once every degree is within the table budget."""
        if max_degree < 1:
            raise ValueError(f"max_degree must be >= 1, got {max_degree}")
        for D in range(1, max_degree + 1):
            checked_order(self.p, self.base_degree * D)
        return range(1, max_degree + 1)

    def label(self) -> str:
        return (f"p={self.p} f={self.f} base_degree={self.base_degree} "
                f"multiplier={self.multiplier % self.p} n={self.n}")


def _frozen_int64(values, name: str) -> np.ndarray:
    """`values` as a read-only int64 array that owns its data: any other array
    is copied (a view too, as its base may be writeable), and ValueError
    refuses a value that is not an integer within int64."""
    a = np.asarray(values)
    if a.dtype != np.int64:
        if a.dtype.kind not in "biuf":
            raise ValueError(f"{name} must be integers, not {a.dtype}")
        with np.errstate(invalid="ignore"):  # nan, inf and 2^63 fail below
            b = a.astype(np.int64)
        if not np.array_equal(a, b):
            raise ValueError(f"{name} must be integers within int64")
        a = b
    elif a.flags.writeable or a.base is not None:
        a = a.copy()
    a.flags.writeable = False
    return a


class _Int64Record(_Checked):
    """Mixed into a collections.namedtuple (typing.NamedTuple refuses a
    __new__): the field named `_array` is one read-only int64 array, made so
    by every way of making a record -- the constructor, `_make` and
    `_replace` (see _frozen_int64) -- and records compare and hash by value."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        return tuple.__new__(cls, (_frozen_int64(v, f"{cls.__name__}.{f}") if f == cls._array
                                   else v for f, v in zip(cls._fields, self)))

    def __eq__(self, other):
        return type(other) is type(self) and all(
            np.array_equal(a, b) if f == self._array else a == b
            for f, a, b in zip(self._fields, self, other))

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(tuple(v.tobytes() if f == self._array else v
                          for f, v in zip(self._fields, self)))


class TraceTable(_Int64Record, namedtuple(
        "TraceTable", "params degree field_text values")):
    """All N = #L normalized traces T(t) over one extension, as integers.

    Entry order is element-code order: index 0 is t = 0, index j >= 1 is
    t = g^(j-1) for the field generator g.  `values` is one read-only int64
    array on every way of making a table, and tables compare and hash by
    value (see _Int64Record).  The library makes tables with _table alone,
    which checks them first.
    """

    __slots__ = ()
    _array = "values"

    @property
    def denominator(self) -> int:
        """#L, one entry per element of L."""
        return len(self.values)

    @property
    def numerators(self) -> np.ndarray:
        """T(t) #L = -S(t) conj(A), as the cache stores it: a new array per read."""
        return self.values * self.denominator

    def value_counts(self) -> tuple[int, np.ndarray]:
        """(lo, counts): counts[k] entries have the value lo + k.

        |T| < sqrt(#L), so a table from the kernel or the cache spans fewer
        than 2 sqrt(#L) + 1 values.
        """
        lo = int(self.values.min())
        return lo, np.bincount(self.values - lo)

    def moment(self, power: int, counts=None) -> Fraction:
        """M_k = sum of T(t)^k over the entries, divided by #L (`counts`: the
        value_counts(), if already taken)."""
        lo, counts = counts or self.value_counts()
        return Fraction(sum(c * (lo + k)**power
                            for k, c in enumerate(counts.tolist()) if c),
                        self.denominator)


def _gauss_unit(p: int, d: int) -> complex:
    """g_L / sqrt(#L) = -(-eps_p)^d exactly, for psi_1 on #L = p^d: Gauss's
    sign g_p = eps_p sqrt(p), eps_p = 1 if p = 1 mod 4 and i otherwise,
    lifted by Hasse-Davenport, -g_L = (-g_p)^d."""
    return complex(-(-1 if p % 4 == 1 else -1j) ** d)


def _trace_numerators(params: SystemParams, L: FieldDescriptor) -> np.ndarray:
    """Numerators -S(t) conj(A) for every t by one complex FFT; row = code.

    Put h[poly_int(x)] = chi_2(x) exp(2 pi i e(x^n) / p) on (Z/p)^d, d =
    [L : F_p], poly_int(x) packing the coordinates a_i of x in base p.  As
    e(t*x) = sum_i a_i w_i(t) with w_i(t) = e(t * x^i), S(t) = F[w(t)] for
    the unscaled inverse DFT F of h; multiply by -conj(A) = g_L =
    sqrt(#L) _gauss_unit(p, d), and round.
    The generator g is x (fields._antilog), so w_i(g^tau) = e(g^(tau + i)).
    * Any multiplier: e is L's own trace table, psi_1's exponents.  For c in
      F_p^x, psi_c = sigma_c(psi_1), sigma_c: zeta_p -> zeta_p^c, so T_c =
      -S_c/A_c = sigma_c(T_1) = T_1, as T_1 is rational.
    * Exact: for k in F_p^x, n = 1 mod (p - 1), so x -> x/k gives
      sigma_k(S) = chi_2(k) S, and sigma_k(conj A) = chi_2(k) conj(A) (Gauss
      sum): S conj(A) lies in Z[zeta_p] cap Q = Z.
    * Error below 1/4 for every #L <= 2^24.  With u = 2^-53, |h| = 1 and
      ||F||_2 < #L, the d stages leave each entry of F within d c_p u #L,
      c_p = O(log p) per length-p stage, Bluestein's included (Higham,
      Accuracy and Stability of Numerical Algorithms, ch. 24).  conj(A) is
      sqrt(#L) times an exact unit, so within u sqrt(#L) in floats, and
      |S conj(A)| < #L^(3/2).  So the error is below (d c_p + 3) u #L^(3/2):
      under 0.01 at every p^d <= 2^24 even with c_p = 30 log2(4p).  The
      largest residual seen is 9e-8 (4001^2).
    * Checked anyway: a |v - rint(v)| or |Im v| of 1/4 or more raises
      NonRationalTraceError naming the first such t_index.
    That #L divides each numerator, so that T(t) is an integer, is not
    proved here: _table checks it.
    Peak: h and the FFT's two stage arrays (complex128), 48 bytes per
    element, 0.75 GiB at #L = 2^24, held beside the level's field L (its
    antilog and trace tables, 16 bytes per element).  The rows (int64) are
    formed after the FFT, and h is let go before them and the gather.
    """
    p, d, N = L.p, L.d, L.order
    M = N - 1
    e_tab = L.trace_abs_by_code  # psi_1: read-only, and not a copy
    logs = np.arange(M, dtype=np.int64)
    zeta = np.exp(2j * np.pi / p * np.arange(p))
    h = np.zeros(N, dtype=np.complex128)
    # n % M first: n * logs wraps int64 once n (#L - 2) >= 2^63
    h[L.antilog_int] = zeta[e_tab[1 + (params.n % M) * logs % M]]  # poly_int is injective
    h[L.antilog_int[1::2]] *= -1  # chi_2(g^log) = (-1)^log
    del logs  # not held through the FFT
    F = np.fft.ifftn(h.reshape((p,) * d), norm="forward").reshape(N)
    del h  # not held through the gather
    E = np.concatenate((e_tab[1:], e_tab[1:d]))  # E[j] = e(g^j), j < M + d - 1
    rows = np.zeros(N, dtype=np.int64)  # t = 0 has w = 0
    for i in range(d):  # digit i of the row of t = g^tau is e(g^(tau + i))
        rows[1:] += E[i:i + M] * p**i
    del E
    h = F[rows]
    del F, rows
    # A = -chi_2(-1) g_L, as n = -1 mod p and (n - 1)/2 is even, and conj(g_L)
    # = chi_2(-1) g_L: so -conj(A) = g_L
    h *= math.sqrt(N) * _gauss_unit(p, d)
    num = np.rint(h.real)
    bad = np.flatnonzero(np.maximum(abs(h.real - num), abs(h.imag)) >= 0.25)
    if bad.size:
        raise NonRationalTraceError(f"trace numerator not within 1/4 of an integer "
                                    f"at t_index={bad[0]} over {L.canonical_text()}")
    return num.astype(np.int64)


def trace_table(params: SystemParams, degree: int, *, cache_dir=None,
                field: FieldDescriptor | None = None) -> TraceTable:
    """Compute (or load from a verified cache) the full trace table over L,
    the `field` the caller holds or else its own (SystemParams.extension).  L
    over the table budget is refused first; a table, computed or loaded, is
    made by _table, which checks it."""
    L = params.extension(degree, field)
    path = _cache_path(cache_dir, params, degree) if cache_dir else None
    if path is not None and path.exists():
        return _load_table(path, params, degree, L)

    table = _table(params, degree, L, _trace_numerators(params, L))
    if path is not None:
        _save_table(path, table)
    return table


def _check_sum_rules(table: TraceTable) -> None:
    """Raise NonRationalTraceError unless M1 = 0 and M2 = (#L - 1)/#L: sum_t
    psi(t x) = #L [x = 0] and chi_2(0) = 0 give sum_t S(t) = 0, and Parseval
    gives sum_t |S(t)|^2 = #L (#L - 1), where |S|^2 = T^2 #L."""
    N, v = table.denominator, table.values
    # |T| < sqrt(#L): sum T^2 < #L^2 fits int64
    m1, m2 = Fraction(int(v.sum()), N), Fraction(int(v @ v), N)
    if m1 != 0 or m2 != Fraction(N - 1, N):
        raise NonRationalTraceError(
            f"sum rules fail over {table.field_text}: M1 = {m1} and M2 = {m2}, "
            f"not 0 and {N - 1}/{N}")


def _check_frobenius(table: TraceTable) -> None:
    """Raise NonRationalTraceError unless T(t^p) = T(t) for every t: x -> x^p
    permutes L and fixes chi_2 and psi (whose multiplier lies in F_p), so
    S(t^p) = S(t).  For t = g^j (code 1 + j), t^p = g^(p j mod (p^d - 1)),
    and that product rotates the d base-p digits of j.  So the values of
    L^x, with t = 0 moved into the slot of j = p^d - 1 (which the rotation
    fixes), must equal themselves with the axes of their (p,)*d shape rolled."""
    p, d = table.params.p, table.params.base_degree * table.degree
    v = np.concatenate((table.values[1:], table.values[:1])).reshape((p,) * d)
    bad = np.flatnonzero(v != np.moveaxis(v, -1, 0))
    if bad.size:
        j, M = int(bad[0]), table.denominator - 1
        raise NonRationalTraceError(
            f"Frobenius invariance fails over {table.field_text}: the trace at "
            f"t_index={1 + j} differs from the one at t_index={1 + p * j % M}")


def _table(params: SystemParams, degree: int, L: FieldDescriptor,
           numerators: np.ndarray) -> TraceTable:
    """The table of the writeable int64 `numerators` over L, each T(t) #L,
    divided by #L in place and adopted as its values.  Raise
    NonRationalTraceError unless #L divides every numerator, then unless
    the values pass the sum rules and are Frobenius invariant."""
    bad = np.flatnonzero(numerators % L.order)
    if bad.size:
        raise NonRationalTraceError(f"non-integer trace at t_index={bad[0]} "
                                    f"over {L.canonical_text()}")
    numerators //= L.order
    numerators.flags.writeable = False  # so the table adopts it, not a copy
    table = TraceTable(params, degree, L.canonical_text(), numerators)
    _check_sum_rules(table)
    _check_frobenius(table)
    return table


def trace_tables(params: SystemParams, max_degree: int, *,
                 cache_dir=None) -> dict[int, TraceTable]:
    """The trace tables of degrees 1..max_degree, keyed by degree, each level's
    field let go with its turn, once every degree's budget is checked."""
    return {D: trace_table(params, D, cache_dir=cache_dir)
            for D in params.degrees(max_degree)}


# -- disk cache ---------------------------------------------------------------

def _cache_path(cache_dir, params: SystemParams, degree: int) -> Path:
    name = (f"altsums_trace_p{params.p}_f{params.f}_b{params.base_degree}"
            f"_c{params.multiplier % params.p}_D{degree}.csv")
    return Path(cache_dir) / name


TRACE_FORMAT = "altsums-trace-v3"


def _cache_header(params: SystemParams, degree: int, field_text: str) -> bytes:
    return f"# {TRACE_FORMAT} {params.label()} D={degree}\n# field: {field_text}\n".encode()


def _save_table(path: Path, table: TraceTable) -> None:
    data = (_cache_header(table.params, table.degree, table.field_text)
            + table.numerators.astype("<i8", copy=False).tobytes())
    data += zlib.crc32(data).to_bytes(4, "little")
    path.parent.mkdir(parents=True, exist_ok=True)
    # a fresh name per writer; open(..., "x") keeps the umask mode (mkstemp: 0600)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _load_table(path: Path, params: SystemParams, degree: int,
                L: FieldDescriptor) -> TraceTable:
    """Check, in turn, a cache file's format tag, its CRC-32 trailer, its
    header against the request and its length, then read its numerators,
    each with |T| < sqrt(#L); _table then checks them as it checks the
    kernel's."""
    data = path.read_bytes()
    if not data.startswith(f"# {TRACE_FORMAT} ".encode()):
        raise CacheCorruptionError(f"{path}: not in the {TRACE_FORMAT} format")
    if zlib.crc32(memoryview(data)[:-4]) != int.from_bytes(data[-4:], "little"):
        raise CacheCorruptionError(f"{path}: checksum mismatch")
    head = _cache_header(params, degree, L.canonical_text())
    if not data.startswith(head):
        raise CacheCorruptionError(f"{path}: header does not match the request")
    N, size = L.order, len(data) - len(head) - 4
    if size != 8 * N:
        raise CacheCorruptionError(f"{path}: expected {8 * N} bytes of numerators, "
                                   f"found {size}")
    numerators = np.frombuffer(data, "<i8", N, len(head)).astype(np.int64)
    del data  # not held through the checks
    b = math.isqrt(N**3 - 1)  # |T| < sqrt(#L), as |S| < #L and |A| = sqrt(#L)
    bad = np.flatnonzero((numerators > b) | (numerators < -b))
    if bad.size:
        raise CacheCorruptionError(f"{path}: trace out of range at t_index={bad[0]}")
    try:
        return _table(params, degree, L, numerators)
    except NonRationalTraceError as exc:
        raise CacheCorruptionError(f"{path}: {exc}") from None
