"""Exact trace functions of the twisted sums S(t) = sum psi(x^n + t*x) chi_2(x).

For an odd prime power q = p^f, set n = 2q - 1.  Over each extension L of the
base field k, the raw sum

    S(t) = sum over x in L of psi_{L/k}(x^n + t*x) * chi_2(x)

is a cyclotomic integer, and the normalized trace T(t) = -S(t) / A(L, n, psi)
is a rational number with denominator dividing #L (computed exactly as
-S * conj(A) / #L, since A * conj(A) = #L).  That every T(t) is a rational
*integer* is a verification target, stored per entry, never assumed.

The production kernel computes every S(t) at once as an exact additive
Fourier transform over Z[zeta_p] (see _additive_fft_counts) and finishes
all rows with one circulant product against conj(A).  A single-t O(#L) path
serves raw_sum and the descent form; a deliberately naive term-by-term
accumulation is kept as an independent cross-check.  trace_table builds one
table and trace_tables the tower of degrees 1..n; the moment statistics take
built tables and never compute or load one.  Long tables are
rendered a block of rows at a time (Rows).  A checksummed disk cache is read
back as blocks that must equal their re-rendering; a file that fails raises
CacheCorruptionError naming it and its first bad row, never recomputed over.
"""

from __future__ import annotations

import hashlib
import math
import os
import secrets
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .characters import (CharacterContext, chi2_code, chi2_minus_one,
                         normalization_constant, psi_exponent_table)
from .cyclotomic import CycInt
from .fields import (BudgetExceededError, FieldDescriptor, build_field,
                     checked_order)

ROW_BLOCK = 1024  # rows per %-format: a long table is never rendered whole
# Largest working set of _additive_fft_counts, about three (#L, p) int64
# arrays; 2 GiB admits 3^15, 5^10, 7^8 and 13^6.
FFT_BYTE_BUDGET = 2**31


class NonRationalTraceError(RuntimeError):
    """A normalized trace failed to be rational; falsifies the design."""


class CacheCorruptionError(RuntimeError):
    """A trace-table cache file failed its checksum or shape checks."""


@dataclass(frozen=True)
class SystemParams:
    """Configuration (p, q = p^f, base field degree, psi multiplier)."""

    p: int
    f: int
    base_degree: int = 1
    multiplier: int = 1

    def __post_init__(self):
        build_field(self.p, self.base_degree)  # validates p odd prime
        if self.f < 1:
            raise ValueError("f must be >= 1")
        if self.multiplier % self.p == 0:
            raise ValueError("psi multiplier must be nonzero mod p")

    @property
    def q(self) -> int:
        return self.p**self.f

    @property
    def n(self) -> int:
        return 2 * self.q - 1

    def base_field(self) -> FieldDescriptor:
        return build_field(self.p, self.base_degree)

    def context(self) -> CharacterContext:
        return CharacterContext.make(self.base_field(), self.multiplier)

    def extension(self, degree: int) -> FieldDescriptor:
        return build_field(self.p, self.base_degree * degree)

    def label(self) -> str:
        return (f"p={self.p} f={self.f} base_degree={self.base_degree} "
                f"multiplier={self.multiplier % self.p} n={self.n}")


def _t_code(L: FieldDescriptor, t) -> int:
    return t.code if hasattr(t, "code") else L.from_int(int(t)).code


def _signed_sum(params: SystemParams, L: FieldDescriptor, codes: np.ndarray,
                plus: np.ndarray) -> CycInt:
    """sum of +-psi(u) over the element codes u, + where `plus` holds."""
    p = params.p
    exps = psi_exponent_table(params.context(), L)[codes]
    counts = np.bincount(exps[plus], minlength=p) - np.bincount(exps[~plus], minlength=p)
    return CycInt.from_power_counts(p, counts.tolist())


def raw_sum(params: SystemParams, L: FieldDescriptor, t) -> CycInt:
    """S(t) for one t in O(#L); trace_table computes every t at once."""
    M = L.order - 1
    logs = np.arange(M, dtype=np.int64)  # x = g^log runs over L^x
    codes = L.add_codes_vec(1 + (params.n * logs) % M,
                            L.mul_codes_vec(np.int64(_t_code(L, t)), 1 + logs))
    return _signed_sum(params, L, codes, logs % 2 == 0)


def raw_sum_naive(params: SystemParams, L: FieldDescriptor, t) -> CycInt:
    """S(t) by scalar term-by-term accumulation; cross-check implementation."""
    t_code = _t_code(L, t)
    e_tab = psi_exponent_table(params.context(), L)
    acc = CycInt.zero(params.p)
    n = params.n
    for code in range(1, L.order):
        arg = L.add_code(L.pow_code(code, n), L.mul_code(t_code, code))
        acc = acc + chi2_code(L, code) * CycInt.root(params.p, int(e_tab[arg]))
    return acc


def normalized_trace(params: SystemParams, L: FieldDescriptor, t) -> Fraction:
    """T(t) = -S(t)/A as an exact rational; raises if not rational."""
    S = raw_sum(params, L, t)
    A = normalization_constant(params.context(), L, params.n)
    num = (-S) * A.conj()
    r = num.as_rational()
    if r is None:
        raise NonRationalTraceError(
            f"non-rational normalized trace at t_code={_t_code(L, t)} over {L.canonical_text()}")
    return Fraction(r, L.order)


class Rows(NamedTuple):
    """A long table: a row per index of the `columns` (equal-length int
    sequences), shaped as `item`, whose "%d" strings take the columns in turn."""

    item: object
    columns: tuple

    def blocks(self, row: str = "", start: int = 0) -> Iterator[str]:
        """The %-format `row` (by default the CSV line of `item`) filled in
        for each row from `start` on, ROW_BLOCK rows per string."""
        row = row or ",".join(map(str, self.item)) + "\n"
        m = len(self.columns)
        for s in range(start, len(self.columns[0]), ROW_BLOCK):
            part = [c[s:s + ROW_BLOCK] for c in self.columns]
            flat = [0] * (len(part[0]) * m)
            for j, c in enumerate(part):
                flat[j::m] = c
            yield (row * len(part[0])) % tuple(flat)


class TraceTable(NamedTuple):
    """All N normalized traces over one extension, as numerator/#L pairs.

    Entry order is element-code order: index 0 is t = 0, index j >= 1 is
    t = g^(j-1) for the field generator g.
    """

    params: SystemParams
    degree: int
    field_text: str
    denominator: int
    numerators: tuple[int, ...]
    is_integer: tuple[bool, ...]

    @property
    def integral(self) -> bool:
        return all(self.is_integer)

    def rows(self) -> Rows:
        """The TRACE_HEADER rows, as in the cache and the CLI's output."""
        return Rows(["%d", "%d", self.denominator, "%d"],
                    (range(len(self.numerators)), self.numerators, self.is_integer))

    def int_array(self) -> np.ndarray:
        """The values as int64, in entry order; raises on a non-integral table."""
        if not self.integral:
            bad = self.is_integer.index(False)
            raise ValueError(f"non-integer trace at t_index={bad}")
        nums = np.fromiter(self.numerators, np.int64, len(self.numerators))
        return nums // self.denominator

    def int_values(self) -> list[int]:
        return self.int_array().tolist()

    def value_counts(self) -> tuple[int, np.ndarray]:
        """(lo, counts): counts[k] entries have the value lo + k.

        |T| < sqrt(#L), so a table from the kernel or the cache spans fewer
        than 2 sqrt(#L) + 1 values.  Raises on a non-integral table.
        """
        v = self.int_array()
        lo = int(v.min())
        return lo, np.bincount(v - lo)

    def moment(self, power: int, counts=None) -> Fraction:
        """M_k = sum of T(t)^k over the entries, divided by #L (`counts`: the
        value_counts(), if already taken)."""
        N = self.denominator
        if not self.integral:  # exact per entry, over the numerators
            return Fraction(sum(c**power for c in self.numerators), N ** (power + 1))
        lo, counts = counts or self.value_counts()
        return Fraction(sum(c * (lo + k)**power
                            for k, c in enumerate(counts.tolist()) if c), N)


def _additive_fft_counts(params: SystemParams, L: FieldDescriptor) -> np.ndarray:
    """Counts of S(t) on zeta^0..zeta^(p-1) for every t; row = element code.

    Lay h(x) = chi_2(x) * zeta^e(x^n) out as H[a, k]: a = poly_int(x), the
    base-p packing of the coordinates a_i of x, and k the zeta exponent.  As
    e(t*x) = sum_i a_i * w_i(t) mod p with w_i(t) = e(t * x^i), the row of S(t)
    is F[w(t)] for the d-dimensional (d = [L : F_p]) transform
    F[w] = sum_a roll(H[a], <a, w>), taken one coordinate per stage.  Each
    x != 0 puts one +-1 into H and a stage only shifts and adds rows, so the
    l1 norm of every row stays at most #L - 1 and |H| <= #L - 1 in every
    stage: int64 is exact.
    """
    p, d, N = L.p, L.d, L.order
    M = N - 1
    e_tab = psi_exponent_table(params.context(), L)
    logs = np.arange(M, dtype=np.int64)
    H = np.zeros((N, p), dtype=np.int64)
    # poly_int is injective, so plain assignment places every term
    H[L.antilog_int, e_tab[1 + (params.n * logs) % M]] = np.where(logs % 2 == 0, 1, -1)

    k = np.arange(p)
    mul = np.outer(k, k) % p                  # [a_i, w] = a_i * w
    sub = (k[None, :] - k[:, None]) % p       # [m, j] = j - m
    for i in range(d):
        lo = p**i
        blocks = H.reshape(N // (lo * p), p, lo, p)  # axis 1 is coordinate i
        acc = np.zeros((N // (lo * p), lo, p, p), dtype=np.int64)
        for ai in range(p):
            acc += blocks[:, ai][..., sub[mul[ai]]]  # zeta^(a_i*w) shifts exponent j
        H = acc.transpose(0, 2, 1, 3).reshape(N, p)

    x_logs = L.log_by_int[p ** np.arange(d)]  # dlog of x^i
    rows = np.zeros(N, dtype=np.int64)  # t = 0 has w = 0
    for i in range(d):  # digit i of the row of t = g^tau is w_i(g^tau)
        rows[1:] += e_tab[1 + (logs + x_logs[i]) % M] * p**i
    return H[rows]


def _finish(counts: np.ndarray, conjA: CycInt, N: int,
            field_text: str) -> tuple[list[int], list[bool]]:
    """Numerators of -S * conj(A) per row and their integrality flags.

    Rows are counts of S on zeta powers, entries at most #L - 1 in l1 norm;
    the product with conj(A) is one circulant matrix product, which stays
    exact while p * (#L - 1) * max|conj(A)| < 2**63.
    """
    p = conjA.p
    bound = p * (N - 1) * max(abs(c) for c in conjA.coeffs)
    if bound >= 2**63:
        raise BudgetExceededError(
            f"p * (#L - 1) * max|conj(A)| = {bound} overflows int64 over {field_text}")
    a = np.array(conjA.coeffs + (0,), dtype=np.int64)
    k = np.arange(p)
    prod = -(counts @ a[(k[None, :] - k[:, None]) % p])  # [t, k] = -sum_j S_j a_(k-j)
    reduced = prod[:, :-1] - prod[:, -1:]  # power basis, as CycInt.from_power_counts
    bad = np.flatnonzero(reduced[:, 1:].any(axis=1))
    if bad.size:
        raise NonRationalTraceError(
            f"non-rational normalized trace at t_index={bad[0]} over {field_text}")
    num = reduced[:, 0]
    return num.tolist(), (num % N == 0).tolist()


def check_trace_budget(params: SystemParams, degree: int) -> None:
    """Refuse the trace table at `degree` before anything is built
    (BudgetExceededError) when L or the kernel's arrays are over budget."""
    N = checked_order(params.p, params.base_degree * degree)
    fft_bytes = 3 * N * params.p * 8
    if fft_bytes > FFT_BYTE_BUDGET:
        raise BudgetExceededError(
            f"the trace kernel needs {fft_bytes} bytes for #L = {N}, "
            f"over its budget {FFT_BYTE_BUDGET}")


def trace_table(params: SystemParams, degree: int, *,
                cache_dir=None) -> TraceTable:
    """Compute (or load from a verified cache) the full trace table."""
    check_trace_budget(params, degree)
    L = params.extension(degree)
    path = _cache_path(cache_dir, params, degree) if cache_dir else None
    if path is not None and path.exists():
        return _load_table(path, params, degree, L)

    conjA = normalization_constant(params.context(), L, params.n).conj()
    numerators, flags = _finish(_additive_fft_counts(params, L), conjA,
                                L.order, L.canonical_text())
    table = TraceTable(
        params=params, degree=degree, field_text=L.canonical_text(),
        denominator=L.order, numerators=tuple(numerators),
        is_integer=tuple(flags))
    if path is not None:
        _save_table(path, table)
    return table


def trace_tables(params: SystemParams, max_degree: int, *,
                 cache_dir=None) -> dict[int, TraceTable]:
    """The trace tables of degrees 1..max_degree, keyed by degree.  Every
    degree's budget is checked before any table is built."""
    if max_degree < 1:
        raise ValueError(f"max_degree must be >= 1, got {max_degree}")
    degrees = range(1, max_degree + 1)
    for D in degrees:
        check_trace_budget(params, D)
    return {D: trace_table(params, D, cache_dir=cache_dir) for D in degrees}


# -- disk cache ---------------------------------------------------------------

def _cache_path(cache_dir, params: SystemParams, degree: int) -> Path:
    name = (f"altsums_trace_p{params.p}_f{params.f}_b{params.base_degree}"
            f"_c{params.multiplier % params.p}_D{degree}.csv")
    return Path(cache_dir) / name


TRACE_HEADER = "t_index,numerator,denominator,is_integer"


def _table_payload(table: TraceTable) -> bytes:
    head = (f"# altsums-trace-v1 {table.params.label()} D={table.degree}\n"
            f"# field: {table.field_text}\n{TRACE_HEADER}\n")
    return "".join(chain((head,), table.rows().blocks())).encode()


def _save_table(path: Path, table: TraceTable) -> None:
    payload = _table_payload(table)
    digest = hashlib.sha256(payload).hexdigest()
    data = payload + f"# sha256={digest}\n".encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    # a fresh name per writer; open(..., "x") keeps the umask mode (mkstemp: 0600)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _row_fault(body: str, N: int) -> str:
    """Name the first row of a cache body that is not canonical or in range."""
    for i, row in enumerate(body.split("\n")):
        try:
            num = int(row.split(",")[1])
        except (IndexError, ValueError):
            return f"malformed row {i}"
        if row == f"{i},{num},{N},{int(num % N != 0)}":
            return f"inconsistent integrality flag at row {i}"
        if row != f"{i},{num},{N},{int(num % N == 0)}":
            return f"malformed row {i}"
        if num * num >= N**3:  # |T| < sqrt(#L), as |S| < #L and |A| = sqrt(#L)
            return f"trace out of range at row {i}"


def _load_table(path: Path, params: SystemParams, degree: int,
                L: FieldDescriptor) -> TraceTable:
    """Parse a cache file a block of rows at a time; each block must equal its
    re-rendering from the parsed numerators, and satisfy |T| < sqrt(#L)."""
    data = path.read_bytes()
    end = data.rfind(b"\n")
    cut = data.rfind(b"\n", 0, max(end, 0)) + 1
    payload = data[:cut]
    if payload.count(b"\n") < 3 or not data.startswith(b"# sha256=", cut):
        raise CacheCorruptionError(f"{path}: missing checksum trailer")
    if data[cut:end] != f"# sha256={hashlib.sha256(payload).hexdigest()}".encode():
        raise CacheCorruptionError(f"{path}: checksum mismatch")
    head, field, columns, body = payload.decode("ascii", "replace").split("\n", 3)
    if (head != f"# altsums-trace-v1 {params.label()} D={degree}"
            or field != f"# field: {L.canonical_text()}"):
        raise CacheCorruptionError(f"{path}: header does not match the request")
    if columns != TRACE_HEADER:
        raise CacheCorruptionError(f"{path}: bad column header")
    N, rows = L.order, body.count("\n")
    if rows != N:
        raise CacheCorruptionError(f"{path}: expected {N} rows, found {rows}")
    numerators, flags, pos = [], [], 0
    for s in range(0, N, ROW_BLOCK):
        k = min(ROW_BLOCK, N - s)
        stop = body.find(f"\n{s + k},", pos) + 1 if s + k < N else len(body)
        block, pos = body[pos:stop], stop
        try:
            nums = list(map(int, block.split(",")[1::3]))
            bits = (np.array(nums, dtype=np.int64) % N == 0).tolist()
            again = Rows(["%d", "%d", N, "%d"], (range(s, s + k), nums, bits))
            if len(nums) != k or max(map(abs, nums))**2 >= N**3 or \
                    block != next(again.blocks()):
                raise ValueError
        except (ValueError, OverflowError):
            raise CacheCorruptionError(f"{path}: {_row_fault(body, N)}") from None
        numerators += nums
        flags += bits
    return TraceTable(params=params, degree=degree, field_text=L.canonical_text(),
                      denominator=N, numerators=tuple(numerators),
                      is_integer=tuple(flags))


# -- descent form -------------------------------------------------------------

def descent_trace(params: SystemParams, L: FieldDescriptor, t) -> CycInt:
    """-sum over x in L^x of psi(x^n / t + x) chi_2(x / t); t must be nonzero."""
    t_code = _t_code(L, t)
    if t_code == 0:
        raise ValueError("descent trace is only defined for nonzero t")
    M = L.order - 1
    tau = t_code - 1
    logs = np.arange(M, dtype=np.int64)
    # x^n / t plus x itself, signed by chi_2(x / t)
    codes = L.add_codes_vec(1 + (params.n * logs - tau) % M, 1 + logs)
    return -_signed_sum(params, L, codes, (logs - tau) % 2 == 0)


class DescentReport(NamedTuple):
    degree: int
    applicable: bool      # gcd(n, #L - 1) = 1, so x -> x^n is a bijection
    equal: bool | None
    lhs: CycInt | None    # sum over s != 0 of |S(s)|^2
    rhs: CycInt | None    # sum over t != 0 of |D(t)|^2


def descent_consistency(params: SystemParams, degree: int) -> DescentReport:
    """Exact equality of sum |S|^2 and sum |D|^2 over nonzero parameters."""
    L = params.extension(degree)
    if math.gcd(params.n, L.order - 1) != 1:
        return DescentReport(degree, False, None, None, None)
    lhs = CycInt.zero(params.p)
    rhs = CycInt.zero(params.p)
    for code in range(1, L.order):
        s_val = raw_sum(params, L, L.element(code))
        d_val = descent_trace(params, L, L.element(code))
        lhs = lhs + s_val.abs_squared()
        rhs = rhs + d_val.abs_squared()
    return DescentReport(degree, True, lhs == rhs, lhs, rhs)


# -- moments -------------------------------------------------------------------

class MomentRow(NamedTuple):
    degree: int
    field_order: int
    m1: Fraction
    m2: Fraction
    m3: Fraction
    m3_target: int
    m3_deviation: float
    integral: bool


class MomentReport(NamedTuple):
    params: SystemParams
    rows: tuple[MomentRow, ...]


def moment_report(params: SystemParams,
                  tables: dict[int, TraceTable]) -> MomentReport:
    """First three exact moments per degree of `tables`, the trace tables of
    `params` at the degrees 1..n (n >= 1), with the third-moment target.

    The target is chi_2(-1) on the degree-D extension: +1 when #L = 1 mod 4,
    -1 otherwise.
    """
    rows = tuple(_moment_row(params, t)[0] for t in _tower(params, tables))
    return MomentReport(params=params, rows=rows)


def _tower(params: SystemParams,
           tables: dict[int, TraceTable]) -> list[TraceTable]:
    """The tables of degrees 1..n in order; ValueError unless the keys are
    exactly 1..n (n >= 1) and each table is that degree's table of `params`."""
    degrees = range(1, len(tables) + 1)
    if not tables or set(tables) != set(degrees):
        raise ValueError(f"tables must be keyed by the degrees 1..n, n >= 1, "
                         f"got {list(tables)}")
    for D in degrees:
        if (tables[D].params, tables[D].degree) != (params, D):
            raise ValueError(
                f"tables[{D}] is the degree-{tables[D].degree} table of "
                f"{tables[D].params.label()}, not the degree-{D} table of "
                f"{params.label()}")
    return [tables[D] for D in degrees]


def _moment_row(params: SystemParams, table: TraceTable):
    """M1-M3 of one table, and the value counts they come from (None when
    the table is not integral)."""
    counts = table.value_counts() if table.integral else None
    L = params.extension(table.degree)
    target = chi2_minus_one(L)
    m1, m2, m3 = (table.moment(k, counts) for k in (1, 2, 3))
    return MomentRow(degree=table.degree, field_order=L.order, m1=m1, m2=m2,
                     m3=m3, m3_target=target, m3_deviation=abs(float(m3 - target)),
                     integral=table.integral), counts
