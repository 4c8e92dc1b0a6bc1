"""Trace-function engine against hand-computed tables and exact sum rules.

Frozen oracles, derived by hand:

* q = 3 (n = 5), L = F_3: x^5 = x on F_3^x, so S(t) is a scaled quadratic
  Gauss sum and T = (-1, +1, 0) at t = (0, 1, 2).
* q = 5 (n = 9), L = F_5: same mechanism gives T(t) = chi_2(1 + t).
* Exact moment rules valid at every degree, by orthogonality:
  sum_t T(t) = 0 and sum_t T(t)^2 = #L - 1.
"""

import hashlib
import random
import re
import shutil
import sys
import threading
import tracemalloc
import zlib
from fractions import Fraction

import numpy as np
import pytest

from altsums import traces
from altsums.characters import normalization_constant, psi_exponent_table
from altsums.cli import main
from altsums.curves import count_points
from altsums.cyclotomic import CycInt
from altsums.fields import BudgetExceededError, build_field
from altsums.traces import (CacheCorruptionError, NonRationalTraceError,
                            SystemParams, _cache_header, _cache_path,
                            _check_frobenius, _check_sum_rules, _load_table,
                            _save_table, _table, _trace_numerators,
                            trace_table, trace_tables)
from altsums.verdict import moment_report
from oracles import (_additive_fft_counts, _finish, descent_consistency,
                     descent_trace, exact_numerators, normalized_trace,
                     raw_sum, raw_sum_naive)

P33 = SystemParams(p=3, f=1)
P55 = SystemParams(p=5, f=1)


def test_params_derived_quantities():
    assert (P33.q, P33.n) == (3, 5)
    assert (P55.q, P55.n) == (5, 9)
    assert SystemParams(p=3, f=2).n == 17
    with pytest.raises(ValueError):
        SystemParams(p=3, f=0)
    with pytest.raises(ValueError):
        SystemParams(p=3, f=1, multiplier=3)
    with pytest.raises(ValueError):
        SystemParams(p=4, f=1)


def test_frozen_table_f3():
    table = trace_table(P33, 1)
    assert table.denominator == 3
    assert table.numerators.tolist() == [-3, 3, 0]
    assert table.values.tolist() == [-1, 1, 0]


def test_frozen_table_f5():
    table = trace_table(P55, 1)
    assert table.denominator == 5
    assert table.numerators.tolist() == [5, -5, 5, 0, -5]
    assert table.values.tolist() == [1, -1, 1, 0, -1]


def test_normalized_trace_single_matches_table():
    table = trace_table(P33, 2)
    L = P33.extension(2)
    for code in range(L.order):
        assert normalized_trace(P33, L, code) == \
            Fraction(table.numerators[code], 9)


@pytest.mark.parametrize("params,D", [(P33, 1), (P33, 2), (P55, 1),
                                      (SystemParams(p=3, f=1, base_degree=2), 1)])
def test_bucket_equals_naive_accumulation_all_t(params, D):
    L = params.extension(D)
    for t in range(L.order):
        assert raw_sum(params, L, t) == raw_sum_naive(params, L, t)


def test_bucket_equals_naive_sampled_f27():
    L = P33.extension(3)
    rng = random.Random(3)
    for t in rng.sample(range(L.order), 6):
        assert raw_sum(P33, L, t) == raw_sum_naive(P33, L, t)


def _sweep_configs():
    """One (p, f, base_degree, multiplier, D) per (p, f, base_degree), seeded."""
    rng = random.Random(2)
    out = []
    for p in (3, 5, 7, 11, 13):
        for f in (1, 2):
            for b in (1, 2):
                degrees = [D for D in range(1, 7) if p ** (b * D) <= 243]
                out.append((p, f, b, rng.randrange(2, p), rng.choice(degrees)))
    return out


def _check_against_oracle(params, D, t_codes):
    """FFT counts and numerators equal the naive oracle at t_codes, and #L
    divides each numerator."""
    L = params.extension(D)
    N = L.order
    counts = _additive_fft_counts(params, L)
    table = trace_table(params, D)
    conjA = normalization_constant(params.context(), L, params.n).conj()
    for code in t_codes:
        naive = raw_sum_naive(params, L, code)
        assert CycInt.from_power_counts(params.p, counts[code]) == naive, code
        num = ((-naive) * conjA).as_rational()
        assert table.numerators[code] == num
        assert num % N == 0
    for code in range(N):  # the single-t path equals every table row
        assert raw_sum(params, L, code) == \
            CycInt.from_power_counts(params.p, counts[code])


@pytest.mark.parametrize("p,f,b,c,D", _sweep_configs())
def test_fft_table_equals_naive_oracle_every_t(p, f, b, c, D):
    params = SystemParams(p=p, f=f, base_degree=b, multiplier=c)
    _check_against_oracle(params, D, range(params.extension(D).order))


@pytest.mark.parametrize("f,b,D", [(1, 1, 6), (2, 2, 3)])
def test_fft_table_equals_oracle_at_729(f, b, D):
    # #L = 729: every row against the single-t path, a seeded sample
    # against the naive oracle, which is quadratic in #L
    params = SystemParams(p=3, f=f, base_degree=b, multiplier=2)
    _check_against_oracle(params, D, random.Random(f).sample(range(729), 16))


def _kernel_configs():
    """(p, f, base_degree, multiplier, D): every p^D <= 3^8 for p up to 17,
    then base_degree 2 and multipliers 2 and 3."""
    out = [(p, 1, 1, 1, D) for p in (3, 5, 7, 11, 13, 17)
           for D in range(1, 9) if p**D <= 3**8]
    out += [(p, f, 2, 1, D) for p in (3, 5, 7) for f in (1, 2)
            for D in range(1, 5) if p**(2 * D) <= 3**8]
    out += [(p, 1, 1, c, D) for c in (2, 3) for p in (5, 7, 11)
            for D in (1, 2, 3) if p**D <= 3**8]
    return out


@pytest.mark.parametrize("p,f,b,c,D", _kernel_configs())
def test_fft_kernel_equals_the_exact_oracle(p, f, b, c, D):
    params = SystemParams(p=p, f=f, base_degree=b, multiplier=c)
    L = params.extension(D)
    got = _trace_numerators(params, L)
    assert got.dtype == np.int64
    assert np.array_equal(got, exact_numerators(params, L))
    _check_frobenius(_table(params, D, L, got))  # T(t^p) = T(t) holds


@pytest.mark.parametrize("error", [0.4, 0.3j])
def test_a_doctored_fft_output_names_its_t_index(monkeypatch, error):
    # move the numerator -S conj(A) of one t by 0.4 or 0.3i; the row of t
    # in the FFT output is sum_i e(t x^i) p^i
    params = SystemParams(p=5, f=1)
    L = params.extension(2)
    t_code = 7
    e_tab = psi_exponent_table(params.context(), L)
    row = sum(int(e_tab[L.mul_code(t_code, L.code_from_poly_int(5**i))]) * 5**i
              for i in range(2))
    conjA = normalization_constant(params.context(), L, params.n).conj()
    fft = np.fft.ifftn

    def doctored(*args, **kwargs):
        out = fft(*args, **kwargs)
        out.flat[row] -= error / conjA.complex_value()
        return out

    monkeypatch.setattr(np.fft, "ifftn", doctored)
    with pytest.raises(NonRationalTraceError, match=f"t_index={t_code} "):
        _trace_numerators(params, L)


def _negate_one(nums, N):
    i = np.flatnonzero(nums)[1]
    nums[i] = -nums[i]


def _plus_and_minus(unit):
    def doctor(nums, N):  # on two equal entries, so that M1 holds
        i, j = np.flatnonzero(nums == nums[1])[:2]
        nums[i] += unit(N)
        nums[j] -= unit(N)
    return doctor


def _copy_another(nums, N):
    j = np.flatnonzero(nums != nums[1])[0]
    nums[1] = nums[j]


@pytest.mark.parametrize("doctor, message", [
    (_negate_one, "sum rules fail over "),
    (_plus_and_minus(lambda N: N), "sum rules fail over "),
    # M1 and M2 would not see it either: integrality, checked first, does
    (_plus_and_minus(lambda N: 1), "non-integer trace at t_index=1 over "),
    (_copy_another, "sum rules fail over ")],
    ids=["negated", "plus-minus-T", "plus-minus-numerator", "copied"])
def test_sum_rules_catch_a_doctored_table(monkeypatch, doctor, message):
    real = traces._trace_numerators

    def doctored(params, L):
        nums = real(params, L)
        doctor(nums, L.order)
        return nums

    monkeypatch.setattr(traces, "_trace_numerators", doctored)
    with pytest.raises(NonRationalTraceError, match=message):
        trace_table(P33, 4)


@pytest.mark.parametrize("t_index", [0, 1, 40])
def test_a_kernel_numerator_off_a_multiple_of_the_order_is_refused(monkeypatch, t_index):
    """#L must divide every numerator: one kernel numerator plus 1 makes no
    table, before the sum rules are taken."""
    real = traces._trace_numerators

    def plus_one(params, L):
        nums = real(params, L)
        nums[t_index] += 1
        return nums

    monkeypatch.setattr(traces, "_trace_numerators", plus_one)
    monkeypatch.setattr(traces, "_check_sum_rules", None)  # not reached
    field = re.escape(P33.extension(4).canonical_text())
    with pytest.raises(NonRationalTraceError,
                       match=f"^non-integer trace at t_index={t_index} over {field}$"):
        trace_table(P33, 4)


@pytest.mark.parametrize("params, degrees", [
    (P33, range(1, 7)), (P55, range(1, 4)), (SystemParams(3, 2, base_degree=2), range(1, 3))])
def test_kernel_tables_hold_the_quotients_of_the_numerators(params, degrees):
    for D in degrees:
        L = params.extension(D)
        table = trace_table(params, D)
        assert table.denominator == L.order == len(table.values)
        assert np.array_equal(table.numerators, table.values * table.denominator)
        assert np.array_equal(table.numerators, exact_numerators(params, L))


def _swap_across_orbits(nums, p):
    """Swap the rows of t = g and of the first t with another trace outside
    the Frobenius orbit {g^(p^i)} of g: M1 and M2 do not see it."""
    M = len(nums) - 1
    orbit = {1 + pow(p, i, M) for i in range(M.bit_length())}
    b = next(k for k in range(2, M + 1) if k not in orbit and nums[k] != nums[2])
    nums[[2, b]] = nums[[b, 2]]


def test_frobenius_invariance_catches_rows_swapped_across_orbits(monkeypatch, capsys):
    table = trace_table(P33, 5)
    values = table.values.copy()
    _swap_across_orbits(values, 3)
    swapped = table._replace(values=values)
    _check_sum_rules(swapped)  # symmetric in t: M1 and M2 still hold
    with pytest.raises(NonRationalTraceError, match="Frobenius invariance fails over "
                       "p=3 d=5 .*: the trace at t_index=2 differs"):
        _check_frobenius(swapped)
    real = traces._trace_numerators

    def doctored(params, L):
        nums = real(params, L)
        _swap_across_orbits(nums, params.p)
        return nums

    monkeypatch.setattr(traces, "_trace_numerators", doctored)
    assert main(["traces", "--p", "3", "--degree", "5"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("FALSIFIED: Frobenius invariance fails over ")


def test_a_computed_table_adopts_the_kernels_array(monkeypatch):
    """The kernel's int64 array is divided by #L in place and kept as the
    table's values rather than a copy: 8 bytes less per entry at each level
    (38 MB at 3^14)."""
    made = []
    real = traces._trace_numerators

    def kept(params, L):
        made.append(real(params, L))
        return made[-1]

    monkeypatch.setattr(traces, "_trace_numerators", kept)
    table = trace_table(P33, 5)
    assert len(made) == 1 and np.shares_memory(made[0], table.values)


def test_a_loaded_table_adopts_the_array_it_fills(tmp_path, monkeypatch):
    trace_table(P33, 4, cache_dir=tmp_path)
    made = []
    real = traces._table

    def kept(params, degree, L, numerators):
        made.append(numerators)
        return real(params, degree, L, numerators)

    monkeypatch.setattr(traces, "_table", kept)
    table = trace_table(P33, 4, cache_dir=tmp_path)
    assert len(made) == 1 and np.shares_memory(made[0], table.values)
    # a copy off the file's bytes, which it does not keep alive
    assert table.values.base is None and not table.values.flags.writeable


def test_cache_refuses_a_sealed_file_with_rows_swapped_across_orbits(tmp_path, capsys):
    table = trace_table(P33, 4)
    path = _cache_path(tmp_path, P33, 4)
    values = table.values.copy()
    _swap_across_orbits(values, 3)
    _save_table(path, table._replace(values=values))  # a valid CRC-32
    with pytest.raises(CacheCorruptionError, match="Frobenius invariance fails"):
        trace_table(P33, 4, cache_dir=tmp_path)
    argv = ["traces", "--p", "3", "--degree", "4", "--cache-dir", str(tmp_path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage error: corrupt trace cache file {path}: "
                          "Frobenius invariance fails over p=3 d=4 ")


def test_kernel_reduces_n_before_it_multiplies():
    """Only n mod (#L - 1) enters a table: 3^35 and 3^5 both have n = 485
    mod 3^10 - 1, and 5^25 and 5 both have n = 9 mod 24.  n * log formed
    first wraps int64 at 3^35 (and cannot be formed at 3^200)."""
    for big, small, D in [(SystemParams(3, 35), SystemParams(3, 5), 10),
                          (SystemParams(5, 25), SystemParams(5, 1), 2)]:
        assert np.array_equal(trace_table(big, D).numerators,
                              trace_table(small, D).numerators)
    assert len(trace_table(SystemParams(3, 200), 2).values) == 9


def test_oracles_reduce_n_before_they_multiply():
    """The same for the oracles: 3^35 and 3^5 both have n = 1 mod 3^5 - 1,
    and n * log formed first wraps int64 at 3^35 over 3^5."""
    big, small, L = SystemParams(3, 35), SystemParams(3, 5), build_field(3, 5)
    assert np.array_equal(exact_numerators(big, L), exact_numerators(small, L))
    t = 1 + 6  # g^6
    assert raw_sum(big, L, t) == raw_sum(small, L, t)
    assert descent_trace(big, L, t) == descent_trace(small, L, t)


def test_sum_of_raw_sums_vanishes():
    # sum over t of S(t) = sum_x psi(x^n) chi_2(x) * sum_t psi(tx) = 0
    L = P33.extension(2)
    total = CycInt.zero(3)
    for code in range(L.order):
        total = total + raw_sum(P33, L, code)
    assert total.is_zero


@pytest.mark.parametrize("params,maxD", [(P33, 4), (P55, 2),
                                         (SystemParams(p=7, f=1), 2)])
def test_exact_moment_rules_and_integrality(params, maxD):
    for D in range(1, maxD + 1):
        table = trace_table(params, D)
        N = table.denominator
        assert table.moment(1) == 0
        assert table.moment(2) == Fraction(N - 1, N)
        bound = params.n  # crude: rank times unit eigenvalues
        assert all(abs(v) <= bound for v in table.values.tolist())


def test_moment_report_targets():
    rows = moment_report(P33, trace_tables(P33, 3))
    assert [r.m3_target for r in rows] == [-1, 1, -1]
    assert all(r.m1 == 0 for r in rows)
    assert [r.field_order for r in rows] == [3, 9, 27]
    rows5 = moment_report(P55, trace_tables(P55, 2))
    assert [r.m3_target for r in rows5] == [1, 1]


def test_empirical_moment_helper():
    assert trace_table(P33, 1).moment(3) == Fraction(0)  # (-1)^3 + 1 + 0
    assert trace_table(P33, 1).moment(2) == Fraction(2, 3)


def test_trace_tables_are_the_tables_of_degrees_one_to_n():
    tables = trace_tables(P33, 3)
    assert list(tables) == [1, 2, 3]
    assert all(tables[D] == trace_table(P33, D) for D in tables)


def test_trace_tables_checks_every_budget_before_the_kernel_runs(monkeypatch):
    """11^7 is over the table budget; degrees 1-6 are not computed."""
    calls = []
    real = traces._trace_numerators

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(traces, "_trace_numerators", counted)
    with pytest.raises(BudgetExceededError, match="11\\^7"):
        trace_tables(SystemParams(11, 1), 7)
    assert calls == []


def test_multiplier_invariance_of_trace_multiset():
    """Stronger than the multisets: the oracle's numerators are equal entry by
    entry for every multiplier c in F_p^x.  psi_c = sigma_c o psi_1 and A_c =
    sigma_c(A_1), so each numerator -S_c(t) conj(A_c) is sigma_c of the
    rational integer -S_1(t) conj(A_1), which sigma_c fixes."""
    for params, degree in [(P55, 3), (SystemParams(7, 1), 3), (P33, 5),
                           (SystemParams(5, 1, base_degree=2), 2),
                           (SystemParams(3, 2), 4)]:  # 5^(2*2); q = 9 at 3^4
        L = params.extension(degree)
        plain = exact_numerators(params, L)
        for c in range(2, params.p):
            twisted = exact_numerators(params._replace(multiplier=c), L)
            assert np.array_equal(twisted, plain), (params, degree, c)


# -- descent form ----------------------------------------------------------------

def test_descent_frozen_value_f3():
    L = P33.extension(1)
    z, z2 = CycInt.root(3), CycInt.root(3, 2)
    assert descent_trace(P33, L, L.code_from_poly_int(1)) == z - z2
    assert descent_trace(P33, L, L.code_from_poly_int(2)).is_zero


def test_descent_rejects_zero():
    L = P33.extension(1)
    with pytest.raises(ValueError):
        descent_trace(P33, L, 0)


@pytest.mark.parametrize("D", [1, 2, 3])
def test_descent_consistency_exact(D):
    rep = descent_consistency(P33, D)
    assert rep.applicable
    assert rep.equal
    if D == 1:
        assert rep.lhs == CycInt.rational(3, 3)


def test_descent_consistency_skips_when_power_map_not_bijective():
    rep = descent_consistency(P33, 4)  # gcd(5, 80) = 5
    assert not rep.applicable
    assert rep.equal is None


# -- caching and determinism --------------------------------------------------------

def test_cache_roundtrip_and_byte_stability(tmp_path, monkeypatch):
    d1 = tmp_path / "a"
    t1 = trace_table(P33, 2, cache_dir=d1)
    files = list(d1.glob("*.csv"))
    assert len(files) == 1
    blob1 = files[0].read_bytes()

    def no_kernel(*args):
        raise AssertionError("a cached table must not be recomputed")

    monkeypatch.setattr(traces, "_trace_numerators", no_kernel)
    t2 = trace_table(P33, 2, cache_dir=d1)  # loads from cache
    monkeypatch.undo()
    assert t2 == t1
    d2 = tmp_path / "b"
    trace_table(P33, 2, cache_dir=d2)
    blob2 = (d2 / files[0].name).read_bytes()
    assert blob1 == blob2
    head = (f"# altsums-trace-v3 {P33.label()} D=2\n"
            f"# field: {t1.field_text}\n").encode()
    assert blob1 == head + t1.numerators.astype("<i8").tobytes() + \
        zlib.crc32(blob1[:-4]).to_bytes(4, "little")


def test_cache_corruption_detected(tmp_path):
    trace_table(P33, 1, cache_dir=tmp_path)
    f = next(tmp_path.glob("*.csv"))
    data = bytearray(f.read_bytes())
    data[-5] ^= 1  # the last numerator's top byte
    f.write_bytes(data)
    with pytest.raises(CacheCorruptionError):
        trace_table(P33, 1, cache_dir=tmp_path)


def test_cache_truncation_detected(tmp_path):
    trace_table(P33, 2, cache_dir=tmp_path)
    f = next(tmp_path.glob("*.csv"))
    f.write_bytes(f.read_bytes()[:40])
    with pytest.raises(CacheCorruptionError):
        trace_table(P33, 2, cache_dir=tmp_path)


def test_cache_rejects_a_checksummed_trace_out_of_range(tmp_path):
    # |T| < sqrt(#L) for every real table; a value past it, written with a
    # valid checksum, would blow up the value counts the statistics read
    table = trace_table(P33, 2)
    path = _cache_path(tmp_path, P33, 2)
    values = table.values.copy()
    values[0] = 27
    _save_table(path, table._replace(values=values))
    with pytest.raises(CacheCorruptionError, match="out of range at t_index=0$"):
        trace_table(P33, 2, cache_dir=tmp_path)
    values[0] = 2  # in range, but M1 = 1/9: the sum rules refuse it
    _save_table(path, table._replace(values=values))
    with pytest.raises(CacheCorruptionError, match="sum rules fail .* M1 = 1/9"):
        trace_table(P33, 2, cache_dir=tmp_path)


def test_cache_rejects_swapped_rows_by_the_checksum_alone(tmp_path):
    # swapping two numerators keeps the format, the length, every range and
    # M1/M2: only the CRC-32 trailer tells the file from the table
    table = trace_table(P33, 2, cache_dir=tmp_path)
    path = _cache_path(tmp_path, P33, 2)
    values = table.values.copy()
    j = int(np.flatnonzero(values != values[0])[0])
    values[[0, j]] = values[[j, 0]]
    swapped = table._replace(values=values)
    nums = swapped.numerators
    data = path.read_bytes()
    body = len(data) - 4 - 8 * len(nums)
    path.write_bytes(data[:body] + nums.astype("<i8").tobytes() + data[-4:])
    with pytest.raises(CacheCorruptionError, match="checksum mismatch$"):
        trace_table(P33, 2, cache_dir=tmp_path)
    _save_table(path, swapped)  # re-sealed, it passes every check
    assert np.array_equal(trace_table(P33, 2, cache_dir=tmp_path).numerators, nums)


def v2_payload(table):
    """The altsums-trace-v2 CSV file of `table` up to its trailer."""
    N = table.denominator
    return "".join([f"# altsums-trace-v2 {table.params.label()} D={table.degree}\n"
                    f"# field: {table.field_text}\n"
                    "t_index,numerator,denominator,is_integer\n",
                    *(f"{i},{c},{N},{c % N == 0:d}\n"
                      for i, c in enumerate(table.numerators.tolist()))]).encode()


def refused_by_its_format(tmp_path, capsys, seal):
    """An older file, `seal`ed from the v2 payload, is refused by its format
    tag, exits 2 with nothing on stdout and is left as it is; deleted, it is
    recomputed."""
    argv = ["traces", "--p", "3", "--degree", "2", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    want = capsys.readouterr().out
    path = _cache_path(tmp_path, P33, 2)
    old = seal(v2_payload(trace_table(P33, 2)))
    path.write_bytes(old)
    with pytest.raises(CacheCorruptionError, match="not in the altsums-trace-v3 format$"):
        trace_table(P33, 2, cache_dir=tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"usage error: corrupt trace cache file {path}: not in the "
                   "altsums-trace-v3 format; delete it to recompute\n")
    assert path.read_bytes() == old
    path.unlink()
    assert main(argv) == 0 and capsys.readouterr().out == want


def test_cache_refuses_a_v1_file_by_its_format(tmp_path, capsys):
    # the sha256-sealed v1 format
    def seal(payload):
        payload = payload.replace(b"# altsums-trace-v2 ", b"# altsums-trace-v1 ", 1)
        return payload + f"# sha256={hashlib.sha256(payload).hexdigest()}\n".encode()
    refused_by_its_format(tmp_path, capsys, seal)


def test_cache_refuses_a_v2_csv_file_by_its_format(tmp_path, capsys):
    refused_by_its_format(tmp_path, capsys, lambda payload: payload + (
        f"# crc32={zlib.crc32(payload):08x}\n".encode()))


@pytest.mark.parametrize("edit", [
    lambda data: data[:-6] + bytes([data[-6] ^ 0x80]) + data[-5:],  # a body bit
    lambda data: data[:-1],                                          # truncated
    lambda data: data[:-12],                                         # mid-numerator
    lambda data: data + b"\0"],                                      # a byte more
    ids=["flipped", "truncated", "truncated-mid-numerator", "appended"])
def test_cache_refuses_a_damaged_file_by_its_checksum(tmp_path, edit):
    trace_table(P33, 2, cache_dir=tmp_path)
    path = _cache_path(tmp_path, P33, 2)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(CacheCorruptionError, match="checksum mismatch$"):
        trace_table(P33, 2, cache_dir=tmp_path)


def reseal(path, table, numerators):
    """Write `numerators` (any int64 values) as the cache file of `table`:
    its header, their bytes and a valid CRC-32 trailer, as _save_table
    seals a table's own numerators."""
    data = _cache_header(table.params, table.degree, table.field_text) + \
        np.asarray(numerators, dtype="<i8").tobytes()
    path.write_bytes(data + zlib.crc32(data).to_bytes(4, "little"))


def test_cache_refuses_a_sealed_numerator_off_a_multiple_of_the_order(tmp_path, capsys):
    """One numerator 1 off a multiple of #L, in range and sealed: the loader
    refuses it, and the CLI exits 2 naming the file, with nothing on stdout."""
    table = trace_table(P33, 3)
    path = _cache_path(tmp_path, P33, 3)
    nums = table.numerators
    nums[5] += 1
    reseal(path, table, nums)
    with pytest.raises(CacheCorruptionError, match="non-integer trace at t_index=5 over "):
        trace_table(P33, 3, cache_dir=tmp_path)
    argv = ["traces", "--p", "3", "--degree", "3", "--cache-dir", str(tmp_path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"usage error: corrupt trace cache file {path}: non-integer "
                   f"trace at t_index=5 over {table.field_text}; delete it to "
                   "recompute\n")


B9 = 26  # isqrt(9**3 - 1): |numerator| <= 26 over #L = 9


def put(j, value):
    """An edit that sets numerator j to `value`."""
    return lambda nums: np.where(np.arange(len(nums)) == j, np.int64(value), nums)


@pytest.mark.parametrize("edit, message", [
    (lambda nums: np.append(nums, 0), "expected 72 bytes of numerators, found 80$"),
    (lambda nums: nums[:-1], "expected 72 bytes of numerators, found 64$"),
    (put(4, B9 + 1), "trace out of range at t_index=4$"),
    (put(4, -B9 - 1), "trace out of range at t_index=4$"),
    (put(5, -2**63), "trace out of range at t_index=5$"),
    (put(6, 2**63 - 1), "trace out of range at t_index=6$"),
    # b is in range, but not a multiple of #L = 9
    (put(4, B9), "non-integer trace at t_index=4 over "),
    (put(4, -B9), "non-integer trace at t_index=4 over ")],
    ids=["one-more", "one-fewer", "b+1", "-b-1", "int64-min", "int64-max", "b", "-b"])
def test_cache_refuses_resealed_numerators(tmp_path, capsys, edit, message):
    # each file carries a valid CRC-32 and the requested header
    table = trace_table(P33, 2)
    path = _cache_path(tmp_path, P33, 2)
    reseal(path, table, edit(table.numerators))
    with pytest.raises(CacheCorruptionError, match=message):
        trace_table(P33, 2, cache_dir=tmp_path)
    assert main(["traces", "--p", "3", "--degree", "2", "--cache-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().out == ""


def test_cache_header_mismatch_detected(tmp_path):
    twisted = SystemParams(p=3, f=1, multiplier=2)
    trace_table(P33, 1, cache_dir=tmp_path)
    src = next(tmp_path.glob("*_c1_*.csv"))
    shutil.copy(src, src.with_name(src.name.replace("_c1_", "_c2_")))
    with pytest.raises(CacheCorruptionError):
        trace_table(twisted, 1, cache_dir=tmp_path)


def test_concurrent_writers_leave_one_whole_file(tmp_path):
    table = trace_table(P33, 3)
    path = _cache_path(tmp_path, P33, 3)
    _save_table(path, table)
    want = path.read_bytes()
    errors = []
    barrier = threading.Barrier(4)

    def writer():
        try:
            barrier.wait(timeout=10)
            for _ in range(25):
                _save_table(path, table)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert [f.name for f in tmp_path.iterdir()] == [path.name]
    assert path.read_bytes() == want
    loaded = _load_table(path, P33, 3, P33.extension(3))
    assert loaded == table


# -- the exact oracle's own guards

def test_non_rational_guard_fires_on_doctored_counts():
    counts = np.array([[0, 1, 0, 0, 0]])  # stands for S = zeta_5, which no real table produces
    with pytest.raises(NonRationalTraceError):
        _finish(counts, CycInt.one(5), 5, "doctored")
    # a doctored row among good ones is named by its t_index
    counts = np.array([[1, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 1, 0, 0]])
    with pytest.raises(NonRationalTraceError, match="t_index=2 "):
        _finish(counts, CycInt.one(5), 5, "doctored")


def test_finish_flags_rational_non_integers():
    # -S for S = 1, 3 and 1 + zeta + zeta^2 = 0: numerators -1, -3, 0 over N = 3
    counts = np.array([[1, 0, 0], [3, 0, 0], [1, 1, 1]])
    nums = _finish(counts, CycInt.one(3), 3, "synthetic")
    assert nums.dtype == np.int64 and nums.tolist() == [-1, -3, 0]


def test_int64_guard_before_finish_product():
    # p * (#L - 1) * max|conj(A)| must stay below 2**63; synthetic sizes
    counts = np.zeros((1, 3), dtype=np.int64)
    N = 2**61 + 1
    assert _finish(counts, CycInt(3, (1, 0)), N, "synthetic").tolist() == [0]
    with pytest.raises(BudgetExceededError, match="int64"):
        _finish(counts, CycInt(3, (0, -2)), N, "synthetic")


def test_trace_kernel_peak_memory_stays_near_its_budgeted_arrays():
    # the kernel holds h and the FFT's two stage arrays (complex128), 48
    # bytes per element, forms the rows (int64) after the FFT, and builds
    # its psi tables inside the measured call; one (#L, p) int64 array (75
    # MB here) or a (p, p, p) index table would dwarf them.  The level's
    # field (16 bytes per element) is built first and handed in, so it is
    # not measured, and a first call fills numpy's FFT caches (3 bytes per
    # element).
    params = SystemParams(p=211, f=1)
    L = params.extension(2)
    trace_table(params, 2, field=L)
    tracemalloc.start()
    try:
        trace_table(params, 2, field=L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80 * 211**2


@pytest.mark.parametrize("p", [101, 211])
def test_fft_kernel_at_bluestein_lengths_equals_the_single_t_oracle(p):
    # a prime FFT length past the small-radix kernels goes through
    # Bluestein's algorithm in pocketfft (C in numpy 1.x, C++ in numpy 2)
    params = SystemParams(p, 1)
    L = params.extension(2)
    table = trace_table(params, 2)
    conjA = normalization_constant(params.context(), L, params.n).conj()
    for code in random.Random(p).sample(range(L.order), 8):
        S = raw_sum(params, L, code)
        assert table.numerators[code] == ((-S) * conjA).as_rational(), code


# -- the table format -----------------------------------------------------------------


def test_kernel_and_cache_tables_hold_a_read_only_int64_array(tmp_path):
    built = trace_table(P33, 3, cache_dir=tmp_path)
    loaded = trace_table(P33, 3, cache_dir=tmp_path)
    assert loaded == built
    for array in (built.values, loaded.values, count_points(P33, 3).counts):
        assert isinstance(array, np.ndarray)
        assert array.dtype == np.int64
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


def test_a_table_retains_about_eight_bytes_per_entry():
    trace_table(P55, 6)  # builds the field and character tables first
    tracemalloc.start()
    try:
        table = trace_table(P55, 6)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(table.values) == 15625
    assert held <= 9 * 15625 + 4096


def _records(degree):
    """(record, name of its int64 array): a trace table and a curve count over 3^degree."""
    return [(trace_table(P33, degree), "values"), (count_points(P33, degree), "counts")]


def test_tables_differing_in_one_numerator_compare_unequal():
    records = _records(2)
    for table, name in records:
        nums = getattr(table, name).copy()
        nums[4] += 9
        other = table._replace(**{name: nums})
        assert not table == other and table != other
        assert not other == table and other != table
        same = table._replace(**{name: getattr(table, name).copy()})
        assert table == same and not table != same and hash(table) == hash(same)
    (table, _), (count, _) = records
    assert table != count and count != table


@pytest.mark.parametrize("make", [
    lambda record, name, a: record._replace(**{name: a}),
    lambda record, name, a: type(record)._make(
        a if field == name else v for field, v in zip(record._fields, record)),
    lambda record, name, a: type(record)(**{**record._asdict(), name: a})],
    ids=["_replace", "_make", "constructor"])
def test_a_table_does_not_change_with_its_source_array(make):
    for table, name in _records(2):
        nums = getattr(table, name).copy()
        other = make(table, name, nums)
        before = hash(other)
        nums[4] += 9
        assert other == table and hash(other) == before == hash(table)
        assert getattr(other, name).dtype == np.int64
        assert not getattr(other, name).flags.writeable
        view = nums.view()  # read-only, but its base is writeable
        view.flags.writeable = False
        from_view = make(table, name, view)
        nums[4] -= 9
        assert getattr(from_view, name)[4] == getattr(table, name)[4] + 9


@pytest.mark.parametrize("make", [
    lambda record, name, a: record._replace(**{name: a}),
    lambda record, name, a: type(record)(**{**record._asdict(), name: a})],
    ids=["_replace", "constructor"])
def test_a_table_refuses_non_integral_numerators(make):
    for table, name in _records(1):
        values = getattr(table, name).tolist()
        with pytest.raises(ValueError, match="integers within int64"):
            make(table, name, np.array(values[:2] + [0.5]))
        for bad in ([np.nan, 3.0, 0.0], [-3.0, 2.0**63, 0.0]):
            with pytest.raises(ValueError, match="integers within int64"):
                make(table, name, np.array(bad))
        with pytest.raises(ValueError, match="not complex128"):
            make(table, name, np.array(values, dtype=complex))
        for good in (np.array(values, dtype=float), values, np.array(values, dtype=np.int32)):
            assert make(table, name, good) == table
            assert getattr(make(table, name, good), name).dtype == np.int64
