"""Trace-function engine against hand-computed tables and exact sum rules.

Frozen oracles, derived by hand:

* q = 3 (n = 5), L = F_3: x^5 = x on F_3^x, so S(t) is a scaled quadratic
  Gauss sum and T = (-1, +1, 0) at t = (0, 1, 2).
* q = 5 (n = 9), L = F_5: same mechanism gives T(t) = chi_2(1 + t).
* Exact moment rules valid at every degree, by orthogonality:
  sum_t T(t) = 0 and sum_t T(t)^2 = #L - 1.
"""

import math
import random
import shutil
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from altsums import traces
from altsums.characters import normalization_constant
from altsums.cyclotomic import CycInt
from altsums.fields import BudgetExceededError
from altsums.traces import (CacheCorruptionError, NonRationalTraceError,
                            SystemParams, _additive_fft_counts, _cache_path,
                            _finish, _load_table, _save_table,
                            descent_consistency, descent_trace,
                            moment_report, normalized_trace, raw_sum,
                            raw_sum_naive, trace_table, trace_tables)

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
    assert table.numerators == (-3, 3, 0)
    assert table.integral
    assert table.int_values() == [-1, 1, 0]


def test_frozen_table_f5():
    table = trace_table(P55, 1)
    assert table.denominator == 5
    assert table.numerators == (5, -5, 5, 0, -5)
    assert table.int_values() == [1, -1, 1, 0, -1]


def test_normalized_trace_single_matches_table():
    table = trace_table(P33, 2)
    L = P33.extension(2)
    for code in range(L.order):
        assert normalized_trace(P33, L, L.element(code)) == \
            Fraction(table.numerators[code], 9)


@pytest.mark.parametrize("params,D", [(P33, 1), (P33, 2), (P55, 1),
                                      (SystemParams(p=3, f=1, base_degree=2), 1)])
def test_bucket_equals_naive_accumulation_all_t(params, D):
    L = params.extension(D)
    for code in range(L.order):
        t = L.element(code)
        assert raw_sum(params, L, t) == raw_sum_naive(params, L, t)


def test_bucket_equals_naive_sampled_f27():
    L = P33.extension(3)
    rng = random.Random(3)
    for code in rng.sample(range(L.order), 6):
        t = L.element(code)
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
    """FFT counts, numerators and flags equal the naive oracle at t_codes."""
    L = params.extension(D)
    N = L.order
    counts = _additive_fft_counts(params, L)
    table = trace_table(params, D)
    conjA = normalization_constant(params.context(), L, params.n).conj()
    for code in t_codes:
        t = L.element(code)
        naive = raw_sum_naive(params, L, t)
        assert CycInt.from_power_counts(params.p, counts[code]) == naive, code
        num = ((-naive) * conjA).as_rational()
        assert table.numerators[code] == num
        assert table.is_integer[code] == (num % N == 0)
    for code in range(N):  # the single-t path equals every table row
        assert raw_sum(params, L, L.element(code)) == \
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


def test_sum_of_raw_sums_vanishes():
    # sum over t of S(t) = sum_x psi(x^n) chi_2(x) * sum_t psi(tx) = 0
    L = P33.extension(2)
    total = CycInt.zero(3)
    for code in range(L.order):
        total = total + raw_sum(P33, L, L.element(code))
    assert total.is_zero


@pytest.mark.parametrize("params,maxD", [(P33, 4), (P55, 2),
                                         (SystemParams(p=7, f=1), 2)])
def test_exact_moment_rules_and_integrality(params, maxD):
    for D in range(1, maxD + 1):
        table = trace_table(params, D)
        N = table.denominator
        assert table.integral
        assert table.moment(1) == 0
        assert table.moment(2) == Fraction(N - 1, N)
        bound = params.n  # crude: rank times unit eigenvalues
        assert all(abs(v) <= bound for v in table.int_values())


def test_moment_report_targets():
    rep = moment_report(P33, trace_tables(P33, 3))
    assert [r.m3_target for r in rep.rows] == [-1, 1, -1]
    assert all(r.m1 == 0 for r in rep.rows)
    assert [r.field_order for r in rep.rows] == [3, 9, 27]
    rep5 = moment_report(P55, trace_tables(P55, 2))
    assert [r.m3_target for r in rep5.rows] == [1, 1]


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
    real = traces._additive_fft_counts

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(traces, "_additive_fft_counts", counted)
    with pytest.raises(BudgetExceededError, match="11\\^7"):
        trace_tables(SystemParams(11, 1), 7)
    assert calls == []


def test_multiplier_invariance_of_trace_multiset():
    # When c is an n-th power in L (true whenever gcd(n, #L-1) = 1), the
    # substitution x -> ux with u^n c = 1 turns the c-twisted sum into the
    # plain one at a shifted t, so the value multisets agree exactly.
    for D in (1, 2, 3):
        base = trace_table(P33, D)
        twisted = trace_table(SystemParams(p=3, f=1, multiplier=2), D)
        assert math.gcd(P33.n, 3**D - 1) == 1
        assert sorted(base.numerators) == sorted(twisted.numerators)


# -- descent form ----------------------------------------------------------------

def test_descent_frozen_value_f3():
    L = P33.extension(1)
    z, z2 = CycInt.root(3), CycInt.root(3, 2)
    assert descent_trace(P33, L, L.from_int(1)) == z - z2
    assert descent_trace(P33, L, L.from_int(2)).is_zero


def test_descent_rejects_zero():
    L = P33.extension(1)
    with pytest.raises(ValueError):
        descent_trace(P33, L, L.zero())


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

    monkeypatch.setattr(traces, "_additive_fft_counts", no_kernel)
    t2 = trace_table(P33, 2, cache_dir=d1)  # loads from cache
    monkeypatch.undo()
    assert t2 == t1
    d2 = tmp_path / "b"
    trace_table(P33, 2, cache_dir=d2)
    blob2 = (d2 / files[0].name).read_bytes()
    assert blob1 == blob2


def test_cache_corruption_detected(tmp_path):
    trace_table(P33, 1, cache_dir=tmp_path)
    f = next(tmp_path.glob("*.csv"))
    data = f.read_bytes()
    f.write_bytes(data.replace(b"-3", b"-6", 1))
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
    nums = (27 * 9,) + table.numerators[1:]
    _save_table(path, table._replace(numerators=nums))
    with pytest.raises(CacheCorruptionError, match="out of range at row 0"):
        trace_table(P33, 2, cache_dir=tmp_path)
    _save_table(path, table._replace(numerators=(2 * 9,) + nums[1:]))
    assert trace_table(P33, 2, cache_dir=tmp_path).numerators[0] == 18


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
    assert loaded.numerators == table.numerators


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
    assert _finish(counts, CycInt.one(3), 3, "synthetic") == \
        ([-1, -3, 0], [False, True, True])


def test_int64_guard_before_finish_product():
    # p * (#L - 1) * max|conj(A)| must stay below 2**63; synthetic sizes
    counts = np.zeros((1, 3), dtype=np.int64)
    N = 2**61 + 1
    assert _finish(counts, CycInt(3, (1, 0)), N, "synthetic") == ([0], [True])
    with pytest.raises(BudgetExceededError, match="int64"):
        _finish(counts, CycInt(3, (0, -2)), N, "synthetic")


def test_trace_kernel_peak_memory_stays_near_its_budgeted_arrays():
    # the budget guard counts 3 (#L, p) int64 arrays; a (p, p, p) index table
    # (p^3 * 8 bytes, 75 MB at p = 211) would dwarf them at degree 1
    params = SystemParams(p=211, f=1)
    trace_table(params, 1)  # builds the field and character tables first
    tracemalloc.start()
    try:
        trace_table(params, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (3 * 211 * 211 * 8)
