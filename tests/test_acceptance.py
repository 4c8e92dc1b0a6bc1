"""End-to-end acceptance checks, one test per numbered criterion.

Each test evaluates its whole criterion, writes a single
`[acceptance] criterion N (...): PASS|FAIL` line to the real stdout so the
verdict survives pytest's capture, and then asserts.  Shared trace tables are
built once per module; every tolerance used here is stated inline.
"""

import itertools
import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from altsums import traces
from altsums.characters import chi2_minus_one, gauss_identities, hasse_davenport_check
from altsums.cli import main
from altsums.curves import count_points, curve_moment_report
from altsums.groups import (
    class_size,
    exact_moment,
    partitions,
    singleton_free_partitions,
    tensor_square_check,
)
from altsums.identities import (
    verify_derivative_steps,
    verify_identity_grouped,
    verify_identity_split,
    wild_inertia_span,
)
from altsums.traces import SystemParams, trace_table
from altsums.verdict import distribution_distance, spectrum_membership
from oracles import oracle_spectrum

P33 = SystemParams(p=3, f=1)
P55 = SystemParams(p=5, f=1)
P3_MAX = 8
P5_MAX = 5
RUNTIME_BUDGET = 600.0   # seconds, for the full (3,3) + (5,5) trace towers


@pytest.fixture
def announce(capfd):
    """Write one criterion verdict line past pytest's capture."""
    def _announce(num: int, label: str, ok: bool) -> bool:
        status = "PASS" if ok else "FAIL"
        with capfd.disabled():
            sys.stdout.write(
                f"[acceptance] criterion {num:2d} ({label}): {status}\n")
            sys.stdout.flush()
        return ok
    return _announce


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance_cache")


@pytest.fixture(scope="module")
def p3_tables(cache_dir):
    start = time.perf_counter()
    tables = {D: trace_table(P33, D, cache_dir=cache_dir)
              for D in range(1, P3_MAX + 1)}
    return tables, time.perf_counter() - start


@pytest.fixture(scope="module")
def p5_tables(cache_dir):
    start = time.perf_counter()
    tables = {D: trace_table(P55, D, cache_dir=cache_dir)
              for D in range(1, P5_MAX + 1)}
    return tables, time.perf_counter() - start


def test_criterion_01_trace_integrality(announce, p3_tables, p5_tables):
    """#L divides every numerator -S(t) conj(A) the kernel returns, before
    any table is made of them, and the tables hold the quotients."""
    tables3, t3 = p3_tables
    tables5, t5 = p5_tables
    ok = True
    for params, tables in ((P33, tables3), (P55, tables5)):
        for D, table in tables.items():
            L = params.extension(D)
            nums = traces._trace_numerators(params, L)
            ok = (ok and len(nums) == params.p ** D == L.order
                  and not (nums % L.order).any()
                  and np.array_equal(nums // L.order, table.values))
    ok = ok and (t3 + t5) < RUNTIME_BUDGET
    assert announce(1, "trace integrality, F_3 deg 1-8 and F_5 deg 1-5", ok)


def test_criterion_02_third_moment_convergence(announce, p3_tables, p5_tables):
    tables3, _ = p3_tables
    tables5, _ = p5_tables

    def dev(params, table, degree):
        target = chi2_minus_one(params.extension(degree))
        return abs(float(table.moment(3)) - target)

    d3 = {D: dev(P33, t, D) for D, t in tables3.items()}
    d5 = {D: dev(P55, t, D) for D, t in tables5.items()}
    ok = d3[7] <= 0.2 and d3[8] <= 0.2
    ok = ok and max(d3[6], d3[8]) < min(d3[2], d3[4])
    targets5 = {D: chi2_minus_one(P55.extension(D)) for D in tables5}
    ok = ok and all(v == 1 for v in targets5.values())
    ok = ok and d5[5] <= 0.2 and d5[5] < d5[1]
    assert announce(2, "third moment approaches +-1 per parity", ok)


def test_criterion_03_spectrum_membership(announce, p3_tables, p5_tables):
    tables3, _ = p3_tables
    tables5, _ = p5_tables
    ok = True
    for params, tables in ((P33, tables3), (P55, tables5)):
        for D, table in tables.items():
            result = spectrum_membership(table, oracle_spectrum(params, D))
            ok = ok and result.full and not result.offenders
    assert announce(3, "100% membership in the group-oracle spectrum", ok)


def test_criterion_04_equidistribution_proxy(announce, p3_tables):
    tables3, _ = p3_tables
    tv_top = distribution_distance(tables3[8], oracle_spectrum(P33, 8))
    tv_one = distribution_distance(tables3[1], oracle_spectrum(P33, 1))
    ok = tv_top <= Fraction(1, 20) and tv_top < tv_one
    assert announce(4, "TV distance <= 0.05 at deg 8 and < deg-1 TV", ok)


def test_criterion_05_polynomial_identity(announce):
    ok = True
    for q in (3, 5, 7, 9, 11, 25, 27):
        ok = ok and verify_identity_split(q).ok
        ok = ok and verify_identity_grouped(q).ok
        report = verify_derivative_steps(q)
        # degree of x^n + 1 - (x+1)^n is 2q-2: the x^n terms cancel and the
        # next binomial coefficient -(2q-1) is 1 mod p
        ok = ok and report.ok and report.degree == 2 * q - 2
    assert announce(5, "split + grouped identity and derivative steps", ok)


def test_criterion_06_gauss_sum_identities(announce):
    ok = True
    for params, top in ((P33, P3_MAX), (P55, P5_MAX)):
        ctx = params.context()
        for D in range(1, top + 1):
            ok = ok and gauss_identities(ctx, ctx.extension(D)).all_ok
    ok = ok and hasse_davenport_check(P33.context(), 5, range(1, 7)).all_equal
    ok = ok and hasse_davenport_check(P55.context(), 9, range(1, 5)).all_equal
    assert announce(6, "Gauss-sum norm/square and extension compatibility", ok)


def test_criterion_07_group_oracle_exactness(announce):
    ok = True
    # independent way 1: the closed-form spectrum (up to q = 27, m = 54), and
    # class sums over the cycle types of Sym(2q)
    for q in (3, 5, 7, 17, 27):
        ok = ok and exact_moment(2 * q, 3, "alt", "plain") == 1
        ok = ok and exact_moment(2 * q, 3, "coset", "sgn") == -1
    for q in (3, 5, 7):
        m = 2 * q
        even_sum = odd_sgn_sum = 0
        for lam in partitions(m):
            cube = class_size(m, lam) * (lam.count(1) - 1) ** 3
            if (m - len(lam)) % 2:
                odd_sgn_sum -= cube
            else:
                even_sum += cube
        half = math.factorial(m) // 2
        ok = ok and Fraction(even_sum, half) == 1
        ok = ok and Fraction(odd_sgn_sum, half) == -1

    # independent way 2: brute force over all 720 permutations of 6 points
    even_cubes = odd_sgn_cubes = odd_plain_cubes = 0
    for sigma in itertools.permutations(range(6)):
        fix = sum(1 for i, s in enumerate(sigma) if s == i)
        inversions = sum(1 for i, j in itertools.combinations(range(6), 2)
                         if sigma[i] > sigma[j])
        v = fix - 1
        if inversions % 2 == 0:
            even_cubes += v ** 3
        else:
            odd_sgn_cubes += (-v) ** 3
            odd_plain_cubes += v ** 3
    ok = ok and Fraction(even_cubes, 360) == 1
    ok = ok and Fraction(odd_sgn_cubes, 360) == -1

    # independent way 3: the singleton-free set-partition count gives the
    # full Sym(6) third moment; compare with the closed form and brute force
    sym_m3 = exact_moment(6, 3, "sym", "plain")
    ok = ok and sym_m3 == singleton_free_partitions(3)
    ok = ok and sym_m3 == Fraction(even_cubes + odd_plain_cubes, 720)

    for n in (5, 9, 13):
        report = tensor_square_check(n)
        ok = ok and report.dim_ok
        if n == 5:   # Sym(6): pointwise character identity on every class
            ok = ok and report.char_checked and report.char_ok
    assert announce(7, "group-oracle moments three ways + tensor square", ok)


def test_criterion_08_wild_inertia_span(announce):
    ok = True
    for q in (3, 5, 9, 27):
        report = wild_inertia_span(q)
        ok = ok and report.ok
        ok = ok and report.dimension == 2 * report.f
        ok = ok and report.trace_zero_ok
    assert announce(8, "root-of-unity span has dimension 2f with trace 0", ok)


def test_criterion_09_curve_oracle_consistency(announce, cache_dir):
    ok = True
    for params, degrees in ((P33, (1, 2, 3, 4)), (P55, (1, 2))):
        for D in degrees:
            count = count_points(params, D)
            ok = ok and count.total() == count.field_order ** 2
            m3 = trace_table(params, D, cache_dir=cache_dir).moment(3)
            report = curve_moment_report(count, m3)
            ok = ok and report.ok  # exact equality, not the q/sqrt(#L) bound
    # beyond the 4096-element default budget: 3^9 = 19683 elements
    count = count_points(P33, 9, budget=3**9)
    ok = ok and count.total() == count.field_order ** 2
    report = curve_moment_report(
        count, trace_table(P33, 9, cache_dir=cache_dir).moment(3))
    ok = ok and report.ok
    assert announce(9, "curve count equals M3 exactly", ok)


def test_criterion_10_pipeline_determinism(announce, tmp_path):
    """`all` writes the same bytes with no cache, on an empty cache and on the
    cache that run filled, and the warm run leaves the cache files as they were."""
    cache = tmp_path / "cache"
    outputs, codes, files = [], [], []
    for cache_args in ([], ["--cache-dir", str(cache)], ["--cache-dir", str(cache)]):
        out = tmp_path / f"all_{len(outputs)}.csv"
        codes.append(main(["all", "--p", "3", "--f", "1", "--max-degree", "5",
                           *cache_args, "--output", str(out)]))
        outputs.append(out.read_bytes())
        files.append({f.name: (f.read_bytes(), f.stat().st_ino, f.stat().st_mtime_ns)
                      for f in sorted(cache.glob("*"))})  # not rewritten either
    ok = codes == [0, 0, 0]
    ok = ok and outputs[0] == outputs[1] == outputs[2]
    ok = ok and files[0] == {} and len(files[1]) == 5 and files[1] == files[2]
    assert announce(10, "byte-identical pipeline without, on a cold and on a "
                        "warm trace cache", ok)
