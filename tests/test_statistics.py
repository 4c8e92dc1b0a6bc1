"""The trace statistics read off value counts, against per-entry oracles.

`TraceTable.moment`, `spectrum_membership` and `distribution_distance` take
one `np.bincount` of a table's integer values.  The references below walk
the entries one by one in plain Python ints, as the library did before; they
are compared on kernel tables and on seeded random tables, some with values
outside the oracle support.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from altsums.traces import SystemParams, TraceTable, trace_table
from altsums.verdict import distribution_distance, spectrum_membership
from oracles import oracle_spectrum

P33 = SystemParams(p=3, f=1)
P55 = SystemParams(p=5, f=1)
P39 = SystemParams(p=3, f=2)


# -- per-entry references ----------------------------------------------------------


def ref_moment(table, power):
    N = table.denominator
    return Fraction(sum(c**power for c in table.numerators.tolist()),
                    N ** (power + 1))


def ref_values(table):
    N = table.denominator
    assert all(c % N == 0 for c in table.numerators.tolist())
    return [c // N for c in table.numerators.tolist()]


def ref_membership(table, oracle):
    support = set(oracle)
    values = ref_values(table)
    offenders = tuple((i, v) for i, v in enumerate(values) if v not in support)
    return Fraction(len(values) - len(offenders), len(values)), offenders


def ref_distance(table, oracle):
    values = ref_values(table)
    N = len(values)
    emp = {}
    for v in values:
        emp[v] = emp.get(v, 0) + 1
    keys = set(emp) | set(oracle)
    return sum(abs(Fraction(emp.get(v, 0), N) - oracle.get(v, Fraction(0)))
               for v in keys) / 2


def assert_matches_references(table, oracle):
    for k in (1, 2, 3, 4, 7):
        assert table.moment(k) == ref_moment(table, k)
    member = spectrum_membership(table, oracle)
    assert (member.rate, member.offenders) == ref_membership(table, oracle)
    assert distribution_distance(table, oracle) == ref_distance(table, oracle)
    assert table.values.tolist() == ref_values(table)


# -- tables ------------------------------------------------------------------------------


def random_table(rng, N, values):
    return TraceTable(params=P33, degree=1, field_text="random",
                      values=np.array([rng.choice(values) for _ in range(N)]))


@pytest.mark.parametrize("params, degrees", [
    (P33, range(1, 7)), (P55, range(1, 5)), (P39, range(1, 4)),
    (SystemParams(p=7, f=1, multiplier=2), range(1, 4)),
])
def test_kernel_tables_match_the_references(params, degrees):
    for D in degrees:
        assert_matches_references(trace_table(params, D),
                                  oracle_spectrum(params, D))


@pytest.mark.parametrize("seed", range(12))
def test_random_integral_tables_match_the_references(seed):
    rng = random.Random(seed)
    oracle = oracle_spectrum(P33, rng.choice((1, 2)))
    N = rng.choice((3, 9, 27, 81, 243))
    support = sorted(oracle)
    table = random_table(rng, N, support[:rng.randrange(1, len(support) + 1)])
    assert_matches_references(table, oracle)
    assert spectrum_membership(table, oracle).full


@pytest.mark.parametrize("seed", range(12))
def test_random_tables_with_offenders_match_the_references(seed):
    rng = random.Random(100 + seed)
    oracle = oracle_spectrum(P33, rng.choice((1, 2)))
    N = rng.choice((9, 27, 81, 243))
    bound = rng.choice((3, 8, 40))
    values = list(range(-bound, bound + 1)) + [rng.randrange(-500, 500)]
    table = random_table(rng, N, values)
    assert_matches_references(table, oracle)
    _, offenders = ref_membership(table, oracle)
    assert offenders  # -2 and 3 lie in neither support; each seed draws one
    assert spectrum_membership(table, oracle).offenders == offenders


def test_value_counts_span_the_values():
    table = random_table(random.Random(7), 27, [-4, 2, 5])
    lo, counts = table.value_counts()
    assert lo == min(ref_values(table))
    assert len(counts) == max(ref_values(table)) - lo + 1
    assert {lo + k: int(c) for k, c in enumerate(counts) if c} == \
        {v: ref_values(table).count(v) for v in set(ref_values(table))}
