"""Checks for the verdict layer.

Fabricated trace tables drive every failure branch; real small-degree
pipelines pin the frozen TV distance at degree 1 and the regime dispatch.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from altsums.characters import chi2_minus_one
from altsums.cli import _verdict_json
from altsums.groups import spectrum
from altsums.traces import SystemParams, TraceTable, trace_table, trace_tables
from altsums.verdict import (
    MembershipResult,
    MomentRow,
    VerdictConfig,
    VerdictRow,
    distribution_distance,
    moment_report,
    regime_for,
    spectrum_membership,
    verdict,
)
from oracles import oracle_spectrum

P33 = SystemParams(p=3, f=1)
P55 = SystemParams(p=5, f=1)
P39 = SystemParams(p=3, f=2)


def make_table(params, degree, values):
    return TraceTable(params=params, degree=degree, field_text="fabricated",
                      values=np.array(values, dtype=np.int64))


# -- regime dispatch -------------------------------------------------------------


def test_regime_dispatch():
    assert regime_for(P33, 1) == ("coset", "sgn")
    assert regime_for(P33, 2) == ("alt", "plain")
    assert regime_for(P33, 3) == ("coset", "sgn")
    assert regime_for(P55, 1) == ("alt", "plain")   # -1 is a square in F_5
    assert regime_for(P55, 2) == ("alt", "plain")
    # the dichotomy reads -1 off the base field, not off q
    over_f9 = SystemParams(p=3, f=2, base_degree=2)
    assert regime_for(over_f9, 1) == ("alt", "plain")   # base F_9, 9 = 1 mod 4
    assert regime_for(P39, 1) == ("coset", "sgn")       # same q over base F_3


def test_oracle_spectrum_supports():
    assert set(oracle_spectrum(P33, 2)) == {-1, 0, 1, 2, 5}
    assert set(oracle_spectrum(P33, 1)) == {-3, -1, 0, 1}
    assert oracle_spectrum(P33, 2) == spectrum(6, "alt", "plain")
    assert oracle_spectrum(P33, 1) == spectrum(6, "coset", "sgn")


# -- one row per degree -----------------------------------------------------------


def test_verdict_row_fields_extend_the_moment_row():
    k = len(MomentRow._fields)
    assert VerdictRow._fields[:k] == MomentRow._fields
    assert VerdictRow._fields[k:] == ("regime", "twist", "membership_rate",
                                      "offenders", "tv_distance")


@pytest.mark.parametrize("params,max_degree", [
    (P33, 6), (P55, 4), (SystemParams(3, 1, base_degree=2), 3)],
    ids=["3^1..3^6", "5^1..5^4", "9^1..9^3"])
def test_verdict_rows_start_with_the_moment_rows(params, max_degree):
    tables = trace_tables(params, max_degree)
    rows = moment_report(params, tables)
    assert len(rows) == max_degree
    k = len(MomentRow._fields)
    assert [r[:k] for r in verdict(params, tables).rows] == list(rows)


@pytest.mark.parametrize("base_degree", [1, 2])
@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_m3_target_is_chi2_minus_one_and_names_the_regime(p, base_degree):
    """The target is chi_2(-1) on the built level, and +1 exactly when the
    level's regime is alt: the two are read off #L by one rule."""
    params = SystemParams(p, 1, base_degree=base_degree)
    for row in moment_report(params, trace_tables(params, 2)):
        assert row.m3_target == chi2_minus_one(params.extension(row.degree))
        assert (row.m3_target == 1) == (regime_for(params, row.degree)[0] == "alt")


# -- membership -------------------------------------------------------------------


def test_membership_full():
    table = make_table(P33, 2, [1, -1, 0, 2, 5, 1, 0, -1, 1])
    result = spectrum_membership(table, oracle_spectrum(P33, 2))
    assert result.full
    assert result.rate == 1
    assert result.offenders == ()


def test_membership_offenders():
    # 3 and 4 are not trace values of the deleted permutation rep of Alt(6)
    table = make_table(P33, 2, [1, 3, 0, 4, 5, 1, 0, -1, 1])
    result = spectrum_membership(table, oracle_spectrum(P33, 2))
    assert result.rate == Fraction(7, 9)
    assert result.offenders == ((1, 3), (3, 4))
    assert not result.full


# -- total variation ---------------------------------------------------------------


def test_distance_zero_and_one():
    table = make_table(P33, 2, [0, 0, 1, 1])
    assert distribution_distance(
        table, {0: Fraction(1, 2), 1: Fraction(1, 2)}) == 0
    assert distribution_distance(
        table, {7: Fraction(1, 2), 8: Fraction(1, 2)}) == 1


def test_distance_hand_value():
    table = make_table(P33, 2, [0, 0, 1, 1])
    oracle = {0: Fraction(1, 4), 1: Fraction(3, 4)}
    assert distribution_distance(table, oracle) == Fraction(1, 4)


def test_distance_frozen_degree_one():
    # traces at degree 1 are (-1, 1, 0); against the sgn-twisted odd coset
    # of Sym(6) the exact TV distance is 1/12
    table = trace_table(P33, 1)
    assert distribution_distance(table, oracle_spectrum(P33, 1)) == Fraction(1, 12)


def test_distance_bounds():
    for D in (1, 2, 3):
        table = trace_table(P33, D)
        tv = distribution_distance(table, oracle_spectrum(P33, D))
        assert 0 <= tv <= 1


# -- verdict assembly ---------------------------------------------------------------


def test_verdict_small_pipeline_passes():
    report = verdict(P33, trace_tables(P33, 3))
    assert report.passed
    assert report.failures == ()
    assert [r.regime for r in report.rows] == ["coset", "alt", "coset"]
    assert [r.twist for r in report.rows] == ["sgn", "plain", "sgn"]
    assert [r.m3_target for r in report.rows] == [-1, 1, -1]
    assert all(r.membership_rate == 1 for r in report.rows)
    assert report.rows[0].tv_distance == Fraction(1, 12)
    assert report.rows[-1].tv_distance < report.rows[0].tv_distance


def test_verdict_reports_tv_failures_at_degree_four():
    # degree 4 is a known pre-asymptotic bump: TV there exceeds both the
    # threshold and the degree-1 distance, and the verdict must say so
    report = verdict(P33, trace_tables(P33, 4))
    assert not report.passed
    kinds = "\n".join(report.failures)
    assert "exceeds" in kinds
    assert "did not shrink" in kinds
    assert all(r.membership_rate == 1 for r in report.rows)


def test_verdict_flags_spectrum_offender():
    relaxed = VerdictConfig(tv_max=1.0)
    fake = make_table(P33, 1, [-3, 1, 0])  # values -3, 1, 0: all coset values
    report = verdict(P33, {1: fake}, config=relaxed)
    assert report.passed
    fake = make_table(P33, 1, [2, 1, 0])   # value 2 is not a coset value
    report = verdict(P33, {1: fake}, config=relaxed)
    assert not report.passed
    assert any("outside" in f for f in report.failures)
    assert report.rows[0].offenders == ((0, 2),)


def test_verdict_enforces_m3_threshold_by_field_order():
    fake = make_table(P33, 1, [3, 3, 3])  # all values 3: M3 = 27
    relaxed = VerdictConfig(tv_max=1.0, m3_min_order=10**9)
    report = verdict(P33, {1: fake}, config=relaxed)
    assert not any("M3" in f for f in report.failures)
    strict = VerdictConfig(tv_max=1.0, m3_min_order=3)
    report = verdict(P33, {1: fake}, config=strict)
    assert any("M3" in f and "exceeds" in f for f in report.failures)
    assert not report.passed


def test_verdict_max_degree_one_skips_decay_check():
    relaxed = VerdictConfig(tv_max=1.0)
    report = verdict(P33, trace_tables(P33, 1), config=relaxed)
    assert report.passed
    assert not any("shrink" in f for f in report.failures)
    # with the default threshold the same run fails on TV alone
    assert not verdict(P33, trace_tables(P33, 1)).passed


@pytest.mark.parametrize("max_degree", [0, -1])
def test_verdict_rejects_max_degree_below_one(max_degree):
    with pytest.raises(ValueError, match="max_degree"):
        trace_tables(P33, max_degree)
    with pytest.raises(ValueError, match="degrees 1..n, n >= 1"):
        verdict(P33, {})


@pytest.mark.parametrize("report", [moment_report, verdict])
@pytest.mark.parametrize("tables,reason", [
    ({}, "degrees 1..n"),
    ({2: trace_table(P33, 2)}, "degrees 1..n"),
    ({1: trace_table(P33, 1), 3: trace_table(P33, 3)}, "degrees 1..n"),
    ({1: trace_table(P33, 2)}, "degree-2 table"),
    ({1: trace_table(P33, 1), 2: trace_table(P33, 1)}, "degree-1 table"),
    ({1: trace_table(P55, 1)}, "p=5"),
    ({1: trace_table(SystemParams(3, 1, multiplier=2), 1)}, "multiplier=2"),
], ids=["empty", "no-degree-1", "gap", "wrong-degree", "repeated", "wrong-p",
        "wrong-multiplier"])
def test_reports_refuse_tables_that_are_not_a_tower(report, tables, reason):
    """The tables must be exactly those of degrees 1..n of the params."""
    with pytest.raises(ValueError, match=reason):
        report(P33, tables)


@pytest.mark.parametrize("bounds", [{"tv_max": math.nan}, {"m3_tol": math.nan},
                                    {"tv_max": math.nan, "m3_tol": math.nan},
                                    {"tv_max": -0.01}, {"m3_tol": -1.0}])
def test_verdict_rejects_nan_or_negative_tolerances(bounds):
    """A NaN bound compares false both ways, so it would pass every check."""
    with pytest.raises(ValueError, match="tv_max and m3_tol must be >= 0"):
        verdict(P33, trace_tables(P33, 2), config=VerdictConfig(**bounds))


def test_verdict_tv_threshold_applies_at_top_degree():
    tight = VerdictConfig(tv_max=0.01)
    report = verdict(P33, trace_tables(P33, 1), config=tight)
    assert not report.passed
    assert any("TV distance" in f and "exceeds" in f for f in report.failures)


def test_verdict_json_round_trip():
    report = verdict(P33, trace_tables(P33, 2))
    blob = json.dumps(_verdict_json(report))
    back = json.loads(blob)
    assert back["params"]["p"] == 3
    assert back["params"]["q"] == 3
    assert back["max_degree"] == 2
    assert len(back["rows"]) == 2
    assert back["rows"][0]["regime"] == "coset"
    assert back["rows"][0]["tv_distance"] == {"num": 1, "den": 12}
    assert isinstance(back["passed"], bool)


def test_membership_result_type():
    r = MembershipResult(rate=Fraction(1), offenders=())
    assert r.full
    r = MembershipResult(rate=Fraction(1, 2), offenders=((0, 9),))
    assert not r.full
