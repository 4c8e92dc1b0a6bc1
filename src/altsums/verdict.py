"""Statistics layer: per-degree moments, and the verdict that joins trace
tables with exact group spectra.

Regime dichotomy: the trace values at extension degree D must land in the
spectrum of the deleted-permutation character of Alt(2q) when -1 is a
square in the base field or D is even, and in the sgn-twisted spectrum of
the odd coset of Sym(2q) otherwise.  Both conditions reduce to the sign
chi_2(-1) on the degree-D extension (#L = 1 mod 4 or not), which regime_for
reads off #L without building L; the third-moment target is that sign, +1
exactly in the alt regime.  Each degree has one MomentRow (M1-M3, the
target, integrality), and its VerdictRow extends it by the regime and the
spectrum statistics.

All comparison statistics are exact rationals; the only floats are the
configured tolerances and the M3 deviation column.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .fields import checked_order
from .groups import spectrum
from .traces import SystemParams, TraceTable


def regime_for(params: SystemParams, degree: int) -> tuple[str, str]:
    """(regime, twist): ('alt', 'plain') when #L = 1 mod 4, else ('coset', 'sgn')."""
    if checked_order(params.p, params.base_degree * degree) % 4 == 1:
        return ("alt", "plain")
    return ("coset", "sgn")


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


def moment_report(params: SystemParams,
                  tables: dict[int, TraceTable]) -> tuple[MomentRow, ...]:
    """First three exact moments per degree of `tables`, the trace tables of
    `params` at the degrees 1..n (n >= 1), with the third-moment target."""
    return tuple(_moment_row(t)[0] for t in _tower(params, tables))


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


def _moment_row(table: TraceTable):
    """M1-M3 of one table, and the value counts they come from (None when
    the table is not integral).  The target is +1 in the alt regime, else -1."""
    try:
        counts = table.value_counts()
    except ValueError:  # not integral
        counts = None
    target = 1 if regime_for(table.params, table.degree)[0] == "alt" else -1
    m1, m2, m3 = (table.moment(k, counts) for k in (1, 2, 3))
    return MomentRow(table.degree, table.denominator, m1, m2, m3, target,
                     abs(float(m3 - target)), counts is not None), counts

class MembershipResult(NamedTuple):
    rate: Fraction
    offenders: tuple[tuple[int, int], ...]  # (t_index, integer trace value)

    @property
    def full(self) -> bool:
        return self.rate == 1


def spectrum_membership(table: TraceTable, oracle: dict[int, Fraction],
                        counts=None) -> MembershipResult:
    """Fraction of entries whose value lies in the oracle support.

    Read off the table's value counts; entries are visited only to list the
    offenders, when some value lies outside the support.  Requires an
    integral table: a non-integer entry is an upstream hard error, not a
    membership miss.  `counts`: the table's value_counts(), if already taken.
    """
    lo, counts = counts or table.value_counts()
    outside = [k for k in np.flatnonzero(counts).tolist() if lo + k not in oracle]
    if not outside:
        return MembershipResult(rate=Fraction(1), offenders=())
    total = len(table.numerators)
    miss = np.zeros(len(counts), dtype=bool)
    miss[outside] = True
    values = table.int_array()
    at = np.flatnonzero(miss[values - lo])
    return MembershipResult(
        rate=Fraction(total - len(at), total),
        offenders=tuple(zip(at.tolist(), values[at].tolist())))


def distribution_distance(table: TraceTable, oracle: dict[int, Fraction],
                          counts=None) -> Fraction:
    """Exact total-variation distance between the empirical law and the oracle."""
    lo, counts = counts or table.value_counts()
    total = len(table.numerators)
    emp = {lo + k: Fraction(c, total) for k, c in enumerate(counts.tolist()) if c}
    gap = sum(abs(emp.get(v, 0) - oracle.get(v, 0)) for v in emp.keys() | oracle.keys())
    return gap / 2


class VerdictConfig(NamedTuple):
    tv_max: float = 0.05       # TV threshold, enforced at the largest degree
    m3_tol: float = 0.2        # third-moment deviation threshold
    m3_min_order: int = 3**8   # enforce m3_tol on degrees with #L at least this

    def check(self) -> None:
        """Refuse a negative or NaN bound: NaN compares false both ways, so
        it would pass every check."""
        if not (self.tv_max >= 0 and self.m3_tol >= 0):
            raise ValueError(f"tv_max and m3_tol must be >= 0, got "
                             f"{self.tv_max} and {self.m3_tol}")


def _frac(x: Fraction | None):
    if x is None:
        return None
    return {"num": x.numerator, "den": x.denominator}


class VerdictRow(namedtuple("VerdictRow", MomentRow._fields + (
        "regime", "twist", "membership_rate", "offenders", "tv_distance"))):
    """A degree's MomentRow extended by its regime and twist, its spectrum
    membership rate and offenders ((t_index, integer trace value) pairs),
    and its TV distance: None, () and None when the table is not integral."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "degree": self.degree,
            "field_order": self.field_order,
            "regime": self.regime,
            "twist": self.twist,
            "integral": self.integral,
            "membership_rate": _frac(self.membership_rate),
            "offender_count": len(self.offenders),
            "offenders": [list(o) for o in self.offenders[:10]],
            "tv_distance": _frac(self.tv_distance),
            "m1": _frac(self.m1),
            "m2": _frac(self.m2),
            "m3": _frac(self.m3),
            "m3_target": self.m3_target,
            "m3_deviation": self.m3_deviation,
        }


class VerdictReport(NamedTuple):
    params: SystemParams
    max_degree: int
    config: VerdictConfig
    rows: tuple[VerdictRow, ...]
    passed: bool
    failures: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "params": {
                "p": self.params.p, "f": self.params.f,
                "base_degree": self.params.base_degree,
                "multiplier": self.params.multiplier,
                "q": self.params.q, "n": self.params.n,
            },
            "max_degree": self.max_degree,
            "config": self.config._asdict(),
            "rows": [r.as_dict() for r in self.rows],
            "passed": self.passed,
            "failures": list(self.failures),
        }


def verdict(params: SystemParams, tables: dict[int, TraceTable], *,
            config: VerdictConfig | None = None) -> VerdictReport:
    """Assemble per-degree checks and the overall pass/fail decision over
    `tables`, the trace tables of `params` at the degrees 1..max_degree.

    PASS requires: every table integral, spectrum membership 100%
    everywhere, |M3 - target| within tolerance on every degree with
    #L >= m3_min_order, TV within tolerance at the largest degree, and a
    smaller TV at the largest degree than at degree 1 (when max_degree > 1).
    A bad tolerance, or tables that are not such a tower, raise ValueError.
    """
    cfg = config or VerdictConfig()
    cfg.check()
    tower = _tower(params, tables)
    max_degree = len(tower)
    rows = []
    failures: list[str] = []
    for D, table in enumerate(tower, 1):
        mrow, counts = _moment_row(table)  # one value count per table
        regime, twist = regime_for(params, D)
        oracle = spectrum(2 * params.q, regime, twist)

        if mrow.integral:
            membership_rate, offenders = spectrum_membership(table, oracle, counts)
            tv = distribution_distance(table, oracle, counts)
            if offenders:
                first = offenders[0]
                failures.append(
                    f"degree {D}: {len(offenders)} trace value(s) outside the "
                    f"{regime}/{twist} spectrum, first t_index={first[0]} "
                    f"value={first[1]}")
        else:
            membership_rate, offenders, tv = None, (), None
            bad = int(np.argmin(table.is_integer))  # the first False
            failures.append(
                f"degree {D}: non-integer trace at t_index={bad} "
                f"({table.numerators[bad]}/{table.denominator})")

        if (mrow.field_order >= cfg.m3_min_order
                and mrow.m3_deviation > cfg.m3_tol):
            failures.append(
                f"degree {D}: |M3 - ({mrow.m3_target})| = "
                f"{mrow.m3_deviation:.4f} exceeds {cfg.m3_tol} "
                f"at #L = {mrow.field_order}")

        rows.append(VerdictRow(*mrow, regime, twist, membership_rate,
                               offenders, tv))

    top = rows[-1]
    if top.tv_distance is not None:
        if float(top.tv_distance) > cfg.tv_max:
            failures.append(
                f"degree {max_degree}: TV distance {float(top.tv_distance):.4f} "
                f"exceeds {cfg.tv_max}")
        first_tv = rows[0].tv_distance
        if (max_degree > 1 and first_tv is not None
                and top.tv_distance >= first_tv):
            failures.append(
                f"TV distance did not shrink: degree {max_degree} has "
                f"{float(top.tv_distance):.4f} vs {float(first_tv):.4f} at degree 1")

    return VerdictReport(params=params, max_degree=max_degree, config=cfg,
                         rows=tuple(rows), passed=not failures,
                         failures=tuple(failures))
