"""Statistical verdict layer: joins trace tables with exact group spectra.

Regime dichotomy: the trace values at extension degree D must land in the
spectrum of the deleted-permutation character of Alt(2q) when -1 is a
square in the base field or D is even, and in the sgn-twisted spectrum of
the odd coset of Sym(2q) otherwise.  Both conditions reduce to the sign
chi_2(-1) on the degree-D extension (#L = 1 mod 4 or not), which is also
the third-moment target.

All comparison statistics are exact rationals; the only floats are the
configured tolerances.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .characters import chi2_minus_one
from .groups import spectrum
from .traces import SystemParams, TraceTable, _moment_row, _tower


def regime_for(params: SystemParams, degree: int) -> tuple[str, str]:
    """(regime, twist): ('alt', 'plain') when #L = 1 mod 4, else ('coset', 'sgn')."""
    L = params.extension(degree)
    if chi2_minus_one(L) == 1:
        return ("alt", "plain")
    return ("coset", "sgn")


def oracle_spectrum(params: SystemParams, degree: int) -> dict[int, Fraction]:
    regime, twist = regime_for(params, degree)
    return spectrum(2 * params.q, regime, twist)


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

    def as_dict(self) -> dict:
        return self._asdict()

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


class VerdictRow(NamedTuple):
    degree: int
    field_order: int
    regime: str
    twist: str
    integral: bool
    membership_rate: Fraction | None   # None when the table is not integral
    offenders: tuple[tuple[int, int], ...]
    tv_distance: Fraction | None
    m1: Fraction
    m2: Fraction
    m3: Fraction
    m3_target: int
    m3_deviation: float

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
            "config": self.config.as_dict(),
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
        mrow, counts = _moment_row(params, table)  # one value count per table
        regime, twist = regime_for(params, D)
        oracle = spectrum(2 * params.q, regime, twist)

        if table.integral:
            member = spectrum_membership(table, oracle, counts)
            tv = distribution_distance(table, oracle, counts)
            membership_rate = member.rate
            offenders = member.offenders
            if offenders:
                first = offenders[0]
                failures.append(
                    f"degree {D}: {len(offenders)} trace value(s) outside the "
                    f"{regime}/{twist} spectrum, first t_index={first[0]} "
                    f"value={first[1]}")
        else:
            membership_rate = None
            tv = None
            offenders = ()
            bad = table.is_integer.index(False)
            failures.append(
                f"degree {D}: non-integer trace at t_index={bad} "
                f"({table.numerators[bad]}/{table.denominator})")

        if (mrow.field_order >= cfg.m3_min_order
                and mrow.m3_deviation > cfg.m3_tol):
            failures.append(
                f"degree {D}: |M3 - ({mrow.m3_target})| = "
                f"{mrow.m3_deviation:.4f} exceeds {cfg.m3_tol} "
                f"at #L = {mrow.field_order}")

        rows.append(VerdictRow(
            degree=D, field_order=mrow.field_order, regime=regime, twist=twist,
            integral=mrow.integral, membership_rate=membership_rate,
            offenders=offenders, tv_distance=tv,
            m1=mrow.m1, m2=mrow.m2, m3=mrow.m3,
            m3_target=mrow.m3_target, m3_deviation=mrow.m3_deviation))

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
