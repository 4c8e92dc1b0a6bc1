"""Command-line surface tying the modules into reproducible pipelines.

Every emitted document starts with the tool version and the effective
configuration.  The echoed configuration deliberately excludes the thread
count and the cache directory: neither may influence output bytes, and the
determinism guarantee is exactly that reruns with different --threads
produce identical files.

Exit codes: 0 = all checks passed, 1 = a falsified invariant (the
counterexample is printed), 2 = usage error: invalid parameters or config
file, a budget exceeded, a file that cannot be read or written, or a trace
cache file that fails its checks (the message names the file; delete it to
recompute).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from fractions import Fraction
from pathlib import Path

from . import __version__
from .curves import (
    DEFAULT_POINT_BUDGET,
    _check_geometry,
    count_points,
    curve_moment_report,
    modified_third_moment,
)
from .fields import BudgetExceededError, build_field, factor_prime_power
from .groups import REGIMES, TWISTS, build_stats, exact_moment, spectrum
from .identities import (
    IdentityFalsifiedError,
    require_ok,
    verify_derivative_steps,
    verify_identity_grouped,
    verify_identity_split,
    virtual_character_table,
    wild_inertia_span,
)
from .traces import (
    CacheCorruptionError,
    NonRationalTraceError,
    SystemParams,
    moment_report,
    trace_table,
)
from .verdict import VerdictConfig, verdict

CACHE_ENV = "ALTSUMS_CACHE_DIR"


@dataclass(frozen=True)
class RunConfig:
    """Full invocation state; round-trips losslessly through JSON."""

    p: int = 3
    f: int = 1
    base_degree: int = 1
    multiplier: int = 1
    max_degree: int = 8
    budget: int = DEFAULT_POINT_BUDGET
    cache_dir: str | None = None
    threads: int = 1
    fmt: str = "csv"
    tv_max: float = 0.05
    m3_tol: float = 0.2
    m3_min_order: int = 3**8

    def __post_init__(self):
        kinds = {"int": int, "float": (int, float), "str": str,
                 "str | None": (str, type(None))}
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, kinds[f.type]):
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.max_degree < 1 or self.budget < 1 or self.threads < 1:
            raise ValueError("degrees, budgets and thread counts are positive")

    def params(self) -> SystemParams:
        return SystemParams(p=self.p, f=self.f, base_degree=self.base_degree,
                            multiplier=self.multiplier)

    def verdict_config(self) -> VerdictConfig:
        return VerdictConfig(tv_max=self.tv_max, m3_tol=self.m3_tol,
                             m3_min_order=self.m3_min_order)

    def echo(self) -> str:
        """Output-identity string: everything that may influence results."""
        return (f"p={self.p} f={self.f} base_degree={self.base_degree} "
                f"multiplier={self.multiplier} max_degree={self.max_degree} "
                f"budget={self.budget} format={self.fmt} tv_max={self.tv_max} "
                f"m3_tol={self.m3_tol} m3_min_order={self.m3_min_order}")

    def echo_dict(self) -> dict:
        d = asdict(self)
        del d["threads"]
        del d["cache_dir"]
        return d

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a config file holds one JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**data)

    def save(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="ascii")

    @classmethod
    def load(cls, path) -> "RunConfig":
        return cls.from_json(Path(path).read_text(encoding="ascii"))


# -- document assembly ------------------------------------------------------------


class Document:
    """Accumulates either CSV sections or one JSON object, then renders."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.lines: list[str] = [f"# altsums {__version__} | config: {config.echo()}"]
        self.obj: dict = {"version": __version__, "config": config.echo_dict()}

    def section(self, name: str, header: str, rows, json_rows=None) -> None:
        self.lines.append(f"# section: {name}")
        self.lines.append(header)
        self.lines.extend(",".join(str(c) for c in row) for row in rows)
        self.obj[name] = json_rows if json_rows is not None else [list(r) for r in rows]

    def note(self, text: str) -> None:
        self.lines.append(f"# {text}")

    def render(self) -> str:
        if self.config.fmt == "json":
            return json.dumps(self.obj, indent=2) + "\n"
        return "\n".join(self.lines) + "\n"


def _emit(doc: Document, output: str | None) -> None:
    text = doc.render()
    if output:
        Path(output).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)


def _frac_cols(x: Fraction) -> tuple[int, int]:
    return x.numerator, x.denominator


# -- subcommand bodies ---------------------------------------------------------------


def _cmd_field(cfg: RunConfig, degree: int, output) -> int:
    F = build_field(cfg.p, cfg.base_degree * degree)
    doc = Document(cfg)
    rows = [("p", F.p), ("degree", F.d), ("order", F.order),
            ("modulus", " ".join(str(c) for c in F.modulus)),
            ("generator_dlog", 1), ("canonical", F.canonical_text())]
    doc.section("field", "key,value", rows,
                json_rows={"p": F.p, "degree": F.d, "order": F.order,
                           "modulus": list(F.modulus),
                           "canonical": F.canonical_text()})
    _emit(doc, output)
    return 0


def _trace_rows(table):
    return [(i, num, table.denominator, int(flag))
            for i, (num, flag) in enumerate(zip(table.numerators,
                                                table.is_integer))]


_TRACE_HEADER = "t_index,numerator,denominator,is_integer"


def _cmd_traces(cfg: RunConfig, degree: int, output) -> int:
    table = trace_table(cfg.params(), degree, cache_dir=cfg.cache_dir)
    doc = Document(cfg)
    doc.note(f"field: {table.field_text}")
    rows = _trace_rows(table)
    doc.section(f"traces_degree_{degree}", _TRACE_HEADER, rows,
                json_rows={"degree": degree, "field": table.field_text,
                           "denominator": table.denominator,
                           "rows": [list(r) for r in rows]})
    _emit(doc, output)
    return 0 if table.integral else 1


def _moment_rows(report):
    rows = []
    for r in report.rows:
        rows.append((r.degree, r.field_order,
                     *_frac_cols(r.m1), *_frac_cols(r.m2), *_frac_cols(r.m3),
                     r.m3_target, f"{r.m3_deviation:.6f}", int(r.integral)))
    return rows


MOMENT_HEADER = ("degree,field_order,m1_num,m1_den,m2_num,m2_den,"
                 "m3_num,m3_den,m3_target,m3_deviation,integral")


def _cmd_moments(cfg: RunConfig, output) -> int:
    report = moment_report(cfg.params(), cfg.max_degree,
                           cache_dir=cfg.cache_dir)
    doc = Document(cfg)
    rows = _moment_rows(report)
    doc.section("moments", MOMENT_HEADER, rows)
    _emit(doc, output)
    return 0 if all(r.integral for r in report.rows) else 1


def _identity_rows(q: int):
    split = verify_identity_split(q)
    grouped = verify_identity_grouped(q)
    deriv = verify_derivative_steps(q)
    table = virtual_character_table(q)
    vc_ok = (table.weighted_sum() == q * q
             and (table.zero_zero, table.nonzero_zero, table.zero_nonzero,
                  table.both_nonzero) == (2 * q - 1, q - 1, q - 1, -1))
    rows = [
        ("split", int(split.ok),
         f"degree={split.degree} factors={split.factor_count} "
         f"mismatches={len(split.mismatches)}"),
        ("grouped", int(grouped.ok),
         f"factors={grouped.orbit_count} "
         f"degrees={'+'.join(str(d) for d in grouped.factor_degrees)} "
         f"mismatches={len(grouped.mismatches)}"),
        ("derivative", int(deriv.ok),
         f"deg={deriv.degree} expected={2 * q - 2}"),
        ("virtual_character", int(vc_ok),
         f"values={table.zero_zero}/{table.nonzero_zero}/"
         f"{table.zero_nonzero}/{table.both_nonzero} sum={table.weighted_sum()}"),
    ]
    reports = (split, grouped, deriv)
    return rows, reports, vc_ok


def _cmd_identity(cfg: RunConfig, q: int, output) -> int:
    rows, reports, vc_ok = _identity_rows(q)
    doc = Document(cfg)
    doc.section(f"identity_q_{q}", "check,ok,detail", rows)
    _emit(doc, output)
    try:
        for r in reports:
            require_ok(r)
    except IdentityFalsifiedError as exc:
        print(f"FALSIFIED: {exc}", file=sys.stderr)
        return 1
    return 0 if vc_ok else 1


def _wild_rows(q: int):
    report = wild_inertia_span(q)
    rows = [(q, report.field_degree, report.dimension, 2 * report.f,
             int(report.trace_zero_ok), int(report.coset_ok),
             int(report.direct_sum_ok), int(report.ok))]
    return rows, report


WILD_HEADER = ("q,field_degree,span_dimension,expected_dimension,"
               "trace_zero,coset_structure,direct_sum,ok")


def _cmd_wild(cfg: RunConfig, q: int, output) -> int:
    rows, report = _wild_rows(q)
    doc = Document(cfg)
    doc.section(f"wild_q_{q}", WILD_HEADER, rows)
    _emit(doc, output)
    if not report.ok:
        print(f"FALSIFIED: wild-inertia span for q={q}: {report}",
              file=sys.stderr)
        return 1
    return 0


def _groupstats_rows(m: int, regime: str, twist: str):
    stats = build_stats(m)
    dist = spectrum(stats, regime, twist)
    rows = [("prob", v, *_frac_cols(pr)) for v, pr in dist.items()]
    rows += [("moment", k, *_frac_cols(exact_moment(stats, k, regime, twist)))
             for k in (1, 2, 3)]
    return rows


def _cmd_groupstats(cfg: RunConfig, m: int, regime: str, twist: str,
                    output) -> int:
    doc = Document(cfg)
    doc.section(f"groupstats_m_{m}_{regime}_{twist}", "kind,key,num,den",
                _groupstats_rows(m, regime, twist))
    _emit(doc, output)
    return 0


def _cmd_curves(cfg: RunConfig, degree: int, output) -> int:
    count = count_points(cfg.params(), degree, budget=cfg.budget,
                         workers=cfg.threads)
    doc = Document(cfg)
    doc.note(f"field: {count.field_text}")
    rows = list(enumerate(count.counts))
    modified = modified_third_moment(cfg.params(), degree, count=count)
    doc.section(f"curves_degree_{degree}", "t_index,count", rows,
                json_rows={"degree": degree, "field": count.field_text,
                           "counts": list(count.counts),
                           "modified_m3": {"num": modified.numerator,
                                           "den": modified.denominator}})
    if cfg.fmt == "csv":
        doc.note(f"modified_m3: {modified.numerator}/{modified.denominator}")
    _emit(doc, output)
    return 0


def _verdict_rows(report):
    rows = []
    for r in report.rows:
        tv = "" if r.tv_distance is None else \
            f"{r.tv_distance.numerator}/{r.tv_distance.denominator}"
        mem = "" if r.membership_rate is None else \
            f"{r.membership_rate.numerator}/{r.membership_rate.denominator}"
        rows.append((r.degree, r.field_order, r.regime, r.twist,
                     int(r.integral), mem, len(r.offenders), tv,
                     *_frac_cols(r.m3), r.m3_target,
                     f"{r.m3_deviation:.6f}"))
    return rows


VERDICT_HEADER = ("degree,field_order,regime,twist,integral,membership,"
                  "offenders,tv,m3_num,m3_den,m3_target,m3_deviation")


def _human_verdict(report) -> str:
    lines = []
    for r in report.rows:
        tv = "n/a" if r.tv_distance is None else f"{float(r.tv_distance):.5f}"
        mem = "n/a" if r.membership_rate is None else \
            f"{float(100 * r.membership_rate):.1f}%"
        lines.append(
            f"degree {r.degree}: #L={r.field_order} {r.regime}/{r.twist} "
            f"integral={r.integral} membership={mem} tv={tv} "
            f"m3={float(r.m3):+.4f} target={r.m3_target:+d}")
    lines.append("PASS" if report.passed else
                 "FAIL\n" + "\n".join(f"  {f}" for f in report.failures))
    return "\n".join(lines)


def _cmd_compare(cfg: RunConfig, output) -> int:
    report = verdict(cfg.params(), cfg.max_degree, config=cfg.verdict_config(),
                     cache_dir=cfg.cache_dir)
    doc = Document(cfg)
    if cfg.fmt == "json":
        doc.obj["verdict"] = report.as_dict()
    else:
        doc.section("verdict", VERDICT_HEADER, _verdict_rows(report))
        doc.note(f"result: {'PASS' if report.passed else 'FAIL'}")
        for failure in report.failures:
            doc.note(f"failure: {failure}")
    _emit(doc, output)
    print(_human_verdict(report), file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_all(cfg: RunConfig, output) -> int:
    params = cfg.params()
    doc = Document(cfg)
    falsified: list[str] = []

    rows, reports, vc_ok = _identity_rows(params.q)
    doc.section(f"identity_q_{params.q}", "check,ok,detail", rows)
    if not (vc_ok and all(r.ok for r in reports)):
        falsified.append(f"identity checks failed for q={params.q}")

    wrows, wreport = _wild_rows(params.q)
    doc.section(f"wild_q_{params.q}", WILD_HEADER, wrows)
    if not wreport.ok:
        falsified.append(f"wild-inertia span failed for q={params.q}")

    for regime, twist in (("alt", "plain"), ("coset", "sgn")):
        doc.section(f"groupstats_m_{2 * params.q}_{regime}_{twist}",
                    "kind,key,num,den",
                    _groupstats_rows(2 * params.q, regime, twist))

    tables = {}
    for D in range(1, cfg.max_degree + 1):
        tables[D] = trace_table(params, D, cache_dir=cfg.cache_dir)
        doc.section(f"traces_degree_{D}", _TRACE_HEADER, _trace_rows(tables[D]))

    mreport = moment_report(params, cfg.max_degree, tables=tables)
    doc.section("moments", MOMENT_HEADER, _moment_rows(mreport))

    curve_header = ("degree,field_order,modified_num,modified_den,"
                    "empirical_num,empirical_den,bound,within")
    crows = []
    for D in range(1, cfg.max_degree + 1):
        try:
            _check_geometry(params, D, cfg.budget)
        except ValueError:  # F_q is not inside L, or #L is over the budget
            continue
        count = count_points(params, D, budget=cfg.budget,
                             workers=cfg.threads)
        doc.section(f"curves_degree_{D}", "t_index,count",
                    list(enumerate(count.counts)))
        cm = curve_moment_report(params, D, count=count, table=tables[D])
        crows.append((D, cm.field_order, *_frac_cols(cm.modified),
                      *_frac_cols(cm.empirical_m3), f"{cm.bound:.6f}",
                      int(cm.within_bound)))
        if not cm.within_bound:
            falsified.append(
                f"curve moment out of bound at degree {D}: "
                f"modified={cm.modified} empirical={cm.empirical_m3} "
                f"bound={cm.bound:.6f}")
    doc.section("curve_moments", curve_header, crows)

    report = verdict(params, cfg.max_degree, config=cfg.verdict_config(),
                     tables=tables)
    if cfg.fmt == "json":
        doc.obj["verdict"] = report.as_dict()
    else:
        doc.section("verdict", VERDICT_HEADER, _verdict_rows(report))
    doc.note(f"result: {'PASS' if report.passed and not falsified else 'FAIL'}")
    for failure in list(report.failures) + falsified:
        doc.note(f"failure: {failure}")
    if cfg.fmt == "json":
        doc.obj["passed"] = report.passed and not falsified
    _emit(doc, output)
    print(_human_verdict(report), file=sys.stderr)
    for failure in falsified:
        print(f"FALSIFIED: {failure}", file=sys.stderr)
    return 0 if report.passed and not falsified else 1


# -- argument parsing -------------------------------------------------------------------


def _add_common(sp):
    # defaults are None so a config file can be overridden only by flags
    # the user actually passed; RunConfig carries the real defaults
    sp.add_argument("--p", type=int, default=None, help="characteristic (default 3)")
    sp.add_argument("--f", type=int, default=None, help="q = p^f (default f=1)")
    sp.add_argument("--base-degree", type=int, default=None,
                    help="degree of the base field over F_p (default 1)")
    sp.add_argument("--multiplier", type=int, default=None,
                    help="additive-character multiplier c (default 1)")
    sp.add_argument("--max-degree", type=int, default=None,
                    help="largest extension degree (default 8)")
    sp.add_argument("--budget", type=int, default=None,
                    help="largest #L enumerated by the curve counter "
                         f"(default {DEFAULT_POINT_BUDGET})")
    sp.add_argument("--threads", type=int, default=None,
                    help="curve-enumeration worker threads; never affects output bytes")
    sp.add_argument("--cache-dir", default=None,
                    help=f"trace-table cache directory (env {CACHE_ENV})")
    sp.add_argument("--format", choices=("csv", "json"), default=None)
    sp.add_argument("--output", default=None, help="write here instead of stdout")
    sp.add_argument("--config", default=None,
                    help="JSON config file; explicit flags override it")
    sp.add_argument("--tv-max", type=float, default=None)
    sp.add_argument("--m3-tol", type=float, default=None)
    sp.add_argument("--m3-min-order", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altsums",
        description="Exact trace statistics of rigid local systems over "
                    "finite-field towers")
    parser.add_argument("--version", action="version",
                        version=f"altsums {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
            ("field", "canonical field construction"),
            ("traces", "exact normalized traces at one extension degree"),
            ("moments", "exact moments per degree"),
            ("curves", "curve point counts at one extension degree"),
            ("compare", "trace tables against group-oracle spectra"),
            ("all", "full pipeline: identities, spans, traces, curves, verdict")]:
        sp = sub.add_parser(name, help=help_text)
        _add_common(sp)
        if name in ("field", "traces", "curves"):
            sp.add_argument("--degree", type=int, required=(name != "field"),
                            default=1)

    for name, help_text in [
            ("identity", "split/grouped polynomial identity and derivative steps"),
            ("wild", "span of roots of unity (wild-inertia image)")]:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--q", type=int, required=True, help="odd prime power")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--output", default=None)

    sp = sub.add_parser("groupstats", help="exact spectra and moments of "
                                           "the deleted-permutation character")
    sp.add_argument("--m", type=int, required=True, help="symmetric group degree")
    sp.add_argument("--regime", choices=REGIMES, default="alt")
    sp.add_argument("--twist", choices=TWISTS, default="plain")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--output", default=None)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.load(args.config) if getattr(args, "config", None) \
        else RunConfig()
    overrides = {}
    for field_name, arg_name in [
            ("p", "p"), ("f", "f"), ("base_degree", "base_degree"),
            ("multiplier", "multiplier"), ("max_degree", "max_degree"),
            ("budget", "budget"), ("threads", "threads"), ("fmt", "format"),
            ("tv_max", "tv_max"), ("m3_tol", "m3_tol"),
            ("m3_min_order", "m3_min_order")]:
        value = getattr(args, arg_name, None)
        if value is not None:
            overrides[field_name] = value
    cache = getattr(args, "cache_dir", None) or os.environ.get(CACHE_ENV)
    if cache:
        overrides["cache_dir"] = cache
    return replace(cfg, **overrides)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command in ("identity", "wild"):
            qp, qf = factor_prime_power(args.q)
            cfg = RunConfig(p=qp, f=qf, fmt=args.format)
            if args.command == "identity":
                return _cmd_identity(cfg, args.q, args.output)
            return _cmd_wild(cfg, args.q, args.output)
        if args.command == "groupstats":
            cfg = RunConfig(fmt=args.format)
            return _cmd_groupstats(cfg, args.m, args.regime, args.twist,
                                   args.output)

        cfg = config_from_args(args)
        cfg.params()  # validate p, f, multiplier now, as a usage error
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "field":
            return _cmd_field(cfg, args.degree, args.output)
        if args.command == "traces":
            return _cmd_traces(cfg, args.degree, args.output)
        if args.command == "moments":
            return _cmd_moments(cfg, args.output)
        if args.command == "curves":
            return _cmd_curves(cfg, args.degree, args.output)
        if args.command == "compare":
            return _cmd_compare(cfg, args.output)
        if args.command == "all":
            return _cmd_all(cfg, args.output)
    except (NonRationalTraceError, IdentityFalsifiedError) as exc:
        print(f"FALSIFIED: {exc}", file=sys.stderr)
        return 1
    except CacheCorruptionError as exc:
        print(f"usage error: corrupt trace cache file {exc}; "
              "delete it to recompute", file=sys.stderr)
        return 2
    except (ValueError, BudgetExceededError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
