"""Command-line surface tying the modules into reproducible pipelines.

Every emitted document starts with the tool version and the effective
configuration.  The echo excludes the cache directory: output depends on no
cache state, so a run with no cache, on an empty one or on a filled one
writes the same bytes.

Exit codes, which `main` alone assigns from what the command returns or
raises: 0 = all checks passed, 1 = a falsified invariant, such as a trace or
curve moment that is not rational (the counterexample is printed), 2 = usage
error: invalid parameters, a budget exceeded, a file that cannot be read or
written, or a trace cache file that fails its checks (the message names the
file; delete it to recompute).  The process entry, `entry`, runs `main`, then
freezes the heap.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from collections import namedtuple
from collections.abc import Iterator
from contextlib import nullcontext
from fractions import Fraction
from itertools import chain

from . import __version__
from .curves import DEFAULT_POINT_BUDGET, NonRationalMomentError, count_points, countable
from .fields import _Checked, factor_prime_power
from .groups import REGIMES, TWISTS, exact_moment, spectrum
from .identities import (
    IdentityFalsifiedError,
    require_ok,
    verify_derivative_steps,
    verify_identity_grouped,
    verify_identity_split,
    wild_inertia_span,
)
from .traces import (
    CacheCorruptionError,
    NonRationalTraceError,
    SystemParams,
    trace_table,
    trace_tables,
)
from .verdict import VerdictConfig, moment_report, verdict


# Each RunConfig field, in order, with its default.
RUN_FIELDS = {"p": 3, "f": 1, **SystemParams._field_defaults, "max_degree": 8,
              "budget": DEFAULT_POINT_BUDGET, "cache_dir": None, "fmt": "csv",
              **VerdictConfig._field_defaults}


class RunConfig(_Checked, namedtuple("RunConfig", list(RUN_FIELDS),
                                     defaults=list(RUN_FIELDS.values()))):
    """Full invocation state, as the run flags set it (argparse types each
    one).  Validated by the constructor, `_make` and `_replace` alike."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RunConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.max_degree < 1 or self.budget < 1:
            raise ValueError("degrees and budgets are positive")
        self.verdict_config().check()
        return self

    def params(self) -> SystemParams:
        return SystemParams(*(getattr(self, name) for name in SystemParams._fields))

    def verdict_config(self) -> VerdictConfig:
        return VerdictConfig(*(getattr(self, name) for name in VerdictConfig._fields))

    def echo(self) -> str:
        """Output-identity string: everything that may influence results."""
        return " ".join(f"{'format' if k == 'fmt' else k}={v}"
                        for k, v in self.echo_dict().items())

    def echo_dict(self) -> dict:
        """The fields that may influence results: all but cache_dir."""
        d = self._asdict()
        del d["cache_dir"]
        return d


# -- document assembly ------------------------------------------------------------


EMIT_BATCH = 1 << 16  # characters gathered into one write
ROW_BLOCK = 1024  # rows per %-format: a long table is never rendered whole
# every is_integer and integral cell, JSON's too: traces._table makes only integral
# tables, so it is constant, kept for bench/reference.json until ROADMAP item 6
INTEGRAL = 1


class Rows(namedtuple("Rows", "item columns")):
    """A long table: a row per index of the `columns` (equal-length int
    sequences), shaped as `item`, whose "%d" strings take the columns in turn."""

    __slots__ = ()

    def blocks(self, row: str = "", start: int = 0) -> Iterator[str]:
        """The %-format `row` (by default the CSV line of `item`) filled in
        for each row from `start` on, ROW_BLOCK rows per string."""
        row = row or ",".join(map(str, self.item)) + "\n"
        m = len(self.columns)
        for s in range(start, len(self.columns[0]), ROW_BLOCK):
            part = [c[s:s + ROW_BLOCK] for c in self.columns]
            flat = [0] * (len(part[0]) * m)
            for j, c in enumerate(part):  # Python ints %-format faster
                flat[j::m] = c.tolist() if hasattr(c, "tolist") else c
            yield (row * len(part[0])) % tuple(flat)


def _json_chunks(value, level: int = 0):
    """json.dumps(value, indent=2) nested `level` deep, in pieces: a dict (str
    keys) key by key, a Rows list a block of rows at a time."""
    import json  # here only: a CSV run never loads it

    pad = "\n" + "  " * level
    if isinstance(value, Rows) and len(value.columns[0]):
        item = json.dumps(value.item, indent=2).replace('"%d"', "%d")
        row = "," + pad + "  " + item.replace("\n", pad + "  ")
        yield "[" + row[1:] % tuple(c[0] for c in value.columns)  # no comma before row 0
        yield from value.blocks(row, 1)
        yield pad + "]"
    elif isinstance(value, dict) and value:
        for i, (key, v) in enumerate(value.items()):
            yield f"{',' if i else '{'}{pad}  {json.dumps(key)}: "
            yield from _json_chunks(v, level + 1)
        yield pad + "}"
    else:  # an empty Rows is an empty list
        yield "[]" if isinstance(value, Rows) else \
            json.dumps(value, indent=2).replace("\n", pad)


class Document:
    """The document of one command in the format `config.fmt` names: CSV
    text, an iterator of lines or blocks per section, or one JSON object.
    Notes are CSV comments; JSON drops them.  `_emit` writes it."""

    def __init__(self, config: RunConfig):
        self.json = config.fmt == "json"
        self.parts: list = []
        self.obj: dict = {}
        if self.json:
            self.obj.update(version=__version__, config=config.echo_dict())
        else:
            self.note(f"altsums {__version__} | config: {config.echo()}")

    def section(self, name: str, header: str, rows, json_rows=None) -> None:
        """A table of column tuples or Rows; JSON writes `json_rows`, else the
        rows.  Either format renders the rows while the document is written."""
        if self.json:
            self.obj[name] = rows if json_rows is None else json_rows
        else:
            lines = rows.blocks() if isinstance(rows, Rows) else \
                (",".join(map(str, row)) + "\n" for row in rows)
            self.parts.append(chain((f"# section: {name}\n{header}\n",), lines))

    def note(self, text: str) -> None:
        if not self.json:
            self.parts.append((f"# {text}\n",))

    def chunks(self):
        if self.json:  # the same text as json.dumps(obj, indent=2)
            yield from _json_chunks(self.obj)
            yield "\n"
        else:
            for part in self.parts:
                yield from part


def _emit(doc: Document, output: str | None) -> None:
    """Write the document EMIT_BATCH characters or more at a time: its text
    never exists whole, and a write-through stdout is not written per piece."""
    with (open(output, "w", encoding="ascii") if output
          else nullcontext(sys.stdout)) as out:
        text = ""
        for chunk in doc.chunks():
            text += chunk
            if len(text) >= EMIT_BATCH:
                out.write(text)
                text = ""
        out.write(text)


_Frac = namedtuple("_Frac", "num den")  # CSV columns; _asdict() is the JSON object


def _frac(x: Fraction) -> _Frac:
    return _Frac(x.numerator, x.denominator)


# -- subcommand bodies ---------------------------------------------------------------


def _cmd_field(cfg: RunConfig, args) -> int:
    F = cfg.params().extension(args.degree)  # refuses a bad p, f or multiplier
    doc = Document(cfg)
    rows = [("p", F.p), ("degree", F.d), ("order", F.order),
            ("modulus", " ".join(str(c) for c in F.modulus)),
            ("generator_dlog", 1), ("canonical", F.canonical_text())]
    doc.section("field", "key,value", rows,
                json_rows={"p": F.p, "degree": F.d, "order": F.order,
                           "modulus": list(F.modulus),
                           "canonical": F.canonical_text()})
    _emit(doc, args.output)
    return 0


TRACE_HEADER = "t_index,numerator,denominator,is_integer"


def _trace_rows(table) -> Rows:
    """The TRACE_HEADER rows of a trace table."""
    return Rows(["%d", "%d", table.denominator, INTEGRAL],
                (range(table.denominator), table.numerators))


def _cmd_traces(cfg: RunConfig, args) -> int:
    table = trace_table(cfg.params(), args.degree, cache_dir=cfg.cache_dir)
    rows = _trace_rows(table)  # one numerators array, whichever format
    doc = Document(cfg)
    doc.note(f"field: {table.field_text}")
    doc.section(f"traces_degree_{args.degree}", TRACE_HEADER, rows,
                {"degree": args.degree, "field": table.field_text,
                 "denominator": table.denominator, "rows": rows})
    _emit(doc, args.output)
    return 0


def _moment_rows(rows):
    """The CSV rows of MomentRows, or of the VerdictRows that extend them."""
    return [(r.degree, r.field_order, *_frac(r.m1), *_frac(r.m2),
             *_frac(r.m3), r.m3_target, f"{r.m3_deviation:.6f}", INTEGRAL)
            for r in rows]


MOMENT_HEADER = ("degree,field_order,m1_num,m1_den,m2_num,m2_den,"
                 "m3_num,m3_den,m3_target,m3_deviation,integral")


def _cmd_moments(cfg: RunConfig, args) -> int:
    params = cfg.params()
    rows = moment_report(params, trace_tables(params, cfg.max_degree,
                                              cache_dir=cfg.cache_dir))
    doc = Document(cfg)
    doc.section("moments", MOMENT_HEADER, _moment_rows(rows))
    _emit(doc, args.output)
    return 0


def _identity_rows(q: int):
    split = verify_identity_split(q)
    grouped = verify_identity_grouped(q)
    deriv = verify_derivative_steps(q)
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
        # 2 Reg - 1 on F_q + F_q by vanishing pattern, summing to q^2 for
        # every q (identities docstring): constant, so its ok cell is too
        ("virtual_character", 1,
         f"values={2 * q - 1}/{q - 1}/{q - 1}/-1 sum={q * q}"),
    ]
    return rows, (split, grouped, deriv)


def _cmd_identity(cfg: RunConfig, args) -> int:
    rows, reports = _identity_rows(args.q)
    doc = Document(cfg)
    doc.section(f"identity_q_{args.q}", "check,ok,detail", rows)
    _emit(doc, args.output)
    for r in reports:
        require_ok(r)
    return 0


def _wild_rows(q: int):
    report = wild_inertia_span(q)
    rows = [(q, report.field_degree, report.dimension, 2 * report.f,
             int(report.trace_zero_ok), int(report.coset_ok),
             int(report.direct_sum_ok), int(report.ok))]
    return rows, report


WILD_HEADER = ("q,field_degree,span_dimension,expected_dimension,"
               "trace_zero,coset_structure,direct_sum,ok")


def _cmd_wild(cfg: RunConfig, args) -> int:
    rows, report = _wild_rows(args.q)
    doc = Document(cfg)
    doc.section(f"wild_q_{args.q}", WILD_HEADER, rows)
    _emit(doc, args.output)
    if not report.ok:
        raise IdentityFalsifiedError(
            f"wild-inertia span for q={args.q}: {report}")
    return 0


def _order_too_long(m: int, regime: str) -> bool:
    """Whether the largest denominator of the exact probabilities, m! (m!/2
    for alt and coset), has more digits than CPython converts to text."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: none
    if limit == 0:
        return False
    bound = 10**limit if regime == "sym" else 2 * 10**limit
    order = 1
    for k in range(2, m + 1):
        order *= k
        if order >= bound:
            return True
    return False


def _refuse_unprintable(m: int, regime: str) -> None:
    """Refuse an m that `_order_too_long` finds, before anything is computed:
    groupstats prints the spectrum of m, compare and all (m = 2q) print the
    Alt(2q) and odd-coset spectra or a TV distance with their denominators."""
    if _order_too_long(m, regime):
        raise ValueError(
            f"m = {m}: the exact probabilities' denominators have more than "
            f"{sys.get_int_max_str_digits()} digits, CPython's limit for "
            "converting an int to text")


def _groupstats_rows(m: int, regime: str, twist: str):
    rows = [("prob", v, *_frac(pr))
            for v, pr in spectrum(m, regime, twist).items()]
    rows += [("moment", k, *_frac(exact_moment(m, k, regime, twist)))
             for k in (1, 2, 3)]
    return rows


def _cmd_groupstats(cfg: RunConfig, args) -> int:
    m, regime, twist = args.m, args.regime, args.twist
    _refuse_unprintable(m, regime)
    doc = Document(cfg)
    doc.section(f"groupstats_m_{m}_{regime}_{twist}", "kind,key,num,den",
                _groupstats_rows(m, regime, twist))
    _emit(doc, args.output)
    return 0


COUNT_HEADER = "t_index,count"


def _count_rows(counts):
    return Rows(["%d", "%d"], (range(len(counts)), counts))


def _cmd_curves(cfg: RunConfig, args) -> int:
    degree = args.degree
    count = count_points(cfg.params(), degree, budget=cfg.budget)
    doc = Document(cfg)
    doc.note(f"field: {count.field_text}")
    modified, counts = _frac(count.modified), count.counts  # rendered once
    doc.section(f"curves_degree_{degree}", COUNT_HEADER, _count_rows(counts),
                {"degree": degree, "field": count.field_text,
                 "counts": Rows("%d", (counts,)),
                 "modified_m3": modified._asdict()})
    doc.note("modified_m3: %d/%d" % modified)
    _emit(doc, args.output)
    return 0


def _verdict_rows(report):
    return [(r.degree, r.field_order, r.regime, r.twist, INTEGRAL,
             "%d/%d" % _frac(r.membership_rate), len(r.offenders),
             "%d/%d" % _frac(r.tv_distance), *_frac(r.m3),
             r.m3_target, f"{r.m3_deviation:.6f}")
            for r in report.rows]


VERDICT_HEADER = ("degree,field_order,regime,twist,integral,membership,"
                  "offenders,tv,m3_num,m3_den,m3_target,m3_deviation")


def _human_verdict(report) -> str:
    lines = []
    for r in report.rows:
        lines.append(
            f"degree {r.degree}: #L={r.field_order} {r.regime}/{r.twist} "
            f"integral={bool(INTEGRAL)} membership="
            f"{float(100 * r.membership_rate):.1f}% tv={float(r.tv_distance):.5f} "
            f"m3={float(r.m3):+.4f} target={r.m3_target:+d}")
    lines.append("PASS" if report.passed else
                 "FAIL\n" + "\n".join(f"  {f}" for f in report.failures))
    return "\n".join(lines)


def _verdict_json(report) -> dict:
    """The verdict's JSON object, in the key order bench/reference.json pins."""
    params = report.params
    return {
        "params": {**params._asdict(), "q": params.q, "n": params.n},
        "max_degree": report.max_degree,
        "config": report.config._asdict(),
        "rows": [{"degree": r.degree, "field_order": r.field_order,
                  "regime": r.regime, "twist": r.twist,
                  "integral": bool(INTEGRAL),
                  "membership_rate": _frac(r.membership_rate)._asdict(),
                  "offender_count": len(r.offenders),
                  "offenders": [list(o) for o in r.offenders[:10]],
                  "tv_distance": _frac(r.tv_distance)._asdict(),
                  "m1": _frac(r.m1)._asdict(), "m2": _frac(r.m2)._asdict(),
                  "m3": _frac(r.m3)._asdict(), "m3_target": r.m3_target,
                  "m3_deviation": r.m3_deviation}
                 for r in report.rows],
        "passed": report.passed,
        "failures": list(report.failures),
    }


def _report_verdict(doc: Document, report, args, falsified=None) -> int:
    """End compare, or all with its `falsified` list (and JSON "passed"):
    write the verdict and the document, then stderr; 0 if all passed, else 1."""
    passed = report.passed and not falsified
    if doc.json:
        doc.obj["verdict"] = _verdict_json(report)
        if falsified is not None:
            doc.obj["passed"] = passed
    else:
        doc.section("verdict", VERDICT_HEADER, _verdict_rows(report))
    doc.note(f"result: {'PASS' if passed else 'FAIL'}")
    for failure in [*report.failures, *(falsified or ())]:
        doc.note(f"failure: {failure}")
    _emit(doc, args.output)
    print(_human_verdict(report), file=sys.stderr)
    for failure in falsified or ():
        print(f"FALSIFIED: {failure}", file=sys.stderr)
    return 0 if passed else 1


def _cmd_compare(cfg: RunConfig, args) -> int:
    params = cfg.params()
    _refuse_unprintable(2 * params.q, "alt")
    tables = trace_tables(params, cfg.max_degree, cache_dir=cfg.cache_dir)
    report = verdict(params, tables, config=cfg.verdict_config())
    return _report_verdict(Document(cfg), report, args)


def _cmd_all(cfg: RunConfig, args) -> int:
    params = cfg.params()
    _refuse_unprintable(2 * params.q, "alt")
    doc = Document(cfg)
    falsified: list[str] = []

    rows, reports = _identity_rows(params.q)
    doc.section(f"identity_q_{params.q}", "check,ok,detail", rows)
    if not all(r.ok for r in reports):
        falsified.append(f"identity checks failed for q={params.q}")

    wrows, wreport = _wild_rows(params.q)
    doc.section(f"wild_q_{params.q}", WILD_HEADER, wrows)
    if not wreport.ok:
        falsified.append(f"wild-inertia span failed for q={params.q}")

    for regime, twist in (("alt", "plain"), ("coset", "sgn")):
        doc.section(f"groupstats_m_{2 * params.q}_{regime}_{twist}",
                    "kind,key,num,den",
                    _groupstats_rows(2 * params.q, regime, twist))

    tables, counts = {}, {}
    for D in params.degrees(cfg.max_degree):  # each level built once, here
        L = params.extension(D)
        tables[D] = trace_table(params, D, cache_dir=cfg.cache_dir, field=L)
        doc.section(f"traces_degree_{D}", TRACE_HEADER, _trace_rows(tables[D]))
        if countable(params, D, cfg.budget):
            counts[D] = count_points(params, D, budget=cfg.budget, field=L)
        del L  # no table or count keeps L: the next level is built without it

    report = verdict(params, tables, config=cfg.verdict_config())
    doc.section("moments", MOMENT_HEADER, _moment_rows(report.rows))

    curve_header = ("degree,field_order,modified_num,modified_den,"
                    "empirical_num,empirical_den,bound,within")
    crows = []
    for D, count in counts.items():
        doc.section(f"curves_degree_{D}", COUNT_HEADER, _count_rows(count.counts))
        m3 = report.rows[D - 1].m3
        # q / sqrt(#L), and |modified - M3| within it: printed, read by no check
        bound = params.q / math.sqrt(count.field_order)
        crows.append((D, count.field_order, *_frac(count.modified), *_frac(m3),
                      f"{bound:.6f}", int(abs(float(count.modified - m3)) <= bound)))
        if count.modified != m3:  # equal exactly, as the curves docstring proves
            falsified.append(f"curve moment differs from M3 at degree {D}: "
                             f"modified={count.modified} empirical={m3}")
    doc.section("curve_moments", curve_header, crows)
    return _report_verdict(doc, report, args, falsified)


# -- argument parsing -------------------------------------------------------------------


DEGREE = {"type": int, "required": True}
Q = {"type": int, "required": True, "help": "odd prime power"}

# name: (body, help, whether it takes the run flags, its own flags)
COMMANDS = {
    "field": (_cmd_field, "canonical field construction", True,
              {"--degree": {"type": int, "default": 1}}),
    "traces": (_cmd_traces, "exact normalized traces at one extension degree",
               True, {"--degree": DEGREE}),
    "moments": (_cmd_moments, "exact moments per degree", True, {}),
    "curves": (_cmd_curves, "curve point counts at one extension degree",
               True, {"--degree": DEGREE}),
    "compare": (_cmd_compare, "trace tables against group-oracle spectra",
                True, {}),
    "all": (_cmd_all, "full pipeline: identities, spans, traces, curves, "
                      "verdict", True, {}),
    "identity": (_cmd_identity, "split/grouped polynomial identity and "
                                "derivative steps", False, {"--q": Q}),
    "wild": (_cmd_wild, "span of roots of unity (wild-inertia image)", False,
             {"--q": Q}),
    "groupstats": (_cmd_groupstats, "exact spectra and moments of the "
                                    "deleted-permutation character", False,
                   {"--m": {"type": int, "required": True,
                            "help": "symmetric group degree"},
                    "--regime": {"choices": REGIMES, "default": "alt"},
                    "--twist": {"choices": TWISTS, "default": "plain"}}),
}


def build_parser() -> argparse.ArgumentParser:
    return _parser(COMMANDS)


def _parser(names) -> argparse.ArgumentParser:
    """The parser of the commands `names`; its usage lists all nine, so no
    text depends on which it builds.  Each flag's dest is the RunConfig field
    it sets; a default of None leaves that field to RunConfig's default."""
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--format", dest="fmt", choices=("csv", "json"))
    io.add_argument("--output", help="write here instead of stdout")
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--p", type=int, help="characteristic (default 3)")
    run.add_argument("--f", type=int, help="q = p^f (default f=1)")
    run.add_argument("--base-degree", type=int,
                     help="degree of the base field over F_p (default 1)")
    run.add_argument("--multiplier", type=int,
                     help="psi multiplier c, nonzero mod p (default 1): it "
                          "labels the run and changes no number")
    run.add_argument("--max-degree", type=int,
                     help="largest extension degree (default 8)")
    run.add_argument("--budget", type=int,
                     help="largest #L whose fiber curves are counted "
                          f"(default {DEFAULT_POINT_BUDGET})")
    run.add_argument("--cache-dir", help="trace-table cache directory")
    run.add_argument("--tv-max", type=float)
    run.add_argument("--m3-tol", type=float)
    run.add_argument("--m3-min-order", type=int)

    parser = argparse.ArgumentParser(
        prog="altsums",
        description="Exact trace statistics of rigid local systems over "
                    "finite-field towers")
    parser.add_argument("--version", action="version",
                        version=f"altsums {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar=(
        None if len(names) == len(COMMANDS) else "{%s}" % ",".join(COMMANDS)))
    for name in names:
        _, help_text, run_flags, own = COMMANDS[name]
        sp = sub.add_parser(name, help=help_text,
                            parents=[run, io] if run_flags else [io])
        for flag, kwargs in own.items():
            sp.add_argument(flag, **kwargs)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The RunConfig of the flags given, with RunConfig's defaults for the
    rest; identity and wild echo q = p^f as p and f."""
    given = {name: getattr(args, name) for name in RunConfig._fields
             if getattr(args, name, None) is not None}
    if getattr(args, "q", None) is not None:
        given["p"], given["f"] = factor_prime_power(args.q)
    return RunConfig(**given)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:  # only the named command's parser, when argv starts with one
        args = _parser(COMMANDS.keys() & argv[:1] or COMMANDS).parse_args(argv)
        return COMMANDS[args.command][0](config_from_args(args), args)
    except SystemExit as exc:  # argparse: --help, --version or a usage error
        return int(exc.code or 0)
    except (NonRationalTraceError, NonRationalMomentError,
            IdentityFalsifiedError) as exc:
        print(f"FALSIFIED: {exc}", file=sys.stderr)
        return 1
    except CacheCorruptionError as exc:
        print(f"usage error: corrupt trace cache file {exc}; "
              "delete it to recompute", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, OSError) as exc:  # BudgetExceededError included
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def entry() -> int:
    """`main`, then a frozen heap: exit-time collections have nothing to walk."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
