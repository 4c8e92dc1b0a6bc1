"""Checks for the command-line surface: run configs, exit codes,
output shapes, header comments, and byte determinism across cache states."""

import hashlib
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import altsums
from altsums import __version__, characters, cli, curves, fields, groups, traces
from altsums.cli import (EMIT_BATCH, RunConfig, _order_too_long,
                         build_parser, config_from_args, main)
from altsums.groups import REGIMES
from altsums.characters import CharacterContext
from altsums.fields import FieldDescriptor, build_field
from altsums.traces import SystemParams, trace_table
from altsums.verdict import MembershipResult, VerdictConfig


# -- RunConfig --------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(max_degree=0)
    with pytest.raises(ValueError):
        RunConfig(budget=0)
    with pytest.raises(ValueError):
        RunConfig(tv_max=math.nan)
    assert RunConfig(tv_max=0, m3_tol=0.0).tv_max == 0  # zero bounds are allowed


def test_echo_excludes_threads_and_cache_dir():
    a = RunConfig(cache_dir=None)
    b = RunConfig(cache_dir="/tmp/x")
    assert a.echo() == b.echo()
    assert a.echo_dict() == b.echo_dict()
    assert "cache" not in a.echo()
    assert "threads" not in RunConfig._fields  # no thread count to echo


def test_threads_is_a_usage_error(capsys):
    """--threads is gone: the library starts no threads, and it never
    changed an output byte."""
    assert main(["all", "--p", "3", "--max-degree", "2", "--threads", "2"]) == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["field"], ["traces", "--degree", "1"],
                                  ["moments"], ["curves", "--degree", "1"],
                                  ["compare"], ["all"]], ids=lambda a: a[0])
def test_config_file_is_a_usage_error(tmp_path, capsys, argv):
    """Argv is the only source of run settings: --config is no flag."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"max_degree": 2}))
    assert main([*argv, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: --config {path}" in captured.err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_config_file_and_flags_echo_the_same_tolerances(tmp_path, capsys, fmt):
    """An int given to a tolerance flag parses to a float and echoes as one."""
    argv = ["moments", "--max-degree", "1", "--format", fmt,
            "--cache-dir", str(tmp_path), "--tv-max", "1", "--m3-tol", "0"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    if fmt == "csv":
        assert " tv_max=1.0 m3_tol=0.0 " in out.split("\n")[0]
    else:
        assert '"tv_max": 1.0,' in out and '"m3_tol": 0.0,' in out


def test_cache_env_fallback(tmp_path, monkeypatch, capsys):
    """Only --cache-dir names a cache: with ALTSUMS_CACHE_DIR set and no
    flag, a run falls back to recomputing, writes no cache file and the
    same bytes; with the flag, the flag's path is the cache."""
    argv = ["all", "--p", "3", "--max-degree", "3"]
    assert main(argv) == 0
    unset = capsys.readouterr().out
    monkeypatch.setenv("ALTSUMS_CACHE_DIR", str(tmp_path))
    parser = build_parser()
    assert config_from_args(parser.parse_args(argv)).cache_dir is None
    assert main(argv) == 0
    assert capsys.readouterr().out == unset
    assert list(tmp_path.iterdir()) == []
    monkeypatch.setenv("ALTSUMS_CACHE_DIR", "/elsewhere")
    cfg = config_from_args(parser.parse_args(argv + ["--cache-dir", str(tmp_path)]))
    assert cfg.cache_dir == str(tmp_path)


def test_cache_populated_under_env(tmp_path, monkeypatch):
    """With ALTSUMS_CACHE_DIR set, the cache --cache-dir names is filled and
    the variable's directory is left empty."""
    env_dir, flag_dir = tmp_path / "env", tmp_path / "flag"
    env_dir.mkdir()
    flag_dir.mkdir()
    monkeypatch.setenv("ALTSUMS_CACHE_DIR", str(env_dir))
    assert main(["traces", "--p", "3", "--f", "1", "--degree", "1",
                 "--cache-dir", str(flag_dir),
                 "--output", str(tmp_path / "o.csv")]) == 0
    assert len(list(flag_dir.glob("altsums_trace_*.csv"))) == 1
    assert list(env_dir.iterdir()) == []


# -- exit codes --------------------------------------------------------------------


def test_usage_errors_exit_two(capsys):
    assert main(["traces"]) == 2                    # missing --degree
    assert main(["nonsense"]) == 2                  # unknown subcommand
    assert main(["traces", "--p", "4", "--degree", "1"]) == 2   # composite p
    assert main(["identity", "--q", "12"]) == 2     # not a prime power
    assert main(["curves", "--p", "3", "--degree", "8"]) == 2   # over budget
    capsys.readouterr()


def assert_one_usage_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert captured.err.count("\n") == 1
    return captured.err


def test_curves_over_budget_exits_two_without_building_the_field(
        monkeypatch, capsys):
    # every field, memoized or not, goes through the constructor
    real = FieldDescriptor.__init__

    def small_fields_only(self, p, d):
        if p**d > 4096:
            raise AssertionError(f"built F_{p}^{d}")
        real(self, p, d)

    monkeypatch.setattr(FieldDescriptor, "__init__", small_fields_only)
    assert main(["curves", "--p", "3", "--degree", "10"]) == 2
    assert assert_one_usage_error(capsys) == \
        "usage error: #L = 59049 exceeds the point-count budget 4096\n"


@pytest.mark.parametrize("command", ["moments", "compare", "all"])
def test_over_budget_tower_exits_two_before_the_kernel_runs(
        monkeypatch, capsys, command):
    """11^7 is over the table budget; degrees 1-6 (15 s) are not computed."""
    calls = []
    real = traces._trace_numerators

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(traces, "_trace_numerators", counted)
    assert main([command, "--p", "11", "--max-degree", "7"]) == 2
    assert assert_one_usage_error(capsys) == \
        "usage error: p^d = 11^7 exceeds the table budget 16777216\n"
    assert calls == []


def test_a_table_breaking_the_sum_rules_exits_one(monkeypatch, capsys):
    real = traces._trace_numerators

    def negated(params, L):  # M1 = 0 no longer holds
        nums = real(params, L)
        nums[1] = -nums[1]
        return nums

    monkeypatch.setattr(traces, "_trace_numerators", negated)
    assert main(["traces", "--p", "3", "--degree", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("FALSIFIED: sum rules fail over p=3 d=2 "
                            "modulus=[2,1,1]: M1 = 2/9 and M2 = 8/9, not 0 "
                            "and 8/9\n")


def test_a_wrong_gauss_sign_is_seen_only_by_spectrum_membership(monkeypatch, capsys):
    """-conj(A) with the wrong sign negates every table: integrality, the
    sum rules and Frobenius invariance still hold, so the tables are made.
    Only membership sees it: negated values leave the fix - 1 spectrum at
    3^2..3^4 (at 3^1, T = (-1, 1, 0) negated stays inside it)."""
    right = trace_table(SystemParams(3, 1), 4)
    real = traces._gauss_unit
    monkeypatch.setattr(traces, "_gauss_unit", lambda p, d: -real(p, d))
    assert np.array_equal(trace_table(SystemParams(3, 1), 4).values, -right.values)
    assert main(["compare", "--p", "3", "--max-degree", "4"]) == 1
    captured = capsys.readouterr()
    assert "FALSIFIED" not in captured.err
    assert re.findall(r"^# failure: degree (\d+): \d+ trace value\(s\) outside",
                      captured.out, re.M) == ["2", "3", "4"]


@pytest.mark.parametrize("argv", [["traces", "--p", "3", "--degree", "3"],
                                  ["compare", "--p", "3", "--max-degree", "4"],
                                  ["all", "--p", "3", "--max-degree", "4"]],
                         ids=lambda a: a[0])
def test_a_non_integer_kernel_trace_exits_one(monkeypatch, capsys, argv):
    """One kernel numerator 1 off a multiple of #L at 3^3: no table is made,
    so the run exits 1 with one FALSIFIED line, before any document."""
    real = traces._trace_numerators

    def plus_one(params, L):
        nums = real(params, L)
        if L.order == 27:
            nums[7] += 1
        return nums

    monkeypatch.setattr(traces, "_trace_numerators", plus_one)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    falsified = [line for line in captured.err.splitlines()
                 if line.startswith("FALSIFIED: ")]
    assert falsified == ["FALSIFIED: non-integer trace at t_index=7 over "
                         f"{build_field(3, 3).canonical_text()}"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [["all", "--p", "5", "--max-degree", "2"],
                                  ["curves", "--p", "5", "--degree", "1"]],
                         ids=lambda a: a[0])
def test_a_non_rational_curve_moment_exits_one(monkeypatch, capsys, argv):
    """A doctored fiber count makes the curve moment irrational: exit 1 with
    one FALSIFIED line and no traceback, and nothing on stdout."""
    real = curves.modified_third_moment

    def doctored(L, counts):
        counts = counts.copy()
        counts[2] += 1
        return real(L, counts)

    monkeypatch.setattr(curves, "modified_third_moment", doctored)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    falsified = [line for line in captured.err.splitlines()
                 if line.startswith("FALSIFIED: ")]
    assert falsified == ["FALSIFIED: curve-weighted sum is not rational over "
                         f"{build_field(5, 1).canonical_text()}"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("budget, counted", [(81, [2, 4]), (80, [2])])
def test_all_counts_the_levels_count_points_accepts(capsys, budget, counted):
    """q = 9: only the even degrees hold F_9, and --budget caps #L."""
    assert main(["all", "--p", "3", "--f", "2", "--max-degree", "4",
                 "--budget", str(budget)]) == 0
    out = capsys.readouterr().out
    assert re.findall(r"^# section: curves_degree_(\d+)$", out, re.M) == \
        [str(D) for D in counted]


@pytest.mark.parametrize("argv, p", [
    (["all", "--p", "5", "--base-degree", "2", "--max-degree", "2"], 5),
    (["all", "--p", "7", "--max-degree", "3"], 7)], ids=["5^2", "7"])
def test_the_multiplier_changes_nothing_but_its_echo(capsys, argv, p):
    """Every c in F_p^x gives the exit code and bytes of c = 1, past the CSV
    header line and with the JSON echoes of c masked."""
    runs = set()
    for c in range(1, p):
        csv_rc = main([*argv, "--multiplier", str(c)])
        csv = capsys.readouterr().out.split("\n", 1)
        assert f" multiplier={c} " in csv[0]
        json_rc = main([*argv, "--multiplier", str(c), "--format", "json"])
        doc = capsys.readouterr().out
        assert doc.count(f'"multiplier": {c},') == 2  # config and verdict params
        runs.add((csv_rc, csv[1], json_rc,
                  doc.replace(f'"multiplier": {c},', '"multiplier": "c",')))
    assert len(runs) == 1


def fresh_python(args, env=None, timeout=120, **kwargs):
    """Run a new interpreter that imports this checkout's altsums, in `env`
    (default: this process's environment)."""
    env = dict(os.environ if env is None else env,
               PYTHONPATH=str(Path(altsums.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=timeout, **kwargs)


def without_blas_threads():
    return {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}


def test_curves_at_a_huge_degree_exits_two_at_once():
    """3^100000000 is never formed: the refusal comes from the degree."""
    proc = fresh_python(["-m", "altsums.cli", "curves", "--p", "3",
                         "--degree", "100000000"], timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("usage error: #L = p^d = 3^100000000 exceeds the "
                           "point-count budget 4096\n")


@pytest.mark.parametrize("command", ["compare", "all"])
def test_an_unprintable_alt_2q_is_refused_at_once(command):
    """2q = 4374: 4374!/2 has more than 4300 digits, so the spectra and TV
    distances could not be printed.  Refused before any identity check,
    table or spectrum is computed, with groupstats' message."""
    start = time.perf_counter()
    proc = fresh_python(["-m", "altsums.cli", command, "--p", "3", "--f", "7",
                         "--max-degree", "1"], timeout=60)
    assert time.perf_counter() - start < 10
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("usage error: m = 4374: the exact probabilities' "
                           "denominators have more than 4300 digits, CPython's "
                           "limit for converting an int to text\n")


def test_moments_over_1009_squared_fit_in_two_gigabytes():
    """The kernel's arrays are a few #L-vectors with no factor of p: #L =
    1009^2 (once refused for the 23 GiB its (#L, p) arrays would take)
    runs under a 2 GB address-space limit, where a MemoryError would end
    the process with a traceback."""
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))

    proc = fresh_python(["-m", "altsums.cli", "moments", "--p", "1009",
                         "--max-degree", "2"], env=without_blas_threads(),
                        preexec_fn=limit_address_space)
    assert proc.returncode == 0
    assert proc.stderr == ""
    rows = proc.stdout.splitlines()[-2:]
    assert [r.split(",")[:6] for r in rows] == [
        ["1", "1009", "0", "1", "1008", "1009"],
        ["2", "1018081", "0", "1", "1018080", "1018081"]]


def test_unwritable_cache_dir_exits_two(tmp_path, capsys):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    assert main(["traces", "--p", "3", "--degree", "1",
                 "--cache-dir", str(not_a_dir)]) == 2
    assert_one_usage_error(capsys)


def test_output_to_a_directory_exits_two(tmp_path, capsys):
    assert main(["moments", "--max-degree", "2", "--output", str(tmp_path)]) == 2
    assert_one_usage_error(capsys)


@pytest.mark.parametrize("flags", [["--tv-max", "nan"], ["--m3-tol", "nan"],
                                   ["--tv-max", "-0.01"], ["--m3-tol", "-1"]])
def test_nan_or_negative_tolerance_exits_two(capsys, flags):
    """A NaN bound compares false both ways, so it would pass every check."""
    assert main(["compare", "--p", "3", "--max-degree", "2", *flags]) == 2
    assert "tv_max and m3_tol must be >= 0" in assert_one_usage_error(capsys)


def test_corrupt_cache_file_exits_two(tmp_path, capsys):
    argv = ["traces", "--p", "3", "--degree", "1", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    cached = next(tmp_path.glob("altsums_trace_*.csv"))
    data = bytearray(cached.read_bytes())
    data[-5] ^= 1  # the last numerator's top byte
    cached.write_bytes(data)
    capsys.readouterr()
    assert main(argv) == 2
    assert cached.name in assert_one_usage_error(capsys)


def test_version_flag_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


def test_identity_and_wild_exit_zero(capsys):
    assert main(["identity", "--q", "9"]) == 0
    assert main(["wild", "--q", "3"]) == 0
    out = capsys.readouterr().out
    assert "split,1" in out
    assert "config: p=3 f=2" in out  # identity header echoes q = 9


def falsify(monkeypatch, name, **changes):
    """Make cli.<name> return its real report with `changes` applied."""
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda q: real(q)._replace(**changes))


@pytest.mark.parametrize("command,name,changes,reason", [
    ("identity", "verify_identity_split",
     {"equal": False, "mismatches": (((0, 5), 1, 2),)},
     "SplitIdentityReport failed; first mismatch at x^0 y^5: 1 != 2"),
    ("wild", "wild_inertia_span", {"coset_ok": False},
     "wild-inertia span for q=3: WildInertiaReport("),
])
def test_falsified_identity_or_wild_prints_the_document_and_exits_one(
        monkeypatch, capsys, command, name, changes, reason):
    falsify(monkeypatch, name, **changes)
    assert main([command, "--q", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith(f"# altsums {__version__} | config: p=3 f=1 ")
    assert f"# section: {command}_q_3\n" in captured.out
    assert captured.err.startswith(f"FALSIFIED: {reason}")
    assert captured.err.count("\n") == 1


def test_non_rational_trace_exits_one(monkeypatch, capsys):
    def non_rational(params, degree, **kwargs):
        raise traces.NonRationalTraceError("non-rational normalized trace "
                                           "at t_index=2 over F_3")

    monkeypatch.setattr(cli, "trace_table", non_rational)
    assert main(["traces", "--p", "3", "--degree", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("FALSIFIED: non-rational normalized trace at "
                            "t_index=2 over F_3\n")


def test_all_exits_one_when_the_curve_side_differs_from_m3(monkeypatch, capsys):
    # off by 1/#L^3: far inside the printed q / sqrt(#L), still a mismatch
    real = curves.modified_third_moment
    monkeypatch.setattr(curves, "modified_third_moment",
                        lambda L, counts: real(L, counts) + Fraction(1, L.order**3))
    assert main(["all", "--p", "3", "--max-degree", "6"]) == 1
    out, err = capsys.readouterr()
    assert "# section: curve_moments\n" in out and "# result: FAIL\n" in out
    rows = out.split("# section: curve_moments\n", 1)[1].split("\n#", 1)[0]
    assert [r.rsplit(",", 1)[1] for r in rows.splitlines()[1:]] == ["1"] * 6
    falsified = [line for line in err.splitlines() if line.startswith("FALSIFIED: ")]
    assert [line.split(": ", 2)[1] for line in falsified] == [
        f"curve moment differs from M3 at degree {D}" for D in range(1, 7)]
    m3 = trace_table(SystemParams(3, 1), 3).moment(3)
    assert (f"at degree 3: modified={m3 + Fraction(1, 27**3)} empirical={m3}"
            in err)


def curve_moment_rows(out):
    """The cells of all's curve_moments rows, header left out."""
    rows = out.split("# section: curve_moments\n", 1)[1].split("\n#", 1)[0]
    return [row.split(",") for row in rows.splitlines()[1:]]


@pytest.mark.parametrize("p, top", [(3, 4), (5, 2)])
def test_curve_moments_bound_column_holds_every_gap(capsys, p, top):
    """The bound column is q / sqrt(#L) and within is 1: the curve side
    equals M3, so every gap is 0; no check reads either column."""
    main(["all", "--p", str(p), "--max-degree", str(top)])
    rows = curve_moment_rows(capsys.readouterr().out)
    assert [int(r[0]) for r in rows] == list(range(1, top + 1))
    for _, order, *modified_empirical, bound, within in rows:
        assert modified_empirical[:2] == modified_empirical[2:]
        assert (bound, within) == (f"{p / math.sqrt(int(order)):.6f}", "1")
    if p == 3:
        assert rows[1] == ["2", "9", "2", "3", "2", "3", "1.000000", "1"]


def test_a_curve_moment_within_the_bound_but_off_m3_fails(monkeypatch, capsys):
    # off by 1/#L: within q / sqrt(#L) at every level, so within reads 1
    real = curves.modified_third_moment
    monkeypatch.setattr(curves, "modified_third_moment",
                        lambda L, counts: real(L, counts) + Fraction(1, L.order))
    assert main(["all", "--p", "3", "--max-degree", "3"]) == 1
    out, err = capsys.readouterr()
    assert curve_moment_rows(out) == [
        ["1", "3", "1", "3", "0", "1", "1.732051", "1"],
        ["2", "9", "7", "9", "2", "3", "1.000000", "1"],
        ["3", "27", "-23", "27", "-8", "9", "0.577350", "1"]]
    assert "# result: FAIL\n" in out
    assert ("FALSIFIED: curve moment differs from M3 at degree 3: "
            "modified=-23/27 empirical=-8/9\n") in err


RUN_FLAGS = {"--p": int, "--f": int, "--base-degree": int, "--multiplier": int,
             "--max-degree": int, "--budget": int,
             "--cache-dir": None, "--tv-max": float,
             "--m3-tol": float, "--m3-min-order": int}
IO_FLAGS = {"--format": ("csv", "json"), "--output": None}


def subcommand_surface(name):
    """{option string: (type name, choices, required)} of one subcommand."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return {s: (getattr(a.type, "__name__", None),
                tuple(a.choices) if a.choices else None, a.required)
            for a in sub.choices[name]._actions for s in a.option_strings
            if s not in ("-h", "--help")}


@pytest.mark.parametrize("name,own", [
    ("field", {"--degree": ("int", None, False)}),
    ("traces", {"--degree": ("int", None, True)}),
    ("curves", {"--degree": ("int", None, True)}),
    ("moments", {}), ("compare", {}), ("all", {}),
    ("identity", {"--q": ("int", None, True)}),
    ("wild", {"--q": ("int", None, True)}),
    ("groupstats", {"--m": ("int", None, True),
                    "--regime": (None, ("sym", "alt", "coset"), False),
                    "--twist": (None, ("plain", "sgn"), False)}),
])
def test_each_subcommand_keeps_its_options(name, own):
    want = {s: (None, choices, False) for s, choices in IO_FLAGS.items()}
    if name not in ("identity", "wild", "groupstats"):
        want.update({s: (getattr(t, "__name__", None), None, False)
                     for s, t in RUN_FLAGS.items()})
    assert subcommand_surface(name) == {**want, **own}


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_a_commands_own_parser_prints_what_the_full_parser_prints(
        monkeypatch, capsys, name):
    """main builds only the named command's parser; its help, its usage,
    the top-level usage and a usage error read as from all nine."""
    full, own = build_parser(), cli._parser([name])

    def sub(parser):
        return next(a for a in parser._actions if a.dest == "command").choices[name]

    assert list(next(a for a in own._actions if a.dest == "command").choices) == [name]
    assert own.format_usage() == full.format_usage()
    assert sub(own).format_help() == sub(full).format_help()
    assert sub(own).format_usage() == sub(full).format_usage()
    with pytest.raises(SystemExit) as exc:
        full.parse_args([name, "--bogus"])
    want = capsys.readouterr().err
    built = []
    real = cli._parser
    monkeypatch.setattr(cli, "_parser", lambda names: built.append(set(names)) or real(names))
    assert main([name, "--bogus"]) == exc.value.code == 2
    assert capsys.readouterr().err == want
    assert built == [{name}]


@pytest.mark.parametrize("argv", [[], ["--help"], ["--version"], ["bogus"], ["--p", "3"]])
def test_no_command_first_builds_all_nine_parsers(monkeypatch, capsys, argv):
    built = []
    real = cli._parser
    monkeypatch.setattr(cli, "_parser", lambda names: built.append(set(names)) or real(names))
    main(argv)
    assert built == [set(cli.COMMANDS)]


def test_compare_pass_and_fail(tmp_path, capsys):
    rc = main(["compare", "--p", "3", "--f", "1", "--max-degree", "3",
               "--cache-dir", str(tmp_path)])
    assert rc == 0
    # degree 4 is the documented pre-asymptotic TV bump; the verdict fails
    rc = main(["compare", "--p", "3", "--f", "1", "--max-degree", "4",
               "--cache-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "FAIL" in err


def test_compare_runs_for_q_seventeen(tmp_path, capsys):
    # Alt(34): the oracle needs no class table, so only the TV tolerance,
    # which is too tight for fields of 17 and 289 elements, fails the verdict
    out = tmp_path / "verdict.json"
    assert main(["compare", "--p", "17", "--max-degree", "2",
                 "--format", "json", "--output", str(out)]) == 1
    rows = json.loads(out.read_text())["verdict"]["rows"]
    assert [r["degree"] for r in rows] == [1, 2]
    for r in rows:
        assert r["integral"] is True
        assert r["membership_rate"] == {"num": 1, "den": 1}
    assert "TV distance" in capsys.readouterr().err


def test_groupstats_accepts_any_m_from_two(capsys):
    assert main(["groupstats", "--m", "34"]) == 0
    assert "moment,3,1,1" in capsys.readouterr().out
    assert main(["groupstats", "--m", "1"]) == 2
    assert_one_usage_error(capsys)


@pytest.fixture
def int_text_limit():
    """Sets CPython's int-to-text digit limit for one test: 4300, the
    default, unless the test sets another."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(limit)


def test_groupstats_refuses_an_m_past_the_int_to_text_limit_at_once(
        capsys, int_text_limit):
    start = time.perf_counter()
    assert main(["groupstats", "--m", "1559"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "more than 4300 digits" in assert_one_usage_error(capsys)


def test_int_to_text_limit_predicate_at_its_edge(int_text_limit):
    for regime in REGIMES:  # m! (m!/2 for alt and coset) first passes 10^4300
        assert not _order_too_long(1558, regime)
        assert _order_too_long(1559, regime)
    int_text_limit(702)  # 335! = 1.156e702: only m!/2 fits
    assert _order_too_long(335, "sym")
    assert not any(_order_too_long(335, r) for r in ("alt", "coset"))
    int_text_limit(0)  # no limit, no refusal
    assert not any(_order_too_long(1559, regime) for regime in REGIMES)


# -- output shape ------------------------------------------------------------------


def test_traces_output_shape(tmp_path):
    out = tmp_path / "traces.csv"
    rc = main(["traces", "--p", "3", "--f", "1", "--degree", "2",
               "--cache-dir", str(tmp_path), "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith(f"# altsums {__version__} | config: ")
    data = [l for l in lines if l and not l.startswith("#")]
    assert data[0] == "t_index,numerator,denominator,is_integer"
    assert len(data) == 1 + 9
    assert data[1] == "0,9,9,1"


def test_traces_json_shape(tmp_path):
    out = tmp_path / "traces.json"
    rc = main(["traces", "--p", "3", "--f", "1", "--degree", "1",
               "--format", "json", "--cache-dir", str(tmp_path),
               "--output", str(out)])
    assert rc == 0
    blob = json.loads(out.read_text())
    assert blob["version"] == __version__
    assert blob["config"]["p"] == 3
    assert "threads" not in blob["config"]
    assert blob["traces_degree_1"]["denominator"] == 3
    assert [r[1] for r in blob["traces_degree_1"]["rows"]] == [-3, 3, 0]


def test_curves_output_counts(tmp_path, capsys):
    rc = main(["curves", "--p", "3", "--f", "1", "--degree", "1",
               "--cache-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "t_index,count" in out
    assert "0,9" in out          # the form vanishes identically over F_3
    assert "modified_m3: 0/1" in out


def test_groupstats_frozen_output(capsys):
    assert main(["groupstats", "--m", "6", "--regime", "coset",
                 "--twist", "sgn"]) == 0
    out = capsys.readouterr().out
    assert "prob,-3,1,24" in out
    assert "moment,3,-1,1" in out


def test_moments_output(tmp_path, capsys):
    rc = main(["moments", "--p", "5", "--f", "1", "--max-degree", "2",
               "--cache-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "m3_target" in out
    rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
    assert len(rows) == 2
    assert rows[0].startswith("1,5,")


def test_compare_json_schema(tmp_path):
    out = tmp_path / "verdict.json"
    rc = main(["compare", "--p", "3", "--f", "1", "--max-degree", "2",
               "--cache-dir", str(tmp_path), "--format", "json",
               "--output", str(out)])
    assert rc == 0
    blob = json.loads(out.read_text())
    v = blob["verdict"]
    assert v["passed"] is True
    assert len(v["rows"]) == 2
    assert v["rows"][0]["regime"] == "coset"
    assert v["rows"][0]["tv_distance"] == {"num": 1, "den": 12}
    assert v["config"]["tv_max"] == 0.05


# -- determinism -------------------------------------------------------------------


def test_all_byte_identical_across_threads(tmp_path):
    """`all` run from several threads of one process at once writes the
    bytes of a run on its own: no run reads state another one leaves."""
    def run(name):
        cache = tmp_path / f"cache_{name}"
        cache.mkdir()
        out = tmp_path / f"all_{name}.csv"
        rc = main(["all", "--p", "3", "--f", "1", "--max-degree", "3",
                   "--cache-dir", str(cache), "--output", str(out)])
        return rc, out.read_bytes()

    alone = run("alone")
    with ThreadPoolExecutor(max_workers=3) as pool:
        together = list(pool.map(run, range(3)))
    assert alone[0] == 0
    assert together == [alone] * 3


def test_all_computes_each_moment_once(tmp_path, monkeypatch):
    # M1-M3 at degrees 1 and 2 (six calls); the moments section reuses the
    # verdict's rows, and each curve degree's empirical M3 the verdict's M3
    calls = []
    moment = traces.TraceTable.moment

    def counted(self, power, counts=None):
        calls.append((self.degree, power))
        return moment(self, power, counts)

    monkeypatch.setattr(traces.TraceTable, "moment", counted)
    assert main(["all", "--p", "3", "--max-degree", "2",
                 "--output", str(tmp_path / "all.csv")]) == 0
    assert sorted(calls) == [(D, k) for D in (1, 2) for k in (1, 2, 3)]


def test_all_computes_each_spectrum_once(tmp_path):
    """3^1..3^4 asks for the alt/plain and coset/sgn spectra of 2q twelve
    times: four each for the groupstats sections, one per degree for the
    verdict.  Each is computed once (exit 1: the TV bound fails at 3^4)."""
    groups._spectrum.cache_clear()
    assert main(["all", "--p", "3", "--max-degree", "4",
                 "--output", str(tmp_path / "all.csv")]) == 1
    info = groups._spectrum.cache_info()
    assert (info.misses, info.hits + info.misses) == (2, 12)


def test_all_counts_each_tables_values_once(tmp_path, monkeypatch):
    # M1-M3, spectrum membership and TV distance of a table, and the curve
    # report's M3, all read one value histogram
    calls = []
    value_counts = traces.TraceTable.value_counts

    def counted(self):
        calls.append(self.degree)
        return value_counts(self)

    monkeypatch.setattr(traces.TraceTable, "value_counts", counted)
    assert main(["all", "--p", "3", "--max-degree", "2",
                 "--output", str(tmp_path / "all.csv")]) == 0
    assert sorted(calls) == [1, 2]


def _patch_psi_and_embedding(monkeypatch, psi, embedding_log):
    """Put `psi` in place of psi_exponent_table in every altsums module that
    holds it, and `embedding_log` in place of fields._embedding_log."""
    real = characters.psi_exponent_table
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "altsums" and \
                getattr(module, "psi_exponent_table", None) is real:
            monkeypatch.setattr(module, "psi_exponent_table", psi)
    monkeypatch.setattr(fields, "_embedding_log", embedding_log)


def test_all_builds_one_psi_table_per_trace_table_and_curve_count(
        tmp_path, monkeypatch):
    # 3^1..3^4: no trace table and no curve count builds a psi table or
    # embeds the multiplier; each reads its level's own trace table (exit 1:
    # the TV bound fails at 3^4)
    calls = []
    psi, embedding_log = characters.psi_exponent_table, fields._embedding_log

    def counted_psi(ctx, L):
        calls.append(("psi", L.d))
        return psi(ctx, L)

    def counted_embedding_log(sub, sup):
        calls.append(("embed", sup.d))
        return embedding_log(sub, sup)

    _patch_psi_and_embedding(monkeypatch, counted_psi, counted_embedding_log)
    assert main(["all", "--p", "3", "--max-degree", "4",
                 "--output", str(tmp_path / "all.csv")]) == 1
    assert calls == []


def test_all_needs_no_psi_table_and_no_embedding(monkeypatch, capsys):
    """The benchmarked curves-p7-json run, with multiplier 2, writes its
    recorded bytes though building a psi table or an embedding raises."""
    def refuse(*args):
        raise AssertionError("the pipeline built a psi table or an embedding")

    _patch_psi_and_embedding(monkeypatch, refuse, refuse)
    reference = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
    want = json.loads(reference.read_text())["cli"]["curves-p7-json"]
    assert main(["all", "--p", "7", "--f", "1", "--multiplier", "2",
                 "--max-degree", "4", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == want


def test_all_json_passes(tmp_path):
    out = tmp_path / "all.json"
    rc = main(["all", "--p", "3", "--f", "1", "--max-degree", "2",
               "--format", "json", "--cache-dir", str(tmp_path),
               "--output", str(out)])
    assert rc == 0
    blob = json.loads(out.read_text())
    assert blob["passed"] is True
    assert "identity_q_3" in blob
    assert "verdict" in blob
    assert blob["verdict"]["rows"][0]["membership_rate"] == {"num": 1, "den": 1}


@pytest.mark.parametrize("argv, digest", [
    (["all", "--p", "3", "--f", "1", "--max-degree", "8"],
     "003bb015a9d16c95cbc591f76bc16e899a6e4b657969c6cc84a89e1baeee2048"),
    (["all", "--p", "7", "--f", "1", "--multiplier", "2", "--max-degree", "4",
      "--format", "json"],
     "2236d00ed141f8cacb3519fde8c604339eb4e5e6c9ed57b0184f3cab5b99afb4"),
    (["all", "--p", "5", "--f", "1", "--max-degree", "5"],
     "6600f223db235fe715433b9792bede4c1382b66301b042100a91daee1ad46345"),
])
def test_all_output_bytes_are_pinned(tmp_path, capsys, argv, digest):
    """The stdout digests recorded for these invocations at commit 8d3bf77."""
    assert main(argv + ["--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["traces", "--p", "3", "--degree", "12"],
     "fa6abf04996e9d657bf99943abb2b81a59acb15e36571d67e048f8448056faf3"),
    (["traces", "--p", "7", "--degree", "5"],
     "fcf9061743edb10ed26e227829eedffb6f08d1538999fb2e7cdcfad4c6827e76"),
    (["compare", "--p", "3", "--max-degree", "12"],
     "990c06166823ab0f7451b920b7f7029b93e0f6b75b3258ff0836ab11ca0d0604"),
    (["all", "--p", "3", "--max-degree", "10", "--budget", "59049"],
     "0369a4fa534b23c80f7af3ae12596a8509557e4cc4f9d0d0914918dde9c25178"),
    (["curves", "--p", "7", "--degree", "5", "--budget", "16807", "--format", "json"],
     "a940c3ac90a3f3457efe60ccc0923d257bc5b63ae6b9587d7babe83638c61cd2"),
    (["all", "--p", "5", "--f", "2", "--max-degree", "3", "--budget", "15625",
      "--format", "json"],
     "561608ceb74779bda1211577c210746a62239fdcb84ed85f474ddbb463b65898"),
    (["traces", "--p", "3", "--degree", "9", "--format", "json"],
     "0302708f4ae75dac1ed29ad9dce50b7e0a79739f2c0e587fe97ea2ba787d8d93"),
    (["traces", "--p", "5", "--base-degree", "2", "--degree", "3", "--format", "json"],
     "afc69108b7c54f646ed62f72fca1c8d86f81321c56fe32abc16907853d15da4a"),
])
def test_output_bytes_at_scale_are_pinned(monkeypatch, capsys, argv, digest):
    """The stdout digests recorded for these invocations without a cache:
    trace tables over 3^12 and 7^5 and the tower to 3^12 at commit 5fff025;
    curve counts under budgets past the default (the tower to 3^10, counted
    at every level; 7^5; q = 25 to 5^3 in JSON) at commit 2cb8ec2; the JSON
    trace rows over 3^9 and over 5^6 as the cube of F_25 at commit 1a73a1a."""
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize("argv, rc, digest", [
    (["compare", "--p", "5", "--max-degree", "5", "--format", "json"], 0,
     "42063e9d8069f995a719c7a096dd14984a7ae459237d14052641b419b41e908c"),
    (["compare", "--p", "3", "--max-degree", "3", "--tv-max", "0", "--format", "json"], 1,
     "081300b0fefa58c22229f7cfa4b571c50e0f184c927af8c1dd0be7c5004722c8"),
    # exit 1: TV does not shrink at these small fields; the identities run at q = 243
    (["all", "--p", "3", "--f", "5", "--max-degree", "5"], 1,
     "92c7dceb015053a686413d2dfc9b9d6a1f5d5f2db747517b854d5df2c282b515"),
    (["groupstats", "--m", "486", "--regime", "coset", "--twist", "sgn"], 0,
     "246715ed0e96150a70f1c2bc6483c4f82ac32a028ac4bcf58353fd113f82758f"),
    (["moments", "--p", "3", "--max-degree", "8"], 0,
     "738067eecadad23f5937b9a965c074012a8459f5b1ba44bb1ba576763622ae58"),
    (["moments", "--p", "5", "--max-degree", "4", "--format", "json"], 0,
     "a101fe75a06f43061f7218056d5d9d1a13e53f51776cc5738c77000208bc82ce"),
    (["moments", "--p", "3", "--f", "2", "--max-degree", "11"], 0,
     "223b77b0d045f1f982f23cab9e91c3ee842e169604c63c7b8a41a0fe7436832e"),
])
def test_verdict_and_spectrum_bytes_are_pinned(capsys, argv, rc, digest):
    """The stdout digests and exit codes recorded for these invocations
    without a cache at commit 26f68eb: compare's JSON verdict passing and
    failing, identities and traces at q = 243, and a large odd-coset spectrum;
    and at 437afb9, before the moment rows moved into altsums.verdict, the
    moments of the tower to 3^8, of F_5 to 5^4 in JSON and of q = 9 to 3^11."""
    assert main(argv) == rc
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize("argv, out_digest, err_digest", [
    (["compare", "--p", "3", "--max-degree", "4", "--format", "json"],
     "02ea04fd43c4487dcd61e90c6ab331662c2d03b9988d81b37b3a6fd205cd90d5",
     "f90e205dbb1d7dc5736ba0d13612b2b5bb8b13f500cd141ff60b8e566389d909"),
    (["all", "--p", "3", "--f", "2", "--max-degree", "2", "--format", "json"],
     "eda7bbafa40393c34f9628777ffacce668dd59e12b49d3bf9900f2275ec64de7",
     "3d40061597996dfc36f1d35c6ea0c963b594432a3a8372c210049d09e0fb5f2a"),
])
def test_failing_json_verdicts_are_pinned(capsys, argv, out_digest, err_digest):
    """The stdout and stderr digests of two failing JSON runs, recorded at
    commit 3a53b1a: compare lists its failures and has no "passed" key, all
    adds "passed": false; both exit 1."""
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == out_digest
    assert hashlib.sha256(err.encode("ascii")).hexdigest() == err_digest
    blob = json.loads(out)
    assert blob["verdict"]["failures"] and not blob["verdict"]["passed"]
    assert blob.get("passed", "absent") == ("absent" if argv[0] == "compare" else False)


# stdout sha256 of `identity --q Q --format csv` and `--format json`, recorded
# at commit 6dfdebd, before the identities were checked at y = 1 (q = 243 at
# d57c3c0, before the polynomials became code arrays)
IDENTITY_DIGESTS = {
    3: ("f34ed2cddd2338b45af8ff89f8406d303d2bd72919dd2d9ec7a0a7f6e4429483",
        "5d588343370248494e8c22510b58c501c49309d727b30ad263c070e63a87826b"),
    5: ("40ff0447f011b025ada01040d434a904deb862c19c228aab1febf3757684178f",
        "655271ced261e71c62c41bcebb3e7f562b39cd01142d51327baf267514695309"),
    7: ("1133aed6448c5d5ae135e123ec84817d5fb4ced809fc898bc481e67042a1c00b",
        "ad70aae65acbed53afe8f5c1b853b247619c4c938ae47a52786c52e3512b2617"),
    9: ("68c3cc5185b8329b0f3e4dcb1df7229447d49efab028eb3d7797d61e7ba4fd48",
        "a8aa1abbcc2140ff812a2f4da5b6b1ab5797db33dcd93c9e0a8463fc3d033168"),
    11: ("fc8c7509c2873de3853d98920bdd063f79d64427c7ea44e51d036109478afb8c",
         "551996467579c442320bfc3ad959c3fa1c1f46da05b7f26c276b6712c4a5254f"),
    13: ("7b0210b7aed14d298334fbffc34054ebc63acbe189d1c13f351e32ba41358893",
         "9c66fb3aacadfb9ad4183e19ea2b691d44059471253a555ff251f1f9374f5998"),
    25: ("f66ea95231e7888b4d904399b6b1c937ec65bdd65c9848ad2932b0ec846efabb",
         "a80b133ba4907f624e0f08840e687d470fa2bf2e63557b87f3e3b2149b5018f0"),
    27: ("9636b0f233b88c24c2a1adb54d9a14f8a977923a4f660e58088543edc1de1808",
         "3435a45b883d0bf160d56206730bbf80a2dc99066a615ac10f76b2a90e76c27e"),
    49: ("22f26c3b849cb3879ec36d1c9b4c8fb1d040ab6cb086eefe1136037651599628",
         "45d7aaed9ba0e60c8981b02426b51111b498515d04d33cfbe2014e65dfcacb0c"),
    81: ("dc164478acf9660e21fd0cf4f65ce67c0f2332da2eff2e89cd76229dcad6baa2",
         "ece6b6925b232ce6461447cba6f901507526a76397a78fe9ef497a7f899f83b4"),
    121: ("d17bd50b916d7ed0b790012717c7c1061922b7d828ff520fb3a3871efb253a1c",
          "180b8c533280b6c14e153424f6313d8b30af60807e77772e58af525b8ac4b19d"),
    243: ("979aa9e8dacf25777c32eaf1f477caaacd28db24f1fccb51bd338b8fb92955ae",
          "5b8ab9efe431c9304b3920d22ec5f2b3d8f893bb843c356a2d14e3f8afb84597"),
}


@pytest.mark.parametrize("q", sorted(IDENTITY_DIGESTS))
def test_identity_output_bytes_are_pinned(capsys, q):
    for fmt, digest in zip(("csv", "json"), IDENTITY_DIGESTS[q]):
        assert main(["identity", "--q", str(q), "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


# recorded at e7708b9, before wild_inertia_span took F_q^x as codes
WILD_DIGESTS = {
    3: ("3d0913f654a2329c70ca7995e0f469c24ab4bd894113ad3658bdb7e35a1107f7",
        "c8420e25febba697b30d34d97e9d7cc6c648397a43b6e27d1f3e72c144c76ff4"),
    5: ("3da432916b2fe1b34536aa72d2eda563d655f0ebbd71bb54f397e22cf48a84cb",
        "4c5b8f7adcd05d56bb0a7243cf85edb4fddf597f98bd4053443ec394cffc05d8"),
    7: ("191eceec1be11bf39e429a3488f86edfee86340b55ed5cb95e443f9019f7138f",
        "6b577dd462c7e7106ba246ef3d6c8718f1799c370fa95eda12b0f2304f26cc62"),
    9: ("44308fc41a8ffa9c7e5621bea4b33e53b16439b6228f30a51dbf662389e091a2",
        "50544f4df33e3171c1ee13a75ece3fa778b27e7da523bf54ca0356a89299ab4a"),
    11: ("7964febe932c495d901d5bf382625e222bd75df4e2a49d26471fb4160f8f06c0",
         "0a1d4383521644f35c126a5e7b00134a1805da38defcd535c883e3d1bc141bc2"),
    13: ("15a918e2f8d93b1879829ed9f8214322cfed497ff6875eb2419f59debe649935",
         "eecd6740eba749a7cc2337ff9f7e659ac3227bec3c7d3a2708cf484c0952e0c8"),
    25: ("f80251097f39cb395e4e7df7a39f7a4e3ea3086619d21fcb182a0394cb83d273",
         "1290a96d165ddb9513fa3d34a7a3ca3b540f96675a8fdb976fbd266b120632fa"),
    27: ("e2e814e04b5250c44694aff4c8f9467e2d259b4118604029004b7b85e18a43d8",
         "145af8333ad959b29b6e686ce4de40936d691315255b49e5e91fc116c8e2ff15"),
    49: ("55a64644d6bde0ed4ad1658e3a92d19f3f99fc69e1e83dc26db3af8a14e82b33",
         "42d5ca4cce754455041040cc3179202c2ad2e45f97840b0285875d4812df2e24"),
    81: ("eea2622d520ab03af49453dc57a4a836cc587eaf37132c7fbb0a60b91275b7b5",
         "83c69edb24f50f19e0b78421036882852948ac5f215ee9f10fd4f67e08defb9e"),
    121: ("5e285e823caafd070ae7e311b2a0db3395e9d3770c32fac7f6c54bdf45ed3fe4",
          "4f2fd0ff68adb83f3eb572606c6837fb71ca327e896e273d59184d5b91da9048"),
    243: ("98c271e521a8a1f8a7f671b42da4ecf6fcb3b82ce00236521a533a39ae1b4b04",
          "b0764db065c23d26cf3be09f3a4c90bd42f31c921edce4cf63dfef6fc023d7c9"),
}


@pytest.mark.parametrize("q", sorted(WILD_DIGESTS))
def test_wild_output_bytes_are_pinned(capsys, q):
    for fmt, digest in zip(("csv", "json"), WILD_DIGESTS[q]):
        assert main(["wild", "--q", str(q), "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


P7_JSON = ["all", "--p", "7", "--f", "1", "--multiplier", "2",
           "--max-degree", "4", "--format", "json"]


class CountingStdout:
    """Keeps only the number of writes and of characters written."""

    def __init__(self):
        self.writes = self.chars = 0

    def write(self, text):
        self.writes += 1
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


def test_document_is_written_in_batches(tmp_path, monkeypatch):
    out = CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(P7_JSON + ["--cache-dir", str(tmp_path)]) == 0
    assert out.chars == 260318  # the pinned document
    # every chunk is at least one character, so a full batch is EMIT_BATCH or more
    assert 1 < out.writes <= math.ceil(out.chars / EMIT_BATCH) + 1
    assert out.writes <= out.chars // 1000  # not a write per chunk or per line


def test_emitting_the_document_takes_at_most_twice_its_text(tmp_path,
                                                            monkeypatch):
    peaks = []
    emit = cli._emit

    def traced_emit(doc, output):
        tracemalloc.start()
        try:
            emit(doc, output)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    out = CountingStdout()
    monkeypatch.setattr(cli, "_emit", traced_emit)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(P7_JSON + ["--cache-dir", str(tmp_path)]) == 0
    assert len(peaks) == 1 and 0 < peaks[0] <= 2 * out.chars


def test_csv_sections_are_rendered_while_written():
    seen = []

    def rows():
        for i in range(3):
            seen.append(i)
            yield (i, -i)

    doc = cli.Document(RunConfig())
    doc.section("s", "a,b", rows())
    doc.note("end")
    assert seen == []
    text = "".join(doc.chunks())
    assert seen == [0, 1, 2]
    assert text.endswith("# section: s\na,b\n0,0\n1,-1\n2,-2\n# end\n")


@pytest.mark.parametrize("argv", [
    ["all", "--p", "3", "--max-degree", "3"],
    ["all", "--p", "3", "--max-degree", "3", "--format", "json"],
    ["traces", "--p", "3", "--degree", "4", "--format", "json"],
    ["curves", "--p", "3", "--degree", "3"],
])
def test_output_file_bytes_equal_stdout_bytes(tmp_path, capsys, argv):
    rc = main(argv + ["--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    path = tmp_path / "doc"
    assert main(argv + ["--cache-dir", str(tmp_path), "--output", str(path)]) == rc
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode("ascii")


# -- process start-up ----------------------------------------------------------------


PROBE = """
import os, re
before = dict(os.environ)
import altsums
status = open("/proc/self/status").read()
print(re.search(r"^Threads:\\s*(\\d+)$", status, re.M).group(1))
print(dict(os.environ) == before, os.environ.get("OPENBLAS_NUM_THREADS"))
"""


needs_proc = pytest.mark.skipif(not Path("/proc/self/status").exists(),
                                reason="needs /proc/self/status")


@needs_proc
def test_import_starts_no_blas_threads_and_restores_the_environment():
    proc = fresh_python(["-c", PROBE], env=without_blas_threads())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["1", "True None"]


@needs_proc
def test_import_keeps_the_users_blas_thread_count():
    proc = fresh_python(["-c", PROBE],
                        env=dict(os.environ, OPENBLAS_NUM_THREADS="2"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[1] == "True 2"


OPENSSL_PROBE = """
import sys
import numpy
before = set(sys.modules)
from altsums.cli import main
cache, doc = sys.argv[1:]
print(*[main(["all", "--p", "3", "--max-degree", "4", "--cache-dir", cache,
              "--output", doc]) for run in ("cold", "warm")])
print(*sorted({"_hashlib", "hashlib", "hmac", "secrets", "_ssl"}
              & (set(sys.modules) - before)))
"""


def test_no_openssl_module_is_loaded_after_numpy(tmp_path):
    """altsums, a cold and a warm `all` included, loads no module of
    OpenSSL's.  The comparison starts after `import numpy`: numpy 1.24
    imports numpy.random, and with it secrets, by itself."""
    cache = tmp_path / "cache"
    proc = fresh_python(["-c", OPENSSL_PROBE, str(cache), str(tmp_path / "doc")])
    assert proc.returncode == 0, proc.stderr
    # exit 1 both times: the TV bound fails at degree 4 (tv=0.10340)
    assert proc.stdout == "1 1\n\n"
    assert len(list(cache.glob("*.csv"))) == 4


STARTUP_PROBE = """
import sys
import numpy
before = set(sys.modules)
from altsums.cli import main
cache, doc = sys.argv[1:]
argv = ["all", "--p", "3", "--max-degree", "4", "--cache-dir", cache]
print(main(argv + ["--output", doc]))
print(*sorted({"dataclasses", "copy", "json", "_json"}
              & (set(sys.modules) - before)))
print(main(argv + ["--format", "json", "--output", doc + ".json"]))
"""


def test_a_csv_run_loads_no_dataclasses_or_json_after_numpy(tmp_path, capsys):
    """A CSV `all` loads neither dataclasses (nor the copy module it
    imports) nor json; a JSON run then loads json and writes what in-process
    `main` writes.  The comparison starts after `import numpy`, as in
    test_no_openssl_module_is_loaded_after_numpy."""
    cache, doc = tmp_path / "cache", tmp_path / "doc"
    proc = fresh_python(["-c", STARTUP_PROBE, str(cache), str(doc)])
    assert proc.returncode == 0, proc.stderr
    # exit 1 both times: the TV bound fails at degree 4 (tv=0.10340)
    assert proc.stdout == "1\n\n1\n"
    argv = ["all", "--p", "3", "--max-degree", "4", "--cache-dir", str(cache)]
    assert main(argv + ["--output", str(tmp_path / "here")]) == 1
    assert main(argv + ["--format", "json",
                        "--output", str(tmp_path / "here.json")]) == 1
    capsys.readouterr()
    assert doc.read_bytes() == (tmp_path / "here").read_bytes()
    text = (tmp_path / "doc.json").read_text()
    assert text == (tmp_path / "here.json").read_text()
    assert json.loads(text)["config"]["max_degree"] == 4


DATACLASS_PROBE = """
import dataclasses, inspect, sys
import altsums.cli
print(*sorted(name for mod, m in list(sys.modules.items())
              if mod.split(".")[0] == "altsums"
              for name, c in vars(m).items()
              if inspect.isclass(c) and dataclasses.is_dataclass(c)))
"""


def test_no_altsums_class_is_a_dataclass():
    """Records are named tuples, built without generated code at import;
    the ones that validate their fields do it in __new__."""
    proc = fresh_python(["-c", DATACLASS_PROBE])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def _replaced_in_make(cls, good, bad):
    fields = cls(**good)._asdict()
    fields.update(bad)
    return cls._make(fields.values())


BUILDS = {
    "constructor": lambda cls, good, bad: cls(**{**good, **bad}),
    "_make": _replaced_in_make,
    "_replace": lambda cls, good, bad: cls(**good)._replace(**bad),
}
P3 = {"p": 3, "f": 1}
F5 = {"base": build_field(5, 1)}


REFUSED = [
    (SystemParams, P3, {"f": 0}),
    (SystemParams, P3, {"multiplier": 6}),
    (SystemParams, P3, {"p": 9}),
    (CharacterContext, F5, {"multiplier": 0}),
    (CharacterContext, F5, {"multiplier": 5}),
    (RunConfig, {}, {"max_degree": 0}),
    (RunConfig, {}, {"budget": -1}),
    (RunConfig, {}, {"tv_max": math.nan}),
    (RunConfig, {}, {"m3_tol": -1.0}),
]


@pytest.mark.parametrize("build", list(BUILDS.values()), ids=list(BUILDS))
@pytest.mark.parametrize("cls, good, bad", REFUSED, ids=[
    f"{cls.__name__}-{k}={v!r}" for cls, _, bad in REFUSED for k, v in bad.items()])
def test_every_way_of_making_a_config_validates_it(build, cls, good, bad):
    cls(**good)
    with pytest.raises(ValueError):
        build(cls, good, bad)


NON_INTEGER = [
    (SystemParams, P3, {"p": 3.0}),
    (SystemParams, {"p": 5, "f": 1}, {"f": 1.5}),
    (SystemParams, P3, {"base_degree": 1.0}),
    (SystemParams, {"p": 5, "f": 1}, {"multiplier": 2.5}),
    (CharacterContext, F5, {"multiplier": 2.5}),
    (CharacterContext, F5, {"multiplier": 2.0}),
]


@pytest.mark.parametrize("build", list(BUILDS.values()), ids=list(BUILDS))
@pytest.mark.parametrize("cls, good, bad", NON_INTEGER, ids=[
    f"{cls.__name__}-{k}={v!r}" for cls, _, bad in NON_INTEGER for k, v in bad.items()])
def test_every_way_of_making_a_config_refuses_a_non_integer(build, cls, good, bad):
    cls(**good)
    with pytest.raises(TypeError):
        build(cls, good, bad)


def test_integer_fields_store_numpy_ints_as_int():
    import numpy as np
    base = build_field(5, 1)
    with pytest.raises(TypeError):
        CharacterContext.make(base, 2.5)
    params = SystemParams(np.int64(5), np.int32(1), np.int64(1), np.int64(7))
    assert params == SystemParams(5, 1, 1, 7)
    assert params.label() == "p=5 f=1 base_degree=1 multiplier=2 n=9"
    assert [type(v) for v in params] == [int] * 4
    assert type(CharacterContext.make(base, np.int64(7)).multiplier) is int


def test_config_records_store_floats_and_are_values():
    cfg = config_from_args(build_parser().parse_args(
        ["moments", "--tv-max", "1", "--m3-tol", "0"]))
    assert type(cfg.tv_max) is float and type(cfg.m3_tol) is float
    assert cfg == RunConfig(tv_max=1.0, m3_tol=0.0)
    base = build_field(5, 1)
    for a, b, other in [
            (RunConfig(p=5, tv_max=1), RunConfig(p=5, tv_max=1.0), {"p": 7}),
            (SystemParams(3, 1), SystemParams(p=3, f=1, base_degree=1),
             {"multiplier": 2}),
            (CharacterContext(base, 2), CharacterContext.make(base, 7),
             {"multiplier": 3})]:
        assert a == b and hash(a) == hash(b)
        assert a._replace() == a and a._replace(**other) != a
    assert repr(RunConfig()) == (
        "RunConfig(p=3, f=1, base_degree=1, multiplier=1, max_degree=8, "
        "budget=4096, cache_dir=None, fmt='csv', tv_max=0.05, "
        "m3_tol=0.2, m3_min_order=6561)")
    with pytest.raises(AttributeError):
        cfg.p = 5


def test_result_records_are_immutable_values():
    a = MembershipResult(rate=Fraction(1), offenders=((0, 5),))
    b = MembershipResult(Fraction(1), ((0, 5),))
    assert a == b and hash(a) == hash(b)
    assert a != a._replace(offenders=())
    assert repr(a) == "MembershipResult(rate=Fraction(1, 1), offenders=((0, 5),))"
    with pytest.raises(AttributeError):
        a.rate = Fraction(0)
    params = SystemParams(p=3, f=1)
    table = trace_table(params, 2)
    again = trace_table(params, 2)
    assert table == again and hash(table) == hash(again)
    assert repr(table).startswith(
        "TraceTable(params=SystemParams(p=3, f=1, base_degree=1, multiplier=1), "
        "degree=2, field_text=")
    with pytest.raises(AttributeError):
        table.numerators = ()
    assert VerdictConfig()._asdict() == {"tv_max": 0.05, "m3_tol": 0.2,
                                          "m3_min_order": 6561}
    assert type(VerdictConfig()._asdict()) is dict


# -- process entry -------------------------------------------------------------------


@pytest.mark.parametrize("argv, rc", [
    (["all", "--p", "3", "--max-degree", "3"], 0),
    (["compare", "--p", "3", "--max-degree", "3", "--tv-max", "0"], 1),
    (["moments", "--max-degree", "0"], 2),
])
def test_process_entry_matches_main(tmp_path, capsys, argv, rc):
    """`python -m altsums.cli` writes what in-process `main` writes and exits
    with what it returns; its --output file holds its stdout bytes."""
    argv = argv + ["--cache-dir", str(tmp_path)]
    assert main(argv) == rc
    captured = capsys.readouterr()
    proc = fresh_python(["-m", "altsums.cli", *argv])
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (rc, captured.out, captured.err)
    path = tmp_path / "doc"
    proc = fresh_python(["-m", "altsums.cli", *argv, "--output", str(path)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, "", captured.err)
    if rc == 2:  # a usage error writes no document
        assert not path.exists()
    else:
        assert path.read_bytes() == captured.out.encode("ascii")


def test_console_script_calls_the_main_block_entry():
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", pyproject,
                        re.M | re.S).group(1)
    target = re.search(r'^altsums\s*=\s*"altsums\.cli:(\w+)"$', scripts,
                       re.M).group(1)
    source = Path(cli.__file__).read_text()
    block = source[source.index('\nif __name__ == "__main__":\n'):]
    assert re.findall(r"\bsys\.exit\((\w+)\(\)\)", block) == [target]
    assert target == "entry" and callable(getattr(cli, target))


def test_main_closes_every_file_it_opens(tmp_path):
    """The entry freezes the heap, so a file left open in a reference cycle
    would not be flushed at exit: every file must be closed explicitly.  A
    dev-mode interpreter reports an unclosed file as a ResourceWarning."""
    code = "import sys, altsums.cli; sys.exit(altsums.cli.main())"
    argv = ["all", "--p", "3", "--max-degree", "3",
            "--output", str(tmp_path / "doc"), "--cache-dir", str(tmp_path / "cache")]
    for phase in ("cold", "warm"):
        proc = fresh_python(["-X", "dev", "-W", "error::ResourceWarning",
                             "-c", code, *argv])
        assert proc.returncode == 0, (phase, proc.stderr)
        assert "ResourceWarning" not in proc.stderr, phase
        assert (tmp_path / "doc").read_text().startswith("# altsums ")
