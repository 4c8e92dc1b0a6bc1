"""Checks for the command-line surface: config round-trips, exit codes,
output shapes, header comments, and thread-count byte determinism."""

import json

import pytest

from altsums import __version__
from altsums.cli import CACHE_ENV, RunConfig, build_parser, config_from_args, main


# -- RunConfig --------------------------------------------------------------------


def test_config_json_round_trip():
    cfg = RunConfig(p=5, f=1, base_degree=2, multiplier=3, max_degree=4,
                    budget=512, cache_dir="/tmp/somewhere", threads=7,
                    fmt="json", tv_max=0.1, m3_tol=0.3, m3_min_order=125)
    assert RunConfig.from_json(cfg.to_json()) == cfg


def test_config_file_round_trip(tmp_path):
    cfg = RunConfig(p=3, f=1, max_degree=2, threads=3)
    path = tmp_path / "run.json"
    cfg.save(path)
    assert RunConfig.load(path) == cfg


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(fmt="yaml")
    with pytest.raises(ValueError):
        RunConfig(max_degree=0)
    with pytest.raises(ValueError):
        RunConfig(threads=0)


def test_echo_excludes_threads_and_cache_dir():
    a = RunConfig(threads=1, cache_dir=None)
    b = RunConfig(threads=8, cache_dir="/tmp/x")
    assert a.echo() == b.echo()
    assert a.echo_dict() == b.echo_dict()
    assert "threads" not in a.echo()
    assert "cache" not in a.echo()


def test_config_from_args_precedence(tmp_path):
    path = tmp_path / "cfg.json"
    RunConfig(p=5, f=1, max_degree=6, threads=2).save(path)
    parser = build_parser()
    args = parser.parse_args(["moments", "--config", str(path),
                              "--max-degree", "3"])
    cfg = config_from_args(args)
    assert cfg.p == 5            # from the file
    assert cfg.max_degree == 3   # flag wins
    assert cfg.threads == 2      # from the file


def test_cache_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    parser = build_parser()
    cfg = config_from_args(parser.parse_args(["traces", "--degree", "1"]))
    assert cfg.cache_dir == str(tmp_path)
    monkeypatch.setenv(CACHE_ENV, "/elsewhere")
    cfg = config_from_args(parser.parse_args(
        ["traces", "--degree", "1", "--cache-dir", str(tmp_path)]))
    assert cfg.cache_dir == str(tmp_path)  # explicit flag wins over env


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


def test_unwritable_cache_dir_exits_two(tmp_path, capsys):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    assert main(["traces", "--p", "3", "--degree", "1",
                 "--cache-dir", str(not_a_dir)]) == 2
    assert_one_usage_error(capsys)


def test_output_to_a_directory_exits_two(tmp_path, capsys):
    assert main(["moments", "--max-degree", "2", "--output", str(tmp_path)]) == 2
    assert_one_usage_error(capsys)


@pytest.mark.parametrize("config", [{"p": 3, "bogus": 1}, {"p": "x"}, [3]])
def test_bad_config_file_exits_two(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["moments", "--config", str(path)]) == 2
    assert_one_usage_error(capsys)


def test_corrupt_cache_file_exits_two(tmp_path, capsys):
    argv = ["traces", "--p", "3", "--degree", "1", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    cached = next(tmp_path.glob("altsums_trace_*.csv"))
    cached.write_bytes(cached.read_bytes().replace(b"-3", b"-6", 1))
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


def test_cache_populated_under_env(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    assert main(["traces", "--p", "3", "--f", "1", "--degree", "1",
                 "--output", str(tmp_path / "o.csv")]) == 0
    cached = list(tmp_path.glob("altsums_trace_*.csv"))
    assert len(cached) == 1


# -- determinism -------------------------------------------------------------------


def test_all_byte_identical_across_threads(tmp_path):
    digests = []
    for threads in (1, 3):
        cache = tmp_path / f"cache_{threads}"
        cache.mkdir()
        out = tmp_path / f"all_{threads}.csv"
        rc = main(["all", "--p", "3", "--f", "1", "--max-degree", "3",
                   "--threads", str(threads), "--cache-dir", str(cache),
                   "--output", str(out)])
        assert rc == 0
        digests.append(out.read_bytes())
    assert digests[0] == digests[1]


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
