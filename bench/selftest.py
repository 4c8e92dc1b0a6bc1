"""Self-test of the benchmark itself.

    python3 bench/selftest.py          # about fifteen seconds

It shows that the correctness gate counts a tampered stdout byte and a
false tower check as failed operations and fails the command, that a
checkout without the library is refused, that the traced run classifies
trace-cache misses and hits, that self times of a synthetic span tree come
out right, and that BENCHMARK.json lists the metrics run.py reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class SelfTimes(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0, 10] has span children a [1, 4] and b [3, 6], which overlap,
        # and an aggregate of 2 s whose own aggregate child took 0.5 s;
        # a has a child c [2, 3].
        trace = {
            "trace_id": "t",
            "spans": [
                {"id": 1, "parent": None, "name": "cli.main", "start": 0.0, "end": 10.0, "attrs": {}},
                {"id": 2, "parent": 1, "name": "traces.trace_table", "start": 1.0, "end": 4.0, "attrs": {}},
                {"id": 3, "parent": 1, "name": "curves.count_points", "start": 3.0, "end": 6.0, "attrs": {}},
                {"id": 4, "parent": 2, "name": "fields.build_field", "start": 2.0, "end": 3.0, "attrs": {}},
            ],
            "aggregates": [
                {"id": 5, "name": "cyclotomic.CycInt.__mul__", "parent": 1, "count": 4, "total_s": 2.0},
                {"id": 6, "name": "cyclotomic.CycInt.__init__", "parent": 5, "count": 4, "total_s": 0.5},
            ],
        }
        selfs = spans.self_times(trace)
        self.assertEqual(selfs, {1: 3.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 1.5, 6: 0.5})
        layers = spans.layer_self_times(trace)
        self.assertEqual((layers["cli"], layers["traces"], layers["curves"],
                          layers["fields"], layers["cyclotomic"]),
                         (3.0, 2.0, 3.0, 1.0, 2.0))

    def test_recorder_builds_the_tree(self):
        rec = spans.Recorder("t", clock=FakeClock())

        def leaf():
            return rec.tally("cyclotomic.leaf", lambda: 7, (), {})

        def outer():
            return rec.span("traces.inner", leaf, (), {}) + 1

        self.assertEqual(rec.span("cli.main", outer, (), {}), 8)
        trace = rec.as_dict()
        by_name = {s["name"]: s for s in trace["spans"]}
        agg, = trace["aggregates"]
        self.assertEqual(by_name["traces.inner"]["parent"], by_name["cli.main"]["id"])
        self.assertEqual((agg["parent"], agg["count"], agg["total_s"]),
                         (by_name["traces.inner"]["id"], 1, 1.0))
        # clock ticks: main 1..6, inner 2..5, leaf 3..4
        self.assertEqual(spans.self_times(trace)[by_name["cli.main"]["id"]], 2.0)
        self.assertEqual(spans.self_times(trace)[by_name["traces.inner"]["id"]], 2.0)


def _tampering(mutate):
    """run.run_proc whose workload outputs pass through mutate(stdout)."""
    real = run.run_proc

    def fake(argv, workdir, deadline, src=run.SRC):
        proc = real(argv, workdir, deadline, src)
        if "-c" not in argv and src == run.SRC:  # the program's outputs only
            proc.stdout = mutate(proc.stdout)
        return proc
    return fake


def _flip_last_byte(data: bytes) -> bytes:
    return data[:-2] + bytes([data[-2] ^ 1]) + data[-1:]


class CorrectnessGate(unittest.TestCase):
    reference = json.loads((BENCH / "reference.json").read_text(encoding="ascii"))

    def test_check_rejects_a_tampered_byte(self):
        op = run.Op("tower-p3", [])
        good = b"x"
        want = run.sha256(good)
        ref = {"cli": {"tower-p3": want}}
        ok = run.Proc(rc=0, wall=1, cpu=1, rss_mb=1, stdout=good, stderr=b"")
        self.assertEqual(op.check(ok, ref), (1, []))
        bad = run.Proc(rc=0, wall=1, cpu=1, rss_mb=1, stdout=b"y", stderr=b"")
        attempted, failures = op.check(bad, ref)
        self.assertEqual((attempted, len(failures)), (1, 1))

    def test_check_rejects_a_false_tower_check(self):
        op = run.Op("gauss", ["3,5"])
        towers = {p: self.reference["gauss"][p] for p in ("3", "5")}
        ok = run.Proc(rc=0, wall=1, cpu=1, rss_mb=1,
                      stdout=json.dumps(towers).encode(), stderr=b"")
        self.assertEqual(op.check(ok, self.reference), (2, []))
        towers["5"] = json.loads(json.dumps(towers["5"]))
        towers["5"]["hasse_davenport"][0] = False
        bad = run.Proc(rc=0, wall=1, cpu=1, rss_mb=1,
                       stdout=json.dumps(towers).encode(), stderr=b"")
        attempted, failures = op.check(bad, self.reference)
        self.assertEqual((attempted, len(failures)), (2, 1))

    def _run_command(self, workload, mutate):
        out = io.StringIO()
        saved = run.run_proc
        run.run_proc = _tampering(mutate)
        try:
            with contextlib.redirect_stdout(out):
                rc = run.main(["--workload", workload, "--seconds", "1"])
        finally:
            run.run_proc = saved
        return rc, json.loads(out.getvalue().strip().splitlines()[-1])

    def test_command_fails_on_a_tampered_stdout_byte(self):
        rc, result = self._run_command("tower-p3", _flip_last_byte)
        self.assertEqual(rc, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_command_fails_on_a_false_check(self):
        def falsify(data):
            return data.replace(b"true", b"false", 1)
        rc, result = self._run_command("gauss-towers", falsify)
        self.assertEqual(rc, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["failed"], result["attempted"])


class Spec(unittest.TestCase):
    def test_benchmark_json_lists_what_run_reports(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
        names = [w["name"] for w in spec["workloads"]]
        self.assertEqual(names, [n for n in run.WORKLOADS if n in names])
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)


class Checkout(unittest.TestCase):
    def test_refuses_a_directory_without_the_library(self):
        bare = run.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(BENCH, bare / BENCH.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, str(bare / BENCH.name / "run.py"),
                 "--workload", "tower-p3", "--seconds", "1"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class TracedCache(unittest.TestCase):
    def test_miss_then_hit(self):
        work = run.WORK / "selftest-cache"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            outcomes = []
            for n in range(2):
                trace_file = work / f"trace-{n}.json"
                argv = run.Op("x", ["traces", "--p", "3", "--degree", "3",
                                    "--cache-dir", str(work / "cache")]
                              ).argv(trace_file, f"selftest/{n}")
                proc = run.run_proc(argv, work, time.monotonic() + 60)
                self.assertEqual(proc.rc, 0, proc.stderr)
                trace = json.loads(trace_file.read_text(encoding="ascii"))
                self.assertTrue(all(s["name"] != "cli.main" or s["parent"] is None
                                    for s in trace["spans"]))
                outcomes.append(spans.layer_metrics(trace))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        miss, hit = outcomes
        self.assertEqual((miss["traces.cache_misses"], miss["traces.entries_computed"]), (1, 27))
        self.assertEqual((hit["traces.cache_hits"], hit["traces.entries_loaded"]), (1, 27))
        self.assertEqual(hit["traces.entries_computed"], 0)
        self.assertGreater(miss["traces.cache_bytes_written"], 0)
        self.assertEqual(hit["traces.cache_bytes_read"], miss["traces.cache_bytes_written"])


if __name__ == "__main__":
    unittest.main()
