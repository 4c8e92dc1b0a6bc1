"""altsums benchmark: whole pipeline runs timed from outside.

    python3 bench/run.py --workload tower-p3 --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all            # every workload, summary

Run it from anywhere; it works on the checkout that holds it (the library
under `src/`, imported through PYTHONPATH, never an installed copy).

Each run sets up, then repeats complete workload iterations for about
`--seconds` seconds.  An iteration runs the workload's operations one after
another, each in a fresh process, in an order drawn from `--seed`; the seed
changes nothing else, so the reference digests in `reference.json` gate
every operation:

* a CLI invocation passes when it exits 0 and its stdout has the recorded
  sha256;
* a Gauss-sum tower passes when every check returns the recorded value.

With `--trace 0` the run reports the end-to-end metrics.  The machine's
speed drifts by a third over minutes, so times are measured against a
frozen copy of the library at commit 8d3bf77 (`bench/baseline/`): every
iteration of the program runs right beside one of the copy, in alternating
order, and so does every timed `import altsums.cli` (set-up).  `wall_s`,
`cpu_s` and `setup_s` are the medians of program-over-copy ratios times the
copy's time on the reference machine (`reference.json`), that is, seconds
at a fixed machine speed.  `peak_rss_mb` is the median largest peak RSS of
one program process.  With `--trace 1` it alternates plain and traced
iterations of the program (see `spans.py`) and reports per-layer metrics.  The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the exit code is 1 when an operation failed and 2 when the
benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BASELINE = BENCH / "baseline"  # frozen copy of src/ at commit 8d3bf77
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))

import spans  # noqa: E402

PY = sys.executable
CHILD = str(BENCH / "child.py")
DEADLINE_S = 170.0       # a run ends well within the 180 s it is allowed
IMPORT_SAMPLES = 3       # import pairs timed before the first iteration

CLI_ARGS = {
    "tower-p3": ["all", "--p", "3", "--f", "1", "--max-degree", "8"],
    "curves-p5": ["all", "--p", "5", "--f", "1", "--max-degree", "5"],
    "curves-p7-json": ["all", "--p", "7", "--f", "1", "--multiplier", "2",
                       "--max-degree", "4", "--format", "json"],
}
GAUSS_PRIMES = [3, 5, 7, 11, 13]

# BENCHMARK.json gates the first two; bench/README.md says why gauss-towers
# is run by hand (and by --workload all) only.
WORKLOADS = {
    "tower-p3": "flagship `altsums all` at p=3, degrees 1-8, on an empty "
                "trace cache: the trace kernel does most of the work",
    "curves-warm": "`all` at p=5 (csv) and p=7 with psi multiplier 2 (json) "
                   "on a filled trace cache: curve enumeration dominates",
    "gauss-towers": "Gauss-sum and Hasse-Davenport checks over five towers "
                    "(#L <= 30000): field construction dominates",
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "fields.self_s": "s", "fields.build_s": "s", "fields.builds": "count",
    "fields.elements": "count", "fields.table_mb": "MB",
    "characters.s": "s", "characters.calls": "count",
    "cyclotomic.s": "s", "cyclotomic.ops": "count",
    "traces.self_s": "s", "traces.s": "s",
    "traces.entries_computed": "count", "traces.entries_loaded": "count",
    "traces.entries_per_s": "1/s", "traces.cache_hits": "count",
    "traces.cache_misses": "count", "traces.cache_rejects": "count",
    "traces.cache_bytes_read": "bytes", "traces.cache_bytes_written": "bytes",
    "curves.self_s": "s", "curves.s": "s", "curves.pairs": "count",
    "curves.pairs_per_s": "1/s", "curves.m3_s": "s",
    "groups.s": "s", "groups.classes": "count",
    "identities.s": "s", "verdict.s": "s",
    "cli.self_s": "s", "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}

# Byte counts derived from file sizes and array nbytes, not measured I/O.
COMPUTED = ["fields.table_mb", "traces.cache_bytes_read",
            "traces.cache_bytes_written", "cli.output_bytes"]


class SetupError(RuntimeError):
    """The benchmark cannot run here (no library, wrong import, bad setup)."""


# -- processes ---------------------------------------------------------------------


@dataclass
class Proc:
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.pop("ALTSUMS_CACHE_DIR", None)
    return env


def run_proc(argv: list[str], workdir: Path, deadline: float,
             src: Path = SRC) -> Proc:
    """Run argv to completion with the library under src; wall, CPU and peak
    RSS of that process alone."""
    out, err = workdir / "stdout", workdir / "stderr"
    with open(out, "wb") as fo, open(err, "wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=ROOT,
                                env=child_env(src))
        killer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                 proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(rc=proc.returncode, wall=wall, cpu=ru.ru_utime + ru.ru_stime,
                rss_mb=ru.ru_maxrss / 1024, stdout=out.read_bytes(),
                stderr=err.read_bytes())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- operations --------------------------------------------------------------------


@dataclass
class Op:
    """One process of an iteration: a CLI invocation or the Gauss towers."""

    key: str                    # reference entry; "gauss" for the towers
    args: list[str]             # CLI arguments, or [comma-separated primes]

    def argv(self, trace_file: Path | None, trace_id: str) -> list[str]:
        traced = ["--trace", str(trace_file), "--trace-id", trace_id] \
            if trace_file else []
        if self.key == "gauss":
            return [PY, CHILD, *traced, "gauss", *self.args]
        if trace_file:
            return [PY, CHILD, *traced, "cli", *self.args]
        return [PY, "-m", "altsums.cli", *self.args]

    def check(self, proc: Proc, reference: dict) -> tuple[int, list[str]]:
        """(operations attempted, failure messages) for one finished process."""
        if self.key != "gauss":
            want = reference["cli"][self.key]
            if proc.rc != 0:
                return 1, [f"{self.key}: exit {proc.rc}: {_tail(proc.stderr)}"]
            got = sha256(proc.stdout)
            return 1, [] if got == want else [
                f"{self.key}: stdout sha256 {got} != reference {want}"]
        primes = self.args[0].split(",")
        if proc.rc != 0:
            return len(primes), [f"gauss {p}: exit {proc.rc}: "
                                 f"{_tail(proc.stderr)}" for p in primes]
        try:
            got = json.loads(proc.stdout)
        except ValueError:
            return len(primes), [f"gauss {p}: unreadable output" for p in primes]
        return len(primes), [f"gauss {p}: checks differ from the reference"
                             for p in primes
                             if got.get(p) != reference["gauss"][p]]


def _tail(data: bytes) -> str:
    lines = data.decode(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


# -- workloads ---------------------------------------------------------------------


@dataclass
class Iteration:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    output_bytes: int = 0
    traces: list[dict] = field(default_factory=list)


class Workload:
    """Set-up plus a seeded sequence of iterations of one workload, run with
    the library under `src`."""

    def __init__(self, name: str, workdir: Path, reference: dict,
                 rng: random.Random, src: Path = SRC):
        self.name = name
        self.workdir = workdir
        self.src = src
        self.reference = reference
        self.rng = rng
        self.setup_attempted = 0
        self.setup_failures: list[str] = []
        self.cache = workdir / "cache"
        self.cache_digests: dict[str, str] = {}

    def setup(self, deadline: float) -> None:
        if self.name != "curves-warm":
            return
        # Fill the cache with cold runs; their stdout must already match.
        for key in ("curves-p5", "curves-p7-json"):
            op = Op(key, CLI_ARGS[key] + ["--cache-dir", str(self.cache)])
            proc = run_proc(op.argv(None, ""), self.workdir, deadline,
                            self.src)
            attempted, failures = op.check(proc, self.reference)
            self.setup_attempted += attempted
            self.setup_failures += [f"cold {f}" for f in failures]
        self.cache_digests = self.snapshot_cache()
        if not self.cache_digests:
            raise SetupError("curves-warm: set-up left the trace cache empty")

    def snapshot_cache(self) -> dict[str, str]:
        if not self.cache.is_dir():
            return {}
        return {p.name: sha256(p.read_bytes())
                for p in sorted(self.cache.iterdir())}

    def ops(self, index: int) -> list[Op]:
        if self.name == "tower-p3":
            fresh = self.workdir / f"cache-{index}"
            return [Op("tower-p3", CLI_ARGS["tower-p3"] + ["--cache-dir", str(fresh)])]
        if self.name == "curves-warm":
            ops = [Op(k, CLI_ARGS[k] + ["--cache-dir", str(self.cache)])
                   for k in ("curves-p5", "curves-p7-json")]
            self.rng.shuffle(ops)
            return ops
        primes = [str(p) for p in GAUSS_PRIMES]
        self.rng.shuffle(primes)
        return [Op("gauss", [",".join(primes)])]

    def after_op(self, op: Op, index: int) -> list[str]:
        """Cache hygiene after each operation, outside the timed region."""
        if self.name == "tower-p3":
            shutil.rmtree(self.workdir / f"cache-{index}", ignore_errors=True)
        if self.name == "curves-warm":
            now = self.snapshot_cache()
            if now != self.cache_digests:
                self.cache_digests = now
                return [f"{op.key}: warm run changed the trace cache bytes"]
        return []

    def iterate(self, index: int, traced: bool, trace_id: str,
                deadline: float) -> Iteration:
        it = Iteration()
        for n, op in enumerate(self.ops(index)):
            self.run_op(op, index, n, it, traced, trace_id, deadline)
        return it

    def run_op(self, op: Op, index: int, n: int, it: Iteration, traced: bool,
               trace_id: str, deadline: float) -> None:
        """Run operation n of iteration index; add its figures to it."""
        trace_file = self.workdir / f"trace-{index}-{n}.json" if traced else None
        proc = run_proc(op.argv(trace_file, f"{trace_id}/{index}/{op.key}"),
                        self.workdir, deadline, self.src)
        attempted, failures = op.check(proc, self.reference)
        failures += self.after_op(op, index)
        it.wall += proc.wall
        it.cpu += proc.cpu
        it.rss_mb = max(it.rss_mb, proc.rss_mb)
        it.attempted += attempted
        it.failures += failures
        if op.key != "gauss":
            it.output_bytes += len(proc.stdout)
        if trace_file is not None:
            if trace_file.exists():
                it.traces.append(json.loads(trace_file.read_text(encoding="ascii")))
                trace_file.unlink()
            else:
                it.failures.append(f"{op.key}: traced run wrote no spans")


def paired_iteration(prog: Workload, base: Workload, index: int,
                     deadline: float) -> tuple[Iteration, Iteration]:
    """One iteration of the program and one of the baseline, interleaved op
    by op in alternating order (program first on even index + op number), so
    each op is timed next to its baseline twin."""
    it, base_it = Iteration(), Iteration()
    for n, (op, base_op) in enumerate(zip(prog.ops(index), base.ops(index))):
        steps = [(prog, op, it), (base, base_op, base_it)]
        if (index + n) % 2:
            steps.reverse()
        for wl, o, into in steps:
            wl.run_op(o, index, n, into, False, "", deadline)
    return it, base_it


# -- measurement ---------------------------------------------------------------------


def check_library(src: Path, workdir: Path, deadline: float) -> dict:
    """Fail unless the children import altsums from src, not elsewhere."""
    code = ("import json, sys, numpy, altsums.cli; print(json.dumps("
            "{'file': altsums.cli.__file__, 'numpy': numpy.__version__, "
            "'python': sys.version.split()[0]}))")
    proc = run_proc([PY, "-c", code], workdir, deadline, src)
    if proc.rc != 0:
        raise SetupError(f"cannot import altsums.cli from {src}: {_tail(proc.stderr)}")
    info = json.loads(proc.stdout)
    if not Path(info["file"]).resolve().is_relative_to(src.resolve()):
        raise SetupError(f"altsums.cli was imported from {info['file']}, not {src}")
    return info


def time_import(src: Path, workdir: Path, deadline: float) -> float:
    """Wall seconds of a fresh interpreter running `import altsums.cli`."""
    proc = run_proc([PY, "-c", "import altsums.cli"], workdir, deadline, src)
    if proc.rc != 0:
        raise SetupError(f"import altsums.cli from {src} failed: {_tail(proc.stderr)}")
    return proc.wall


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(lib: dict) -> dict:
    return {"python": lib["python"], "numpy": lib["numpy"],
            "nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit(),
            "computed_byte_counters": COMPUTED}


def sum_traces(traces: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics and layer self times of one traced iteration: the
    sums over its processes, with the two rates recomputed from the sums."""
    metrics: dict[str, float] = {}
    layers = {layer: 0.0 for layer in spans.LAYERS}
    for trace in traces:
        selfs = spans.self_times(trace)
        for k, v in spans.layer_metrics(trace, selfs).items():
            metrics[k] = metrics.get(k, 0) + v
        for layer, v in spans.layer_self_times(trace, selfs).items():
            layers[layer] += v
    for rate, work, busy in (
            ("traces.entries_per_s",
             ("traces.entries_computed", "traces.entries_loaded"), "traces.s"),
            ("curves.pairs_per_s", ("curves.pairs",), "curves.s")):
        done = sum(metrics.get(w, 0) for w in work)
        metrics[rate] = done / metrics[busy] if metrics.get(busy) else 0.0
    return metrics, layers


@dataclass
class Result:
    attempted: int
    failures: list[str]
    metrics: dict[str, tuple[float, str]]
    samples: dict[str, list[float]]
    layer_self_s: dict[str, float] = field(default_factory=dict)
    raw_s: dict[str, float] = field(default_factory=dict)
    env: dict = field(default_factory=dict)
    iterations: int = 0
    elapsed: float = 0.0


def measure(name: str, seed: int, seconds: float, trace: bool) -> Result:
    deadline = time.monotonic() + DEADLINE_S
    reference = json.loads((BENCH / "reference.json").read_text(encoding="ascii"))
    workdir = WORK / f"{name}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    (workdir / "program").mkdir(parents=True)
    try:
        lib = check_library(SRC, workdir, deadline)
        prog = Workload(name, workdir / "program", reference,
                        random.Random(seed))
        prog.setup(deadline)
        base = None
        if not trace:
            (workdir / "baseline").mkdir()
            check_library(BASELINE, workdir, deadline)
            base = Workload(name, workdir / "baseline", reference,
                            random.Random(seed), BASELINE)
            base.setup(deadline)
            if base.setup_failures:
                raise SetupError(f"{BASELINE} fails its reference: "
                                 f"{base.setup_failures[0]}")
        result = _loop(prog, base, seconds, deadline, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.attempted += prog.setup_attempted
    result.failures = prog.setup_failures + result.failures
    result.env = environment(lib)
    return result


def _loop(prog: Workload, base: Workload | None, seconds: float,
          deadline: float, reference: dict) -> Result:
    """Iterations until `seconds` have passed.  Untraced (base given), each
    step runs a paired iteration of the program and the baseline, then
    times an import of each, in alternating order; traced (base None),
    each step runs one plain and one traced iteration of the program."""
    trace_id = uuid.uuid4().hex
    plain: list[Iteration] = []
    traced: list[Iteration] = []
    base_runs: list[Iteration] = []
    # Import timings are spread over the run, a few before the first
    # iteration and one after each, so they see the same machine as wall_s.
    imports: list[tuple[float, float]] = []

    def import_pair(n: int) -> tuple[float, float]:
        order = (SRC, BASELINE) if n % 2 == 0 else (BASELINE, SRC)
        t = {src: time_import(src, prog.workdir, deadline) for src in order}
        return t[SRC], t[BASELINE]

    if base is not None:
        for src in (SRC, BASELINE):
            time_import(src, prog.workdir, deadline)  # warm the bytecode cache
        imports += [import_pair(n) for n in range(IMPORT_SAMPLES)]
    start = time.perf_counter()
    index = 0
    while True:
        t0 = time.perf_counter()
        if base is None:
            plain.append(prog.iterate(index, False, trace_id, deadline))
            traced.append(prog.iterate(index + 1, True, trace_id, deadline))
            index += 2
        else:
            it, base_it = paired_iteration(prog, base, index, deadline)
            if base_it.failures:
                raise SetupError(f"{BASELINE} fails its reference: "
                                 f"{base_it.failures[0]}")
            plain.append(it)
            base_runs.append(base_it)
            index += 1
            imports.append(import_pair(index))
        step = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if elapsed + step / 2 > seconds or time.monotonic() + 2 * step > deadline:
            break
    everything = plain + traced
    result = Result(attempted=sum(i.attempted for i in everything),
                    failures=[f for i in everything for f in i.failures],
                    metrics={}, samples={}, iterations=len(everything),
                    elapsed=time.perf_counter() - start)
    if base is not None:
        # Times are the program's over the baseline's, run beside it, in
        # seconds of the baseline on the reference machine (reference.json).
        speed = reference["baseline"]
        scale = {"wall_s": speed[prog.name]["wall_s"],
                 "cpu_s": speed[prog.name]["cpu_s"],
                 "setup_s": speed["setup_s"]}
        for key, values in (
                ("wall_s", [i.wall / s.wall for i, s in zip(plain, base_runs)]),
                ("cpu_s", [i.cpu / s.cpu for i, s in zip(plain, base_runs)]),
                ("peak_rss_mb", [i.rss_mb for i in plain]),
                ("setup_s", [p / b for p, b in imports])):
            if key in scale:
                values = [v * scale[key] for v in values]
            result.samples[key] = values
            result.metrics[key] = (statistics.median(values), END_TO_END[key])
        result.raw_s = {
            "program wall": statistics.median(i.wall for i in plain),
            "baseline wall": statistics.median(s.wall for s in base_runs),
            "program cpu": statistics.median(i.cpu for i in plain),
            "baseline cpu": statistics.median(s.cpu for s in base_runs),
            "program import": statistics.median(p for p, _ in imports),
            "baseline import": statistics.median(b for _, b in imports)}
        return result
    per_iter, per_iter_self = zip(*(sum_traces(i.traces) for i in traced))
    for i, it in zip(per_iter, traced):
        i["cli.output_bytes"] = it.output_bytes
    overhead = (statistics.median(i.wall for i in traced)
                - statistics.median(i.wall for i in plain))
    for key, unit in PER_LAYER.items():
        if key == "trace.overhead_s":
            result.metrics[key] = (overhead, unit)
            continue
        values = [i.get(key, 0) for i in per_iter]
        result.samples[key] = values
        result.metrics[key] = (statistics.median(values), unit)
    result.layer_self_s = {layer: statistics.median(s[layer] for s in per_iter_self)
                           for layer in spans.LAYERS}
    return result


# -- reporting -----------------------------------------------------------------------


def report(name: str, seed: int, trace: bool, result: Result) -> dict:
    """Print the human summary of one workload; return its result object."""
    failed = len(result.failures)
    print(f"# workload {name} (seed {seed}, trace {int(trace)}): "
          f"{result.iterations} iterations in {result.elapsed:.1f} s")
    print(f"#   why: {WORKLOADS[name]}")
    for key, (value, unit) in result.metrics.items():
        samples = result.samples.get(key)
        spread = (f"  (median of {len(samples)}, min {min(samples):.6g}, "
                  f"max {max(samples):.6g})") \
            if samples and min(samples) != max(samples) else ""
        print(f"#   {key:<28} {value:>14.6g} {unit}{spread}")
    if result.raw_s:
        print("#   raw medians (s): " + ", ".join(
            f"{k} {v:.4g}" for k, v in result.raw_s.items()))
    print(f"#   {'error_rate':<28} {failed / result.attempted:>14.6g} "
          f"failed/attempted  ({failed} of {result.attempted})")
    if result.layer_self_s:
        total = sum(result.layer_self_s.values()) or 1.0
        shares = ", ".join(f"{layer} {100 * s / total:.1f}%" for layer, s in
                           sorted(result.layer_self_s.items(), key=lambda kv: -kv[1]))
        print(f"#   layer self-time shares: {shares}")
    for failure in result.failures[:20]:
        print(f"#   FAILED {failure}")
    print("# env " + json.dumps(result.env, sort_keys=True))
    return {"correct": failed == 0, "attempted": result.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in result.metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="altsums benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "altsums" / "cli.py").is_file():
        print(f"error: no altsums library under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {}
    for name in names:
        try:
            result = measure(name, args.seed, args.seconds, bool(args.trace))
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        outcomes[name] = report(name, args.seed, bool(args.trace), result)
    if len(names) == 1:
        final = outcomes[names[0]]
    else:
        final = {"correct": all(o["correct"] for o in outcomes.values()),
                 "attempted": sum(o["attempted"] for o in outcomes.values()),
                 "failed": sum(o["failed"] for o in outcomes.values()),
                 "metrics": {f"{n}/{k}": v for n, o in outcomes.items()
                             for k, v in o["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
