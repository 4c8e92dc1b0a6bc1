"""Span recorder for the traced benchmark run.

The recorder works from outside the library: `install` wraps the public
functions of each altsums module and rebinds the wrappers in every altsums
namespace that holds the original, so calls made through `from .x import f`
are seen too.  Nothing under `src/` is edited.

Two kinds of node make up the span tree of one process:

* a span, one per call: name, start, end, parent, attributes (p, d, N and
  per-function extras such as the trace-cache outcome);
* an aggregate, one per (name, parent) pair, for the high-frequency `CycInt`
  methods: call count and total seconds, kept in memory and written out with
  the spans when the process ends.

All nodes of one process share its trace id.  A node's self time is its
duration minus the part of it that its children cover; `layer_metrics` turns
one process's tree into the per-layer benchmark metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

# Layers are the altsums modules; the CLI contributes only `main`.
LAYERS = ("fields", "characters", "cyclotomic", "traces", "groups",
          "identities", "curves", "verdict", "cli")

# CycInt methods run tens of thousands of times per pipeline; they are
# aggregated per (name, parent) instead of recorded one span per call.
CYCINT_METHODS = ("__init__", "zero", "one", "rational", "root",
                  "from_power_counts", "__add__", "__sub__", "__rsub__",
                  "__neg__", "__mul__", "__pow__", "conj", "abs_squared",
                  "as_rational", "__eq__")


class Recorder:
    """In-memory span tree of one process."""

    def __init__(self, trace_id: str, clock=time.perf_counter):
        self.trace_id = trace_id
        self.clock = clock
        self.spans: list[dict] = []
        self.aggregates: dict[tuple[str, int | None], list] = {}
        self._stack: list[int | None] = [None]
        self._next_id = 1

    def _new_id(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return nid

    def span(self, name, fn, args, kwargs, probe=None):
        """Run fn as one recorded span; probe(args, kwargs) -> after-hook."""
        parent = self._stack[-1]
        sid = self._new_id()
        after = probe(args, kwargs) if probe else None
        self._stack.append(sid)
        result = error = None
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = self.clock()
            self._stack.pop()
            attrs = call_attrs(args, kwargs)
            if after is not None:
                attrs.update(after(result, error))
            record = {"id": sid, "parent": parent, "name": name,
                      "start": start, "end": end, "attrs": attrs}
            if error:
                record["error"] = error
            self.spans.append(record)

    def tally(self, name, fn, args, kwargs):
        """Run fn and add its duration to the (name, parent) aggregate."""
        parent = self._stack[-1]
        node = self.aggregates.get((name, parent))
        if node is None:
            node = self.aggregates[(name, parent)] = [self._new_id(), 0, 0.0]
        self._stack.append(node[0])
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            node[2] += self.clock() - start
            node[1] += 1
            self._stack.pop()

    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "spans": self.spans,
            "aggregates": [{"id": nid, "name": name, "parent": parent,
                            "count": count, "total_s": total}
                           for (name, parent), (nid, count, total)
                           in self.aggregates.items()],
        }

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps(self.as_dict()), encoding="ascii")


# -- attributes ------------------------------------------------------------------


def call_attrs(args, kwargs) -> dict:
    """(p, d, N) of the field a call works on, when its arguments name one."""
    for a in args:
        if all(hasattr(a, k) for k in ("p", "d", "order")):
            return {"p": a.p, "d": a.d, "N": a.order}
    if args and hasattr(args[0], "base_degree"):  # SystemParams, degree
        params = args[0]
        degree = kwargs.get("degree")
        if degree is None and len(args) > 1 and isinstance(args[1], int):
            degree = args[1]
        if degree is None:
            return {"p": params.p}
        d = params.base_degree * degree
        return {"p": params.p, "d": d, "N": params.p ** d}
    if args and hasattr(args[0], "base"):  # CharacterContext
        return {"p": args[0].base.p}
    return {}


def _probe_build_field(args, kwargs):
    p, d = args[0], args[1]
    return lambda result, error: {"p": p, "d": d, "N": p ** d}


def _probe_field_init(args, kwargs):
    obj = args[0]

    def after(result, error):
        if error:
            return {}
        table_bytes = sum(v.nbytes for v in vars(obj).values()
                          if hasattr(v, "nbytes"))
        return {"p": obj.p, "d": obj.d, "N": obj.order,
                "table_bytes": table_bytes}
    return after


def trace_cache_path(params, degree: int, cache_dir) -> Path:
    """Cache file name as documented in the README's "Trace cache" section."""
    name = (f"altsums_trace_p{params.p}_f{params.f}_b{params.base_degree}"
            f"_c{params.multiplier % params.p}_D{degree}.csv")
    return Path(cache_dir) / name


def _file_state(path: Path):
    try:
        st = path.stat()
    except FileNotFoundError:
        return None
    return (st.st_ino, st.st_size, st.st_mtime_ns)


def _probe_trace_table(args, kwargs):
    """Classify one trace_table call as a cache hit, miss or reject.

    The decision is made from outside: a hit is a call that found the cache
    file and left it untouched; a reject found it and raised or rewrote it; a
    miss found none.  Calls without a cache directory are "uncached".
    """
    params, degree = args[0], kwargs.get("degree", args[1] if len(args) > 1 else None)
    cache_dir = kwargs.get("cache_dir")
    path = trace_cache_path(params, degree, cache_dir) if cache_dir else None
    before = _file_state(path) if path else None

    def after(result, error):
        out = {"entries": len(result.numerators) if result is not None else 0}
        if path is None:
            out["cache"] = "uncached"
            return out
        now = _file_state(path)
        if before is None:
            out["cache"] = "miss"
            out["bytes_written"] = now[1] if now else 0
        elif error or now != before:
            out["cache"] = "reject"
            out["bytes_read"] = before[1]
            out["bytes_written"] = now[1] if now and now != before else 0
        else:
            out["cache"] = "hit"
            out["bytes_read"] = before[1]
        return out
    return after


def _probe_count_points(args, kwargs):
    def after(result, error):
        return {"pairs": result.field_order ** 2} if result is not None else {}
    return after


def _probe_build_stats(args, kwargs):
    def after(result, error):
        if result is None:
            return {}
        return {"m": result.m, "classes": len(result.classes),
                "stats_id": id(result)}
    return after


PROBES = {
    "fields.build_field": _probe_build_field,
    "fields.FieldDescriptor.__init__": _probe_field_init,
    "traces.trace_table": _probe_trace_table,
    "curves.count_points": _probe_count_points,
    "groups.build_stats": _probe_build_stats,
}


# -- installation -----------------------------------------------------------------


def _public_functions(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # imported from elsewhere; wrapped where it is defined
        if inspect.isgeneratorfunction(obj):
            continue  # a wrapper would time only the generator's creation
        yield attr, obj


def _span_wrapper(rec: Recorder, name: str, fn):
    probe = PROBES.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.span(name, fn, args, kwargs, probe)
    return wrapper


def _tally_wrapper(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.tally(name, fn, args, kwargs)
    return wrapper


def install(rec: Recorder) -> None:
    """Wrap the public surface of every layer and rebind the wrappers."""
    import altsums.cli  # noqa: F401  (imports every layer module)
    from altsums.cyclotomic import CycInt
    from altsums.fields import FieldDescriptor

    wrapped: dict[int, object] = {}
    for layer in LAYERS:
        module = sys.modules[f"altsums.{layer}"]
        for attr, fn in _public_functions(module):
            if layer == "cli" and attr != "main":
                continue
            wrapped[id(fn)] = _span_wrapper(rec, f"{layer}.{attr}", fn)
    for name, module in list(sys.modules.items()):
        if name != "altsums" and not name.startswith("altsums."):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrapped:
                setattr(module, attr, wrapped[id(obj)])

    init = FieldDescriptor.__init__
    FieldDescriptor.__init__ = _span_wrapper(
        rec, "fields.FieldDescriptor.__init__", init)
    for meth in CYCINT_METHODS:
        raw = CycInt.__dict__[meth]
        name = f"cyclotomic.CycInt.{meth}"
        if isinstance(raw, classmethod):
            setattr(CycInt, meth,
                    classmethod(_tally_wrapper(rec, name, raw.__func__)))
        else:
            setattr(CycInt, meth, _tally_wrapper(rec, name, raw))


# -- analysis -----------------------------------------------------------------------


def self_times(trace: dict) -> dict[int, float]:
    """Self seconds of every node, keyed by node id.

    A span's children are covered by the union of their intervals, clipped
    to the span; aggregate children carry no intervals, so their total is
    added to the covered part (calls in one thread never overlap).  An
    aggregate's self time is its total minus its children's.
    """
    spans = {s["id"]: s for s in trace["spans"]}
    aggs = {a["id"]: a for a in trace["aggregates"]}
    child_spans: dict[int, list] = {}
    child_total: dict[int, float] = {}
    for s in spans.values():
        child_spans.setdefault(s["parent"], []).append((s["start"], s["end"]))
    for a in aggs.values():
        child_total[a["parent"]] = child_total.get(a["parent"], 0.0) + a["total_s"]
    for s in spans.values():
        if s["parent"] in aggs:
            child_total[s["parent"]] = (child_total.get(s["parent"], 0.0)
                                        + s["end"] - s["start"])
    out = {}
    for sid, s in spans.items():
        covered = _union_length(child_spans.get(sid, ()), s["start"], s["end"])
        out[sid] = s["end"] - s["start"] - covered - child_total.get(sid, 0.0)
    for aid, a in aggs.items():
        out[aid] = a["total_s"] - child_total.get(aid, 0.0)
    return out


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_self_times(trace: dict, selfs=None) -> dict[str, float]:
    """Self seconds summed per layer."""
    selfs = selfs if selfs is not None else self_times(trace)
    out = {layer: 0.0 for layer in LAYERS}
    for node in trace["spans"] + trace["aggregates"]:
        out[layer_of(node["name"])] += selfs[node["id"]]
    return out


def layer_metrics(trace: dict, selfs=None) -> dict[str, float]:
    """Per-layer metrics of one traced process (see BENCHMARK.json)."""
    selfs = selfs if selfs is not None else self_times(trace)
    layer_s = layer_self_times(trace, selfs)
    spans = trace["spans"]
    calls = {layer: 0 for layer in LAYERS}
    for s in spans:
        calls[layer_of(s["name"])] += 1
    for a in trace["aggregates"]:
        calls[layer_of(a["name"])] += a["count"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    builds = named("fields.FieldDescriptor.__init__")
    tables = named("traces.trace_table")
    counts = named("curves.count_points")
    stats = {s["attrs"]["stats_id"]: s["attrs"]["classes"]
             for s in named("groups.build_stats") if "stats_id" in s["attrs"]}
    computed = sum(s["attrs"]["entries"] for s in tables
                   if s["attrs"].get("cache") in ("miss", "reject", "uncached"))
    loaded = sum(s["attrs"]["entries"] for s in tables
                 if s["attrs"].get("cache") == "hit")
    traces_s = sum(selfs[s["id"]] for s in tables)
    curves_s = sum(selfs[s["id"]] for s in counts)
    pairs = sum(s["attrs"].get("pairs", 0) for s in counts)

    def outcome(kind):
        return sum(1 for s in tables if s["attrs"].get("cache") == kind)

    return {
        "fields.self_s": layer_s["fields"],
        "fields.build_s": sum(s["end"] - s["start"] for s in builds),
        "fields.builds": len(builds),
        "fields.elements": sum(s["attrs"].get("N", 0) for s in builds),
        "fields.table_mb": sum(s["attrs"].get("table_bytes", 0)
                               for s in builds) / 2**20,
        "characters.s": layer_s["characters"],
        "characters.calls": calls["characters"],
        "cyclotomic.s": layer_s["cyclotomic"],
        "cyclotomic.ops": calls["cyclotomic"],
        "traces.self_s": layer_s["traces"],
        "traces.s": traces_s,
        "traces.entries_computed": computed,
        "traces.entries_loaded": loaded,
        "traces.entries_per_s": (computed + loaded) / traces_s if traces_s else 0.0,
        "traces.cache_hits": outcome("hit"),
        "traces.cache_misses": outcome("miss"),
        "traces.cache_rejects": outcome("reject"),
        "traces.cache_bytes_read": sum(s["attrs"].get("bytes_read", 0)
                                       for s in tables),
        "traces.cache_bytes_written": sum(s["attrs"].get("bytes_written", 0)
                                          for s in tables),
        "curves.self_s": layer_s["curves"],
        "curves.s": curves_s,
        "curves.pairs": pairs,
        "curves.pairs_per_s": pairs / curves_s if curves_s else 0.0,
        "curves.m3_s": sum(s["end"] - s["start"]
                           for s in named("curves.modified_third_moment")),
        "groups.s": layer_s["groups"],
        "groups.classes": sum(stats.values()),
        "identities.s": layer_s["identities"],
        "verdict.s": layer_s["verdict"],
        "cli.self_s": layer_s["cli"],
    }

