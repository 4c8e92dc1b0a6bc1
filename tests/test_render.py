"""Block rendering of long tables, against per-row oracles.

Long tables (trace rows, curve counts) are rendered a block of rows at a
time, one %-format per block, and the JSON document is written piece by
piece.  The oracles here are the plain ways: `json.dumps(obj, indent=2)` for
JSON, and one f-string per row for CSV, as the library wrote them before.
"""

import json
import random

import numpy as np
import pytest

from altsums.cli import ROW_BLOCK, Rows, _count_rows, _json_chunks, _trace_rows, main
from altsums.curves import count_points
from altsums.traces import SystemParams, TraceTable, trace_table

P33 = SystemParams(p=3, f=1)

# every kernel table with p in {3, 5, 7} and #L <= 3^8
KERNEL = [(SystemParams(p=p, f=1), D)
          for p, top in ((3, 8), (5, 5), (7, 4)) for D in range(1, top + 1)]


# -- per-row oracles -----------------------------------------------------------------


def ref_trace_text(table):
    N = table.denominator
    return "".join(f"{i},{c},{N},{c % N == 0:d}\n"
                   for i, c in enumerate(table.numerators.tolist()))


def ref_count_text(counts):
    return "".join(f"{i},{n}\n" for i, n in enumerate(counts))


def plain(value):
    """The value with every Rows spelled out as lists, for json.dumps."""
    if isinstance(value, Rows):
        def fill(row):
            cells = iter(row)
            if value.item == "%d":
                return next(cells)
            return [next(cells) if c == "%d" else c for c in value.item]
        return [fill(row) for row in zip(*value.columns)]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    return value


def rendered(value):
    return "".join(_json_chunks(value))


# -- CSV text --------------------------------------------------------------------------


@pytest.mark.parametrize("params, degree", KERNEL)
def test_trace_rows_match_the_per_row_text(params, degree):
    table = trace_table(params, degree)
    text = "".join(_trace_rows(table).blocks())
    assert text == ref_trace_text(table)


@pytest.mark.parametrize("params, degree",
                         [(P33, D) for D in range(1, 8)] + [(SystemParams(5, 1), 4)])
def test_count_rows_match_the_per_row_text(params, degree):
    count = count_points(params, degree)
    assert "".join(_count_rows(count).blocks()) == ref_count_text(count.counts)


@pytest.mark.parametrize("n", [0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1,
                               2 * ROW_BLOCK + 1])
def test_blocks_at_the_block_size_edges(n):
    rng = random.Random(n)
    nums = tuple(rng.randrange(-2**70, 2**70) for _ in range(n))
    # values whose numerators (value * n) span the int64 range and reach its ends
    top = 2**63 // max(n, 1)
    values = [rng.randrange(-top, top) for _ in range(n)]
    values[:2] = [-top, top - 1][:n]
    table = TraceTable(P33, 1, "field", np.array(values, dtype=np.int64))
    blocks = list(_trace_rows(table).blocks())
    assert len(blocks) == -(-n // ROW_BLOCK)
    assert "".join(blocks) == ref_trace_text(table)
    assert "".join(Rows(["%d", "%d"], (range(n), nums)).blocks()) == \
        ref_count_text(nums)


# -- JSON --------------------------------------------------------------------------------


SHORT = [0, -1, 7, 2**63, -2**64 - 5, 1.5, -0.25, True, False, None, "",
         'say "hi"', "back\\slash", "café – ü", "tab\there\nline",
         [], {}, [1, [2, 3]], (4, "five"), [[]], {"k": []}]


def random_rows(rng):
    n = rng.choice([0, 1, 2, rng.randrange(3, 40), ROW_BLOCK - 1, ROW_BLOCK,
                    ROW_BLOCK + 1])
    shape = rng.choice(["flat", "one", "many"])
    if shape == "flat":
        item = "%d"
    elif shape == "one":
        item = ["%d"]
    else:
        item = [rng.choice(["%d", rng.randrange(-99, 10**20)])
                for _ in range(rng.randrange(1, 6))] + ["%d"]
    width = 1 if item == "%d" else item.count("%d")
    big = rng.choice([10, 2**63, 2**80])
    columns = tuple(range(n) if j == 0 and rng.random() < 0.5 else
                    [rng.randrange(-big, big) for _ in range(n)]
                    for j in range(width))
    return Rows(item, columns)


def random_value(rng, depth):
    pick = rng.random()
    if pick < 0.3 and depth < 4:
        return {rng.choice(["a", "key", 'q"uote', "été", "x y"]) + str(i):
                random_value(rng, depth + 1) for i in range(rng.randrange(0, 5))}
    if pick < 0.5:
        return random_rows(rng)
    if pick < 0.6:
        return [tuple(rng.choice(SHORT[:14]) for _ in range(rng.randrange(0, 4)))
                for _ in range(rng.randrange(0, 4))]
    return rng.choice(SHORT)


@pytest.mark.parametrize("seed", range(40))
def test_json_document_matches_json_dumps(seed):
    rng = random.Random(seed)
    doc = {f"part{i}": random_value(rng, 1) for i in range(rng.randrange(1, 6))}
    assert rendered(doc) == json.dumps(plain(doc), indent=2)


@pytest.mark.parametrize("value", SHORT + [
    Rows("%d", ((),)), Rows(["%d"], ([5],)), Rows(["%d", 3, "%d"], ([1], [-2])),
    {"rows": Rows(["%d"], (range(3),))}, {"a": {"b": {"c": Rows("%d", ([2**64],))}}}])
def test_json_values_match_json_dumps_at_every_depth(value):
    for level in range(3):
        doc = value
        for _ in range(level):
            doc = {"outer": doc, "after": [1]}
        assert rendered(doc) == json.dumps(plain(doc), indent=2)


def test_traces_json_document_matches_json_dumps(capsys):
    assert main(["traces", "--p", "3", "--degree", "8", "--format", "json"]) == 0
    out = capsys.readouterr().out
    table = trace_table(P33, 8)
    blob = json.loads(out)
    assert blob["traces_degree_8"]["rows"] == [
        [i, c, 6561, int(c % 6561 == 0)] for i, c in enumerate(table.numerators.tolist())]
    assert out == json.dumps(blob, indent=2) + "\n"
