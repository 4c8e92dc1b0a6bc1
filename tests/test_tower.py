"""The tower owns its levels: each field of order > q^2 is built once per run
and let go after its level's turn.

The smaller fields (the base field, F_q and the identities' F_{q^2}) are
shared through build_field's memo; a tower level goes through no memo.
Every build, memoized or not, goes through FieldDescriptor.__init__, which
the `builds` fixture watches after clearing the memo.
"""

import weakref
from collections import Counter

import pytest

from altsums.cli import main
from altsums.curves import count_points
from altsums.fields import FieldDescriptor, build_field
from altsums.traces import SystemParams, trace_table, trace_tables


@pytest.fixture
def builds(monkeypatch):
    """The orders of the fields built from here on (`orders`) and weak
    references to them (`refs`), in build order.  Before it builds a field
    of order over `floor`, it records in `held` the orders of the earlier
    ones over `floor` that are still alive."""
    build_field.cache_clear()
    real = FieldDescriptor.__init__

    def counted(self, p, d):
        if p**d > counted.floor:
            counted.held.append([r().order for r in counted.refs
                                 if r() is not None and r().order > counted.floor])
        real(self, p, d)
        counted.orders.append(self.order)
        counted.refs.append(weakref.ref(self))

    counted.orders, counted.refs, counted.held, counted.floor = [], [], [], 0
    monkeypatch.setattr(FieldDescriptor, "__init__", counted)
    return counted


RUNS = {  # argv: (q, the orders of the tower's levels)
    "all --p 3 --max-degree 8": (3, [3**d for d in range(1, 9)]),
    "all --p 3 --f 2 --max-degree 6": (9, [3**d for d in range(1, 7)]),
    "all --p 3 --base-degree 2 --max-degree 4": (3, [9, 81, 729, 6561]),
    "compare --p 3 --max-degree 9": (3, [3**d for d in range(1, 10)]),
    "compare --p 3 --base-degree 3 --max-degree 3": (3, [27, 729, 19683]),
}


@pytest.mark.parametrize("argv", RUNS)
def test_every_field_past_q_squared_is_built_once(builds, capsys, argv):
    q, levels = RUNS[argv]
    assert main(argv.split()) == 0
    capsys.readouterr()
    big = Counter(N for N in builds.orders if N > q * q)
    assert big == Counter(N for N in levels if N > q * q)
    assert set(big.values()) == {1}


@pytest.mark.parametrize("argv", [a for a in RUNS if a.startswith("all ")])
def test_no_field_past_q_squared_outlives_all(builds, capsys, argv):
    q, _ = RUNS[argv]
    assert main(argv.split()) == 0
    capsys.readouterr()
    assert [r().order for r in builds.refs
            if r() is not None and r().order > q * q] == []


def test_trace_tables_holds_no_lower_level_while_it_builds_the_next(builds):
    builds.floor = 9  # q^2 at q = 3
    assert sorted(trace_tables(SystemParams(p=3, f=1), 9)) == list(range(1, 10))
    assert builds.held == [[]] * 7  # 3^3 .. 3^9, each built alone


def test_compare_holds_no_lower_level_while_it_builds_the_next(builds, capsys):
    builds.floor = 9
    assert main(["compare", "--p", "3", "--max-degree", "9"]) == 0
    capsys.readouterr()
    assert builds.held == [[]] * 7


def test_all_holds_no_earlier_level_once_it_builds_the_next(monkeypatch, capsys):
    """No trace table or curve count keeps its level's field: each level
    that SystemParams.extension builds is dead once the next one is built,
    and every one is dead once `all` returns."""
    real = SystemParams.extension
    levels, held = [], []

    def extension(self, degree, field=None):
        L = real(self, degree, field)
        if field is None:
            held.append([r().d for r in levels if r() is not None])
            levels.append(weakref.ref(L))
        return L

    monkeypatch.setattr(SystemParams, "extension", extension)
    assert main(["all", "--p", "3", "--max-degree", "6"]) == 0
    assert "# section: curves_degree_5\n" in capsys.readouterr().out
    assert held == [[]] * 6
    assert [r() for r in levels] == [None] * 6


def test_a_handed_field_changes_nothing_and_another_is_refused():
    params = SystemParams(p=3, f=1)
    L = params.extension(4)
    assert trace_table(params, 4, field=L) == trace_table(params, 4)
    assert count_points(params, 4, field=L) == count_points(params, 4)
    for other in (params.extension(3), FieldDescriptor(5, 4)):
        with pytest.raises(ValueError, match="is not the degree-4 extension"):
            trace_table(params, 4, field=other)
        with pytest.raises(ValueError, match="is not the degree-4 extension"):
            count_points(params, 4, field=other)


def test_a_level_builds_its_log_and_zech_tables_only_for_a_count():
    # the trace kernel reads the antilog and trace tables alone, so a level
    # that only feeds it holds 16 bytes per element, not 32
    params = SystemParams(p=3, f=1)
    L = params.extension(5)
    trace_table(params, 5, field=L)
    assert {"log_by_int", "zech_log"}.isdisjoint(vars(L))
    count_points(params, 5, field=L)
    assert {"log_by_int", "zech_log"} <= vars(L).keys()
