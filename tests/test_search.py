import dataclasses
import hashlib
import json
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count, permutations
from types import SimpleNamespace

import pytest

from frankl_lab import (SearchBudget, SetFamily, bar_f, check_fg_duality,
                        complement, compute_f, compute_g, enumerate_union_closed,
                        frankl_witness, is_union_closed, max_frequency,
                        random_union_closed)
from frankl_lab import search
from frankl_lab.budget import Meter
from frankl_lab.search import _complement_closed

from conftest import all_subfamilies, include_allowed_reference, is_union_closed_reference

# Exhaustively derived value tables (full 2^(2^n) scans, cross-checked
# against the frozenset reference below for n <= 4).
UC_FAMILY_COUNTS = {1: 4, 2: 14, 3: 122, 4: 4960}
F_TABLE_N3 = {1: 2, 2: 4, 3: 5, 4: 8}
F_TABLE_N4 = {0: 1, 1: 2, 2: 4, 3: 5, 4: 8, 5: 9, 6: 10, 7: 12, 8: 16}
G_TABLE_N3 = {1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 6: 4, 7: 4, 8: 4}
G_TABLE_N4 = {1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 6: 4, 7: 4, 8: 4,
              9: 5, 10: 6, 11: 7, 12: 7, 13: 8, 14: 8, 15: 8, 16: 8}
# Frozen from the branch-and-bound engine before isomorph rejection, which
# explored every relabelling of every partial family.
F_TABLE_N5 = dict(enumerate([1, 2, 4, 5, 8, 9, 10, 12, 16, 17, 18, 19, 21, 23, 25, 27, 32]))
G_TABLE_N5 = dict(enumerate([0, 1, 2, 2, 3, 4, 4, 4, 5, 6, 7, 7, 8, 8, 8, 8,
                             9, 10, 11, 12, 12, 13, 13, 14, 14, 15, 15, 16, 16, 16, 16, 16],
                            start=1))


# --- enumeration -------------------------------------------------------------

def test_n1_enumeration_lists_all_four_families():
    fams = [f.masks for f in enumerate_union_closed(1)]
    assert fams == [(), (0,), (1,), (0, 1)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_matches_frozenset_reference(n):
    got = {frozenset(f.sets()) for f in enumerate_union_closed(n)}
    want = {frozenset(tuple(sorted(s)) for s in fam)
            for fam in all_subfamilies(n) if is_union_closed_reference(fam)}
    assert len(got) == UC_FAMILY_COUNTS[n]
    assert got == want


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_counts_and_closedness(n):
    count = 0
    for fam in enumerate_union_closed(n):
        assert is_union_closed(fam)
        count += 1
    assert count == UC_FAMILY_COUNTS[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_is_in_bitset_order(n):
    seen = [sum(1 << m for m in f.masks) for f in enumerate_union_closed(n)]
    assert seen == sorted(seen)


def test_enumeration_rejects_large_n():
    with pytest.raises(ValueError):
        next(enumerate_union_closed(5))


def test_enumeration_is_pinned():
    # first 16 hex digits of the SHA-256 of every n <= 4 family, in order
    blob = json.dumps([[n, list(f.masks)] for n in range(1, 5) for f in enumerate_union_closed(n)])
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == "6cf98da238076d6e"


def test_every_nonempty_union_closed_family_has_a_witness():
    # the conjecture itself, exhaustively on n <= 4
    for n in range(1, 5):
        for fam in enumerate_union_closed(n):
            if len(fam) and fam.masks != (0,):
                assert frankl_witness(fam) is not None


# --- compute_f ----------------------------------------------------------------

@pytest.mark.parametrize("n,expected", [(1, 2), (2, 4), (3, 5), (4, 8)])
def test_f_diagonal_small(n, expected):
    result = compute_f(n, n)
    assert result.value == expected
    assert result.proven_optimal
    assert is_union_closed(result.witness)
    assert max_frequency(result.witness).count <= n
    assert len(result.witness) == expected


def test_f_full_tables_against_frozen_scan():
    for a, v in F_TABLE_N3.items():
        assert compute_f(3, a).value == v
    for a, v in F_TABLE_N4.items():
        assert compute_f(4, a).value == v


def test_f11_witness_needs_the_empty_set():
    result = compute_f(1, 1)
    assert result.witness.masks == (0, 1)  # {emptyset, {1}}


def test_f33_witness_is_lexicographically_smallest():
    assert compute_f(3, 3).witness.masks == (0, 1, 2, 3, 7)


def test_f_at_power_set_threshold():
    for n in range(1, 5):
        result = compute_f(n, 1 << (n - 1))
        assert result.value == 1 << n
        assert result.witness == SetFamily.power_set(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_f_below_the_power_set_proves_its_seed(n):
    # the kernel runs at every n; at n <= 4 its seed, the table of the
    # exhaustive enumeration, is optimal, so the search proves it and keeps
    # the table's lexicographically smallest witness
    for a in range(1 << (n - 1)):
        result = compute_f(n, a)
        assert result.proven_optimal
        assert (result.value, result.witness.masks) == search._f_table(n)[a]


def test_the_kernel_is_capped_at_n11():
    refusal = "branch-and-bound search capped at n = 11, got 12"
    with pytest.raises(ValueError, match=refusal):
        compute_f(12, 5)
    with pytest.raises(ValueError, match=refusal):
        compute_g(12, 100)
    # the power set needs no search
    result = compute_f(12, 2048)
    assert (result.value, result.proven_optimal) == (4096, True)
    assert result.witness == SetFamily.power_set(12)


def test_f_branch_and_bound_agrees_with_exhaustive_on_lifted_instances():
    # f(5,a) must coincide with f(4,a) once the plateau has started
    assert compute_f(5, 1).value == 2
    assert compute_f(5, 2).value == 4
    assert compute_f(5, 3).value == 5


def test_f55_is_9():
    result = compute_f(5, 5)
    assert result.value == 9
    assert result.proven_optimal


def test_f65_is_9():
    result = compute_f(6, 5)
    assert result.value == 9
    assert result.proven_optimal


def test_f66_is_10():
    result = compute_f(6, 6)
    assert result.value == 10
    assert result.proven_optimal
    # without isomorph rejection the search visits 6,025,732 nodes
    assert result.nodes * 10 < 6_025_732


_F_WITNESS_9 = (0, 1, 2, 3, 4, 5, 6, 7, 15)


@pytest.mark.parametrize("kind,n,k,budget,value,nodes,proven,masks", [
    ("f", 5, 5, None, 9, 1_227, True, _F_WITNESS_9),
    ("f", 6, 5, None, 9, 8_322, True, _F_WITNESS_9),
    ("f", 6, 6, None, 10, 17_449, True, (0, 1, 2, 3, 4, 5, 6, 7, 11, 15)),
    ("f", 5, 5, 50, 9, 51, False, _F_WITNESS_9),
    ("g", 5, 15, None, 8, 3_508, True,
     (3, 4, 7, 8, 11, 12, 15, 16, 19, 20, 23, 24, 27, 28, 31)),
    ("g", 5, 20, None, 12, 5_569, True,
     (0, 3, 7, 11, 12, 13, 14, 15, 16, 19, 21, 22, 23, 25, 26, 27, 28, 29, 30, 31)),
    ("g", 5, 24, None, 14, 5_077, True,
     (0, 3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16, 19, 21, 22, 23, 25, 26, 27, 28,
      29, 30, 31)),
    ("g", 5, 20, 100, 12, 101, False,
     (0, 3, 7, 11, 12, 13, 14, 15, 16, 19, 21, 22, 23, 25, 26, 27, 28, 29, 30, 31)),
    ("f", 6, 6, 999, 10, 1_000, False, (0, 1, 2, 3, 4, 5, 6, 7, 11, 15)),
    ("f", 7, 7, 20_000, 12, 20_001, False, (0, 1, 2, 3, 4, 5, 6, 7, 11, 13, 14, 15)),
    ("g", 2, 1, None, 0, 6, True, (0,)),
    ("g", 3, 3, None, 2, 21, True, (3, 4, 7)),
    ("g", 4, 5, None, 3, 83, True, (0, 7, 11, 12, 15)),
    ("g", 4, 11, 100, 7, 101, False, (3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15)),
    # a stop before the first include keeps the seed, at n <= 4 the table's optimum
    ("f", 4, 4, 1, 8, 2, False, tuple(range(8))),
])
def test_branch_and_bound_path_is_pinned(kind, n, k, budget, value, nodes, proven, masks):
    # value, node count and first-met witness of the search in its fixed order
    compute = compute_f if kind == "f" else compute_g
    result = compute(n, k, SearchBudget(max_nodes=budget))
    assert (result.value, result.nodes, result.proven_optimal) == (value, nodes, proven)
    assert result.witness.masks == masks


@pytest.mark.stretch
@pytest.mark.parametrize("a,expected,nodes,masks", [
    (4, 8, 19_559, tuple(range(8))),
    (5, 9, 48_911, _F_WITNESS_9),
    (6, 10, 117_534, (0, 1, 2, 3, 4, 5, 6, 7, 11, 15)),
    (7, 12, 234_549, (0, 1, 2, 3, 4, 5, 6, 7, 11, 13, 14, 15)),
    (8, 16, 347_957, tuple(range(16))),
    (9, 17, 876_655, (0, 15, 16, 31, 32, 47, 48, 63, 64, 79, 80, 95, 96, 111, 112, 119, 127)),
])
def test_f_at_n7(a, expected, nodes, masks):
    # at n = 7 every group is the list of its elements, S_7 at the root and
    # a stabiliser below it, so the node counts pin whole isomorph cuts
    result = compute_f(7, a)
    assert result.value == expected
    assert result.proven_optimal
    assert result.nodes == nodes
    assert result.witness.masks == masks


@pytest.mark.stretch
@pytest.mark.parametrize("compute,k,value,nodes,masks", [
    (compute_f, 5, 9, 280_444, _F_WITNESS_9),
    (compute_f, 6, 10, 728_829, (0, 1, 2, 3, 4, 5, 6, 7, 11, 15)),
    (compute_g, 12, 7, 693_348, (0, 63, 95, 96, 127, 159, 160, 191, 192, 223, 224, 255)),
])
def test_n8_on_the_generator_path(compute, k, value, nodes, masks):
    # at n = 8 each group follows from its parent's as (generators, order),
    # and the include tables hold 256 bits; the groups are whole, so the
    # node counts pin whole isomorph cuts
    result = compute(8, k)
    assert (result.value, result.nodes, result.proven_optimal) == (value, nodes, True)
    assert result.witness.masks == masks


def test_budget_sweep_is_pinned():
    # a run of nodes that cannot include their mask is counted in one step;
    # every budget must still stop at the value and witness it did when
    # each node was counted on its own, and a stop counts max_nodes + 1
    rows = []
    for compute, kind, n, k, budgets in ((compute_f, "f", 5, 5, range(1, 3612, 7)),
                                         (compute_g, "g", 5, 15, range(1, 10321, 101))):
        for b in budgets:
            result = compute(n, k, SearchBudget(max_nodes=b))
            rows.append([kind, n, k, b, result.value, result.nodes, result.proven_optimal,
                         list(result.witness.masks)])
    assert len(rows) == 619
    assert all(row[5] == row[3] + 1 for row in rows if not row[6])
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "571bff59ef95d0abf972a3407932039639fcc47cd0d930e74979e5a7984d8960")


@pytest.mark.parametrize("compute,n,k,nodes", [(compute_f, 5, 5, 1_227),
                                               (compute_g, 5, 15, 3_508)])
def test_include_decisions_match_the_member_scan(monkeypatch, compute, n, k, nodes):
    # every visit, in order.  room must count exactly the masks of order[i:]
    # that the member-by-member scan admits under the cap the kernel last
    # narrowed to; from a node that visit lets pass, the kernel must skip
    # exactly the masks the scan refuses, up to the next boundary or to the
    # first mask it admits, which is included
    kernel = search._depth_first
    calls = []

    def every_node(n, budget, visit):
        def step(i, size, used, top, room, included):
            cap = visit(i, size, used, top, room, included)
            calls.append(((i, tuple(included)), room, cap))
            return cap
        return kernel(n, budget, step)

    monkeypatch.setattr(search, "_depth_first", every_node)
    assert compute(n, k).nodes == nodes
    order = search._branch_order(n)
    levels = [mask.bit_count() for mask in order]
    boundary = [2 <= d < n and d != levels[i - 1] for i, d in enumerate(levels)]

    def admitted(members, cap, i):
        return [include_allowed_reference(n, members, order[j], cap) for j in range(i, 1 << n)]

    narrowed = {(0, ()): 1 << n}  # the cap each node's table is narrowed to; none at the root
    excluded = set()
    skipped = checked = again = 0
    for t, ((i, members), room, cap) in enumerate(calls):
        node = (i, members)
        assert room == admitted(members, narrowed[node], i).count(True), node
        if cap is None:
            continue
        after = calls[t + 1][0] if t + 1 < len(calls) else (-1, ())
        scan = admitted(members, cap, i)
        if after == node:  # the cap fell and room with it: node i is asked again
            assert room > scan.count(True), node
            narrowed[node] = cap
            again += 1
            continue
        assert room == scan.count(True), node
        if after[0] <= i:  # back to a frame: an isomorph cut
            assert boundary[i], node
            continue
        j = i
        while not scan[j - i] and not boundary[j + 1]:
            j += 1
        if scan[j - i]:
            child = (j + 1, members + (order[j],))
            excluded.add((j + 1, members))
            narrowed[j + 1, members] = cap
            checked += 1
        else:  # the scan stops at the boundary j + 1, which the kernel visits
            child = (j + 1, members)
        skipped += j - i
        assert after == child, node
        narrowed[child] = cap
    visited = {node for node, _, _ in calls}
    assert excluded <= visited
    assert nodes == len(visited) + skipped
    assert checked > 100
    # the g search lowers its cap, so some nodes are asked again; the f search never is
    assert again > 0 if compute is compute_g else again == 0


def test_f_n5_table_against_frozen_values():
    for a, v in F_TABLE_N5.items():
        result = compute_f(5, a)
        assert (result.value, result.proven_optimal) == (v, True), a
        assert len(result.witness) == v
        assert is_union_closed(result.witness)
        assert max_frequency(result.witness).count <= a


def test_f_respects_certificate_cap():
    # the certified bound is no stop for branch and bound, which ends only
    # when its tree or its budget does: floor(fbar(n,a)) lies above 2a over
    # the whole B&B range (see test_certificate); this only checks that the
    # result is consistent with the certified bound
    result = compute_f(7, 1)
    assert result.value == 2
    assert result.proven_optimal
    assert result.value <= math.floor(bar_f(7, 1))


def test_f_is_monotone_in_both_arguments():
    values = {(n, a): compute_f(n, a).value
              for n in range(1, 5) for a in range(1, 9)}
    for n in range(1, 5):
        for a in range(1, 8):
            assert values[(n, a)] <= values[(n, a + 1)]
    for n in range(1, 4):
        for a in range(1, 9):
            assert values[(n, a)] <= values[(n + 1, a)]


def test_f_plateau_at_a4_spans_the_branch_and_bound_route():
    # f(3,4) = f(4,4) = f(5,4) = 8; the last value exercises n >= 5 search
    assert compute_f(3, 4).value == 8
    assert compute_f(4, 4).value == 8
    result = compute_f(5, 4)
    assert result.value == 8
    assert result.proven_optimal


def test_f_budget_exhaustion_returns_valid_lower_bound():
    result = compute_f(5, 5, SearchBudget(max_nodes=50))
    assert not result.proven_optimal
    assert is_union_closed(result.witness)
    assert max_frequency(result.witness).count <= 5
    assert len(result.witness) == result.value <= 9


def test_f_time_budget_returns_valid_lower_bound(monkeypatch):
    # a clock that advances 0.1 s per reading: the node meter reads it on
    # the first node and then every 4,096 nodes, so a 0.15 s budget is
    # spent at node 4,097, long before the 17,449 nodes of the full search
    ticks = count()
    monkeypatch.setattr("frankl_lab.budget.time",
                        SimpleNamespace(perf_counter=lambda: next(ticks) / 10))
    result = compute_f(6, 6, SearchBudget(max_seconds=0.15))
    assert not result.proven_optimal
    assert 4096 < result.nodes < 17449
    assert is_union_closed(result.witness)
    assert max_frequency(result.witness).count <= 6
    assert len(result.witness) == result.value <= 10


def _single_ticks(meter, count):
    for _ in range(count):
        if not meter.tick():
            return False
    return True


@pytest.mark.parametrize("count", range(1, 21))
def test_a_batch_tick_stops_where_single_ticks_stop(count):
    for max_nodes in range(1, 51):
        batch, single = (Meter(SearchBudget(max_nodes=max_nodes)) for _ in range(2))
        for _ in range(max_nodes // count + 3):
            assert batch.tick(count) == _single_ticks(single, count)
            assert (batch.nodes, batch.exhausted) == (single.nodes, single.exhausted)


class _CountingClock:
    """The clock of test_f_time_budget_returns_valid_lower_bound, 0.1 s
    more per reading, counting its readings."""

    def __init__(self):
        self.reads = 0

    def perf_counter(self):
        self.reads += 1
        return (self.reads - 1) / 10


@pytest.mark.parametrize("count", range(1, 21))
def test_a_batch_tick_reads_the_clock_where_single_ticks_do(monkeypatch, count):
    def trace(ticks, budget, every):
        clock = _CountingClock()
        monkeypatch.setattr("frankl_lab.budget.time", clock)
        meter = Meter(budget, every)
        return [(ticks(meter), meter.nodes, meter.exhausted, clock.reads) for _ in range(12)]

    # time limits alone and under a node limit
    for every in (1, 3, 4):
        for budget in (SearchBudget(max_seconds=0.15), SearchBudget(max_seconds=0.55),
                       SearchBudget(max_nodes=20, max_seconds=0.35),
                       SearchBudget(max_nodes=20, max_seconds=0.95)):
            assert (trace(lambda meter: meter.tick(count), budget, every)
                    == trace(lambda meter: _single_ticks(meter, count), budget, every))


def test_a_spent_meter_counts_nothing():
    meter = Meter(SearchBudget(max_nodes=3))
    assert meter.tick(5) is False and meter.nodes == 4
    assert meter.tick() is False and meter.tick(7) is False
    assert meter.nodes == 4


def test_single_ticks_read_the_clock_at_steps_one_and_every_past_it(monkeypatch):
    # steps 1, every + 1, 2 * every + 1, ...; never at the step past a node
    # budget, and never once the meter is spent
    def steps_read(budget):
        clock = _CountingClock()
        monkeypatch.setattr("frankl_lab.budget.time", clock)
        meter = Meter(budget, every=4)
        steps = []
        for step in range(1, 13):
            reads = clock.reads
            meter.tick()
            if clock.reads > reads:
                steps.append(step)
        return steps

    assert steps_read(SearchBudget(max_seconds=100.0)) == [1, 5, 9]
    assert steps_read(SearchBudget(max_nodes=8, max_seconds=100.0)) == [1, 5]
    # spent at step 5, when the clock reads 0.2 s
    assert steps_read(SearchBudget(max_seconds=0.15)) == [1, 5]


def test_f_argument_validation():
    with pytest.raises(ValueError):
        compute_f(0, 1)
    with pytest.raises(ValueError):
        compute_f(3, -1)
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=0)


def test_f_refuses_a_fractional_cap():
    # 4.5 once reached the search and surfaced as an invalid witness
    with pytest.raises(ValueError, match="n and a must be ints, got 5 and 4.5"):
        compute_f(5, 4.5)


def test_g_refuses_a_float_size():
    with pytest.raises(ValueError, match="n and m must be ints, got 5 and 20.0"):
        compute_g(5, 20.0)


def test_oversized_ground_set_is_refused_before_any_allocation(monkeypatch):
    # both paths below would build a 2^40-mask structure; refusing n first
    # means neither is reached
    def allocate(*args):
        raise AssertionError("a 2^n-sized structure was built")

    monkeypatch.setattr(search, "_g_by_complement", allocate)
    monkeypatch.setattr(SetFamily, "power_set", classmethod(allocate))
    refusal = r"ground size must be in \[1, 16\], got 40"
    with pytest.raises(ValueError, match=refusal):
        compute_f(40, 1 << 39)
    with pytest.raises(ValueError, match=refusal):
        compute_g(40, 1 << 40)


@pytest.mark.parametrize("seconds", [0.0, -1.0, float("nan")])
def test_time_budget_must_be_positive(seconds):
    with pytest.raises(ValueError, match="max_seconds must be positive"):
        SearchBudget(max_seconds=seconds)


@pytest.mark.parametrize("build", [
    lambda: SearchBudget(max_nodes=2.5),
    lambda: SearchBudget(max_nodes=True),
    lambda: SearchBudget(max_nodes="3"),
    lambda: SearchBudget(max_seconds="3"),
    lambda: SearchBudget(max_seconds=True),
    lambda: SetFamily.from_member_bits(3, 2.0),
    lambda: SetFamily.from_member_bits(3, True),
], ids=["nodes-float", "nodes-bool", "nodes-str", "seconds-str", "seconds-bool",
        "table-float", "table-bool"])
def test_non_int_budgets_and_tables_are_refused(build):
    with pytest.raises(ValueError, match="must be an int|is an int"):
        build()


def test_f_revalidates_every_witness(monkeypatch):
    # a wrong table entry and a wrong power set are both caught on the way out
    table = list(search._f_table(3))
    size, masks = table[3]
    table[3] = (size + 1, masks)
    monkeypatch.setattr(search, "_f_table", lambda n: table)
    with pytest.raises(AssertionError, match=r"invalid witness for f\(3,3\)"):
        compute_f(3, 3)
    monkeypatch.setattr(SetFamily, "power_set", classmethod(lambda cls, n: cls(n, (0,))))
    with pytest.raises(AssertionError, match=r"invalid witness for f\(3,4\)"):
        compute_f(3, 4)


def test_g_revalidates_every_witness(monkeypatch):
    # a kernel value one above its witness's maximum frequency is caught on the way out
    bb_g = search._bb_g

    def one_higher(n, m, budget):
        result = bb_g(n, m, budget)
        return dataclasses.replace(result, value=result.value + 1)

    monkeypatch.setattr(search, "_bb_g", one_higher)
    with pytest.raises(AssertionError, match=r"invalid witness for g\(4,5\)"):
        compute_g(4, 5)


def test_f_result_json_schema():
    blob = compute_f(2, 1).to_json()
    assert blob["n"] == 2 and blob["a"] == 1 and blob["value"] == 2
    assert blob["proven_optimal"] is True
    assert blob["witness"] == {"n": 2, "masks": [0, 1]}
    assert blob["nodes"] == 5  # nodes searched; the seed is already optimal
    assert "seconds" in blob
    assert "m" not in blob


def test_g_result_json_schema():
    blob = compute_g(3, 6).to_json()
    assert blob["n"] == 3 and blob["m"] == 6 and blob["value"] == 4
    assert "a" not in blob
    assert blob["proven_optimal"] is True
    assert blob["witness"] == {"n": 3, "masks": [0, 1, 2, 3, 5, 7]}
    assert blob["nodes"] == 12  # complement candidates, not subfamilies
    assert set(blob) == {"n", "m", "value", "proven_optimal", "witness", "nodes", "seconds"}


# --- compute_g ----------------------------------------------------------------

def test_g_at_full_power_set():
    result = compute_g(3, 8)
    assert result.value == 4
    assert result.witness == SetFamily.power_set(3)


@pytest.mark.parametrize("n,m,expected", [(3, 6, 4), (3, 7, 4), (4, 13, 8), (4, 16, 8)])
def test_g_near_the_top(n, m, expected):
    result = compute_g(n, m)
    assert result.value == expected
    assert result.proven_optimal
    assert len(result.witness) == m
    assert max_frequency(result.witness).count == expected


def test_g_full_tables_against_frozen_scan():
    for m, v in G_TABLE_N3.items():
        assert compute_g(3, m).value == v
    for m, v in G_TABLE_N4.items():
        assert compute_g(4, m).value == v


def test_g_of_single_set_family_is_zero():
    # {emptyset} has no element at all, so the best size-1 family scores 0
    result = compute_g(2, 1)
    assert result.value == 0
    assert result.witness.masks == (0,)


def test_g_kernel_agrees_with_the_complement_search():
    # two independent engines on every size of the complement range,
    # 2^n - m <= n, where compute_g runs only the complement search
    from frankl_lab.search import _bb_g, _g_by_complement
    for n in (3, 4, 5):
        for m in range((1 << n) - n, (1 << n) + 1):
            kernel, chosen = _bb_g(n, m, SearchBudget()), _g_by_complement(n, m, SearchBudget())
            assert kernel.proven_optimal and chosen.proven_optimal
            assert kernel.value == chosen.value, (n, m)


def test_g_on_n5_plateau():
    for i in range(5):
        result = compute_g(5, 32 - i)
        assert result.value == 16, (i, result.value)
        assert result.proven_optimal


def test_g_n5_table_against_frozen_values():
    for m, v in G_TABLE_N5.items():
        result = compute_g(5, m)
        assert (result.value, result.proven_optimal) == (v, True), m
        assert len(result.witness) == m
        assert is_union_closed(result.witness)
        assert max_frequency(result.witness).count == v


@pytest.mark.parametrize("n,m,masks", [
    (4, 13, (0, 1, 2, 3, 4, 5, 6, 7, 9, 11, 13, 14, 15)),
    (5, 28, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 17, 18, 19,
             21, 22, 23, 25, 26, 27, 29, 30, 31)),
])
def test_g_complement_witness_is_lexicographically_smallest(n, m, masks):
    assert compute_g(n, m).witness.masks == masks


def test_g_complement_search_reaches_n7():
    result = compute_g(7, 122)
    assert result.value == 64
    assert result.proven_optimal


@pytest.mark.parametrize("n,m,budget,value,nodes,proven,missing", [
    (5, 28, None, 16, 465, True, (16, 20, 24, 28)),
    (6, 60, None, 32, 1_130, True, (32, 40, 48, 56)),
    (6, 59, None, 32, 4_281, True, (32, 36, 40, 48, 56)),
    (6, 58, None, 31, 14_658, True, (32, 33, 34, 36, 40, 48)),
    (6, 58, 7, 32, 8, False, (0, 1, 2, 4, 8, 32)),
    (6, 58, 100, 32, 101, False, (0, 1, 2, 4, 32, 48)),
])
def test_complement_path_is_pinned(n, m, budget, value, nodes, proven, missing):
    # value, candidate count and the witness's missing masks of the
    # complement search in its fixed order
    result = compute_g(n, m, SearchBudget(max_nodes=budget))
    assert (result.value, result.nodes, result.proven_optimal) == (value, nodes, proven)
    assert complement(result.witness).masks == missing


def test_complement_search_reads_only_the_masks_it_can_reach():
    # one missing mask must be of popcount <= 1, so the search reads the
    # masks of popcount <= 2, not a table of 2^16 bits for each of 2^16 masks
    tracemalloc.start()
    try:
        result = compute_g(16, 2**16 - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.value, result.proven_optimal, result.nodes) == (2**15, True, 17)
    assert peak < 16 * 2**20


def _complement_is_closed_reference(n, missing):
    return is_union_closed(SetFamily(n, tuple(m for m in range(1 << n) if m not in missing)))


def test_complement_leaf_rule_matches_is_union_closed():
    # every missing set at n <= 3, and every one of at most 4 masks at n = 4
    outcomes = {True: 0, False: 0}
    for n in range(1, 5):
        full = 1 << n
        for k in range(full + 1) if n <= 3 else range(5):
            for missing in combinations(range(full), k):
                closed = _complement_closed(list(missing), sum(1 << m for m in missing))
                assert closed == _complement_is_closed_reference(n, missing)
                outcomes[closed] += 1
    assert outcomes[True] and outcomes[False]
    assert sum(outcomes.values()) == 4 + 16 + 256 + 2_517


def test_complement_leaf_rule_on_every_g658_candidate(monkeypatch):
    # the winning candidates are all closed, so only this test notices a
    # leaf rule that accepts the 600 candidates that are not
    verdicts = []

    def checked(missing, mbits):
        closed = _complement_closed(missing, mbits)
        assert closed == _complement_is_closed_reference(6, set(missing))
        verdicts.append(closed)
        return closed

    monkeypatch.setattr("frankl_lab.search._complement_closed", checked)
    assert compute_g(6, 58).value == 31
    assert (len(verdicts), verdicts.count(False)) == (14_658, 600)


def test_searches_restore_the_recursion_limit():
    limit = sys.getrecursionlimit()
    compute_f(5, 5)
    assert sys.getrecursionlimit() == limit
    compute_g(5, 20)
    assert sys.getrecursionlimit() == limit


def test_no_search_raises_the_recursion_limit(monkeypatch):
    # a path through the 2^11 masks is 2,049 nodes long, twice the default limit
    calls = []
    set_limit = sys.setrecursionlimit
    monkeypatch.setattr(sys, "setrecursionlimit", lambda limit: (calls.append(limit),
                                                                 set_limit(limit)))
    result = compute_f(11, 1023, SearchBudget(max_nodes=2500))
    assert (result.value, result.nodes, result.proven_optimal) == (2037, 2501, False)
    assert calls == []


def _relabel(n, masks, perm):
    return [sum(1 << perm[e] for e in range(n) if mask >> e & 1) for mask in masks]


def _brute_automorphisms(n, masks):
    family = set(masks)
    return {p for p in permutations(range(n)) if set(_relabel(n, masks, p)) == family}


def _from_root(n, masks, met=None):
    """The stabiliser of `masks` in S_n by the generator path, as
    (generators, order)."""
    return search._orbit_stabiliser(n, search._symmetric_generators(n), masks,
                                    set() if met is None else met, True)


def _generated(n, gens):
    """The group the generators `gens`, (permutation table, mask-image
    table) pairs, generate on [n], by closure, as permutation tuples."""
    gens = [tuple(g[:n]) for g, _ in gens]
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        p = todo.pop()
        for g in gens:
            q = tuple(g[x] for x in p)
            if q not in group:
                group.add(q)
                todo.append(q)
    return group


def _cycle_edges(*cycles):
    return [(1 << c[i]) | (1 << c[(i + 1) % len(c)]) for c in cycles for i in range(len(c))]


def _random_families_n5(rng):
    families = [rng.sample(range(32), rng.randrange(0, 9)) for _ in range(60)]
    families += [list(random_union_closed(5, seed, Fraction(1, 6)).masks) for seed in range(20)]
    return families + [[m for m in range(32) if bin(m).count("1") in sizes]
                       for sizes in ((1,), (2,), (2, 3), (4, 5))]


def _regular_families_n7(rng):
    # every element has the same degree, so colour refinement cannot split
    # them, yet C3+C4 has two orbits and no group here is all of S_7
    c34, c7 = _cycle_edges((0, 1, 2), (3, 4, 5, 6)), _cycle_edges(tuple(range(7)))
    fano = [0b0001011, 0b0010110, 0b0101100, 0b1011000, 0b0110001, 0b1100010, 0b1000101]
    complements = [[127 ^ m for m in fam] for fam in (c34, c7)]
    families = [c34, c7, fano, c34 + [127], c7 + [127]] + complements
    return families + [_relabel(7, fam, rng.sample(range(7), 7)) for fam in families]


def _random_families_n6(rng):
    # n = 6 is the size of the flagship f(6,6) search
    densities = (Fraction(1, 32), Fraction(1, 16), Fraction(1, 8))
    return [list(random_union_closed(6, seed, densities[seed % 3]).masks) for seed in range(30)]


@pytest.mark.parametrize("n,make", [(5, _random_families_n5), (6, _random_families_n6),
                                    (7, _regular_families_n7)])
def test_automorphisms_are_the_brute_force_group(n, make):
    # from S_n, the walk's order is |Aut(F)| and its generators generate Aut(F)
    rng = random.Random(n)
    for masks in make(rng):
        gens, order = _from_root(n, masks)
        brute = _brute_automorphisms(n, masks)
        assert order == len(brute)
        assert _generated(n, gens) == brute
        relabelled = _relabel(n, masks, rng.sample(range(n), n))
        assert _from_root(n, relabelled)[1] == order
        # the orbit of a few masks under Aut(F), by membership table
        some, met = rng.sample(range(1 << n), 3), set()
        assert search._orbit_stabiliser(n, (gens, order), some, met, False) is not None
        assert met == {sum(1 << m for m in _relabel(n, some, p)) for p in brute}


def test_automorphisms_at_n8_need_no_class_product_cap(monkeypatch):
    # all eight elements of the power set and of the 8-cycle look alike, 8!
    # relabellings, yet the groups follow from S_8 without a search.  The
    # path has 8!/2 = 20,160 images, more than _ORBIT_CAP, which bounds one
    # walk's time and not its groups, so the cap is lifted here
    n = 8
    monkeypatch.setattr(search, "_ORBIT_CAP", math.factorial(n))
    rng = random.Random(n)
    assert _from_root(n, list(range(1 << n)))[1] == math.factorial(n)
    cycle = _cycle_edges(tuple(range(n)))
    path = [(1 << e) | (1 << (e + 1)) for e in range(n - 1)]
    for masks, size in ((cycle, 2 * n), (path, 2)):
        gens, order = _from_root(n, masks)
        assert order == size
        assert _generated(n, gens) == _brute_automorphisms(n, masks)
        assert _from_root(n, _relabel(n, masks, rng.sample(range(n), n)))[1] == size


def test_a_node_past_the_relabelling_cap_cuts_fewer_isomorphs(monkeypatch):
    # the trivial group past the cap on orbit points: more nodes, but a cut
    # isomorph never held a better family, so value and witness stay.  The
    # largest orbit f(5,5) walks has 12 images, so the cap is 5
    monkeypatch.setattr(search, "_LISTED_MAX_N", 0)
    monkeypatch.setattr(search, "_ORBIT_CAP", 5)
    # the 8-cycle has 8!/16 = 2,520 images under S_8
    met = set()
    assert _from_root(8, _cycle_edges(tuple(range(8))), met) == ([], 1)
    assert 5 < len(met) < 2_520
    for compute, n, k, value, nodes, masks in (
            (compute_f, 5, 5, 9, 1_227, _F_WITNESS_9),
            (compute_g, 5, 20, 12, 5_569, (0, 3, 7, 11, 12, 13, 14, 15, 16, 19, 21, 22, 23, 25,
                                            26, 27, 28, 29, 30, 31))):
        result = compute(n, k)
        assert (result.value, result.proven_optimal, result.witness.masks) == (value, True, masks)
        assert result.nodes > nodes


@lru_cache(maxsize=None)
def _relabellings(n):
    """Every relabelling of [n] as a mask-image table, from permutations."""
    return {p: bytes(sum(1 << p[e] for e in range(n) if mask >> e & 1) for mask in range(1 << n))
            for p in permutations(range(n))}


def _fixing(n, masks):
    """The tables of the relabellings that map the set `masks` onto itself."""
    family = frozenset(masks)
    return {t for t in _relabellings(n).values() if frozenset(map(t.__getitem__, masks)) == family}


@pytest.mark.parametrize("n", range(1, 8))
def test_symmetric_group_is_every_relabelling_once(n):
    # n! distinct tables, each the relabelling by the permutation it applies
    # to the singletons, are all of S_n
    group = search._symmetric_group(n)
    assert len(set(group)) == len(group) == math.factorial(n)
    for g in group:
        assert len(g) == 1 << n and g[0] == 0
        assert sorted(g[1 << e] for e in range(n)) == [1 << e for e in range(n)]
        assert all(g[m] == g[m & -m] | g[m & (m - 1)] for m in range(1, 1 << n))


@pytest.mark.parametrize("compute,n,k", [(compute_f, 6, 6), (compute_g, 5, 15)])
def test_each_listed_group_is_the_brute_force_group(monkeypatch, compute, n, k):
    # at each boundary node the family is F_P | S: the orbit the list path
    # adds must be S's under Aut(F_P), and the group it hands down Aut(F_P | S)
    kernel, stabiliser = search._depth_first, search._stabiliser
    family, calls = [], []

    def every_node(n, budget, visit):
        def step(i, size, used, top, room, included):
            family[:] = included
            return visit(i, size, used, top, room, included)
        return kernel(n, budget, step)

    def recording(group, members, met):
        before = set(met)
        result = stabiliser(group, members, met)
        calls.append((tuple(family), tuple(members), result, met - before))
        return result

    monkeypatch.setattr(search, "_depth_first", every_node)
    monkeypatch.setattr(search, "_stabiliser", recording)
    compute(n, k)
    kept = 0
    for masks, members, group, added in calls:
        if group is None:  # an isomorph cut adds nothing
            assert not added
            continue
        rest = [mask for mask in masks if mask not in members]
        assert {frozenset(m for m, b in enumerate(t) if b) for t in added} == {
            frozenset(map(t.__getitem__, members)) for t in _fixing(n, rest)}, masks
        assert len(set(group)) == len(group)
        assert set(group) == _fixing(n, masks), masks
        kept += 1
    # f(6,6) keeps 223 boundary nodes and cuts 956 isomorphs; g(5,15) 70 and 509
    assert kept >= 70 and len(calls) - kept >= 509


def test_stabiliser_of_regular_families_is_the_brute_force_group():
    # colour refinement cannot split these families; the listed S_7 has no
    # use for it, and must still find each group and orbit whole
    n = 7
    group = list(search._symmetric_group(n))
    for masks in _regular_families_n7(random.Random(n)):
        met = set()
        stabiliser = search._stabiliser(group, masks, met)
        assert len(set(stabiliser)) == len(stabiliser)
        assert set(stabiliser) == _fixing(n, masks) == {
            _relabellings(n)[p] for p in _brute_automorphisms(n, masks)}
        assert {frozenset(m for m, b in enumerate(t) if b) for t in met} == {
            frozenset(map(t.__getitem__, masks)) for t in _relabellings(n).values()}
        # met now holds every relabelling of the family, so it is a repeat
        assert search._stabiliser(group, _relabel(n, masks, (6, 0, 1, 2, 3, 4, 5)), met) is None


@pytest.mark.parametrize("compute,n,k", [(compute_f, 5, 5), (compute_f, 6, 6),
                                         (compute_g, 5, 15), (compute_g, 5, 20)])
def test_the_listed_and_chained_isomorph_engines_agree(monkeypatch, compute, n, k):
    # two engines for one cut: groups listed element by element at n <= 7,
    # and past it (generators, order), each child's group sifted from the
    # Schreier generators of its orbit walk into a Sims table.  Forced onto
    # the generator path at n <= 6, the groups are still whole, so the
    # nodes, values and witnesses must agree
    calls = []

    def counted(name, engine):
        def run(*args):
            calls.append(name)
            return engine(*args)
        return run

    for name in ("_stabiliser", "_orbit_stabiliser"):
        monkeypatch.setattr(search, name, counted(name, getattr(search, name)))
    listed = compute(n, k)
    assert set(calls) == {"_stabiliser"}
    calls.clear()
    monkeypatch.setattr(search, "_LISTED_MAX_N", 0)
    chained = compute(n, k)
    assert set(calls) == {"_orbit_stabiliser"}
    assert (chained.value, chained.nodes, chained.proven_optimal, chained.witness.masks) == (
        listed.value, listed.nodes, listed.proven_optimal, listed.witness.masks)


def test_isomorph_cuts_keep_one_family_per_class_at_each_boundary():
    # with a visit that cuts nothing before a leaf, the families that pass
    # each boundary are exactly one per S_5-class of those that reach it
    n = 5
    levels = [mask.bit_count() for mask in search._branch_order(n)]
    boundaries = [i for i, k in enumerate(levels) if 2 <= k < n and k != levels[i - 1]]
    relabel = [[sum(1 << p[e] for e in range(n) if mask >> e & 1) for mask in range(1 << n)]
               for p in permutations(range(n))]
    reached = {i: [] for i in boundaries}
    passed = {i: [] for i in boundaries}
    calls = []

    def visit(i, size, used, top, room, included):
        calls.append((i, tuple(included)))
        return None if i == 1 << n else 1 << (n - 1)

    search._depth_first(n, SearchBudget(), visit)
    # a boundary node that passes goes on along the order; after an
    # isomorph cut the kernel returns to a frame at or before it
    for (i, members), (after, _) in zip(calls, calls[1:]):
        if i in reached:
            reached[i].append(members)
            if after > i:
                passed[i].append(members)
    for i in boundaries:
        form = {masks: min(sorted(map(table.__getitem__, masks)) for table in relabel)
                for masks in set(reached[i])}
        kept = [tuple(form[masks]) for masks in passed[i]]
        assert set(passed[i]) <= set(reached[i])
        assert sorted(kept) == sorted({tuple(f) for f in form.values()}), i
    # the check has isomorphs to cut
    assert any(len(passed[i]) < len(reached[i]) for i in boundaries)


def test_g_argument_validation():
    with pytest.raises(ValueError):
        compute_g(3, 0)
    with pytest.raises(ValueError):
        compute_g(3, 9)


# --- random families -----------------------------------------------------------

def test_random_family_is_deterministic_and_closed():
    a = random_union_closed(6, seed=42, density=Fraction(1, 8))
    b = random_union_closed(6, seed=42, density=Fraction(1, 8))
    assert a == b
    assert is_union_closed(a)


def test_random_family_golden_value():
    # pins the PRNG permanently: SplitMix64, one draw per mask
    fam = random_union_closed(6, seed=42, density=Fraction(1, 8))
    assert fam.masks == (4, 16, 18, 20, 21, 22, 23, 24, 26, 28, 29, 30, 31,
                         36, 39, 46, 47, 52, 53, 54, 55, 59, 60, 61, 62, 63)


def test_random_family_density_extremes():
    assert random_union_closed(5, 7, 0).masks == ()
    assert random_union_closed(4, 7, 1) == SetFamily.power_set(4)


def test_random_family_accepts_float_and_string_densities():
    a = random_union_closed(5, 3, "1/4")
    b = random_union_closed(5, 3, Fraction(1, 4))
    assert a == b
    with pytest.raises(ValueError):
        random_union_closed(5, 3, 2)


def test_random_family_seed_sensitivity():
    a = random_union_closed(6, 1, Fraction(1, 8))
    b = random_union_closed(6, 2, Fraction(1, 8))
    assert a != b


# --- f/g duality ----------------------------------------------------------------

@pytest.mark.parametrize("n,a_max", [(1, 2), (2, 4), (3, 4), (3, 8), (4, 8)])
def test_fg_duality_no_violations(n, a_max):
    report = check_fg_duality(n, a_max)
    assert report.verified
    assert report.violations == []


def test_fg_duality_compares_the_sift_with_the_kernel(monkeypatch):
    # below the complement range (2^4 - m > 4) every g comes from the kernel
    calls = []
    bb_g = search._bb_g
    monkeypatch.setattr(search, "_bb_g",
                        lambda n, m, budget: calls.append((n, m)) or bb_g(n, m, budget))
    assert check_fg_duality(4, 16).verified
    assert calls == [(4, m) for m in range(1, 12)]


def test_fg_duality_rejects_large_n():
    with pytest.raises(ValueError):
        check_fg_duality(5, 2)
