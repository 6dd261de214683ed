import hashlib
import json
import math
import random
import sys
from fractions import Fraction
from itertools import combinations, count, permutations
from types import SimpleNamespace

import pytest

from frankl_lab import (SearchBudget, SetFamily, bar_f, check_fg_duality,
                        complement, compute_f, compute_g, enumerate_union_closed,
                        frankl_witness, is_union_closed, max_frequency,
                        random_union_closed)
from frankl_lab import search
from frankl_lab.search import _complement_closed

from conftest import all_subfamilies, is_union_closed_reference

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
    ("f", 5, 5, None, 9, 3_611, True, _F_WITNESS_9),
    ("f", 6, 5, None, 9, 23_000, True, _F_WITNESS_9),
    ("f", 6, 6, None, 10, 53_394, True, (0, 1, 2, 3, 4, 5, 6, 7, 11, 15)),
    ("f", 5, 5, 50, 9, 56, False, _F_WITNESS_9),
    ("g", 5, 15, None, 8, 10_320, True,
     (3, 4, 7, 8, 11, 12, 15, 16, 19, 20, 23, 24, 27, 28, 31)),
    ("g", 5, 20, None, 12, 18_702, True,
     (0, 3, 7, 11, 12, 13, 14, 15, 16, 19, 21, 22, 23, 25, 26, 27, 28, 29, 30, 31)),
    ("g", 5, 24, None, 14, 14_262, True,
     (0, 3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16, 19, 21, 22, 23, 25, 26, 27, 28,
      29, 30, 31)),
    ("g", 5, 20, 100, 12, 116, False,
     (0, 3, 7, 11, 12, 13, 14, 15, 16, 19, 21, 22, 23, 25, 26, 27, 28, 29, 30, 31)),
    ("f", 6, 6, 999, 10, 1_006, False, (0, 1, 2, 3, 4, 5, 6, 7, 11, 15)),
])
def test_branch_and_bound_path_is_pinned(kind, n, k, budget, value, nodes, proven, masks):
    # value, node count and first-met witness of the search in its fixed order
    compute = compute_f if kind == "f" else compute_g
    result = compute(n, k, SearchBudget(max_nodes=budget))
    assert (result.value, result.nodes, result.proven_optimal) == (value, nodes, proven)
    assert result.witness.masks == masks


@pytest.mark.stretch
@pytest.mark.parametrize("a,expected,nodes", [(4, 8, 47_858), (5, 9, 122_250),
                                              (6, 10, 327_844), (7, 12, 852_381)])
def test_f_at_n7(a, expected, nodes):
    # at n = 7 the refined classes can admit exactly _RELABEL_CAP = 7!
    # relabellings, so the node counts pin the isomorph cuts at the cap
    result = compute_f(7, a)
    assert result.value == expected
    assert result.proven_optimal
    assert result.nodes == nodes


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
    # spent at node 4,097, long before the 53,394 nodes of the full search
    ticks = count()
    monkeypatch.setattr("frankl_lab.budget.time",
                        SimpleNamespace(perf_counter=lambda: next(ticks) / 10))
    result = compute_f(6, 6, SearchBudget(max_seconds=0.15))
    assert not result.proven_optimal
    assert 4096 < result.nodes < 53394
    assert is_union_closed(result.witness)
    assert max_frequency(result.witness).count <= 6
    assert len(result.witness) == result.value <= 10


def test_f_argument_validation():
    with pytest.raises(ValueError):
        compute_f(0, 1)
    with pytest.raises(ValueError):
        compute_f(3, -1)
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=0)


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


def test_f_result_json_schema():
    blob = compute_f(2, 1).to_json()
    assert blob["n"] == 2 and blob["a"] == 1 and blob["value"] == 2
    assert blob["proven_optimal"] is True
    assert blob["witness"] == {"n": 2, "masks": [0, 1]}
    assert blob["nodes"] == 1 << 4  # one full scan of the 2^(2^2) subfamilies
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


def test_g_b_and_b_route_matches_exhaustive():
    # 2^4 - m > 4 forces the generic branch-and-bound at n=4 sizes below 12
    from frankl_lab.search import _bb_g, NO_BUDGET
    for m in (5, 9, 11):
        assert _bb_g(4, m, NO_BUDGET).value == G_TABLE_N4[m]


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


def _complement_is_closed_reference(n, missing):
    return is_union_closed(SetFamily(n, tuple(m for m in range(1 << n) if m not in missing)))


def test_complement_leaf_rule_matches_is_union_closed():
    # every missing set at n <= 3, and every one of at most 4 masks at n = 4
    outcomes = {True: 0, False: 0}
    for n in range(1, 5):
        full = 1 << n
        for k in range(full + 1) if n <= 3 else range(5):
            for missing in combinations(range(full), k):
                closed = _complement_closed(list(missing), set(missing))
                assert closed == _complement_is_closed_reference(n, missing)
                outcomes[closed] += 1
    assert outcomes[True] and outcomes[False]
    assert sum(outcomes.values()) == 4 + 16 + 256 + 2_517


def test_complement_leaf_rule_on_every_g658_candidate(monkeypatch):
    # the winning candidates are all closed, so only this test notices a
    # leaf rule that accepts the 600 candidates that are not
    verdicts = []

    def checked(missing, mset):
        closed = _complement_closed(missing, mset)
        assert closed == _complement_is_closed_reference(6, mset)
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
    assert (result.value, result.nodes, result.proven_optimal) == (2037, 4535, False)
    assert calls == []


def _relabel(n, masks, perm):
    return [sum(1 << perm[e] for e in range(n) if mask >> e & 1) for mask in masks]


def _brute_canonical_form(n, masks):
    return min(sorted(_relabel(n, masks, p)) for p in permutations(range(n)))


def _cycle_edges(*cycles):
    return [(1 << c[i]) | (1 << c[(i + 1) % len(c)]) for c in cycles for i in range(len(c))]


def _random_families_n5(rng):
    families = [rng.sample(range(32), rng.randrange(0, 9)) for _ in range(60)]
    families += [list(random_union_closed(5, seed, Fraction(1, 6)).masks) for seed in range(20)]
    return families + [[m for m in range(32) if bin(m).count("1") in sizes]
                       for sizes in ((1,), (2,), (2, 3), (4, 5))]


def _regular_families_n7(rng):
    # every element has the same degree, so colour refinement cannot split
    # them, yet C3+C4 has two orbits: the form must individualise correctly
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
def test_isomorph_canonical_form_is_a_complete_invariant(n, make):
    from frankl_lab.search import _IsomorphRejector, _branch_order
    rejector = _IsomorphRejector(n, _branch_order(n))
    rng = random.Random(n)
    forms = {}
    for masks in make(rng):
        form = rejector._canonical_form(masks)
        relabelled = _relabel(n, masks, rng.sample(range(n), n))
        assert rejector._canonical_form(relabelled) == form
        forms.setdefault(tuple(_brute_canonical_form(n, masks)), set()).add(form)
    # one form per isomorphism class, and distinct classes get distinct forms
    assert all(len(f) == 1 for f in forms.values())
    assert len({f for fs in forms.values() for f in fs}) == len(forms)


def test_isomorph_canonical_form_is_none_over_the_relabelling_cap():
    from frankl_lab.search import _RELABEL_CAP, _IsomorphRejector, _branch_order
    n = 8
    assert math.factorial(n) > _RELABEL_CAP
    rejector = _IsomorphRejector(n, _branch_order(n))
    rng = random.Random(n)
    # refinement leaves all eight elements in one class: 8! relabellings
    for masks in (list(range(1 << n)), _cycle_edges(tuple(range(n)))):
        assert rejector._canonical_form(masks) is None
        assert rejector._canonical_form(_relabel(n, masks, rng.sample(range(n), n))) is None
    # the path 0-1-...-7 refines to the classes {0,7}, {1,6}, {2,5}, {3,4}
    path = [(1 << e) | (1 << (e + 1)) for e in range(n - 1)]
    form = rejector._canonical_form(path)
    assert form is not None
    assert rejector._canonical_form(_relabel(n, path, rng.sample(range(n), n))) == form


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


def test_fg_duality_rejects_large_n():
    with pytest.raises(ValueError):
        check_fg_duality(5, 2)
