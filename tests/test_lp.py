import dataclasses
import math
import tracemalloc
from fractions import Fraction
from itertools import combinations, count
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frankl_lab import (DualInfeasibleError, LpProblem, LpSolution, SearchBudget, bar_f,
                        build_relaxation, certificate_dual_bound,
                        certificate_to_dual, compute_f, lift_symmetric_primal,
                        make_certificate, problem_to_text,
                        prove_diagonal_relaxation_value, solve_exact,
                        symmetric_relaxation_value, verify_dual_bound)
from frankl_lab import lp
from frankl_lab.budget import Meter
from frankl_lab.lp import _assert_primal_feasible

F = Fraction

# exact optima frozen from solver runs, cross-checked against HiGHS below
FROZEN_FR = {(2, 1): F(8, 3), (3, 1): F(17, 5), (3, 3): F(13, 2), (4, 4): F(48, 5)}

# (objective, pivots) of every n <= 4 instance, in (n, a) order; the pivot
# counts pin the pivot rule (entering, ratio test, Bland switch), not just
# the optimum
FROZEN_PIVOT_PATH = {
    (1, 1): (F(2), 2),
    (2, 1): (F(8, 3), 4), (2, 2): (F(4), 5),
    (3, 1): (F(17, 5), 10), (3, 2): (F(5), 12), (3, 3): (F(13, 2), 12),
    (3, 4): (F(8), 13),
    (4, 1): (F(29, 7), 23), (4, 2): (F(25, 4), 36), (4, 3): (F(8), 33),
    (4, 4): (F(48, 5), 48), (4, 5): (F(56, 5), 42), (4, 6): (F(64, 5), 42),
    (4, 7): (F(72, 5), 42), (4, 8): (F(16), 54),
}

# f_r(5, a) for a = 1..5
FR_N5 = {1: F(44, 9), 2: F(23, 3), 3: F(262, 27), 4: F(317, 27), 5: F(583, 43)}


def brute_union_row_count(n):
    """Reference: unordered pairs {S,T} of subsets of [n] with S|T not in {S,T}."""
    universe = range(1 << n)
    return sum(1 for s, t in combinations(universe, 2) if (s | t) not in (s, t))


def row_counts(problem):
    """Number of rows of each kind, the kind being key[0]."""
    counts = {}
    for key in problem.rows:
        counts[key[0]] = counts.get(key[0], 0) + 1
    return counts


def row_value(problem, key, x):
    coeffs, _ = problem.row(key)
    return sum(c * x[m] for m, c in coeffs.items())


def rows_hold(problem, x):
    return all(row_value(problem, key, x) <= problem.row(key)[1] for key in problem.rows)


# --- building ---------------------------------------------------------------

def test_n1_problem_shape():
    p = build_relaxation(1, 1)
    assert len(p.variables) == 2
    counts = row_counts(p)
    assert counts.get("union", 0) == 0
    assert counts["frequency"] == 1
    assert counts["box"] == 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_union_row_count_matches_pair_enumeration(n):
    p = build_relaxation(n, 1)
    assert row_counts(p)["union"] == brute_union_row_count(n)


def test_n3_union_row_count_value():
    assert row_counts(build_relaxation(3, 3))["union"] == 9


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_row_keys_match_brute_force_in_order(n):
    masks = range(1 << n)
    unions = [("union", s, t) for s in masks for t in masks
              if s < t and not (s & t == s or s & t == t)]
    expected = (unions + [("frequency", e) for e in range(1, n + 1)]
                + [("box", m) for m in masks])
    p = build_relaxation(n, 2)
    assert tuple(p.rows) == tuple(expected)
    assert len(p.rows) == len(expected)
    assert p.variables == range(1 << n)


@pytest.mark.parametrize("n,total", [(1, 3), (2, 7), (3, 20), (4, 75), (5, 322), (6, 1421),
                                     (7, 6204), (8, 26599), (9, 112166)])
def test_row_count_is_the_number_of_keys_walked(n, total):
    p = build_relaxation(n, n)
    assert len(p.rows) == sum(1 for _ in p.rows) == total


def test_rows_follow_from_their_keys_at_n3():
    # x_S + x_T - x_{S|T} <= 1, sum of x_S over S holding e <= a, x_m <= 1
    p = build_relaxation(3, 5)
    assert p.row(("union", 1, 2)) == ({1: 1, 2: 1, 3: -1}, 1)
    assert p.row(("union", 1, 6)) == ({1: 1, 6: 1, 7: -1}, 1)
    assert p.row(("union", 3, 4)) == ({3: 1, 4: 1, 7: -1}, 1)
    assert p.row(("union", 3, 5)) == ({3: 1, 5: 1, 7: -1}, 1)
    assert p.row(("frequency", 1)) == ({1: 1, 3: 1, 5: 1, 7: 1}, 5)
    assert p.row(("frequency", 2)) == ({2: 1, 3: 1, 6: 1, 7: 1}, 5)
    assert p.row(("frequency", 3)) == ({4: 1, 5: 1, 6: 1, 7: 1}, 5)
    for m in range(8):
        assert p.row(("box", m)) == ({m: 1}, 1)


def test_full_power_set_is_feasible_at_half_cap():
    p = build_relaxation(2, 2)
    assert rows_hold(p, {m: F(1) for m in p.variables})


def test_build_refuses_a_fractional_cap():
    with pytest.raises(ValueError, match="must be ints, got 3 and 2.5"):
        build_relaxation(3, 2.5)


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_relaxation(10, 1)
    with pytest.raises(ValueError):
        build_relaxation(3, 0)


@pytest.mark.parametrize("args,refusal", [
    ((2, 2.5), "n and a must be ints, got 2 and 2.5"),
    ((True, 2), "n and a must be ints, got True and 2"),
    ((0, 1), r"ground size must be in \[1, 9\], got 0"),
    ((10, 1), r"ground size must be in \[1, 9\], got 10"),
    ((3, 0), "frequency cap must be >= 1, got 0"),
], ids=["float-a", "bool-n", "n-zero", "n-ten", "a-zero"])
def test_a_problem_is_valid_by_construction(args, refusal):
    # LpProblem(2, 2.5) once failed inside the simplex, LpProblem(3, 0)
    # was solved and LpProblem(10, 1) was accepted
    for make in (LpProblem, build_relaxation):
        with pytest.raises(ValueError, match=refusal):
            make(*args)


# --- solving -----------------------------------------------------------------

def test_trivial_instance_n1():
    sol = solve_exact(build_relaxation(1, 1))
    assert sol.status == "optimal"
    assert sol.objective == 2
    assert sol.primal[0] == 1 and sol.primal[1] == 1


def test_frozen_exact_optima():
    for (n, a), expected in FROZEN_FR.items():
        sol = solve_exact(build_relaxation(n, a))
        assert sol.status == "optimal"
        assert sol.objective == expected, (n, a)


def test_exact_solver_agrees_with_scipy():
    linprog = pytest.importorskip("scipy.optimize").linprog
    for n in (2, 3):
        for a in range(1, (1 << (n - 1)) + 1):
            p = build_relaxation(n, a)
            nv = 1 << n
            rows = [p.row(key) for key in p.rows if key[0] != "box"]
            A = [[0.0] * nv for _ in rows]
            b = []
            for i, (coeffs, rhs) in enumerate(rows):
                for m, c in coeffs.items():
                    A[i][m] = float(c)
                b.append(float(rhs))
            res = linprog(c=[-1.0] * nv, A_ub=A, b_ub=b, bounds=(0, 1), method="highs")
            assert res.status == 0
            exact = solve_exact(p).objective
            assert abs(float(exact) + res.fun) < 1e-8, (n, a)


def test_pivot_path_is_frozen():
    assert len(FROZEN_PIVOT_PATH) == sum(1 << (n - 1) for n in range(1, 5))
    for (n, a), (objective, pivots) in FROZEN_PIVOT_PATH.items():
        sol = solve_exact(build_relaxation(n, a))
        assert sol.status == "optimal"
        assert (sol.objective, sol.pivots) == (objective, pivots), (n, a)


def test_pivot_budget_of_the_full_path_still_proves_optimality():
    # optimal after exactly k pivots is optimal under max_nodes=k, not "budget"
    for (n, a), (objective, pivots) in FROZEN_PIVOT_PATH.items():
        p = build_relaxation(n, a)
        full = solve_exact(p)
        sol = solve_exact(p, SearchBudget(max_nodes=pivots))
        assert (sol.status, sol.objective, sol.pivots) == ("optimal", objective, pivots), (n, a)
        assert sol.dual == full.dual, (n, a)


def test_lp_value_sandwiches_f():
    for n in range(1, 5):
        for a in range(1, (1 << (n - 1)) + 1):
            fr = solve_exact(build_relaxation(n, a)).objective
            assert F(compute_f(n, a).value) <= fr


def test_strong_duality_and_dual_acceptance():
    p = build_relaxation(3, 2)
    sol = solve_exact(p)
    assert sol.status == "optimal"
    assert verify_dual_bound(p, sol.dual) == sol.objective


def test_solution_is_deterministic():
    a = solve_exact(build_relaxation(3, 3))
    b = solve_exact(build_relaxation(3, 3))
    assert a.objective == b.objective
    assert a.primal == b.primal
    assert a.dual == b.dual
    assert a.pivots == b.pivots


def test_budget_stops_with_feasible_partial_result():
    sol = solve_exact(build_relaxation(4, 4), SearchBudget(max_nodes=3))
    assert sol.status == "budget"
    assert sol.pivots == 3
    assert sol.dual == {}
    assert all(0 <= v <= 1 for v in sol.primal.values())


def test_time_budget_stops_with_feasible_partial_result(monkeypatch):
    # a clock that advances 0.1 s per reading: the clock is read every 16
    # pivots, so a 0.15 s budget passes the check at 0 and stops at 16
    ticks = count()
    monkeypatch.setattr("frankl_lab.budget.time",
                        SimpleNamespace(perf_counter=lambda: next(ticks) / 10))
    p = build_relaxation(4, 4)
    sol = solve_exact(p, SearchBudget(max_seconds=0.15))
    assert sol.status == "budget"
    assert sol.pivots == 16
    assert sol.dual == {}
    assert set(sol.primal) == set(p.variables)
    assert rows_hold(p, sol.primal)
    assert sol.objective == sum(sol.primal.values())


def test_solve_exact_checks_the_simplex_objective_against_its_primal(monkeypatch):
    kernel = lp._simplex_max

    def off_by_one(*args):
        solution = kernel(*args)
        return dataclasses.replace(solution, objective=solution.objective + 1)

    monkeypatch.setattr(lp, "_simplex_max", off_by_one)
    with pytest.raises(AssertionError, match="differs from its primal"):
        solve_exact(build_relaxation(3, 2))


def test_simplex_refuses_an_unbounded_column():
    # -x_0 <= 1 leaves x_0 unbounded above; every caller boxes its variables
    with pytest.raises(AssertionError, match="unbounded column"):
        lp._simplex_max([1], {("r",): ({0: -1}, 1)}, Meter())


def test_simplex_checks_strong_duality():
    # rows that read each rhs one higher on lookup than on iteration: the
    # tableau is built from the iterated rhs, b'y from the looked-up one
    class Skewed(dict):
        def __getitem__(self, key):
            coeffs, rhs = super().__getitem__(key)
            return coeffs, rhs + 1

    rows = Skewed({("r", 0): ({0: 1}, 1), ("r", 1): ({1: 1}, 1)})
    with pytest.raises(AssertionError, match="strong duality violated"):
        lp._simplex_max([1, 1], rows, Meter())


def test_solution_json_uses_exact_strings():
    blob = solve_exact(build_relaxation(2, 1)).to_json()
    assert blob["status"] == "optimal"
    assert blob["objective"] == "8/3"
    assert "frequency:1" in blob["dual"]


# --- weak duality as a property ------------------------------------------------

def test_weak_duality_family_indicators_vs_accepted_duals():
    # indicator vectors of union-closed families with max frequency <= a
    # are feasible primals; any accepted dual bounds them from above
    from frankl_lab import enumerate_union_closed, max_frequency

    p = build_relaxation(3, 2)
    sol = solve_exact(p)
    duals = [sol.dual]
    for fam in enumerate_union_closed(3):
        if max_frequency(fam).count <= 2:
            size = len(fam)
            for y in duals:
                assert F(size) <= verify_dual_bound(p, y)


# --- dual verification ----------------------------------------------------------

def test_all_zero_dual_is_infeasible():
    p = build_relaxation(2, 1)
    with pytest.raises(DualInfeasibleError) as err:
        verify_dual_bound(p, {})
    assert err.value.mask == 0
    assert err.value.deficit == 1


def test_negative_multiplier_rejected():
    p = build_relaxation(2, 1)
    with pytest.raises(ValueError):
        verify_dual_bound(p, {("frequency", 1): F(-1)})


def test_unknown_row_key_rejected():
    p = build_relaxation(2, 1)
    with pytest.raises(ValueError):
        verify_dual_bound(p, {("frequency", 99): F(1)})


@pytest.mark.parametrize("key", [
    ("union", 3, 1),   # the pair reversed, and comparable
    ("box", 999),      # mask outside [2]
    ("frequency", 0),  # elements run from 1
])
def test_row_refuses_a_key_that_names_no_row(key):
    with pytest.raises(ValueError, match=r"^unknown row key "):
        build_relaxation(2, 2).row(key)


@pytest.mark.parametrize("key", [
    ("union", 1, 3),     # comparable pair: its row is a box row
    ("union", 2, 1),     # the pair reversed
    ("box", 4),          # mask outside [2]
    ("frequency", 0),    # elements run from 1
    ("union", 1, 2, 3),  # too long
])
def test_row_shaped_keys_that_name_no_row_are_rejected(key):
    p = build_relaxation(2, 1)
    y = {("box", m): F(1) for m in p.variables}
    assert verify_dual_bound(p, y) == 4
    with pytest.raises(ValueError, match="unknown row key"):
        verify_dual_bound(p, {**y, key: F(1)})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_has_row_agrees_with_the_listed_rows(n):
    p = build_relaxation(n, 2)
    listed = set(p.rows)
    full = 1 << n
    keys = [("union", s, t) for s in range(-1, full + 1) for t in range(-1, full + 1)]
    keys += [("frequency", e) for e in range(0, n + 2)]
    keys += [("box", m) for m in range(-1, full + 1)]
    assert sum(key in listed for key in keys) == len(listed)
    for key in keys:
        assert (key in p.rows) == (key in listed), key


def test_has_row_accepts_bools_and_rejects_floats():
    # bool is an int (True == 1); a float is not a mask, though 1.0 == 1
    p = build_relaxation(2, 1)
    assert ("box", True) in p.rows and ("frequency", True) in p.rows
    assert ("union", False, 3) not in p.rows  # comparable: 0 | 3 == 3
    assert ("union", True, 2) in p.rows
    assert ("box", 1.0) not in p.rows
    assert ("union", 1.0, 2) not in p.rows
    assert "box" not in p.rows
    y = {("box", m): F(1) for m in p.variables}
    with pytest.raises(ValueError, match="unknown row key"):
        verify_dual_bound(p, {**y, ("frequency", 1.0): F(1)})


def test_float_multipliers_are_refused():
    p = build_relaxation(2, 1)
    y = {("box", m): F(1) for m in p.variables}
    with pytest.raises(ValueError, match="neither an int nor a Fraction: 0.5"):
        verify_dual_bound(p, {**y, ("box", 0): 0.5})


def test_box_only_dual_is_feasible_and_weak():
    p = build_relaxation(2, 2)
    y = {("box", m): F(1) for m in p.variables}
    assert verify_dual_bound(p, y) == 4  # sum of box rhs; weak but legal


# --- integer checks over one common denominator ------------------------------------

def _mixed_primal(x3):
    # denominators 3 and 7; x3 decides the union row of {1,2} and {1,3}
    return {0: F(0), 1: F(1, 3), 2: F(2, 7), 3: x3, 4: F(0), 5: F(5, 7),
            6: F(0), 7: F(2, 3)}


def test_primal_check_catches_a_row_broken_by_one_21st():
    p = build_relaxation(3, 3)
    x = _mixed_primal(F(1))
    assert row_value(p, ("union", 3, 5), x) == 1 + F(1, 21)
    with pytest.raises(AssertionError, match=r"primal infeasible on row \('union', 3, 5\)"):
        _assert_primal_feasible(p, x)


def test_primal_check_accepts_the_row_met_with_equality():
    p = build_relaxation(3, 3)
    x = _mixed_primal(F(20, 21))
    assert row_value(p, ("union", 3, 5), x) == 1
    _assert_primal_feasible(p, x)


@pytest.mark.parametrize("value,other", [(F(8, 7), F(2, 7)), (F(-1, 5), F(2, 5))])
def test_primal_check_catches_a_variable_bound(value, other):
    # the common denominator is 7 (or 5), so each value is one unit out
    # of range: 8/7 breaks the box row of mask 0, while -1/5 meets every
    # row and only the bound check can see it
    p = build_relaxation(1, 2)
    message = (r"primal infeasible on row \('box', 0\)" if value > 1
               else "variable bound violated at mask 0")
    with pytest.raises(AssertionError, match=message):
        _assert_primal_feasible(p, {0: value, 1: other})


def test_dual_check_with_mixed_denominators_and_an_int_multiplier():
    # column 3 gets 1/3 + 1/7 from the frequency rows, 11/21 short of 1
    p = build_relaxation(2, 1)
    y = {("box", 0): 1, ("frequency", 1): F(1, 3), ("frequency", 2): F(1, 7),
         ("box", 1): F(2, 3), ("box", 2): F(6, 7)}
    with pytest.raises(DualInfeasibleError) as err:
        verify_dual_bound(p, y)
    assert err.value.mask == 3
    assert type(err.value.deficit) is F and err.value.deficit == F(11, 21)
    assert "falls short of 1 by 11/21" in str(err.value)
    y[("box", 3)] = F(11, 21)
    bound = verify_dual_bound(p, y)
    assert type(bound) is F and bound == 3 + F(11, 21)


def _reference_primal_failure(problem, primal):
    """The first failure message of a row-by-row Fraction check, or None."""
    for key in problem.rows:
        if row_value(problem, key, primal) > problem.row(key)[1]:
            return f"primal infeasible on row {key}"
    for m, v in primal.items():
        if not 0 <= v <= 1:
            return f"variable bound violated at mask {m}"
    return None


def _reference_dual_bound(problem, dual):
    """b'y, or (mask, deficit) at the first short column, in Fractions."""
    columns = {m: F(0) for m in problem.variables}
    bound = F(0)
    for key, mult in dual.items():
        coeffs, rhs = problem.row(key)
        bound += mult * rhs
        for m, c in coeffs.items():
            columns[m] += mult * c
    for m in problem.variables:
        if columns[m] < 1:
            return m, 1 - columns[m]
    return bound


def _primal_failure(problem, primal):
    try:
        _assert_primal_feasible(problem, primal)
    except AssertionError as exc:
        return str(exc)
    return None


def _dual_bound(problem, dual):
    try:
        return verify_dual_bound(problem, dual)
    except DualInfeasibleError as exc:
        return exc.mask, exc.deficit


def _assert_checks_match_reference(problem, primal, dual):
    assert _primal_failure(problem, primal) == _reference_primal_failure(problem, primal)
    assert _dual_bound(problem, dual) == _reference_dual_bound(problem, dual)
    # a primal scaled up breaks a tight row, and a dual with its largest
    # multiplier cut breaks a column: both must fail exactly as the reference
    bigger = {m: v * F(22, 21) for m, v in primal.items()}
    assert _reference_primal_failure(problem, bigger) is not None
    assert _primal_failure(problem, bigger) == _reference_primal_failure(problem, bigger)
    key = max(dual, key=lambda k: (dual[k], k))
    cut = {**dual, key: dual[key] * F(2, 7)}
    assert isinstance(_reference_dual_bound(problem, cut), tuple)
    assert _dual_bound(problem, cut) == _reference_dual_bound(problem, cut)


@pytest.mark.parametrize("n,a", sorted(FROZEN_PIVOT_PATH))
def test_integer_checks_match_fraction_reference_on_small_optima(n, a):
    p = build_relaxation(n, a)
    sol = solve_exact(p)
    assert _reference_dual_bound(p, sol.dual) == sol.objective
    _assert_checks_match_reference(p, sol.primal, sol.dual)


def test_integer_checks_match_fraction_reference_on_the_n7_certificate():
    p = build_relaxation(7, 7)
    dual = certificate_to_dual(make_certificate(7), p)
    primal = lift_symmetric_primal(p, symmetric_relaxation_value(7, 7)[1])
    assert _reference_dual_bound(p, dual) == F(387, 16)
    _assert_checks_match_reference(p, primal, dual)


@pytest.mark.parametrize("n", [8, 9])
def test_integer_checks_match_fraction_reference_on_larger_certificates(n):
    p = build_relaxation(n, n)
    dual = certificate_to_dual(make_certificate(n), p)
    primal = lift_symmetric_primal(p, symmetric_relaxation_value(n, n)[1])
    assert _reference_dual_bound(p, dual) == bar_f(n, n)
    _assert_checks_match_reference(p, primal, dual)


# entries in [-1/5, 6/5], so that a union, frequency or box row or a bound
# can each be the first to fail; the examples pin one of each
_ENTRIES = st.sampled_from([F(0), F(1)]) | st.fractions(F(-1, 5), F(6, 5), max_denominator=10)


@st.composite
def small_primals(draw):
    n = draw(st.integers(1, 4))
    a = draw(st.integers(1, 1 << n))
    values = draw(st.lists(_ENTRIES, min_size=1 << n, max_size=1 << n))
    return n, a, dict(enumerate(values))


@given(small_primals())
@settings(max_examples=200, deadline=None)
@example((2, 1, {0: F(0), 1: F(1), 2: F(1), 3: F(0)}))      # union row (1, 2)
@example((2, 1, {0: F(0), 1: F(1), 2: F(1), 3: F(1)}))      # frequency row 1
@example((1, 2, {0: F(6, 5), 1: F(0)}))                     # box row 0
@example((1, 1, {0: F(-1, 5), 1: F(0)}))                    # bound at mask 0
@example((2, 2, {m: F(1, 2) for m in range(4)}))            # feasible
def test_primal_check_matches_fraction_reference_on_random_vectors(case):
    n, a, primal = case
    p = build_relaxation(n, a)
    assert _primal_failure(p, primal) == _reference_primal_failure(p, primal)


def test_diagonal_proof_never_lists_the_rows():
    p = build_relaxation(9, 9)
    assert verify_dual_bound(p, certificate_to_dual(make_certificate(9), p)) == F(1100, 29)
    _assert_primal_feasible(p, lift_symmetric_primal(p, symmetric_relaxation_value(9, 9)[1]))
    assert "rows" not in vars(p)


def _traced_peak(thunk):
    tracemalloc.start()
    try:
        value = thunk()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return value, peak


def test_counting_the_n9_rows_stores_no_key():
    # a tuple of the 112,166 keys takes about 12 MiB
    count, peak = _traced_peak(lambda: len(build_relaxation(9, 9).rows))
    assert count == 112166
    assert peak < 2**20


def test_the_n9_dual_check_reads_only_the_rows_it_names():
    bound, peak = _traced_peak(lambda: certificate_dual_bound(9, 9))
    assert bound == F(1100, 29)
    assert peak < 2**20


# --- certificate as dual ---------------------------------------------------------

def union_size_pattern(key):
    """(|S|, |T|, |S u T|) of a union row key, the smaller size first."""
    _, s, t = key
    return (*sorted((s.bit_count(), t.bit_count())), (s | t).bit_count())


def scanned_certificate_dual(cert, p):
    """Reference: the certificate's rows found by scanning every row."""
    union_multiplier = {(1, 2, 3): cert.beta, (2, 2, 4): cert.gamma}
    dual = {}
    for key in p.rows:
        if key[0] == "frequency":
            dual[key] = cert.alpha
        elif key[0] == "union":
            multiplier = union_multiplier.get(union_size_pattern(key))
            if multiplier is not None:
                dual[key] = multiplier
    dual[("box", 0)] = F(1)
    return dual


@pytest.mark.parametrize("n", [7, 8, 9])
def test_certificate_row_multiplicities(n):
    p = build_relaxation(n, n)
    cert = make_certificate(n)
    dual = certificate_to_dual(cert, p)
    assert len({cert.alpha, cert.beta, cert.gamma, F(1)}) == 4
    assert sum(v == cert.beta for v in dual.values()) == 3 * math.comb(n, 3)
    assert sum(v == cert.gamma for v in dual.values()) == 3 * math.comb(n, 4)
    assert sum(v == cert.alpha for v in dual.values()) == n
    assert dual[("box", 0)] == 1
    assert dual == scanned_certificate_dual(cert, p)


def test_certificate_dual_bound_equals_bar_f():
    assert certificate_dual_bound(7, 7) == F(387, 16) == bar_f(7, 7)


def test_certificate_to_dual_guards():
    cert = make_certificate(7)
    with pytest.raises(ValueError):
        certificate_to_dual(cert, build_relaxation(8, 8))
    with pytest.raises(ValueError):
        certificate_to_dual(make_certificate(6), build_relaxation(6, 6))


def test_certificate_bound_also_holds_off_diagonal():
    for a in (1, 3, 7, 10):
        p = build_relaxation(7, a)
        got = verify_dual_bound(p, certificate_to_dual(make_certificate(7), p))
        assert got == bar_f(7, a)


# --- the collapsed (symmetric) program -------------------------------------------

def test_collapsed_value_equals_full_solver_everywhere_small():
    for n in range(1, 5):
        for a in range(1, (1 << (n - 1)) + 1):
            full = solve_exact(build_relaxation(n, a)).objective
            collapsed, _ = symmetric_relaxation_value(n, a)
            assert full == collapsed, (n, a)


def test_collapsed_value_at_55_matches_frozen_full_solve():
    value, _ = symmetric_relaxation_value(5, 5)
    assert value == F(583, 43)  # explicit solve_exact(5, 5) optimum, frozen


def test_explicit_and_collapsed_engines_agree_at_n5():
    for a, expected in FR_N5.items():
        p = build_relaxation(5, a)
        sol = solve_exact(p)
        assert sol.status == "optimal"
        assert sol.objective == expected, a
        assert symmetric_relaxation_value(5, a)[0] == expected, a
        assert verify_dual_bound(p, sol.dual) == sol.objective, a


def test_collapsed_levels_lift_to_feasible_primal():
    p = build_relaxation(4, 3)
    value, levels = symmetric_relaxation_value(4, 3)
    x = lift_symmetric_primal(p, levels)
    assert rows_hold(p, x)
    assert sum(x.values()) == value


def test_relaxation_diagonal_values_proven_exactly():
    # the diagonal relaxation equals the closed-form bound from n = 7 on;
    # each value is certified by an explicit primal-dual pair
    assert prove_diagonal_relaxation_value(7) == F(387, 16)
    assert prove_diagonal_relaxation_value(8) == F(337, 11)
    assert math.floor(F(337, 11)) == 30


def test_relaxation_diagonal_value_n9_proven_exactly():
    value = prove_diagonal_relaxation_value(9)
    assert value == F(1100, 29)
    assert math.floor(value) == 37


def test_collapsed_solve_returns_its_dual_keyed_by_row_pattern(monkeypatch):
    kernel = lp._simplex_max
    solves = []

    def recording(objective, rows, meter):
        solves.append((rows, kernel(objective, rows, meter)))
        return solves[-1][1]

    monkeypatch.setattr(lp, "_simplex_max", recording)
    value, levels = symmetric_relaxation_value(7, 7)
    [(rows, solution)] = solves
    assert isinstance(solution, LpSolution) and solution.status == "optimal"
    assert (solution.objective, solution.primal) == (value, levels)
    assert list(solution.dual) == list(rows)
    assert list(rows)[-9:] == [("frequency",), *(("box", k) for k in range(8))]
    assert all(key[0] == "union" and len(key) == 4 for key in list(rows)[:-9])
    assert sum(rows[key][1] * y for key, y in solution.dual.items()) == value


def test_diagonal_proof_consults_bar_f(monkeypatch):
    monkeypatch.setattr(lp, "bar_f", lambda n, a: bar_f(n, a) + 1)
    with pytest.raises(AssertionError):
        prove_diagonal_relaxation_value(7)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("moves_value", [True, False])
def test_diagonal_proof_catches_moved_levels(monkeypatch, k, sign, moves_value):
    # t_1 or t_3 moved by 1/n^3 either way, with the reported value moved to
    # match the levels or left at the optimum: one half of the proof fails
    n = 7
    collapsed = lp.symmetric_relaxation_value

    def moved(n, a):
        value, levels = collapsed(n, a)
        delta = F(sign, n ** 3)
        if moves_value:
            value += math.comb(n, k) * delta
        return value, {**levels, k: levels[k] + delta}

    monkeypatch.setattr(lp, "symmetric_relaxation_value", moved)
    with pytest.raises(AssertionError):
        prove_diagonal_relaxation_value(n)


def test_relaxation_stays_below_certificate_bound():
    for a in range(1, 8):
        value, _ = symmetric_relaxation_value(7, a)
        assert value <= bar_f(7, a)


# --- export --------------------------------------------------------------------

def test_problem_text_export_round_trips_by_inspection():
    text = problem_to_text(build_relaxation(2, 2))
    lines = text.splitlines()
    assert lines[0] == "lp n=2 a=2 vars=4"
    assert "union 1 1:1 2:1 3:-1" in lines
    assert "frequency 2 1:1 3:1" in lines
    assert "box 1 0:1" in lines
    # one line per row plus the header
    assert len(lines) == 1 + len(build_relaxation(2, 2).rows)
