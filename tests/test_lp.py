import math
from fractions import Fraction
from itertools import combinations, count
from types import SimpleNamespace

import pytest

from frankl_lab import (DualInfeasibleError, SearchBudget, bar_f,
                        build_relaxation, certificate_dual_bound,
                        certificate_to_dual, compute_f, lift_symmetric_primal,
                        make_certificate, problem_to_text,
                        prove_diagonal_relaxation_value, solve_exact,
                        symmetric_relaxation_value, verify_dual_bound)
from frankl_lab.lp import LpProblem, Row, union_size_pattern

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


# --- building ---------------------------------------------------------------

def test_n1_problem_shape():
    p = build_relaxation(1, 1)
    assert len(p.variables) == 2
    counts = p.row_counts()
    assert counts.get("union", 0) == 0
    assert counts["frequency"] == 1
    assert counts["box"] == 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_union_row_count_matches_pair_enumeration(n):
    p = build_relaxation(n, 1)
    assert p.row_counts()["union"] == brute_union_row_count(n)


def test_n3_union_row_count_value():
    assert build_relaxation(3, 3).row_counts()["union"] == 9


def test_full_power_set_is_feasible_at_half_cap():
    p = build_relaxation(2, 2)
    ones = {m: F(1) for m in p.variables}
    for row in p.rows:
        assert sum(c * ones[m] for m, c in row.coeffs.items()) <= row.rhs


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_relaxation(10, 1)
    with pytest.raises(ValueError):
        build_relaxation(3, 0)


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
            rows = [r for r in p.rows if r.kind != "box"]
            A = [[0.0] * nv for _ in rows]
            b = []
            for i, r in enumerate(rows):
                for m, c in r.coeffs.items():
                    A[i][m] = float(c)
                b.append(float(r.rhs))
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
    monkeypatch.setattr("frankl_lab.lp.time",
                        SimpleNamespace(perf_counter=lambda: next(ticks) / 10))
    p = build_relaxation(4, 4)
    sol = solve_exact(p, SearchBudget(max_seconds=0.15))
    assert sol.status == "budget"
    assert sol.pivots == 16
    assert sol.dual == {}
    assert set(sol.primal) == set(p.variables)
    for row in p.rows:
        assert sum(c * sol.primal[m] for m, c in row.coeffs.items()) <= row.rhs
    assert sol.objective == sum(sol.primal.values())


def test_column_bounded_by_no_row_is_unbounded():
    # x_1 appears in no row, so it can grow without limit
    p = LpProblem(1, 1, (0, 1), (Row("box", ("box", 0), {0: 1}, 1),))
    sol = solve_exact(p)
    assert sol.status == "unbounded"
    assert sol.objective is None
    assert sol.primal == {} and sol.dual == {}


def test_negative_right_hand_side_rejected():
    p = LpProblem(1, 1, (0, 1), (Row("box", ("box", 0), {0: 1}, -1),
                                 Row("box", ("box", 1), {1: 1}, 1)))
    with pytest.raises(ValueError):
        solve_exact(p)


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


def test_box_only_dual_is_feasible_and_weak():
    p = build_relaxation(2, 2)
    y = {("box", m): F(1) for m in p.variables}
    assert verify_dual_bound(p, y) == 4  # sum of box rhs; weak but legal


# --- certificate as dual ---------------------------------------------------------

def test_certificate_row_multiplicities_at_n7():
    p = build_relaxation(7, 7)
    cert = make_certificate(7)
    dual = certificate_to_dual(cert, p)
    beta_rows = [k for k, v in dual.items() if v == cert.beta]
    gamma_rows = [k for k, v in dual.items() if v == cert.gamma]
    alpha_rows = [k for k, v in dual.items() if v == cert.alpha]
    assert len(beta_rows) == 105  # 3 * C(7,3)
    assert len(gamma_rows) == 105  # 3 * C(7,4)
    assert len(alpha_rows) == 7
    assert dual[("box", 0)] == 1
    for key in beta_rows:
        assert union_size_pattern(p.rows_by_key[key]) == (1, 2, 3)
    for key in gamma_rows:
        assert union_size_pattern(p.rows_by_key[key]) == (2, 2, 4)


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
    for row in p.rows:
        assert sum(c * x[m] for m, c in row.coeffs.items()) <= row.rhs
    assert sum(x.values()) == value


def test_relaxation_diagonal_values_proven_exactly():
    # the diagonal relaxation equals the closed-form bound from n = 7 on;
    # each value is certified by an explicit primal-dual pair
    assert prove_diagonal_relaxation_value(7) == F(387, 16)
    assert prove_diagonal_relaxation_value(8) == F(337, 11)
    assert math.floor(F(337, 11)) == 30


@pytest.mark.slow
def test_relaxation_diagonal_value_n9_proven_exactly():
    value = prove_diagonal_relaxation_value(9)
    assert value == F(1100, 29)
    assert math.floor(value) == 37


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
