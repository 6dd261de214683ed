"""Exact linear relaxation of the f(n,a) integer program, with dual checks.

The relaxed program over variables 0 <= x_S <= 1, one per mask S on [n]:

    maximize   sum_S x_S
    subject to x_S + x_T - x_{S|T} <= 1   for unordered incomparable {S, T}
               sum_{S : e in S} x_S <= a  for each element e
               x_S <= 1                   (box rows)

Union rows for comparable pairs are omitted: with S <= T the row reduces
to x_S <= 1, already a box row, so the feasible region is unchanged.
Each unordered pair appears once.

The solver is an exact simplex on the condensed tableau (one column
per nonbasic variable, no slack identity block) in integer-preserving
form: every entry is an integer over one common denominator, and each
pivot divides exactly by the previous pivot element (Edmonds 1967,
Bareiss 1968), so no rational arithmetic runs inside the loop.  Every
right-hand side is positive, so the all-slack basis is feasible and no
phase-1 is needed.  Pivoting uses the largest-coefficient rule until a
run of degenerate pivots is detected, then falls back to Bland's rule
(which cannot cycle) until progress resumes.  Rows and variables are
ordered by mask value and ties go to the smallest variable index, so
identical problems pivot identically and solutions are deterministic.

Dual side: an assignment y >= 0 of multipliers to rows is accepted by
`verify_dual_bound` iff every variable's y-weighted column sum reaches
its objective coefficient 1; the weighted right-hand side sum is then an
upper bound on the LP optimum (weak duality, exact).  The certificate
multipliers (alpha on frequency rows, beta on size-(1,2,3) union rows,
gamma on size-(2,2,4) union rows, 1 on the empty-set box row) map onto
this interface via `certificate_to_dual`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Optional

from .certificate import DualCertificate, bar_f, make_certificate
from .families import popcount
from .search import NO_BUDGET, SearchBudget

RowKey = tuple

LP_MAX_N = 9  # 2^9 = 512 variables, ~1.3e5 union rows


@dataclass(frozen=True)
class Row:
    """One <= constraint: sum of coeffs[mask] * x_mask <= rhs."""

    kind: str  # "union" | "frequency" | "box"
    key: RowKey
    coeffs: dict[int, int]
    rhs: int


@dataclass(frozen=True)
class LpProblem:
    n: int
    a: int
    variables: tuple[int, ...]  # all masks, ascending
    rows: tuple[Row, ...]

    @cached_property
    def rows_by_key(self) -> dict[RowKey, Row]:
        return {r.key: r for r in self.rows}

    def row_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.rows:
            counts[r.kind] = counts.get(r.kind, 0) + 1
        return counts


class DualInfeasibleError(Exception):
    """A dual vector failed a column check; carries the exact deficit."""

    def __init__(self, mask: int, deficit: Fraction):
        self.mask = mask
        self.deficit = deficit
        super().__init__(
            f"dual infeasible at column for mask {mask}: "
            f"weighted sum falls short of 1 by {deficit}"
        )


def build_relaxation(n: int, a: int) -> LpProblem:
    """Construct the relaxation for 1 <= n <= 9, a >= 1."""
    if not 1 <= n <= LP_MAX_N:
        raise ValueError(f"relaxation capped at n = {LP_MAX_N}, got {n}")
    if a < 1:
        raise ValueError(f"frequency cap must be >= 1, got {a}")
    full = 1 << n
    rows: list[Row] = []
    for s in range(full):
        for t in range(s + 1, full):
            u = s | t
            if u == s or u == t:
                continue
            rows.append(Row("union", ("union", s, t), {s: 1, t: 1, u: -1}, 1))
    for e in range(1, n + 1):
        bit = 1 << (e - 1)
        coeffs = {m: 1 for m in range(full) if m & bit}
        rows.append(Row("frequency", ("frequency", e), coeffs, a))
    for m in range(full):
        rows.append(Row("box", ("box", m), {m: 1}, 1))
    return LpProblem(n, a, tuple(range(full)), tuple(rows))


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded" | "budget"
    objective: Optional[Fraction]
    primal: dict[int, Fraction] = field(default_factory=dict)
    dual: dict[RowKey, Fraction] = field(default_factory=dict)
    pivots: int = 0
    seconds: float = 0.0

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "objective": None if self.objective is None else str(self.objective),
            "primal": {str(m): str(v) for m, v in sorted(self.primal.items())},
            "dual": {_key_to_str(k): str(v) for k, v in self.dual.items()},
            "pivots": self.pivots,
            "seconds": self.seconds,
        }


def _key_to_str(key: RowKey) -> str:
    return ":".join(str(p) for p in key)


_DEGENERATE_RUN_LIMIT = 40


def _simplex_max(objective: list[int],
                 rows: list[tuple[dict[int, int], int]],
                 budget: SearchBudget) -> tuple:
    """Maximize objective . x over {x >= 0 : rows}, all rhs >= 0, exactly.

    All right-hand sides being nonnegative, the all-slack basis is
    feasible and pivoting starts immediately.  Returns
    (status, value, primal list, dual list, pivots); on "budget" the
    primal is the current feasible basic solution and the dual is empty.

    The condensed tableau holds integers only: row i is
    [N[i][0], ..., N[i][nv-1], rhs_i], the cost row is
    [reduced costs..., objective], and the true tableau is every entry
    divided by the common denominator det > 0.  Variable j < nv is
    structural, nv + r is the slack of row r; basis[i] names the basic
    variable of row i and nonbasic[c] the variable of column c.  As det
    scales every entry alike, each sign test, minimum and ratio
    comparison below decides exactly as it would on the rational
    tableau.
    """
    t0 = time.perf_counter()
    nv = len(objective)
    m_rows = len(rows)

    tableau: list[list[int]] = []
    for coeffs, rhs in rows:
        if rhs < 0:
            raise ValueError("negative right-hand side")
        line = [0] * (nv + 1)
        for j, c in coeffs.items():
            line[j] = c
        line[nv] = rhs
        tableau.append(line)
    cost = [-c for c in objective] + [0]
    basis = [nv + r for r in range(m_rows)]
    nonbasic = list(range(nv))
    det = 1

    def _primal() -> list[Fraction]:
        x = [Fraction(0)] * nv
        for i in range(m_rows):
            if basis[i] < nv:
                x[basis[i]] = Fraction(tableau[i][nv], det)
        return x

    pivots = 0
    degenerate_run = 0
    bland = False
    while True:
        # most negative reduced cost, ties to the smallest variable
        # index; under Bland's rule the smallest index of any negative one
        candidates = [c for c in range(nv) if cost[c] < 0]
        if not candidates:
            break  # optimal: the budget stops only a solve that can still improve
        if budget.max_nodes is not None and pivots >= budget.max_nodes:
            return "budget", Fraction(cost[nv], det), _primal(), [], pivots
        if (budget.max_seconds is not None and pivots % 16 == 0
                and time.perf_counter() - t0 > budget.max_seconds):
            return "budget", Fraction(cost[nv], det), _primal(), [], pivots
        if bland:
            enter = min(candidates, key=nonbasic.__getitem__)
        else:
            enter = min(candidates, key=lambda c: (cost[c], nonbasic[c]))

        # ratio test rhs_i / N[i][enter] by cross-multiplication, ties
        # to the smaller basic variable index
        pivot_row = None
        for i in range(m_rows):
            aij = tableau[i][enter]
            if aij > 0:
                if pivot_row is None:
                    pivot_row = i
                    continue
                lhs = tableau[i][nv] * tableau[pivot_row][enter]
                rhs = tableau[pivot_row][nv] * aij
                if lhs < rhs or (lhs == rhs and basis[i] < basis[pivot_row]):
                    pivot_row = i
        if pivot_row is None:
            return "unbounded", None, [], [], pivots

        prow = tableau[pivot_row]
        if prow[nv] == 0:
            degenerate_run += 1
            if degenerate_run >= _DEGENERATE_RUN_LIMIT:
                bland = True
        else:
            degenerate_run = 0
            bland = False

        # integer-preserving pivot: every quotient below is exact
        piv = prow[enter]
        for i, line in enumerate(tableau):
            if i != pivot_row:
                tableau[i] = _pivot_line(line, prow, enter, piv, det)
        cost = _pivot_line(cost, prow, enter, piv, det)
        # the pivot row keeps its entries over the new denominator piv
        prow[enter] = det
        det = piv
        basis[pivot_row], nonbasic[enter] = nonbasic[enter], basis[pivot_row]
        pivots += 1

    value = Fraction(cost[nv], det)
    dual = [Fraction(0)] * m_rows
    for c in range(nv):
        if nonbasic[c] >= nv:
            dual[nonbasic[c] - nv] = Fraction(cost[c], det)
    # strong duality is an internal guard: a mismatch would be a solver bug
    weighted_rhs = sum(Fraction(rows[r][1]) * dual[r] for r in range(m_rows))
    if weighted_rhs != value:
        raise AssertionError("strong duality violated: primal and dual objectives differ")
    return "optimal", value, _primal(), dual, pivots


def _pivot_line(line: list[int], prow: list[int], enter: int,
                piv: int, det: int) -> list[int]:
    """One non-pivot row after pivoting on prow[enter] = piv."""
    f = line[enter]
    if f:
        new = [(x * piv - f * y) // det for x, y in zip(line, prow)]
    elif piv == det:
        return line
    else:
        new = [x * piv // det for x in line]
    new[enter] = -f
    return new


def solve_exact(problem: LpProblem, budget: SearchBudget = NO_BUDGET) -> LpSolution:
    """Exact primal and dual optimum of the relaxation.

    On budget exhaustion returns status "budget" with the current (still
    feasible) basic solution as a lower bound and no dual.
    """
    t0 = time.perf_counter()
    var_pos = {m: i for i, m in enumerate(problem.variables)}
    rows = [({var_pos[m]: c for m, c in row.coeffs.items()}, row.rhs)
            for row in problem.rows]
    status, value, primal_list, dual_list, pivots = _simplex_max(
        [1] * len(problem.variables), rows, budget)
    elapsed = time.perf_counter() - t0
    if status == "unbounded":
        return LpSolution("unbounded", None, pivots=pivots, seconds=elapsed)
    primal = {m: primal_list[var_pos[m]] for m in problem.variables}
    if status == "budget":
        return LpSolution("budget", value, primal, {}, pivots, elapsed)
    dual = {problem.rows[r].key: dual_list[r] for r in range(len(problem.rows))}
    _assert_primal_feasible(problem, primal)
    return LpSolution("optimal", value, primal, dual, pivots, elapsed)


def _assert_primal_feasible(problem: LpProblem, primal: dict[int, Fraction]) -> None:
    for row in problem.rows:
        total = sum(c * primal[m] for m, c in row.coeffs.items())
        if total > row.rhs:
            raise AssertionError(f"primal infeasible on row {row.key}")
    for m, v in primal.items():
        if not 0 <= v <= 1:
            raise AssertionError(f"variable bound violated at mask {m}")


def verify_dual_bound(problem: LpProblem, dual: dict[RowKey, Fraction]) -> Fraction:
    """Check dual feasibility of y >= 0 and return the bound b'y.

    Feasible means: for every variable x_S, the y-weighted column sum
    over the declared rows (box rows included) is at least the objective
    coefficient 1; any excess is legal since x_S >= 0.  Raises
    DualInfeasibleError naming the first violated column and its exact
    deficit, ValueError for unknown rows or negative multipliers.
    """
    columns = {m: Fraction(0) for m in problem.variables}
    bound = Fraction(0)
    by_key = problem.rows_by_key
    for key, mult in dual.items():
        if key not in by_key:
            raise ValueError(f"unknown row key {key!r} (problem/vector dimension mismatch)")
        if mult < 0:
            raise ValueError(f"dual multiplier for row {key!r} is negative: {mult}")
        if mult == 0:
            continue
        row = by_key[key]
        bound += mult * row.rhs
        for mask, coeff in row.coeffs.items():
            columns[mask] += mult * coeff
    for mask in problem.variables:
        if columns[mask] < 1:
            raise DualInfeasibleError(mask, 1 - columns[mask])
    return bound


def union_size_pattern(row: Row) -> tuple[int, int, int]:
    """(|S|, |T|, |S u T|) of a union row, the smaller size first."""
    _, s, t = row.key
    ps, pt = popcount(s), popcount(t)
    if ps > pt:
        ps, pt = pt, ps
    return ps, pt, popcount(s | t)


def certificate_to_dual(cert: DualCertificate, problem: LpProblem) -> dict[RowKey, Fraction]:
    """Spread the certificate multipliers over the matching rows.

    alpha goes on every frequency row, beta on the 3*C(n,3) union rows
    with size pattern (1,2,3), gamma on the 3*C(n,4) rows with pattern
    (2,2,4), and 1 on the box row of the empty set.  Valid as a dual
    vector only for n >= 7 (gamma >= 0 there).
    """
    if cert.n != problem.n:
        raise ValueError(f"certificate is for n={cert.n}, problem has n={problem.n}")
    if cert.n < 7:
        raise ValueError("certificate multipliers are not a dual vector below n = 7")
    dual: dict[RowKey, Fraction] = {}
    for row in problem.rows:
        if row.kind == "frequency":
            dual[row.key] = cert.alpha
        elif row.kind == "union":
            pattern = union_size_pattern(row)
            if pattern == (1, 2, 3):
                dual[row.key] = cert.beta
            elif pattern == (2, 2, 4):
                dual[row.key] = cert.gamma
    dual[("box", 0)] = Fraction(1)
    return dual


def certificate_dual_bound(n: int, a: int) -> Fraction:
    """Build the relaxation, map the certificate onto it, and verify.

    Returns the verified bound, which equals bar_f(n, a) exactly.
    """
    problem = build_relaxation(n, a)
    cert = make_certificate(n)
    value = verify_dual_bound(problem, certificate_to_dual(cert, problem))
    expected = bar_f(n, a)
    if value != expected:
        raise AssertionError(f"certificate dual bound {value} != bar_f = {expected}")
    return value


def symmetric_relaxation_value(n: int, a: int,
                               budget: SearchBudget = NO_BUDGET) -> tuple[Fraction, dict[int, Fraction]]:
    """f_r(n, a) via the cardinality-collapsed LP; exact and fast.

    Every constraint and the objective of the relaxation are invariant
    under permutations of the ground set, and the feasible region is
    convex, so averaging an optimal solution over all n! permutations
    yields an optimal solution that is constant on each cardinality
    class: x_S = t_{|S|}.  Restricting to such vectors collapses the
    program to n+1 variables:

        maximize   sum_k C(n,k) t_k
        subject to t_i + t_j - t_u <= 1   for every realizable size
                                          pattern i <= j < u <= min(i+j, n)
                   sum_k C(n-1, k-1) t_k <= a
                   0 <= t_k <= 1

    with identical optimal value.  This turns instances whose explicit
    program has ~10^5 rows (n = 8, 9) into millisecond solves on the
    same exact simplex kernel as `solve_exact`; the two values are
    checked equal in the tests for every n <= 5.

    Returns (value, {k: t_k}).
    """
    if not 1 <= n <= LP_MAX_N:
        raise ValueError(f"relaxation capped at n = {LP_MAX_N}, got {n}")
    if a < 1:
        raise ValueError(f"frequency cap must be >= 1, got {a}")
    rows: list[tuple[dict[int, int], int]] = []
    for j in range(1, n + 1):
        for i in range(1, j + 1):
            for u in range(j + 1, min(i + j, n) + 1):
                if i == j:
                    rows.append(({i: 2, u: -1}, 1))
                else:
                    rows.append(({i: 1, j: 1, u: -1}, 1))
    rows.append(({k: comb(n - 1, k - 1) for k in range(1, n + 1)}, a))
    for k in range(n + 1):
        rows.append(({k: 1}, 1))
    objective = [comb(n, k) for k in range(n + 1)]
    status, value, primal, _, _ = _simplex_max(objective, rows, budget)
    if status != "optimal":
        raise RuntimeError(f"collapsed relaxation did not solve: status {status}")
    return value, {k: primal[k] for k in range(n + 1)}


def lift_symmetric_primal(problem: LpProblem, levels: dict[int, Fraction]) -> dict[int, Fraction]:
    """Expand per-cardinality values t_k into a full vector x_S = t_{|S|}."""
    return {m: levels[popcount(m)] for m in problem.variables}


def prove_diagonal_relaxation_value(n: int) -> Fraction:
    """Prove f_r(n, n) = fbar(n, n) exactly on the explicit problem, n >= 7.

    Two half-proofs meet: the collapsed LP's optimal levels lift to a
    primal vector whose feasibility is checked against every explicit
    row (so f_r >= value), and the certificate multipliers pass
    `verify_dual_bound` with value fbar(n, n) (so f_r <= fbar).  The two
    values coinciding pins f_r(n, n) down exactly.

    This equality is a computed fact for n = 7, 8, 9: the diagonal of the
    relaxation is exactly as strong as the closed-form bound, i.e. the
    equal-multiplier restriction of the dual loses nothing at a = n.
    """
    value, levels = symmetric_relaxation_value(n, n)
    problem = build_relaxation(n, n)
    primal = lift_symmetric_primal(problem, levels)
    _assert_primal_feasible(problem, primal)
    if sum(primal.values()) != value:
        raise AssertionError("lifted primal objective drifted")
    upper = verify_dual_bound(problem, certificate_to_dual(make_certificate(n), problem))
    if upper != value:
        raise AssertionError(
            f"diagonal relaxation value {value} differs from certified bound {upper}"
        )
    return value


def problem_to_text(problem: LpProblem) -> str:
    """Sparse text export, one constraint per line, for external solvers.

    Line 1: "lp n=<n> a=<a> vars=<count>"; the objective is implicitly
    "maximize the sum of all variables with bounds [0, 1]".  Each
    following line: "<kind> <rhs> <mask>:<coeff> ...", masks ascending.
    """
    lines = [f"lp n={problem.n} a={problem.a} vars={len(problem.variables)}"]
    for row in problem.rows:
        parts = [row.kind, str(row.rhs)]
        parts.extend(f"{m}:{c}" for m, c in sorted(row.coeffs.items()))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
