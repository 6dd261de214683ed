"""Exact linear relaxation of the f(n,a) integer program, with dual checks.

The relaxed program over variables 0 <= x_S <= 1, one per mask S on [n]:

    maximize   sum_S x_S
    subject to x_S + x_T - x_{S|T} <= 1   for unordered incomparable {S, T}
               sum_{S : e in S} x_S <= a  for each element e
               x_S <= 1                   (box rows)

Union rows for comparable pairs are omitted: with S <= T the row reduces
to x_S <= 1, already a box row, so the feasible region is unchanged.
Each unordered pair appears once.

`LpProblem` holds only n and a, which fix the program, and refuses a
pair outside 1 <= n <= 9, a >= 1 when it is made.  A row is named by its
key, ("union", S, T) with S < T, ("frequency", e) or ("box", m), and
`LpProblem.row` spells it out from that key and a; no row is stored.
`LpProblem.rows` is a view of the keys made from n alone (`RowKeys`): its
length is a closed form and `key in rows` tests the key's shape, so
neither stores a key, and only the simplex and the text export walk them.

The solver is an exact simplex on the condensed tableau (one column
per nonbasic variable, no slack identity block) in integer-preserving
form: every entry is an integer over one common denominator, and each
pivot divides exactly by the previous pivot element (Edmonds 1967,
Bareiss 1968), so no rational arithmetic runs inside the loop.  Rows are
updated in place.  Most pivots here meet a pivot element equal to the
denominator; such a pivot keeps it, and the exact update
(x * det - f * y) / det = x - f * y / det moves only the pivot row's
nonzero columns of the rows whose entering entry f is nonzero.  Every
right-hand side is positive, so the all-slack basis is feasible and no
phase-1 is needed, and every variable has a box row, so no solve is
unbounded.  Pivoting uses the largest-coefficient rule until a run of
degenerate pivots is detected, then falls back to Bland's rule
(which cannot cycle) until progress resumes.  Rows and variables are
ordered by mask value and ties go to the smallest variable index, so
identical problems pivot identically and solutions are deterministic.
The kernel takes its rows keyed by name and returns the `LpSolution`,
dual keyed by row.  `_assert_primal_feasible` checks a primal on every
explicit row and returns its objective: `solve_exact` compares it with
the simplex optimum and the diagonal proof with the collapsed one; that
proof's upper half is `certificate_dual_bound`, checked against fbar(n, n).

Dual side: `verify_dual_bound` accepts multipliers y >= 0 on rows iff
every variable's y-weighted column sum reaches its objective coefficient
1; the weighted right-hand side sum is then an upper bound on the LP
optimum (weak duality, exact).  Both checks run in integers: the vector
is scaled once to integers over the lcm D of its denominators and each
row or column is compared with its bound times D.  The dual check reads
only the rows its vector names; the primal check reads every row straight
off the scaled vector and makes no row key or coefficient dict.  The
certificate multipliers map onto this interface via `certificate_to_dual`,
which names their rows directly: alpha on each frequency row, beta on the
union row of each split of a 3-subset into a singleton and a pair, gamma
on the union row of each split of a 4-subset into two pairs, and 1 on the
empty-set box row.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import comb, lcm
from operator import sub

from .budget import NO_BUDGET, Meter, SearchBudget
from .certificate import DualCertificate, bar_f, make_certificate

RowKey = tuple  # ("union", S, T) with S < T | ("frequency", e) | ("box", m)

LP_MAX_N = 9  # 2^9 = 512 variables, 111,645 union rows


def _check_size(n: int, a: int) -> None:
    if type(n) is not int or type(a) is not int:
        raise ValueError(f"n and a must be ints, got {n!r} and {a!r}")
    if not 1 <= n <= LP_MAX_N:
        raise ValueError(f"ground size must be in [1, {LP_MAX_N}], got {n}")
    if a < 1:
        raise ValueError(f"frequency cap must be >= 1, got {a}")


class RowKeys:
    """The row keys of the relaxation on [n] in solver order: union by
    (S, T), then frequency by e, then box by m.  Counted, tested and
    walked from n alone; no key is stored."""

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        self.n = n

    def __len__(self) -> int:
        # unordered pairs of masks, less the 3^n - 2^n comparable ones,
        # plus n frequency rows and 2^n box rows
        full = 1 << self.n
        return comb(full, 2) - (3 ** self.n - full) + self.n + full

    def __iter__(self) -> Iterator[RowKey]:
        full = 1 << self.n
        return chain((("union", s, t) for s in range(full) for t in range(s + 1, full)
                      if s | t != t),
                     (("frequency", e) for e in range(1, self.n + 1)),
                     (("box", m) for m in range(full)))

    def __contains__(self, key: object) -> bool:
        """Whether key names a row, decided by its shape."""
        full = 1 << self.n
        match key:
            case ("union", int(s), int(t)):
                return 0 <= s < t < full and s | t != t
            case ("frequency", int(e)):
                return 1 <= e <= self.n
            case ("box", int(m)):
                return 0 <= m < full
        return False


@dataclass(frozen=True)
class LpProblem:
    """The relaxation at (n, a), refused unless 1 <= n <= 9 and a >= 1.
    `rows` is a view of the row keys (`RowKeys`), and `row(key)` says what
    one constrains; mask m is variable m."""

    n: int
    a: int

    def __post_init__(self) -> None:
        _check_size(self.n, self.a)

    @property
    def variables(self) -> range:
        return range(1 << self.n)

    @property
    def rows(self) -> RowKeys:
        return RowKeys(self.n)

    def row(self, key: RowKey) -> tuple[dict[int, int], int]:
        """(coefficients by mask, rhs) of the row sum_m coeffs[m] * x_m <= rhs;
        ValueError for a key that names no row."""
        if key not in self.rows:
            raise ValueError(f"unknown row key {key!r}")
        return self._row(key)

    def _row(self, key: RowKey) -> tuple[dict[int, int], int]:
        """`row` for a key known to name a row: one walked from `rows` or
        already tested, as the shape test costs more than the row."""
        if key[0] == "union":
            _, s, t = key
            return {s: 1, t: 1, s | t: -1}, 1
        if key[0] == "frequency":
            bit = 1 << (key[1] - 1)
            return {m: 1 for m in range(bit, 1 << self.n) if m & bit}, self.a
        return {key[1]: 1}, 1


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
    """The relaxation for 1 <= n <= 9, a >= 1."""
    return LpProblem(n, a)


@dataclass(frozen=True)
class LpSolution:
    """Status "optimal" with a primal-dual pair, or "budget" with the
    feasible basic solution reached so far (a lower bound) and no dual."""

    status: str  # "optimal" | "budget"
    objective: Fraction
    primal: dict[int, Fraction]
    dual: dict[RowKey, Fraction]
    pivots: int
    seconds: float

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "objective": str(self.objective),
            "primal": {str(m): str(v) for m, v in sorted(self.primal.items())},
            "dual": {_key_to_str(k): str(v) for k, v in self.dual.items()},
            "pivots": self.pivots,
            "seconds": self.seconds,
        }


def _key_to_str(key: RowKey) -> str:
    return ":".join(str(p) for p in key)


_DEGENERATE_RUN_LIMIT = 40


def _simplex_max(objective: list[int],
                 rows: dict[RowKey, tuple[dict[int, int], int]],
                 meter: Meter) -> LpSolution:
    """Maximize objective . x over {x >= 0 : rows}, all rhs >= 0, exactly.

    `rows` maps row keys to (coefficients by variable, rhs), in solver
    order; the all-slack basis is feasible, so pivoting starts at once.
    The caller bounds every variable by a box row, so a ratio test that
    finds no row is a bug and raises AssertionError.  Each pivot ticks the
    meter first; a solve with no entering column is optimal and takes no
    tick.  On "budget" the primal is the current feasible basic solution
    and the dual is empty.

    The condensed tableau holds integers only: row i is
    [N[i][0], ..., N[i][nv-1], rhs_i], the cost row is
    [reduced costs..., objective], and the true tableau is every entry
    divided by the common denominator det > 0.  Variable j < nv is
    structural, nv + r is the slack of row r; basis[i] names the basic
    variable of row i and nonbasic[c] the variable of column c.  As det
    scales every entry alike, each sign test, minimum and ratio
    comparison below decides exactly as it would on the rational
    tableau.

    A pivot on prow[enter] = piv maps each other row's entry x, over the
    pivot row's entry y in its column and the row's entering entry f, to
    (x * piv - f * y) // det, and its entering entry to -f; det becomes
    piv.  The quotient is exact (Bareiss).  When piv == det it is
    x - f * y // det, with f * y itself a multiple of det, so a row with
    f = 0 and a column with y = 0 keep their entries: the update walks
    the pivot row's nonzero columns once per row with f != 0.  When
    piv != det every entry of every row is rescaled.
    """
    nv = len(objective)
    m_rows = len(rows)
    keys = list(rows)

    tableau: list[list[int]] = []
    for coeffs, rhs in rows.values():
        line = [0] * (nv + 1)
        for j, c in coeffs.items():
            line[j] = c
        line[nv] = rhs
        tableau.append(line)
    cost = [-c for c in objective] + [0]
    basis = [nv + r for r in range(m_rows)]
    nonbasic = list(range(nv))
    det = 1

    def _primal() -> dict[int, Fraction]:
        x = dict.fromkeys(range(nv), Fraction(0))
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
        if not meter.tick():
            return LpSolution("budget", Fraction(cost[nv], det), _primal(), {}, pivots,
                              meter.seconds)
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
            raise AssertionError("unbounded column: a variable without a box row")

        prow = tableau[pivot_row]
        if prow[nv] == 0:
            degenerate_run += 1
            if degenerate_run >= _DEGENERATE_RUN_LIMIT:
                bland = True
        else:
            degenerate_run = 0
            bland = False

        # integer-preserving pivot, in place: every quotient below is exact
        piv = prow[enter]
        keeps_det = piv == det
        if keeps_det:
            # x - f * y // det: only these columns of a row with f != 0 move
            moves = [(c, y) for c, y in enumerate(prow) if y and c != enter]
        for line in chain(tableau, (cost,)):
            f = line[enter]
            if (keeps_det and not f) or line is prow:
                continue
            if keeps_det:
                for c, y in moves:
                    line[c] -= f * y // det
            elif f:
                line[:] = [(x * piv - f * y) // det for x, y in zip(line, prow)]
            else:
                line[:] = [x * piv // det for x in line]
            line[enter] = -f
        # the pivot row keeps its entries over the new denominator piv
        prow[enter] = det
        det = piv
        basis[pivot_row], nonbasic[enter] = nonbasic[enter], basis[pivot_row]
        pivots += 1

    # the dual of each row is the reduced cost of its slack, over det
    priced = {keys[v - nv]: cost[c] for c, v in enumerate(nonbasic) if v >= nv}
    # strong duality is an internal guard: a mismatch would be a solver bug;
    # b'y and the objective are both compared over the denominator det
    if sum(rows[key][1] * y for key, y in priced.items()) != cost[nv]:
        raise AssertionError("strong duality violated: primal and dual objectives differ")
    dual = {key: Fraction(priced.get(key, 0), det) for key in keys}
    return LpSolution("optimal", Fraction(cost[nv], det), _primal(), dual, pivots,
                      meter.seconds)


def solve_exact(problem: LpProblem, budget: SearchBudget = NO_BUDGET) -> LpSolution:
    """Exact primal and dual optimum of the relaxation.

    On budget exhaustion returns status "budget" with the current (still
    feasible) basic solution as a lower bound and no dual.  An optimum is
    checked on every explicit row, and its objective recomputed there.
    """
    solution = _simplex_max([1] * len(problem.variables),
                            {key: problem._row(key) for key in problem.rows},
                            Meter(budget, every=16))
    if (solution.status == "optimal"
            and _assert_primal_feasible(problem, solution.primal) != solution.objective):
        raise AssertionError(f"simplex objective {solution.objective} differs from its primal's")
    return solution


def _over_common_denominator(values: dict) -> tuple[dict, int]:
    """(numerators, D): every Fraction or int value as an integer over D,
    the lcm of all denominators, so that value == numerator / D exactly."""
    d = lcm(*{v.denominator for v in values.values()})
    return {k: v.numerator * (d // v.denominator) for k, v in values.items()}, d


def _assert_primal_feasible(problem: LpProblem, primal: dict[int, Fraction]) -> Fraction:
    """The objective sum x of a feasible x; raise AssertionError at the
    first row, then the first bound, that x breaks.

    Rows are taken in solver order and every one is checked.  x is scaled
    once to integers X over one common denominator D, held in a list
    indexed by mask, so each row is checked as sum(c * X[m]) <= rhs * D
    and each bound as 0 <= X[m] <= D, in integers only; no row key or
    coefficient dict is made.  The union rows of one S are screened
    together: X[S] + max over T > S of (X[T] - X[S|T]) <= D.  The
    screen also covers the comparable T (S|T == T), which have no union
    row, but there the sum is X[S], bounded by the box row of S, so only
    an S that fails the screen walks its T in order to name the row.
    """
    scaled, d = _over_common_denominator(primal)
    full = 1 << problem.n
    x = [scaled[m] for m in range(full)]
    for s in range(full - 1):
        xs = x[s]
        if xs + max(map(sub, x[s + 1:], [x[s | t] for t in range(s + 1, full)])) <= d:
            continue
        for t in range(s + 1, full):
            if s | t != t and xs + x[t] - x[s | t] > d:
                raise AssertionError(f"primal infeasible on row {('union', s, t)}")
    for e in range(1, problem.n + 1):
        bit = 1 << (e - 1)
        if sum(v for m, v in enumerate(x) if m & bit) > problem.a * d:
            raise AssertionError(f"primal infeasible on row {('frequency', e)}")
    for m, v in enumerate(x):
        if v > d:
            raise AssertionError(f"primal infeasible on row {('box', m)}")
    for m, v in scaled.items():
        if not 0 <= v <= d:
            raise AssertionError(f"variable bound violated at mask {m}")
    return Fraction(sum(x), d)


def verify_dual_bound(problem: LpProblem, dual: dict[RowKey, Fraction]) -> Fraction:
    """Check dual feasibility of y >= 0 and return the bound b'y.

    Feasible means: for every variable x_S, the y-weighted column sum
    over the declared rows (box rows included) is at least the objective
    coefficient 1; any excess is legal since x_S >= 0.  Multipliers may
    be Fractions or ints.  y is scaled once to integers over one common
    denominator D, so each column sum is an integer compared with D and
    b'y is accumulated as an integer over D.  Raises DualInfeasibleError
    naming the first violated column and its exact deficit, ValueError
    for keys that name no row of this problem and for multipliers that are
    negative or neither ints nor Fractions.
    Each key is checked by its shape (`key in problem.rows`), so only the
    rows named in y are read and no other row key is made.
    """
    for key, mult in dual.items():
        if key not in problem.rows:
            raise ValueError(f"unknown row key {key!r} (problem/vector dimension mismatch)")
        if not isinstance(mult, (int, Fraction)):
            raise ValueError(f"dual multiplier for row {key!r} is neither an int nor a "
                             f"Fraction: {mult!r}")
        if mult < 0:
            raise ValueError(f"dual multiplier for row {key!r} is negative: {mult}")
    scaled, d = _over_common_denominator(dual)
    columns = dict.fromkeys(problem.variables, 0)
    bound = 0
    for key, mult in scaled.items():
        if mult == 0:
            continue
        coeffs, rhs = problem._row(key)
        bound += mult * rhs
        for mask, coeff in coeffs.items():
            columns[mask] += mult * coeff
    for mask in problem.variables:
        if columns[mask] < d:
            raise DualInfeasibleError(mask, Fraction(d - columns[mask], d))
    return Fraction(bound, d)


def _split_key(part: int, whole: int) -> RowKey:
    """Key of the union row {part, whole - part}, the smaller mask first."""
    rest = whole ^ part
    return ("union", min(part, rest), max(part, rest))


def certificate_to_dual(cert: DualCertificate, problem: LpProblem) -> dict[RowKey, Fraction]:
    """Spread the certificate multipliers over the matching rows.

    The rows are named from subsets of [n]: alpha goes on every
    frequency row, beta on the union rows {S, T} of the 3 * C(n,3)
    splits of a 3-subset into a singleton S and a pair T, gamma on the
    union rows of the 3 * C(n,4) splits of a 4-subset into two pairs,
    and 1 on the box row of the empty set.  Valid as a dual vector only
    for n >= 7 (gamma >= 0 there).
    """
    if cert.n != problem.n:
        raise ValueError(f"certificate is for n={cert.n}, problem has n={problem.n}")
    if cert.n < 7:
        raise ValueError("certificate multipliers are not a dual vector below n = 7")
    bits = [1 << i for i in range(cert.n)]
    dual: dict[RowKey, Fraction] = {("frequency", e): cert.alpha
                                    for e in range(1, cert.n + 1)}
    for trio in combinations(bits, 3):
        for single in trio:
            dual[_split_key(single, sum(trio))] = cert.beta
    for quad in combinations(bits, 4):
        for other in quad[1:]:  # the pair holding the lowest element
            dual[_split_key(quad[0] | other, sum(quad))] = cert.gamma
    dual[("box", 0)] = Fraction(1)
    return dual


def certificate_dual_bound(n: int, a: int) -> Fraction:
    """Build the relaxation, map the certificate onto it, and verify.

    Returns the verified bound, which equals bar_f(n, a) exactly.
    """
    problem = build_relaxation(n, a)
    value = verify_dual_bound(problem, certificate_to_dual(make_certificate(n), problem))
    expected = bar_f(n, a)
    if value != expected:
        raise AssertionError(f"certificate dual bound {value} != bar_f = {expected}")
    return value


def symmetric_relaxation_value(n: int, a: int) -> tuple[Fraction, dict[int, Fraction]]:
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
    _check_size(n, a)
    rows: dict[RowKey, tuple[dict[int, int], int]] = {}
    for j in range(1, n + 1):
        for i in range(1, j + 1):
            for u in range(j + 1, min(i + j, n) + 1):
                rows[("union", i, j, u)] = ({i: 2, u: -1} if i == j
                                            else {i: 1, j: 1, u: -1}), 1
    rows[("frequency",)] = {k: comb(n - 1, k - 1) for k in range(1, n + 1)}, a
    for k in range(n + 1):
        rows[("box", k)] = {k: 1}, 1
    solution = _simplex_max([comb(n, k) for k in range(n + 1)], rows, Meter())
    return solution.objective, solution.primal


def lift_symmetric_primal(problem: LpProblem, levels: dict[int, Fraction]) -> dict[int, Fraction]:
    """Expand per-cardinality values t_k into a full vector x_S = t_{|S|}."""
    return {m: levels[m.bit_count()] for m in problem.variables}


def prove_diagonal_relaxation_value(n: int) -> Fraction:
    """Prove f_r(n, n) = fbar(n, n) exactly on the explicit problem, n >= 7.

    Two half-proofs meet: the collapsed LP's optimal levels lift to a
    primal vector whose feasibility and objective are checked against every
    explicit row (so f_r >= value), and `certificate_dual_bound` checks that
    the certificate multipliers pass `verify_dual_bound` with value
    fbar(n, n) (so f_r <= fbar).  The two values coinciding pins f_r(n, n)
    down exactly.

    This equality is a computed fact for n = 7, 8, 9: the diagonal of the
    relaxation is exactly as strong as the closed-form bound, i.e. the
    equal-multiplier restriction of the dual loses nothing at a = n.
    """
    value, levels = symmetric_relaxation_value(n, n)
    problem = build_relaxation(n, n)
    lower = _assert_primal_feasible(problem, lift_symmetric_primal(problem, levels))
    if lower != value:
        raise AssertionError(f"lifted primal objective {lower} differs from {value}")
    upper = certificate_dual_bound(n, n)
    if upper != value:
        raise AssertionError(f"diagonal relaxation value {value} differs from bound {upper}")
    return value


def problem_lines(problem: LpProblem) -> Iterator[str]:
    """Sparse text export for external solvers, one newline-ended line at
    a time, so a writer holds one row, not the whole export.

    Line 1: "lp n=<n> a=<a> vars=<count>"; the objective is implicitly
    "maximize the sum of all variables with bounds [0, 1]".  Each
    following line: "<kind> <rhs> <mask>:<coeff> ...", masks ascending.
    """
    yield f"lp n={problem.n} a={problem.a} vars={len(problem.variables)}\n"
    for key in problem.rows:
        coeffs, rhs = problem._row(key)
        parts = [key[0], str(rhs)]
        parts.extend(f"{m}:{c}" for m, c in sorted(coeffs.items()))
        yield " ".join(parts) + "\n"


def problem_to_text(problem: LpProblem) -> str:
    """The whole export of `problem_lines` as one string."""
    return "".join(problem_lines(problem))
