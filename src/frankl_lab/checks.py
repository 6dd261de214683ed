"""Desk-scale acceptance checks: every published value this toolkit can
reproduce exactly, each with a hard runtime ceiling.

Each `check_*` returns `(passed, detail)` and `_criterion` makes it a
timed CheckResult; `run_all` executes the battery.
The pytest suite asserts these same results one by one, and the CLI
`check` command prints them, so the two entry points cannot drift apart.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from . import certificate as cert_mod
from . import lp as lp_mod
from . import search as search_mod
from . import theorems as thm_mod
from .budget import Meter

F_DIAGONAL = {1: 2, 2: 4, 3: 5, 4: 8}
BOUND_TABLE_7_16 = (24, 30, 37, 46, 55, 64, 75, 86, 99, 112)
MONOTONICITY_PLATEAUS = {1: 2, 2: 4, 3: 5}


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    seconds: float
    limit: float
    detail: str

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"criterion {self.criterion} [{status}] {self.name}: {self.detail} "
                f"({self.seconds:.2f}s / limit {self.limit:.0f}s)")


def _criterion(criterion: int, name: str, limit: float):
    """Make a function returning `(passed, detail)` criterion `criterion`:
    it returns a timed CheckResult, fails at `limit` seconds or more, and
    a crash is a failure, not an abort."""
    def decorate(fn):
        @functools.wraps(fn)
        def run() -> CheckResult:
            meter = Meter()
            try:
                ok, detail = fn()
            except Exception as exc:
                return CheckResult(criterion, name, False, meter.seconds,
                                   limit, f"raised {type(exc).__name__}: {exc}")
            seconds = meter.seconds
            if ok and seconds >= limit:
                ok, detail = False, f"{detail}; exceeded runtime limit"
            return CheckResult(criterion, name, ok, seconds, limit, detail)
        return run
    return decorate


@_criterion(1, "f(a,a) table by exhaustive search", 10.0)
def check_f_table():
    got = {}
    for n, expected in F_DIAGONAL.items():
        r = search_mod.compute_f(n, n)
        got[n] = r.value
        if not r.proven_optimal:
            return False, f"f({n},{n}) not proven optimal"
    ok = got == F_DIAGONAL
    return ok, f"f(a,a) for a=1..4: {[got[n] for n in sorted(got)]}"


@_criterion(2, "floor(fbar(a,a)) table 7..16", 1.0)
def check_bound_table():
    table = cert_mod.bound_table(7, 16)
    values = tuple(v for _, v in table.rows)
    if values != BOUND_TABLE_7_16:
        return False, f"floor table mismatch: {values}"
    if not any("36" in note and "37" in note for note in table.notes):
        return False, "a=9 discrepancy note missing"
    return True, f"floors 7..16 = {values}, a=9 note emitted"


@_criterion(3, "certificate identities, zero tolerance", 5.0)
def check_certificate_identities():
    for n in range(7, 201):
        report = cert_mod.verify_certificate(cert_mod.make_certificate(n))
        if not report.passed:
            return False, f"certificate checks fail at n={n}"
    for a in range(7, 201):
        if cert_mod.bar_f_diag(a) != cert_mod.bar_f(a, a):
            return False, f"diagonal identity fails at a={a}"
    return True, "all coefficient identities and the diagonal identity hold on 7..200"


@_criterion(4, "certificate-as-dual cross-check", 60.0)
def check_dual_bound():
    # each value is pinned by an exact primal-dual pair on the explicit LP
    v77 = lp_mod.prove_diagonal_relaxation_value(7)
    if v77 != Fraction(387, 16):
        return False, f"(7,7) value {v77} != 387/16"
    v88 = lp_mod.prove_diagonal_relaxation_value(8)
    if v88 != cert_mod.bar_f(8, 8) or v88 != Fraction(337, 11):
        return False, f"(8,8) value {v88} != bar_f(8,8)"
    return True, ("proved f_r = fbar by exact primal-dual pairs: "
                  "387/16 at (7,7) and 337/11 at (8,8)")


@_criterion(5, "LP relaxation sandwich", 300.0)
def check_lp_sandwich():
    checked = 0
    for n in range(1, 5):
        for a in range(1, (1 << (n - 1)) + 1):
            f_exact = search_mod.compute_f(n, a).value
            sol = lp_mod.solve_exact(lp_mod.build_relaxation(n, a))
            if sol.status != "optimal":
                return False, f"LP ({n},{a}) status {sol.status}"
            if Fraction(f_exact) > sol.objective:
                return False, f"sandwich broken at ({n},{a}): {f_exact} > {sol.objective}"
            checked += 1
    return True, f"f(n,a) <= f_r(n,a) exactly on {checked} instances (n <= 4)"


@_criterion(6, "size/frequency theorems", 120.0)
def check_section3_theorems():
    for n in (3, 4, 5):
        rep = thm_mod.verify_g_theorem(n)  # verified: every value is 2^(n-1)
        if not rep.verified:
            return False, f"g plateau fails at n={n}: {rep.status}"
    for n in range(1, 5):
        rep = thm_mod.verify_f_theorem(n)
        if not rep.verified:
            return False, f"f(n,2^(n-1)-1) fails at n={n}: {rep.status}"
    for n in range(1, 17):
        thm_mod.powerset_minus_singletons(n)  # raises if postconditions fail
    return True, "g plateau (4,8,16), f theorem n=1..4, construction n=1..16"


@_criterion(7, "missing-set lemma property suite", 300.0)
def check_lemma_suite():
    reports = thm_mod.run_lemma_claim()
    for rep in reports:
        if not rep.verified:
            return False, f"{rep.claim} is violated: {rep.violations[:1]}"
    return True, f"both missing-set lemmas hold on {reports[0].scope['families_checked']} families"


@_criterion(8, "f monotonicity and plateau", 120.0)
def check_monotonicity():
    for a, plateau in MONOTONICITY_PLATEAUS.items():
        rep = thm_mod.verify_monotonicity(a, 5)
        if not rep.verified:
            return False, f"monotonicity fails at a={a}: {rep.status} {rep.violations[:1]}"
        values = rep.scope["values"]
        start = max(a, 1)
        if any(values[n] != plateau for n in range(start, 6)):
            return False, f"plateau at a={a} is {values}, expected {plateau}"
    return True, "chains verified; plateaus 2, 4, 5 reached for a = 1, 2, 3"


@_criterion(9, "f/g duality consistency", 300.0)
def check_fg_duality():
    for n in (3, 4):
        rep = thm_mod.check_fg_duality(n, 1 << n)
        if not rep.verified:
            return False, f"duality grid fails at n={n}: {rep.violations[:3]}"
    return True, "f/g equivalence holds on the full grids for n = 3, 4"


ALL_CHECKS = (
    check_f_table,
    check_bound_table,
    check_certificate_identities,
    check_dual_bound,
    check_lp_sandwich,
    check_section3_theorems,
    check_lemma_suite,
    check_monotonicity,
    check_fg_duality,
)


def run_all() -> list[CheckResult]:
    return [fn() for fn in ALL_CHECKS]
