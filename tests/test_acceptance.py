"""Acceptance battery: one test per criterion, each printing a pass/fail
line with its runtime against the stated ceiling.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines, or
`frankl-lab check` for the same battery outside pytest.  The tests after
those break the engine under each criterion, or its clock, and check
that the criterion then fails with the expected detail.
"""

from dataclasses import replace
from fractions import Fraction
from itertools import count
from types import SimpleNamespace

import pytest

from frankl_lab import checks, search


@pytest.mark.parametrize("fn", checks.ALL_CHECKS, ids=lambda fn: fn.__name__)
def test_criterion(fn):
    result = fn()
    print(result.line)
    assert result.passed, result.line
    assert result.seconds < result.limit, result.line


def test_dual_bound_criterion_proves_the_full_pair(monkeypatch):
    proved = []
    prove = checks.lp_mod.prove_diagonal_relaxation_value
    monkeypatch.setattr(checks.lp_mod, "prove_diagonal_relaxation_value",
                        lambda n: proved.append(n) or prove(n))
    result = checks.check_dual_bound()
    assert result.passed, result.line
    assert proved == [7, 8]
    assert result.detail == ("proved f_r = fbar by exact primal-dual pairs: "
                             "387/16 at (7,7) and 337/11 at (8,8)")


def _off_by(delta, at=None):
    """Wrap an f or g engine so that its value moves by `delta`, at the
    one argument pair `at` or everywhere."""
    def perturb(compute):
        def wrapped(n, k, *args):
            result = compute(n, k, *args)
            if at is None or (n, k) == at:
                result = replace(result, value=result.value + delta)
            return result
        return wrapped
    return perturb


def _beta_up(multipliers):
    def wrapped(n):
        alpha, beta, gamma = multipliers(n)
        return alpha, beta + Fraction(1, 1000), gamma
    return wrapped


# (criterion, module, attribute, perturbation of that attribute, expected detail)
_BROKEN_ENGINES = [
    ("check_f_table", checks.search_mod, "compute_f", _off_by(-1),
     "f(a,a) for a=1..4: [1, 3, 4, 7]"),
    ("check_f_table", checks.search_mod, "compute_f",
     lambda compute: lambda n, a: replace(compute(n, a), proven_optimal=False),
     "f(1,1) not proven optimal"),
    ("check_bound_table", checks.cert_mod, "bar_f_diag", lambda bar: lambda a: bar(a) + 1,
     "floor table mismatch: (25, 31, 38, 47, 56, 65, 76, 87, 100, 113)"),
    ("check_bound_table", checks.cert_mod, "bound_table",
     lambda table: lambda lo, hi: replace(table(lo, hi), notes=()),
     "a=9 discrepancy note missing"),
    ("check_certificate_identities", checks.cert_mod, "_multipliers", _beta_up,
     "certificate checks fail at n=7"),
    ("check_certificate_identities", checks.cert_mod, "bar_f_diag",
     lambda bar: lambda a: bar(a) + 1, "diagonal identity fails at a=7"),
    ("check_dual_bound", checks.lp_mod, "prove_diagonal_relaxation_value",
     lambda prove: lambda n: prove(n) + 1, "(7,7) value 403/16 != 387/16"),
    ("check_dual_bound", checks.lp_mod, "prove_diagonal_relaxation_value",
     lambda prove: lambda n: prove(n) + (n == 8), "(8,8) value 348/11 != bar_f(8,8)"),
    ("check_lp_sandwich", checks.search_mod, "compute_f", _off_by(1),
     "sandwich broken at (1,1): 3 > 2"),
    ("check_lp_sandwich", checks.lp_mod, "solve_exact",
     lambda solve: lambda problem: replace(solve(problem), status="budget"),
     "LP (1,1) status budget"),
    ("check_section3_theorems", checks.thm_mod, "compute_g", _off_by(1, at=(4, 14)),
     "g plateau fails at n=4: violated"),
    ("check_section3_theorems", checks.thm_mod, "compute_f", _off_by(-1, at=(2, 1)),
     "f(n,2^(n-1)-1) fails at n=2: violated"),
    # a complement that returns the family itself: members count as missing
    ("check_lemma_suite", checks.thm_mod, "complement", lambda complement: lambda family: family,
     "missing-subsets is violated: "
     "[{'n': 2, 'family': [1, 2, 3], 'missing_mask': 3, 'subsets_present': 2}]"),
    ("check_monotonicity", checks.thm_mod, "compute_f", _off_by(1, at=(5, 1)),
     "monotonicity fails at a=1: violated [{'kind': 'plateau', 'n': 4, 'f_n': 2, 'f_n1': 3}]"),
    ("check_monotonicity", checks.thm_mod, "compute_f", _off_by(1),
     "plateau at a=1 is {1: 3, 2: 3, 3: 3, 4: 3, 5: 3}, expected 2"),
    ("check_fg_duality", checks.thm_mod, "compute_g", _off_by(1, at=(3, 5)),
     "duality grid fails at n=3: [{'a': 3, 'm': 5, 'f': 5, 'g': 4}]"),
]


@pytest.mark.parametrize("criterion,module,name,perturb,detail", _BROKEN_ENGINES,
                         ids=[f"{case[0]}-{case[2]}-{i}" for i, case in enumerate(_BROKEN_ENGINES)])
def test_criterion_fails_when_its_engine_is_wrong(monkeypatch, criterion, module, name,
                                                  perturb, detail):
    monkeypatch.setattr(module, name, perturb(getattr(module, name)))
    result = getattr(checks, criterion)()
    assert result.passed is False
    assert result.detail == detail
    assert "[FAIL]" in result.line


def test_a_crashing_criterion_fails_with_the_exception(monkeypatch):
    # a wrong f table entry: compute_f revalidates it and raises
    table = list(search._f_table(3))
    size, masks = table[3]
    table[3] = (size + 1, masks)
    f_table = search._f_table
    monkeypatch.setattr(search, "_f_table", lambda n: table if n == 3 else f_table(n))
    result = checks.check_f_table()
    assert result.passed is False
    assert result.detail == "raised AssertionError: search produced an invalid witness for f(3,3)"


def test_a_criterion_over_its_time_limit_fails(monkeypatch):
    # a clock that advances 100 s per reading, ten times criterion 1's limit
    ticks = count()
    monkeypatch.setattr("frankl_lab.budget.time",
                        SimpleNamespace(perf_counter=lambda: 100 * next(ticks)))
    result = checks.check_f_table()
    assert result.passed is False
    assert result.seconds >= result.limit
    assert result.detail == "f(a,a) for a=1..4: [2, 4, 5, 8]; exceeded runtime limit"
