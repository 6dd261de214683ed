"""Acceptance battery: one test per criterion, each printing a pass/fail
line with its runtime against the stated ceiling.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines, or
`frankl-lab check` for the same battery outside pytest.
"""

import pytest

from frankl_lab import checks


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
