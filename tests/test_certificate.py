import math
from fractions import Fraction

import pytest

from frankl_lab import certificate
from frankl_lab import (DualCertificate, bar_f, bar_f_diag, bound_table, make_certificate,
                        verify_certificate)

F = Fraction

# floors of the diagonal bound for a = 7..16, all re-derivable by exact
# evaluation of (5a^4 - 12a^3 + 31a^2 - 24a + 48) / (12(a^2 - 3a + 4))
EXPECTED_FLOORS = (24, 30, 37, 46, 55, 64, 75, 86, 99, 112)


def test_multipliers_at_n7():
    cert = make_certificate(7)
    assert cert.alpha == F(3, 8)
    assert cert.beta == F(1, 24)
    assert cert.gamma == F(1, 240)


def test_coefficients_at_n7():
    cert = make_certificate(7)
    assert cert.coefficients[0] == 1
    assert cert.coefficients[1] == 1
    assert cert.coefficients[2] == 1
    assert cert.coefficients[3] == 1  # 3*alpha - 3*beta = 9/8 - 1/8
    assert cert.coefficients[4] == F(119, 80)
    assert cert.coefficients[5] == 5 * F(3, 8)
    assert cert.coefficients[7] == 7 * F(3, 8)


def test_c4_slack_at_n7_is_39_80():
    report = verify_certificate(make_certificate(7))
    slack = {c.name: c.slack for c in report.checks}
    assert slack["c_4 >= 1"] == F(39, 80)
    assert report.passed


def test_zero_multipliers_fail_the_coefficient_checks():
    # the coefficients follow from the multipliers: a certificate cannot
    # carry unit coefficients that its multipliers do not give
    report = verify_certificate(DualCertificate(7, F(0), F(0), F(0)))
    assert not report.passed
    failed = [c.name for c in report.checks if not c.passed]
    assert "c_1 == 1" in failed
    assert {c.name: c.slack for c in report.checks}["c_1 == 1"] == -1


def test_rejects_small_n():
    for n in (2, 3, 4):
        with pytest.raises(ValueError, match="certificate needs n >= 5"):
            make_certificate(n)


def test_multipliers_check_their_binomial_forms(monkeypatch):
    # a binomial one too large moves the binomial forms off the polynomial ones
    monkeypatch.setattr(certificate, "comb", lambda n, k: math.comb(n, k) + 1)
    with pytest.raises(AssertionError, match="forms disagree"):
        make_certificate(7)


def _reference_checks(cert):
    """The checks as read off the full coefficient table: compare each c_k
    with 1 and subtract 1, then the three sign conditions."""
    one = F(1)
    coeff = cert.coefficients
    checks = [(f"c_{k} == 1", coeff[k] == one, coeff[k] - one) for k in range(4)]
    checks += [(f"c_{k} >= 1", coeff[k] >= one, coeff[k] - one) for k in range(4, cert.n + 1)]
    return checks + [(f"{name} >= 0", value >= 0, value) for name, value in
                     (("alpha", cert.alpha), ("beta", cert.beta), ("gamma", cert.gamma))]


def _assert_matches_reference(cert):
    report = verify_certificate(cert)
    # the integer path reads alpha's numerator and denominator, not the table
    assert "coefficients" not in vars(cert)
    reference = _reference_checks(DualCertificate(cert.n, cert.alpha, cert.beta, cert.gamma))
    assert [c.name for c in report.checks] == [name for name, _, _ in reference]
    assert [c.passed for c in report.checks] == [passed for _, passed, _ in reference]
    assert [c.slack for c in report.checks] == [slack for _, _, slack in reference]
    assert all(type(c.slack) in (F, int) for c in report.checks)
    return report


def test_verify_certificate_matches_the_coefficient_table_on_5_to_200():
    for n in range(5, 201):
        _assert_matches_reference(make_certificate(n))


@pytest.mark.parametrize("multipliers", [
    (7, F(0), F(0), F(0)),
    (9, F(-1, 3), F(1, 24), F(1, 240)),
    (8, 1, 0, 2),
    (6, -2, 1, 0),
])
def test_verify_certificate_matches_the_table_on_hand_made_certificates(multipliers):
    _assert_matches_reference(DualCertificate(*multipliers))


def test_c5_of_exactly_one_passes():
    # alpha = 1/5 gives c_5 = 5*alpha = 1: the case that tells >= from >
    report = _assert_matches_reference(DualCertificate(7, F(1, 5), F(1, 24), F(1, 240)))
    check = next(c for c in report.checks if c.name == "c_5 >= 1")
    assert check.passed and check.slack == 0
    assert {c.name: c.slack for c in report.checks}["c_7 >= 1"] == F(2, 5)


@pytest.mark.parametrize("args,refusal", [
    ((7, 0.375, 0.0625, 0.2), "alpha must be an int or a Fraction, got 0.375"),
    ((7, F(3, 8), F(1, 24), 0.2), "gamma must be an int or a Fraction, got 0.2"),
    ((7, F(3, 8), True, F(1, 240)), "beta must be an int or a Fraction, got True"),
    ((7.0, F(3, 8), F(1, 24), F(1, 240)), "n must be an int >= 5, got 7.0"),
    ((True, F(3, 8), F(1, 24), F(1, 240)), "n must be an int >= 5, got True"),
    ((3, F(3, 8), F(1, 24), F(1, 240)), "n must be an int >= 5, got 3"),
])
def test_dual_certificate_refuses_what_it_cannot_check_exactly(args, refusal):
    # a float once came back as float slacks (c_4 slack -0.10000000000000009),
    # n = 7.0 failed inside comb, and n = 3 reported a check on c_4
    with pytest.raises(ValueError, match=refusal):
        DualCertificate(*args)


def test_gamma_negative_below_7_flagged_not_raised():
    for n in (5, 6):
        report = verify_certificate(make_certificate(n))
        assert not report.passed
        failed = [c.name for c in report.checks if not c.passed]
        assert failed == ["gamma >= 0"]
        assert report.notes


def test_gamma_sign_switches_exactly_at_7():
    for n in range(5, 201):
        gamma = make_certificate(n).gamma
        assert (gamma >= 0) == (n >= 7)


def test_unit_coefficient_identities_hold_for_all_n():
    for n in range(5, 201):
        coeff = make_certificate(n).coefficients
        assert coeff[0] == coeff[1] == coeff[2] == coeff[3] == 1


def test_large_k_coefficients_stay_above_one():
    for n in range(7, 201):
        cert = make_certificate(n)
        assert cert.coefficients[4] >= 1
        for k in range(5, n + 1):
            assert cert.coefficients[k] == k * cert.alpha >= 1


def test_bar_f_77():
    value = bar_f(7, 7)
    assert value == F(387, 16)
    assert math.floor(value) == 24


def test_bar_f_refuses_a_fractional_cap():
    # 2.5 once returned the float 12.375
    with pytest.raises(ValueError, match="must be ints, got 7 and 2.5"):
        bar_f(7, 2.5)


def test_bar_f_diag_refuses_a_float():
    with pytest.raises(ValueError, match="must be an int, got 7.5"):
        bar_f_diag(7.5)


@pytest.mark.parametrize("call,args,refusal", [
    (make_certificate, (7.5,), "n must be an int, got 7.5"),
    (bound_table, (7.5, 9), "a_from and a_to must be ints, got 7.5 and 9"),
])
def test_certificate_builders_refuse_non_int_arguments(call, args, refusal):
    # both once raised "'float' object cannot be interpreted as an integer"
    with pytest.raises(ValueError, match=refusal):
        call(*args)


def test_bar_f_guards():
    with pytest.raises(ValueError):
        bar_f(6, 6)
    with pytest.raises(ValueError):
        bar_f(7, 0)
    with pytest.raises(ValueError):
        bar_f_diag(6)


def test_diagonal_closed_form_values():
    assert bar_f_diag(7) == F(9288, 384) == F(387, 16)
    assert bar_f_diag(9) == F(26400, 696) == F(1100, 29)
    assert math.floor(bar_f_diag(9)) == 37
    assert math.floor(bar_f_diag(10)) == 46


def test_bar_f_lies_above_every_f_in_the_branch_and_bound_range():
    # Frankl's conjecture holds on ground sets of up to 11 elements
    # (Bosnjak-Markovic, "The 11-element case of Frankl's conjecture",
    # Electron. J. Combin. 2008), so f(n,a) <= 2a there.  The certified
    # bound lies above that wherever branch and bound runs (n = 7..11), so
    # an incumbent could never reach floor(fbar) and stop the search early.
    for n in range(7, 12):
        for a in range(1, 1 << (n - 1)):
            assert math.floor(bar_f(n, a)) >= 2 * a + 1, (n, a)


def test_diagonal_equals_general_form_on_7_to_200():
    for a in range(7, 201):
        assert bar_f_diag(a) == bar_f(a, a)


def test_bar_f_is_nondecreasing_in_a():
    for n in (7, 9, 12):
        values = [bar_f(n, a) for a in range(1, 20)]
        assert all(x <= y for x, y in zip(values, values[1:]))


def test_bound_table_7_to_16():
    table = bound_table(7, 16)
    assert tuple(v for _, v in table.rows) == EXPECTED_FLOORS
    assert tuple(a for a, _ in table.rows) == tuple(range(7, 17))


def test_bound_table_emits_the_a9_note():
    table = bound_table(7, 16)
    assert len(table.notes) == 1
    assert "36" in table.notes[0] and "37" in table.notes[0]
    assert bound_table(10, 16).notes == ()
    assert bound_table(9, 9).notes != ()


def test_bound_table_single_row_and_beyond():
    assert bound_table(7, 7).rows == ((7, 24),)
    (a, v), = bound_table(20, 20).rows
    assert (a, v) == (20, math.floor(bar_f_diag(20)))
    assert v == math.floor(F(5 * 20**4 - 12 * 20**3 + 31 * 20**2 - 24 * 20 + 48,
                             12 * (20**2 - 3 * 20 + 4)))


def test_bound_table_rejects_bad_ranges():
    with pytest.raises(ValueError):
        bound_table(6, 10)
    with pytest.raises(ValueError):
        bound_table(9, 8)


def test_certificate_json_uses_exact_strings():
    blob = make_certificate(7).to_json()
    assert blob["alpha"] == "3/8"
    assert blob["coefficients"]["4"] == "119/80"
