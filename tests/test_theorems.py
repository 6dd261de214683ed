import hashlib
import json
from dataclasses import replace

import pytest

from frankl_lab import (SetFamily, check_fg_duality, check_missing_covering,
                        check_missing_subsets, complement, frequencies,
                        is_union_closed, max_frequency,
                        powerset_minus_singletons, run_claim,
                        verify_f_theorem, verify_g_theorem,
                        verify_monotonicity)
from frankl_lab.search import enumerate_union_closed
from frankl_lab import theorems
from frankl_lab.budget import SearchBudget
from frankl_lab.theorems import VerificationReport
from frankl_lab.theorems import CLAIMS, LEMMA_CHECKS, random_closures, run_lemma_claim


# --- missing-subsets check ------------------------------------------------------

def test_full_power_set_verifies_vacuously():
    report = check_missing_subsets(SetFamily.power_set(3))
    assert report.verified
    assert report.claim == "missing-subsets"


def test_non_union_closed_input_rejected():
    # the power set of [3] minus {1,2}: the sets {1} and {2} remain, so
    # the family fails the precondition rather than the lemma
    fam = SetFamily.from_masks(3, [m for m in range(8) if m != 0b011])
    assert not is_union_closed(fam)
    with pytest.raises(ValueError):
        check_missing_subsets(fam)
    with pytest.raises(ValueError):
        check_missing_covering(fam)


def test_missing_subsets_exhaustive_small():
    for n in range(1, 5):
        for fam in enumerate_union_closed(n):
            assert check_missing_subsets(fam).verified


def test_missing_subsets_on_seeded_closures():
    for n in (4, 5, 6):
        for fam in random_closures(n, 60):
            assert check_missing_subsets(fam).verified


# --- missing-covering check ------------------------------------------------------

def test_covering_on_full_power_set_is_zero_zero():
    report = check_missing_covering(SetFamily.power_set(3))
    assert report.verified
    assert report.scope["k"] == 0 and report.scope["l"] == 0


def test_covering_on_pruned_power_set():
    fam = powerset_minus_singletons(3)
    report = check_missing_covering(fam)
    assert report.verified
    assert report.scope["k"] == 3 and report.scope["l"] == 3


def test_covering_exhaustive_small():
    for n in range(1, 5):
        for fam in enumerate_union_closed(n):
            assert check_missing_covering(fam).verified


def test_covering_base_cases():
    # one missing element forces at least one missing set
    fam = SetFamily.from_masks(2, [0, 1, 3])  # missing {2}
    report = check_missing_covering(fam)
    assert report.verified
    assert report.scope["k"] >= 1
    # covering both elements forces at least two missing sets
    fam = SetFamily.from_masks(2, [0, 3])  # missing {1}, {2}
    report = check_missing_covering(fam)
    assert report.scope["k"] == 2 and report.scope["l"] == 2


# --- g plateau theorem -------------------------------------------------------------

@pytest.mark.parametrize("n,expected", [(3, 4), (4, 8), (5, 16), (6, 32)])
def test_g_theorem(n, expected):
    report = verify_g_theorem(n)
    assert report.verified
    assert set(report.scope["values"].values()) == {expected}


def test_g_theorem_range_guard():
    with pytest.raises(ValueError):
        verify_g_theorem(2)
    with pytest.raises(ValueError):
        verify_g_theorem(7)


# --- pruned power set construction ---------------------------------------------------

def test_construction_n3():
    fam = powerset_minus_singletons(3)
    assert fam.sets() == ((), (1, 2), (1, 3), (2, 3), (1, 2, 3))
    assert tuple(frequencies(fam)) == (3, 3, 3)


def test_construction_boundary_n1():
    fam = powerset_minus_singletons(1)
    assert fam.masks == (0,)
    assert len(fam) == 1  # 2^1 - 1


def test_construction_n4():
    fam = powerset_minus_singletons(4)
    assert len(fam) == 12
    assert max_frequency(fam).count == 7


@pytest.mark.parametrize("n", list(range(1, 17)))
def test_construction_postconditions_all_n(n):
    fam = powerset_minus_singletons(n)
    assert len(fam) == (1 << n) - n
    want = (1 << (n - 1)) - 1
    assert all(c == want for c in frequencies(fam))
    assert len(complement(fam)) == n
    if n <= 8:
        assert is_union_closed(fam)  # pairwise oracle for the fast check


@pytest.mark.parametrize("name,perturb,message", [
    ("SetFamily", lambda cls: lambda n, masks: cls(n, masks[1:]), "construction size is off"),
    ("is_union_closed", lambda check: lambda family: False,
     "construction is not union-closed"),
    ("frequencies",
     lambda counts: lambda family: [c + (e == 0) for e, c in enumerate(counts(family))],
     "construction frequencies are off"),
], ids=["drop-a-mask", "not-closed", "shift-a-count"])
def test_construction_checks_its_postconditions(monkeypatch, name, perturb, message):
    monkeypatch.setattr(theorems, name, perturb(getattr(theorems, name)))
    with pytest.raises(AssertionError, match=message):
        powerset_minus_singletons(3)


# --- f theorem -----------------------------------------------------------------------

@pytest.mark.parametrize("n,value", [(1, 1), (2, 2), (3, 5), (4, 12), (5, 27),
                                     pytest.param(6, 58, marks=pytest.mark.stretch)])
def test_f_theorem_small(n, value):
    report = verify_f_theorem(n)
    assert report.verified
    assert report.scope["target"] == value


@pytest.mark.parametrize("n", [7, 10])
def test_f_theorem_construction_only_beyond_6(n):
    report = verify_f_theorem(n)
    assert report.status == "skipped"
    assert report.violations == []
    assert any("construction" in note for note in report.notes)


def test_f_theorem_search_leg_out_of_budget_is_skipped():
    report = verify_f_theorem(5, SearchBudget(max_nodes=10))
    assert report.status == "skipped"
    assert report.violations == []
    assert report.notes == ["budget exhausted on the search leg"]


# --- monotonicity ----------------------------------------------------------------------

@pytest.mark.parametrize("a,plateau", [(1, 2), (2, 4), (3, 5)])
def test_monotonicity_with_plateau(a, plateau):
    report = verify_monotonicity(a, 5)
    assert report.verified
    values = report.scope["values"]
    assert all(values[n] <= values[n + 1] for n in range(1, 5))
    for n in range(max(a, 1), 6):
        assert values[n] == plateau
    assert any(f"plateau value {plateau}" in note for note in report.notes)


def test_monotonicity_saturation_carve_out_is_noted():
    # at (n,a) = (1,2) and (2,3) the smaller lattice is full: f = 2^n
    for a, n_sat in ((2, 1), (3, 2)):
        report = verify_monotonicity(a, 4)
        assert report.verified
        assert report.scope["values"][n_sat] == 1 << n_sat
        assert any("saturates" in note for note in report.notes)


def test_monotonicity_a1_has_no_carve_out():
    report = verify_monotonicity(1, 4)
    assert report.verified
    assert not any("saturates" in note for note in report.notes)
    assert set(report.scope["values"].values()) == {2}


def test_monotonicity_reports_a_chain_drop(monkeypatch):
    # f(2,4) one below f(1,4) = 2, before the plateau from n = 3: the chain
    # f(1,4) <= f(2,4) breaks and nothing else does
    real = theorems.compute_f

    def dropped(n, a, budget):
        result = real(n, a, budget)
        return replace(result, value=1) if (n, a) == (2, 4) else result

    monkeypatch.setattr(theorems, "compute_f", dropped)
    report = verify_monotonicity(4, 5)
    assert report.status == "violated"
    assert report.violations == [{"kind": "chain", "n": 1, "f_n": 2, "f_n1": 1}]
    assert report.scope["values"] == {1: 2, 2: 1, 3: 8, 4: 8, 5: 8}


def test_monotonicity_out_of_budget_is_skipped():
    report = verify_monotonicity(2, 5, SearchBudget(max_nodes=10))
    assert report.status == "skipped"
    assert report.violations == []
    # the budget binds at n = 3 and 4 too, where the search proves its seed
    assert report.scope["values"] == {1: 2, 2: 4}
    assert report.notes[-1] == "budget exhausted at n = 5"


def test_monotonicity_guards():
    with pytest.raises(ValueError):
        verify_monotonicity(0, 4)
    with pytest.raises(ValueError):
        verify_monotonicity(2, 1)


@pytest.mark.parametrize("call,args,refusal", [
    (verify_f_theorem, (4.5,), "n must be an int, got 4.5"),
    (verify_g_theorem, (4.0,), "n must be an int, got 4.0"),
    (powerset_minus_singletons, (2.0,), "n must be an int, got 2.0"),
    (verify_monotonicity, (2, 4.0), "a and n_max must be ints, got 2 and 4.0"),
    # once reported as compute_f's "got 1 and 2.5"
    (verify_monotonicity, (2.5, 4), "a and n_max must be ints, got 2.5 and 4"),
    (check_fg_duality, (3, 2.5), "n and a_max must be ints, got 3 and 2.5"),
    # int arguments out of range
    (powerset_minus_singletons, (17,), r"ground size must be in \[1, 16\], got 17"),
    (verify_f_theorem, (0,), r"ground size must be in \[1, 16\], got 0"),
    (check_fg_duality, (3, 0), "a_max must be >= 1"),
])
def test_theorem_checks_refuse_non_int_arguments(call, args, refusal):
    # the non-int rows once raised a TypeError or blamed the wrong argument
    with pytest.raises(ValueError, match=refusal):
        call(*args)


# --- claim registry -----------------------------------------------------------------------

def test_claim_ids_are_stable():
    assert CLAIMS == ("missing-subsets", "missing-covering", "thm-g",
                      "thm-f-2n-minus-n", "monotonicity", "fg-duality")


def test_run_claim_dispatch_and_json():
    report = run_claim("thm-g", ns=(3,))
    assert report.verified
    blob = report.to_json()
    assert blob["claim"] == "thm-g"
    assert blob["status"] == "verified"
    assert blob["violations"] == []
    with pytest.raises(ValueError):
        run_claim("nonsense")


@pytest.mark.parametrize("claim,kwargs", [
    ("thm-f-2n-minus-n", {"ns": (3,)}),
    ("monotonicity", {"caps": (1,), "n_max": 3}),
    ("fg-duality", {"ns": (3,)}),
])
def test_run_claim_on_a_small_scope(claim, kwargs):
    report = run_claim(claim, **kwargs)
    assert report.claim == claim
    assert report.verified
    assert len(report.scope["parts"]) == 1


def test_run_claim_lemmas_small_corpus():
    report = run_claim("missing-subsets", ns=(5,), count=40)
    assert report.verified
    assert report.scope["families_checked"] > 40  # exhaustive part included
    report = run_claim("missing-covering", ns=(5,), count=40)
    assert report.verified


def test_lemma_corpus_is_pinned():
    # the default lemma corpus, seeded random_union_closed closures
    # included, reproduces byte for byte
    blob = json.dumps([r.to_json() for r in run_lemma_claim()], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "965a09807c99ed24e6211ccc59377363821f304407a1020ccc0e0a754a9d620f")


def test_run_lemma_claim_checks_every_pair_in_one_pass(monkeypatch):
    built = []
    draw = theorems.random_union_closed
    monkeypatch.setattr(theorems, "random_union_closed",
                        lambda *args: built.append(args) or draw(*args))
    reports = run_lemma_claim(ns=(5,), count=40)
    assert len(built) == 40  # each random family is drawn once, not once per claim
    assert [r.to_json() for r in reports] == [
        run_claim(claim, ns=(5,), count=40).to_json() for claim in LEMMA_CHECKS]


@pytest.mark.parametrize("claims,kwargs,refusal", [
    # once KeyError: 'thm-g', a registered claim that is not a lemma claim
    (("thm-g",), {},
     r"'thm-g' is not a lemma claim \(they are missing-subsets, missing-covering\)"),
    (("missing-subsets", "nonsense"), {}, "'nonsense' is not a lemma claim"),
    # once TypeError from range, or from comparing a str with 0
    (("missing-subsets",), {"count": 1.5}, "random family count must be an int, got 1.5"),
    (("missing-subsets",), {"count": "3"}, "random family count must be an int, got '3'"),
], ids=["theorem-claim", "unknown-claim", "float-count", "str-count"])
def test_run_lemma_claim_refuses_bad_claims_and_counts(claims, kwargs, refusal):
    with pytest.raises(ValueError, match=refusal):
        run_lemma_claim(claims, ns=(), **kwargs)


def test_report_status_follows_from_its_record():
    assert VerificationReport("c", {}).status == "verified"
    assert VerificationReport("c", {}, skipped=True).status == "skipped"
    assert VerificationReport("c", {}, [{"v": 1}], skipped=True).status == "violated"


def test_run_lemma_claim_keeps_violations_with_their_claim(monkeypatch):
    def flag_all(family, missing):
        return VerificationReport("flag", {}, [{"size": len(family)}])

    monkeypatch.setitem(theorems.LEMMA_CHECKS, "missing-covering", flag_all)
    ok, flagged = run_lemma_claim(ns=(), count=0)
    assert ok.claim == "missing-subsets" and ok.verified
    assert flagged.claim == "missing-covering" and flagged.status == "violated"
    assert len(flagged.violations) == flagged.scope["families_checked"]
    assert flagged.violations[0] == {"n": 1, "family": [], "size": 0}
