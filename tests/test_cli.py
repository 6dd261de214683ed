import hashlib
import json
import subprocess
import sys
from itertools import count
from types import SimpleNamespace

import pytest

from frankl_lab import (CLAIMS, bar_f, build_relaxation, family_from_json, is_union_closed,
                        max_frequency)
from frankl_lab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_text_format(capsys):
    code, out, _ = run_cli(capsys, "bound", "--a", "7")
    assert code == 0
    assert out.splitlines()[0] == "24 (exact 387/16)"


def test_bound_a9_note(capsys):
    code, out, _ = run_cli(capsys, "bound", "--a", "9")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "37 (exact 1100/29)"
    assert any("36" in line for line in lines[1:])


def test_bound_with_explicit_n(capsys):
    code, out, _ = run_cli(capsys, "bound", "--a", "7", "--n", "8", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["n"] == 8 and blob["a"] == 7
    # 8*7*(4/11) + 3*C(8,3)*(1/33) + 3*C(8,4)*(1/165) + 1 = (224+56+14+11)/11
    assert blob["exact"] == "305/11"


def test_f_command(capsys):
    code, out, _ = run_cli(capsys, "f", "--n", "4", "--a", "4")
    assert code == 0
    assert "f(4,4) = 8" in out
    assert "proven optimal" in out


def test_f_budget_exit_code(capsys):
    code, out, _ = run_cli(capsys, "f", "--n", "5", "--a", "5", "--max-nodes", "10")
    assert code == 2
    assert "lower bound" in out


def test_f_past_the_kernel_ceiling_is_refused(capsys):
    code, out, err = run_cli(capsys, "f", "--n", "12", "--a", "5")
    assert (code, out) == (1, "")
    assert err == "frankl-lab: error: branch-and-bound search capped at n = 11, got 12\n"


def test_g_command_json(capsys):
    code, out, _ = run_cli(capsys, "g", "--n", "4", "--m", "13", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["value"] == 8
    assert blob["proven_optimal"] is True


def test_f_time_budget_exit_code(capsys, monkeypatch):
    # a clock that advances 0.1 s per reading stops the search at its 4,097th node
    ticks = count()
    monkeypatch.setattr("frankl_lab.budget.time",
                        SimpleNamespace(perf_counter=lambda: next(ticks) / 10))
    code, out, _ = run_cli(capsys, "f", "--n", "6", "--a", "6", "--max-seconds", "0.15")
    assert code == 2
    assert "lower bound (budget hit)" in out


def test_g_complement_budget_spent_before_the_first_candidate(capsys, monkeypatch):
    # a clock that advances 0.1 s per reading is past a 1 us budget at the
    # first node, so the complement search keeps its top-slice seed
    ticks = count()
    monkeypatch.setattr("frankl_lab.budget.time",
                        SimpleNamespace(perf_counter=lambda: next(ticks) / 10))
    code, out, _ = run_cli(capsys, "g", "--n", "7", "--m", "122", "--max-seconds", "0.000001",
                           "--format", "json")
    assert code == 2
    blob = json.loads(out)
    witness = family_from_json(blob["witness"])
    assert blob["proven_optimal"] is False
    assert len(witness) == 122 and is_union_closed(witness)
    assert max_frequency(witness).count == blob["value"]
    code, out, _ = run_cli(capsys, "verify", "--claim", "thm-g", "--n", "6",
                           "--max-seconds", "0.000001", "--format", "json")
    assert code == 2
    assert [r["status"] for r in json.loads(out)["reports"]] == ["skipped"]


@pytest.mark.parametrize("argv,code,line", [
    (("g", "--n", "4", "--m", "13"), 0, "g(4,13) = 8 [proven optimal], 64 nodes"),
    (("g", "--n", "5", "--m", "20", "--max-nodes", "115"), 2,
     "g(5,20) = 12 [upper bound (budget hit)], 116 nodes"),
    (("lp", "--n", "3", "--a", "3"), 0, "f_r(3,3) = 13/2 (~6.5000), floor 6, 12 pivots"),
    (("lp", "--n", "4", "--a", "4", "--max-nodes", "5"), 2,
     "status budget: best feasible value 2 after 5 pivots"),
])
def test_g_and_lp_text_format(capsys, argv, code, line):
    assert run_cli(capsys, *argv) == (code, line + "\n", "")


def test_lp_command(capsys, tmp_path):
    export = tmp_path / "n2a1.lp"
    code, out, _ = run_cli(capsys, "lp", "--n", "2", "--a", "1",
                           "--export", str(export), "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["objective"] == "8/3"
    assert blob["floor"] == 2
    text = export.read_text()
    assert text.startswith("lp n=2 a=1 vars=4")


# first 16 hex digits of the SHA-256 of each export file: they pin every
# row's kind, rhs and coefficients, and the order of the rows
LP_EXPORT_DIGESTS = {(3, 2): "24dcb302f534ef74", (4, 4): "947358c1122b504f"}


@pytest.mark.parametrize("n,a", LP_EXPORT_DIGESTS)
def test_lp_export_text_is_pinned(capsys, tmp_path, n, a):
    export = tmp_path / "x.lp"
    code, _, err = run_cli(capsys, "lp", "--n", str(n), "--a", str(a), "--export", str(export))
    assert code == 0
    assert err == f"wrote {len(build_relaxation(n, a).rows)} rows to {export}\n"
    assert hashlib.sha256(export.read_bytes()).hexdigest()[:16] == LP_EXPORT_DIGESTS[n, a]


def test_lp_export_to_an_unopenable_path_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run_cli(capsys, "lp", "--n", "2", "--a", "1", "--export", str(target))
    assert (code, out) == (1, "")
    assert err.startswith(f"frankl-lab: error: cannot write {target}: ")
    assert err.count("\n") == 1
    assert not target.parent.exists()


def test_nan_time_budget_is_refused(capsys):
    code, out, err = run_cli(capsys, "f", "--n", "6", "--a", "6", "--max-seconds", "nan")
    assert (code, out) == (1, "")
    assert err == "frankl-lab: error: max_seconds must be positive\n"


def test_lp_refuses_an_empty_ground_set(capsys):
    code, out, err = run_cli(capsys, "lp", "--n", "0", "--a", "1")
    assert (code, out) == (1, "")
    assert err == "frankl-lab: error: ground size must be in [1, 9], got 0\n"


# first 16 hex digits of the SHA-256 of each command's stdout under
# --format json (plus --stable for lp, the one whose JSON has a clock
# field): they pin every primal and dual value of the LP layer and the
# order of the dual's keys
LP_LAYER_DIGESTS = {
    "lp --n 4 --a 4": "7bd51003fff0d894",
    "lp --n 5 --a 5": "79b908c1718823e3",
    "certify --n 5": "2c749fb5d4de38fa",
    "certify --n 7 --a 7": "9874899050dcf950",
    "certify --n 200": "47946c5aed7e8636",
    "table --what fr": "dc55e254b17ae4f1",
}


@pytest.mark.parametrize("command", LP_LAYER_DIGESTS)
def test_lp_layer_json_is_pinned(capsys, command):
    stable = ("--stable",) if command.startswith("lp ") else ()
    code, out, _ = run_cli(capsys, *command.split(), "--format", "json", *stable)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == LP_LAYER_DIGESTS[command]


# the same pin for the search layer: values, witnesses and node counts of
# both engines, the n <= 4 tables behind them, and the f/g duality grid
SEARCH_LAYER_DIGESTS = {
    "f --n 4 --a 4 --format json --stable": "4820f76c4dc21da2",
    "f --n 5 --a 5 --format json --stable": "0577a3d946a68e81",
    "g --n 4 --m 13 --format json --stable": "9ded22354c17c911",
    "g --n 5 --m 28 --format json --stable": "9dd8839a2285f3a1",
    "witness --n 4 --a 7": "aba2b7e5c29e4b77",
    "table --what f-aa --to 4 --format json": "990eb9df3faa17ed",
    "verify --claim fg-duality --format json": "2fb1b3ff03488587",
}


@pytest.mark.parametrize("command", SEARCH_LAYER_DIGESTS)
def test_search_layer_output_is_pinned(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == SEARCH_LAYER_DIGESTS[command]


# the whole acceptance battery and every claim, neither under a budget:
# the outputs a change to an engine's internals leaves byte-identical
BATTERY_DIGESTS = {
    "check --format json --stable": "27bfb01b3dc4e405",
    "verify --claim all --format json": "7d9ef80ed2dce097",
}


@pytest.mark.parametrize("command", BATTERY_DIGESTS)
def test_battery_output_is_pinned(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == BATTERY_DIGESTS[command]


# the text and CSV output of every command, the partial-run exits among
# them: first 16 hex digits of the SHA-256 of stdout and of stderr, and the
# exit code (none of these outputs has a clock field)
CLI_TEXT_DIGESTS = {
    "f --n 5 --a 5 --max-nodes 10": ("f5e1cb1106baa165", "e3b0c44298fc1c14", 2),
    "f --n 4 --a 4 --max-nodes 1": ("5782bc43dbc3e6d9", "e3b0c44298fc1c14", 2),
    "g --n 7 --m 122 --max-nodes 5": ("6076df694e0e4aea", "e3b0c44298fc1c14", 2),
    "lp --n 3 --a 3": ("487180046cbe0dad", "e3b0c44298fc1c14", 0),
    "lp --n 4 --a 4 --max-nodes 3": ("8d5f2da4c8fe26dd", "e3b0c44298fc1c14", 2),
    "lp --n 4 --a 4 --max-nodes 3 --format json --stable":
        ("5cbc3745b2a773d0", "e3b0c44298fc1c14", 2),
    "bound --a 9": ("80811f3e18744df3", "e3b0c44298fc1c14", 0),
    "certify --n 5": ("a31b1fd9175ead42", "e3b0c44298fc1c14", 0),
    "certify --n 6": ("2762658da83bfe93", "e3b0c44298fc1c14", 0),
    "certify --n 7 --a 7": ("7c4ca2294f6a65a2", "e3b0c44298fc1c14", 0),
    "certify --n 200": ("6ff1202818093695", "e3b0c44298fc1c14", 0),
    "verify --claim thm-f-2n-minus-n --n 5 --max-nodes 10":
        ("04fb532eddaa00a5", "e3b0c44298fc1c14", 2),
    "table --what f-aa --from 5 --to 5 --max-nodes 10":
        ("b947f9669aaaf572", "e3b0c44298fc1c14", 2),
    "table --what f-aa --from 5 --to 5 --max-nodes 10 --format csv":
        ("98e7f574c80b1a92", "4a1eb30dcca43c74", 2),
    "table --what fr --to 4 --max-nodes 5 --format csv":
        ("822d7d10a67be284", "eaa8def3c3dd1bde", 2),
    "witness --n 5 --a 5 --max-nodes 10": ("b8bc5c762326a9e7", "e3b0c44298fc1c14", 2),
}


@pytest.mark.parametrize("command", CLI_TEXT_DIGESTS)
def test_cli_text_output_is_pinned(capsys, command):
    code, out, err = run_cli(capsys, *command.split())
    digests = tuple(hashlib.sha256(text.encode()).hexdigest()[:16] for text in (out, err))
    assert (*digests, code) == CLI_TEXT_DIGESTS[command]


def test_table_csv_notes_follow_the_rows_on_a_merged_stream():
    # unbuffered, so the merged stream keeps the order of the writes
    proc = subprocess.run([sys.executable, "-u", "-m", "frankl_lab.cli", "table", "--what",
                           "bound", "--from", "9", "--to", "9", "--format", "csv"],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[:2] == ["a,value", "9,37"]
    assert proc.stdout.splitlines()[2].startswith("note: a=9: exact value 1100/29")


@pytest.mark.parametrize("argv", [
    ("bound", "--a", "7"), ("certify", "--n", "7"), ("verify", "--claim", "thm-g"),
    ("table", "--what", "bound"),
])
def test_stable_is_offered_only_with_a_clock_field(capsys, argv):
    # only the JSON of f, g, lp and check has a "seconds" field to drop
    code, out, err = run_cli(capsys, *argv, "--format", "json", "--stable")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --stable" in err


def test_certify_with_dual(capsys):
    code, out, _ = run_cli(capsys, "certify", "--n", "7", "--a", "7")
    assert code == 0
    assert "matches closed form: True" in out


def test_certify_reports_a_dual_bound_off_the_closed_form(capsys, monkeypatch):
    # the dual bound is checked against bar_f; a closed form one off must
    # be reported as a mismatch and exit with the violation code
    monkeypatch.setattr("frankl_lab.cli.bar_f", lambda n, a: bar_f(n, a) + 1)
    code, out, _ = run_cli(capsys, "certify", "--n", "7", "--a", "7", "--format", "json")
    assert code == 3
    dual = json.loads(out)["dual_bound"]
    assert dual["matches_bar_f"] is False
    assert dual["value"] == str(bar_f(7, 7))


def test_certify_below_7_flags_gamma_but_succeeds(capsys):
    code, out, _ = run_cli(capsys, "certify", "--n", "6")
    assert code == 0
    assert "[FAIL] gamma >= 0" in out


def test_verify_claim(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claim", "thm-g", "--n", "4")
    assert code == 0
    assert "thm-g: verified" in out


def test_verify_all_runs_every_claim(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claim", "all", "--format", "json")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [r["claim"] for r in reports] == list(CLAIMS)
    assert {r["status"] for r in reports} == {"verified"}


def test_verify_violation_exit_code(capsys, monkeypatch):
    from frankl_lab import theorems

    def fake_run_claim(claim, **kwargs):
        return theorems.VerificationReport(claim, {}, [{"boom": 1}])

    monkeypatch.setattr("frankl_lab.cli.run_claim", fake_run_claim)
    code, out, _ = run_cli(capsys, "verify", "--claim", "thm-g")
    assert code == 3


def test_verify_zero_budget_is_refused(capsys):
    code, _, err = run_cli(capsys, "verify", "--claim", "thm-g", "--n", "3", "--max-nodes", "0")
    assert code == 1
    assert err == "frankl-lab: error: max_nodes must be positive\n"


def test_verify_budget_on_a_lemma_claim_is_refused(capsys):
    code, _, err = run_cli(capsys, "verify", "--claim", "missing-subsets", "--max-nodes", "5")
    assert code == 1
    assert err.startswith("frankl-lab: error: ") and err.count("\n") == 1 and "budget" in err


def test_verify_all_takes_no_scope_flag(capsys):
    code, _, err = run_cli(capsys, "verify", "--claim", "all", "--n", "3", "--max-nodes", "5")
    assert code == 1
    assert err.count("\n") == 1 and "--claim all" in err


def test_verify_n_on_monotonicity_is_refused(capsys):
    code, _, err = run_cli(capsys, "verify", "--claim", "monotonicity", "--n", "3")
    assert code == 1
    assert err.count("\n") == 1 and "'monotonicity' does not take ns" in err


def test_verify_count_and_seed_outside_the_lemmas_are_refused(capsys):
    code, _, err = run_cli(capsys, "verify", "--claim", "thm-g", "--count", "5")
    assert code == 1
    assert err.count("\n") == 1 and "'thm-g' does not take count" in err
    code, _, err = run_cli(capsys, "verify", "--claim", "fg-duality", "--seed", "3")
    assert code == 1
    assert err.count("\n") == 1 and "'fg-duality' does not take base_seed" in err


def test_verify_negative_count_is_refused(capsys):
    code, out, err = run_cli(capsys, "verify", "--claim", "missing-subsets", "--n", "5",
                             "--count", "-3")
    assert code == 1
    assert out == ""
    assert err == "frankl-lab: error: random family count must be >= 0, got -3\n"


def test_witness_revalidates(capsys):
    code, out, _ = run_cli(capsys, "witness", "--n", "4", "--a", "4")
    assert code == 0
    blob = json.loads(out)
    fam = family_from_json({"n": blob["n"], "masks": blob["masks"]})
    assert is_union_closed(fam)
    assert max_frequency(fam).count <= 4
    assert len(fam) == blob["f_value"] == 8


def test_table_f_aa_defaults(capsys):
    code, out, _ = run_cli(capsys, "table", "--what", "f-aa", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["a,value", "1,2", "2,4", "3,5", "4,8", "5,9"]


def test_table_bound_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--what", "bound", "--format", "csv")
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "a,value"
    assert rows[1] == "7,24" and rows[-1] == "16,112"


@pytest.mark.parametrize("argv", [
    ("f", "--n", "4", "--a", "4"), ("g", "--n", "4", "--m", "13"), ("lp", "--n", "3", "--a", "3"),
    ("bound", "--a", "7"), ("certify", "--n", "7"), ("verify", "--claim", "thm-g"), ("check",),
])
def test_csv_is_offered_only_by_table(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert code == 1
    assert out == ""
    assert "invalid choice: 'csv'" in err


@pytest.mark.parametrize("argv", [
    ("--format", "csv"), ("--format", "text"), ("--format", "json"), ("--stable",),
])
def test_witness_takes_no_output_flags(capsys, argv):
    # witness always prints the family JSON, which has no timing field
    code, out, err = run_cli(capsys, "witness", "--n", "3", "--a", "2", *argv)
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: {' '.join(argv)}" in err


def test_table_takes_zero_as_a_bound_not_as_the_default(capsys):
    code, out, err = run_cli(capsys, "table", "--what", "bound", "--from", "0", "--to", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("frankl-lab: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("what", ["f-aa", "bound", "fr"])
def test_table_refuses_an_empty_range(capsys, what):
    code, out, err = run_cli(capsys, "table", "--what", what, "--from", "4", "--to", "2")
    assert code == 1
    assert out == ""
    assert err == "frankl-lab: error: empty range: --from 4 is above --to 2\n"


@pytest.mark.parametrize("flag,value", [("--max-nodes", "1"), ("--max-seconds", "1")])
def test_table_bound_refuses_a_budget(capsys, flag, value):
    code, out, err = run_cli(capsys, "table", "--what", "bound", flag, value)
    assert code == 1
    assert out == ""
    assert err.startswith("frankl-lab: error: --what bound ") and err.count("\n") == 1


def test_table_fr(capsys):
    code, out, _ = run_cli(capsys, "table", "--what", "fr", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert [r["value"] for r in blob["rows"]] == [2, 4, 6, 9]
    assert any("13/2" in n for n in blob["notes"])


def test_table_fr_refuses_an_empty_ground_set(capsys):
    code, out, err = run_cli(capsys, "table", "--what", "fr", "--from", "0", "--to", "0")
    assert (code, out) == (1, "")
    assert err == "frankl-lab: error: ground size must be in [1, 9], got 0\n"


def test_table_fr_budget_rows_are_lower_bounds(capsys):
    code, out, _ = run_cli(capsys, "table", "--what", "fr", "--to", "4",
                           "--max-nodes", "5")
    assert code == 2
    notes = [line for line in out.splitlines() if line.startswith("note:")]
    # (1,1) and (2,2) finish within 5 pivots, (2,2) on exactly the fifth;
    # the others stop on the budget
    assert "note: a=1: exact value 2" in notes
    assert "note: a=2: exact value 4" in notes
    for a in (3, 4):
        assert not any(n.startswith(f"note: a={a}: exact value") for n in notes)
        assert any(n.startswith(f"note: a={a}: feasible lower bound") for n in notes)
        assert f"note: a={a}: status budget" in notes


def test_invalid_arguments_exit_1(capsys):
    assert main(["f", "--n", "4"]) == 1           # missing --a
    capsys.readouterr()
    assert main(["verify", "--claim", "nope"]) == 1
    capsys.readouterr()
    assert main(["bound", "--a", "5"]) == 1       # closed form needs a >= 7
    capsys.readouterr()


def test_json_outputs_are_byte_identical_across_runs(capsys):
    _, out1, _ = run_cli(capsys, "f", "--n", "3", "--a", "2",
                         "--format", "json", "--stable")
    _, out2, _ = run_cli(capsys, "f", "--n", "3", "--a", "2",
                         "--format", "json", "--stable")
    assert out1 == out2
    assert "seconds" not in out1


def test_check_command_exit_codes(capsys, monkeypatch):
    from frankl_lab.checks import CheckResult

    ok = CheckResult(1, "stub", True, 0.0, 1.0, "fine")
    bad = CheckResult(2, "stub", False, 0.0, 1.0, "broken")
    monkeypatch.setattr("frankl_lab.cli.checks_mod.run_all", lambda: [ok])
    assert main(["check"]) == 0
    capsys.readouterr()
    monkeypatch.setattr("frankl_lab.cli.checks_mod.run_all", lambda: [ok, bad])
    assert main(["check"]) == 3
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" in out


def test_check_json_drops_seconds_only_under_stable(capsys, monkeypatch):
    from frankl_lab.checks import CheckResult

    ok = CheckResult(1, "stub", True, 0.5, 1.0, "fine")
    monkeypatch.setattr("frankl_lab.cli.checks_mod.run_all", lambda: [ok])
    code, out, _ = run_cli(capsys, "check", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"results": [{
        "criterion": 1, "name": "stub", "passed": True, "seconds": 0.5, "limit": 1.0,
        "detail": "fine"}]}
    code, out, _ = run_cli(capsys, "check", "--format", "json", "--stable")
    assert code == 0
    assert out == ('{"results":[{"criterion":1,"detail":"fine","limit":1.0,'
                   '"name":"stub","passed":true}]}\n')


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "frankl_lab.cli", "bound", "--a", "8"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("30 (exact 337/11)")
