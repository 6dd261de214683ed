import json
import subprocess
import sys

from frankl_lab import family_from_json, is_union_closed, max_frequency
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


def test_g_command_json(capsys):
    code, out, _ = run_cli(capsys, "g", "--n", "4", "--m", "13", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["value"] == 8
    assert blob["proven_optimal"] is True


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


def test_certify_with_dual(capsys):
    code, out, _ = run_cli(capsys, "certify", "--n", "7", "--a", "7")
    assert code == 0
    assert "matches closed form: True" in out


def test_certify_below_7_flags_gamma_but_succeeds(capsys):
    code, out, _ = run_cli(capsys, "certify", "--n", "6")
    assert code == 0
    assert "[FAIL] gamma >= 0" in out


def test_verify_claim(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claim", "thm-g", "--n", "4")
    assert code == 0
    assert "thm-g: verified" in out


def test_verify_violation_exit_code(capsys, monkeypatch):
    from frankl_lab import reports

    def fake_run_claim(claim, **kwargs):
        return reports.VerificationReport(claim, {}, "violated", [{"boom": 1}], [])

    monkeypatch.setattr("frankl_lab.cli.run_claim", fake_run_claim)
    code, out, _ = run_cli(capsys, "verify", "--claim", "thm-g")
    assert code == 3


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


def test_table_fr(capsys):
    code, out, _ = run_cli(capsys, "table", "--what", "fr", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert [r["value"] for r in blob["rows"]] == [2, 4, 6, 9]
    assert any("13/2" in n for n in blob["notes"])


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


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "frankl_lab.cli", "bound", "--a", "8"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("30 (exact 337/11)")
