"""Command-line behavior: file formats, JSON payloads, exit codes."""

import json

import numpy as np
import pytest

from onebitcs import lp
from onebitcs.cli import main

FLAGSHIP = "2 4\n2 -1 0 2\n-1 1 1 0\n"


@pytest.fixture
def flagship_files(tmp_path):
    mat = tmp_path / "phi.txt"
    mat.write_text(FLAGSHIP)
    yvec = tmp_path / "y.txt"
    yvec.write_text("1 -1\n")
    return str(mat), str(yvec)


def test_decode_outputs_consistent_solution(flagship_files, tmp_path, capsys):
    mat, yvec = flagship_files
    out = tmp_path / "decode.json"
    code = main(["decode", "--matrix", mat, "--y", yvec, "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["status"] == "optimal"
    assert payload["objective"] == pytest.approx(1.0, abs=1e-8)
    assert payload["consistent"] is True


def test_decode_gd(flagship_files, capsys):
    mat, yvec = flagship_files
    assert main(["decode", "--matrix", mat, "--y", yvec, "--decoder", "gd"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["objective"] == pytest.approx(2.0 / 3.0, abs=1e-8)


def test_solver_breakdown_is_an_error(flagship_files, monkeypatch, capsys):
    monkeypatch.setattr(lp, "solve", lambda problem: lp.LPSolution(status=lp.STALLED))
    mat, yvec = flagship_files
    assert main(["decode", "--matrix", mat, "--y", yvec, "--decoder", "gd"]) == 2
    assert "did not solve cleanly" in capsys.readouterr().err


def test_decode_infeasible_note(tmp_path, capsys):
    mat = tmp_path / "phi.txt"
    mat.write_text("2 2\n1 0\n1 0\n")
    yvec = tmp_path / "y.txt"
    yvec.write_text("1 -1\n")
    assert main(["decode", "--matrix", str(mat), "--y", str(yvec)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "infeasible"
    assert "no signal" in payload["note"]


def test_certify_reports_non_uniqueness(flagship_files, capsys):
    mat, yvec = flagship_files
    assert main(["certify", "--matrix", mat, "--y", yvec]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["unique"] is False
    assert payload["witness_recheck"] is not None


def test_certify_at_supplied_signal(flagship_files, tmp_path, capsys):
    mat, yvec = flagship_files
    xfile = tmp_path / "x.txt"
    xfile.write_text("1 0 0 0\n")
    assert main(["certify", "--matrix", mat, "--y", yvec, "--x", str(xfile)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["signal_source"] == "supplied"
    assert payload["h_full_rank"] is True
    assert payload["unique"] is False


def test_audit_modes(flagship_files, capsys):
    mat, yvec = flagship_files
    assert main(["audit-relaxation", "--matrix", mat, "--y", yvec,
                 "--mode", "nonstandard"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["nonstandard_x"]["holds"] is False
    assert payload["nonstandard_x"]["violations"][0]["row"] == 1


def test_oracle_cross_check(flagship_files, capsys):
    mat, yvec = flagship_files
    assert main(["oracle", "--matrix", mat, "--y", yvec]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["l0_min"] == 1
    assert payload["objectives_match"] is True


def test_yk_enumeration(flagship_files, capsys):
    mat, _ = flagship_files
    assert main(["yk", "--matrix", mat, "--k", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exact"] is True
    assert payload["count"] == 7


def test_experiment_writes_artifacts(tmp_path, capsys):
    prefix = tmp_path / "run"
    code = main(["experiment", "--m", "3", "--n", "5", "--k", "1,2",
                 "--trials", "4", "--seed", "9", "--out", str(prefix)])
    assert code == 0
    csv_text = (tmp_path / "run.csv").read_text()
    assert len(csv_text.splitlines()) == 9
    summary = json.loads((tmp_path / "run.json").read_text())
    assert summary["config"]["trials"] == 4


def test_repro_example_passes(capsys):
    assert main(["repro-example"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_missing_file_is_usage_error(capsys):
    assert main(["decode", "--matrix", "/no/such/file", "--y", "/none"]) == 2
    assert "error:" in capsys.readouterr().err


def test_corrupt_matrix_is_usage_error(tmp_path, capsys):
    mat = tmp_path / "phi.txt"
    mat.write_text("2 4\n1 2 3\n")
    yvec = tmp_path / "y.txt"
    yvec.write_text("1 -1\n")
    assert main(["decode", "--matrix", str(mat), "--y", str(yvec)]) == 2
    assert "expected 8 entries" in capsys.readouterr().err


def test_bad_measurement_entry_is_usage_error(tmp_path, capsys):
    mat = tmp_path / "phi.txt"
    mat.write_text("1 1\n1\n")
    yvec = tmp_path / "y.txt"
    yvec.write_text("2\n")
    assert main(["decode", "--matrix", str(mat), "--y", str(yvec)]) == 2


def test_bad_k_list_is_usage_error(tmp_path, capsys):
    assert main(["experiment", "--m", "2", "--n", "3", "--k", "1;2",
                 "--trials", "2"]) == 2


def test_dimension_mismatch_is_usage_error(tmp_path, capsys):
    mat = tmp_path / "phi.txt"
    mat.write_text("2 2\n1 0\n0 1\n")
    yvec = tmp_path / "y.txt"
    yvec.write_text("1 -1 1\n")
    assert main(["decode", "--matrix", str(mat), "--y", str(yvec)]) == 2
