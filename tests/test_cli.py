import json
import subprocess
import sys
from pathlib import Path

import pytest

from isostitch import VerificationResult, WordError, cli
from isostitch.cli import report_from_dict, report_to_dict

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "isostitch", *args],
                          capture_output=True, text=True, cwd=cwd)


def test_version():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "0.1.0" in proc.stdout


def test_render_writes_svg(tmp_path):
    out = tmp_path / "hex.svg"
    proc = run_cli("render", "--word", "0", "--window", "0:20:0:20",
                   "--side", "front", "--out", str(out))
    assert proc.returncode == 0
    data = out.read_bytes()
    assert data.startswith(b"<?xml") and b"<svg" in data


def test_render_is_reproducible(tmp_path):
    args = ("render", "--word", "0001", "--window", "0:16:0:16",
            "--side", "both", "--out")
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run_cli(*args, str(a)).returncode == 0
    assert run_cli(*args, str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_render_rejects_invalid_word(tmp_path):
    proc = run_cli("render", "--word", "012", "--window", "0:8:0:8",
                   "--out", str(tmp_path / "x.svg"))
    assert proc.returncode == 2
    assert "invalid character" in proc.stderr


def test_render_reports_unwritable_path():
    proc = run_cli("render", "--word", "0", "--window", "0:8:0:8",
                   "--out", "/nonexistent-dir/x.svg")
    assert proc.returncode == 3


def test_window_syntax_errors(tmp_path):
    for bad in ("1:2:3", "a:b:c:d", "5:1:0:9"):
        proc = run_cli("render", "--word", "0", "--window", bad,
                       "--out", str(tmp_path / "x.svg"))
        assert proc.returncode == 2, bad


def test_missing_word_arguments(tmp_path):
    proc = run_cli("render", "--word-a", "0", "--out", str(tmp_path / "x.svg"))
    assert proc.returncode == 2


def test_analyze_reference_patterns(tmp_path):
    report = tmp_path / "r.json"
    proc = run_cli("analyze", "--word", "01", "--report", str(report))
    assert proc.returncode == 0
    data = json.loads(report.read_text())
    assert data["tool_version"]
    assert data["wallpaper"]["front"]["group"] == "p3m1"
    assert data["wallpaper"]["back"]["group"] == "p3m1"
    assert data["self_dual"]["value"] is True
    assert all(v["pass"] for v in data["invariant_results"].values())
    assert data["koch"] is None
    witnesses = data["wallpaper"]["front"]["witnesses"]
    assert any(w["role"] == "rotation-3" for w in witnesses)


def test_analyze_report_round_trips(tmp_path):
    report = tmp_path / "r.json"
    assert run_cli("analyze", "--word", "0", "--window=-24:24:-24:24",
                   "--report", str(report)).returncode == 0
    data = json.loads(report.read_text())
    assert report_to_dict(report_from_dict(data)) == data
    data["pattern"]["convention"]["presence_parity"] = [1, 0, 1]
    with pytest.raises(WordError):
        report_from_dict(data)


@pytest.mark.parametrize("golden,args,code", [
    ("analyze_alternating.json", ("--word", "01", "--window=-24:24:-24:24"), 0),
    ("analyze_hexagram.json", ("--word", "0", "--window=-24:24:-24:24"), 0),
    ("analyze_pmg.json", ("--word-a", "0", "--word-b", "0", "--word-c", "0011",
                          "--phase-c", "1"), 0),
    ("analyze_small_window.json", ("--word", "0", "--window", "0:6:0:6"), 4),
])
def test_analyze_report_matches_golden(tmp_path, golden, args, code):
    report = tmp_path / "r.json"
    proc = run_cli("analyze", *args, "--report", str(report))
    assert proc.returncode == code
    assert report.read_bytes() == (GOLDEN / golden).read_bytes()


def test_analyze_is_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run_cli("analyze", "--word", "01", "--report", str(path)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_analyze_small_window_writes_unknown_and_exits_4(tmp_path):
    report = tmp_path / "r.json"
    proc = run_cli("analyze", "--word", "0", "--window", "0:6:0:6",
                   "--report", str(report))
    assert proc.returncode == 4
    data = json.loads(report.read_text())
    assert data["wallpaper"]["front"]["group"] == "Unknown"
    assert "error" in data["wallpaper"]["front"]


def test_verify_koch_found_and_report(tmp_path):
    report = tmp_path / "k.json"
    proc = run_cli("verify-koch", "--order", "2", "--report", str(report))
    assert proc.returncode == 0
    assert "found" in proc.stdout
    data = json.loads(report.read_text())
    assert data["koch"]["found"] is True
    assert data["koch"]["phases"] == {"A": 0, "B": 0, "C": 1}
    assert len(data["koch"]["matched_cycle"]) == 48
    assert report_to_dict(report_from_dict(data)) == data


def test_verify_koch_not_found_exits_5(monkeypatch, capsys):
    proc = run_cli("verify-koch", "--order", "2", "--no-phase-search")
    assert proc.returncode == 5
    assert proc.stdout == "order 2: not found (tried phases 0,0,0)\n"
    # A full search that misses names how many phase triples it tried:
    # (0, b, c) for b in (0, 1) and c over the order-2 word period of 6.
    monkeypatch.setattr(cli, "verify_koch", lambda order, window, phase_search, phases:
                        VerificationResult(False, dict(enumerate(phases)), None))
    assert cli.main(["verify-koch", "--order", "2"]) == 5
    assert capsys.readouterr().out == "order 2: not found (searched 12 phase candidates)\n"


def test_verify_koch_fixed_phases():
    proc = run_cli("verify-koch", "--order", "2", "--no-phase-search",
                   "--phase-c", "1")
    assert proc.returncode == 0


def test_verify_koch_usage_errors():
    assert run_cli("verify-koch", "--order", "0").returncode == 2
    assert run_cli("verify-koch", "--order", "7").returncode == 2
    assert run_cli("verify-koch", "--order", "5").returncode == 2


def test_verify_koch_report_is_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run_cli("verify-koch", "--order", "1", "--report",
                       str(path)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_calibrate_prints_accepted_conventions():
    proc = run_cli("calibrate")
    assert proc.returncode == 0
    assert proc.stdout.count("accepting:") == 4
    assert "calibrated: base=(0, 0, 0) slope=(1, 1, 1)" in proc.stdout


def test_calibrate_is_reproducible():
    assert run_cli("calibrate").stdout == run_cli("calibrate").stdout


def test_koch_render_after_verify(tmp_path):
    out = tmp_path / "k2.svg"
    proc = run_cli("render", "--koch-order", "2", "--side", "front",
                   "--highlight-koch", "--out", str(out))
    assert proc.returncode == 0
    assert out.read_text().count("<polygon") == 1
