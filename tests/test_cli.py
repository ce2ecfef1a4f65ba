import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isostitch import (DirectionSpec, StitchPattern, VerificationResult, Window, cli,
                       generate_design, koch_oracle, stitcher)
from test_design_graph import convention, mixed_spec

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


@pytest.mark.parametrize("flag,value", [("--unit-px", "0"), ("--stroke-width", "-1"),
                                        ("--unit-px", "nan"), ("--stroke-width", "inf")])
def test_render_rejects_bad_sizes(tmp_path, capsys, flag, value):
    out = tmp_path / "x.svg"
    assert cli.main(["render", "--word", "0", "--window", "0:8:0:8", flag, value,
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_render_front_never_builds_the_back_segment_set(tmp_path, monkeypatch, capsys):
    designs = []
    generate = stitcher.generate_design

    def capturing(window, pattern):
        designs.append(generate(window, pattern))
        return designs[-1]

    monkeypatch.setattr(stitcher, "generate_design", capturing)
    out = tmp_path / "f.svg"
    assert cli.main(["render", "--word-a", "01", "--word-b", "0", "--word-c", "0011",
                     "--phase-c", "1", "--window=-7:19:-3:22", "--side", "front",
                     "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"493 front / 495 back segments -> {out}\n"
    [design] = designs
    assert "back" not in design.__dict__
    assert (len(design.front), len(design.back)) == (493, 495)


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


def test_empty_vertex_check_fails_honestly_on_a_window_one_vertex_wide():
    # (2, 1) and (4, 1) lie on present lines, but every stitch of theirs
    # leaves the window, so they have none in it.
    pattern = StitchPattern.uniform(DirectionSpec.periodic("0"))
    result = cli.invariant_results(generate_design(Window(1, 5, 1, 1), pattern))
    assert result["empty_vertices"] == {"empty": 5, "total": 5, "expected": 3, "pass": False}


@settings(max_examples=100, deadline=None)
@given(st.tuples(mixed_spec, mixed_spec, mixed_spec), convention,
       st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 12), st.integers(1, 12))
def test_stitchless_vertices_are_the_empty_ones_on_windows_of_two_by_two_up(specs, conv, i0,
                                                                            j0, w, h):
    design = generate_design(Window(i0, i0 + w, j0, j0 + h), StitchPattern(specs, conv))
    assert all(entry["pass"] for entry in cli.invariant_results(design).values())


def test_analyze_report_round_trips(tmp_path):
    # The report names its pattern and window in full: given back as
    # arguments, they reproduce the same report.
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    proc = run_cli("analyze", "--word-a", "01", "--word-b", "0", "--word-c", "0011",
                   "--phase-c", "1", "--window=-24:24:-24:24", "--report", str(first))
    data = json.loads(first.read_text())
    assert data["pattern"]["convention"] == {
        "presence_parity": [0, 0, 1], "phase_base": [0, 0, 0], "phase_slope": [1, 1, 1]}
    args = ["--window={}:{}:{}:{}".format(*data["window"])]
    for name, spec in zip("abc", data["pattern"]["directions"]):
        assert spec["kind"] == "periodic"
        args += [f"--word-{name}", spec["word"], f"--phase-{name}", str(spec["phase"])]
    again = run_cli("analyze", *args, "--report", str(second))
    assert again.returncode == proc.returncode
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("golden,args,code", [
    ("analyze_alternating.json", ("--word", "01", "--window=-24:24:-24:24"), 0),
    ("analyze_hexagram.json", ("--word", "0", "--window=-24:24:-24:24"), 0),
    ("analyze_pmg.json", ("--word-a", "0", "--word-b", "0", "--word-c", "0011",
                          "--phase-c", "1"), 0),
    ("analyze_small_window.json", ("--word", "0", "--window", "0:6:0:6"), 4),
    ("analyze_koch2.json", ("--koch-order", "2"), 0),
    pytest.param("analyze_koch3.json", ("--koch-order", "3"), 0, marks=pytest.mark.slow),
])
def test_analyze_report_matches_golden(tmp_path, golden, args, code):
    report = tmp_path / "r.json"
    proc = run_cli("analyze", *args, "--report", str(report))
    assert proc.returncode == code
    assert report.read_bytes() == (GOLDEN / golden).read_bytes()


def test_analyze_breaks_an_exact_mirror_tie_toward_the_lesser_translation(tmp_path):
    # The vertical mirror axes through (21/2, 0) and (23/2, 0) lie equally
    # near the window middle (12, -2); the witness is the lesser translation.
    report = tmp_path / "r.json"
    assert cli.main(["analyze", "--word-a", "11", "--word-b", "10", "--word-c", "10",
                     "--window=8:16:-10:6", "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    for side in ("front", "back"):
        [mirror] = [w for w in data["wallpaper"][side]["witnesses"] if w["role"] == "mirror"]
        assert mirror["rotation"] == 3
        assert (mirror["translation"], mirror["center"]) == ([21, 0], ["21/2", "0"])


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
    assert [(d["kind"], d["order"], d["phase"]) for d in data["pattern"]["directions"]] == [
        ("koch", 2, 0), ("koch", 2, 0), ("koch", 2, 1)]


def test_verify_koch_not_found_exits_5(monkeypatch, capsys):
    proc = run_cli("verify-koch", "--order", "2", "--phase-b", "0", "--phase-c", "0")
    assert proc.returncode == 5
    assert proc.stdout == "order 2: not found (tried phases 0,0,0)\n"
    # A full search that misses names how many phase triples it tried:
    # (0, b, c) for b in (0, 1) and c over the order-2 word period of 6.
    monkeypatch.setattr(koch_oracle, "verify_koch", lambda order, window, phases:
                        VerificationResult(False, dict(enumerate(phases or (0, 0, 0))), None))
    assert cli.main(["verify-koch", "--order", "2"]) == 5
    assert capsys.readouterr().out == "order 2: not found (searched 12 phase candidates)\n"


def test_verify_koch_fixed_phases():
    proc = run_cli("verify-koch", "--order", "2", "--phase-c", "1")
    assert proc.returncode == 0


def test_verify_koch_tests_given_phases_only(tmp_path):
    # The search finds the order-2 snowflake at (0, 0, 1); given phases are
    # tried alone, and the report names them.
    report = tmp_path / "k.json"
    proc = run_cli("verify-koch", "--order", "2", "--phase-b", "1", "--phase-c", "3",
                   "--report", str(report))
    assert proc.returncode == 5
    assert proc.stdout == "order 2: not found (tried phases 0,1,3)\n"
    assert json.loads(report.read_text())["koch"]["phases"] == {"A": 0, "B": 1, "C": 3}
    proc = run_cli("verify-koch", "--order", "2", "--phase-b", "1")
    assert proc.stdout == "order 2: not found (tried phases 0,1,0)\n"


def test_verify_koch_order_five_needs_no_flag():
    proc = run_cli("verify-koch", "--order", "5")
    assert proc.returncode == 0
    assert proc.stdout == "order 5: found (3072 segments, phases 0,0,1)\n"


def test_verify_koch_takes_the_polygon_plus_a_period_cell_less_one_vertex(tmp_path):
    # order 2: a 13x13 polygon and a 12x12 period cell; the search reads
    # 24x24 vertices, so 0:23:0:23 finds the default window's hit at
    # (5, 14) and 0:22:0:22 is a usage error
    report = tmp_path / "k2.json"
    proc = run_cli("verify-koch", "--order", "2", "--window", "0:23:0:23",
                   "--report", str(report))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "order 2: found (48 segments, phases 0,0,1)\n"
    assert json.loads(report.read_text())["koch"]["matched_cycle"][0] == [5, 14]
    proc = run_cli("verify-koch", "--order", "2", "--window", "0:22:0:22")
    assert proc.returncode == 2
    assert "period cell" in proc.stderr


def test_verify_koch_usage_errors():
    assert run_cli("verify-koch", "--order", "0").returncode == 2
    assert run_cli("verify-koch", "--order", "7").returncode == 2
    for removed in ("--long-running", "--no-phase-search", "--phase-search"):
        assert run_cli("verify-koch", "--order", "1", removed).returncode == 2


def test_calibrate_prints_accepted_conventions():
    proc = run_cli("calibrate")
    assert proc.returncode == 0
    assert proc.stdout.count("accepting:") == 4
    assert "calibrated: base=(0, 0, 0) slope=(1, 1, 1)" in proc.stdout


def test_cli_imports_only_the_standard_library():
    # Compare the module set before and after the import: site may already
    # have loaded third-party modules.
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "import isostitch.cli\n"
             "added = set(sys.modules) - before\n"
             "assert 'isostitch.cli' in added\n"
             "print(sorted(m for m in added if m.split('.')[0] != 'isostitch'\n"
             "             and m.split('.')[0] not in sys.stdlib_module_names))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_every_module_imports_only_the_standard_library():
    # The CLI imports most modules inside its functions, so import every
    # submodule pkgutil finds.
    probe = ("import importlib, pkgutil, sys\n"
             "before = set(sys.modules)\n"
             "import isostitch\n"
             "names = [m.name for m in pkgutil.iter_modules(isostitch.__path__, 'isostitch.')]\n"
             "for name in names:\n"
             "    importlib.import_module(name)\n"
             "added = set(sys.modules) - before\n"
             "assert {'isostitch.render', 'isostitch.symmetry'} <= added, names\n"
             "print(sorted(m for m in added if m.split('.')[0] != 'isostitch'\n"
             "             and m.split('.')[0] not in sys.stdlib_module_names))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _modules_loaded_by(*args, cwd) -> set[str]:
    """The modules a ``python -m isostitch *args`` run adds to sys.modules,
    read when the interpreter exits."""
    probe = ("import atexit, runpy, sys\n"
             "before = set(sys.modules)\n"
             "atexit.register(lambda: print(*sorted(set(sys.modules) - before), file=sys.stderr))\n"
             "runpy.run_module('isostitch', run_name='__main__', alter_sys=True)\n")
    proc = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True, text=True,
                          cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


def test_version_loads_no_design_module(tmp_path):
    loaded = {m for m in _modules_loaded_by("--version", cwd=tmp_path)
              if m.split(".")[0] == "isostitch"}
    assert "isostitch.cli" in loaded
    assert loaded <= {"isostitch", "isostitch.__main__", "isostitch.cli", "isostitch.errors"}


def test_verify_koch_loads_neither_render_nor_symmetry(tmp_path):
    # nor dataclasses, which imports inspect: the Koch chain's records are
    # NamedTuples
    loaded = _modules_loaded_by("verify-koch", "--order", "1", cwd=tmp_path)
    assert "isostitch.koch_oracle" in loaded
    assert not loaded & {"isostitch.render", "isostitch.symmetry", "fractions", "decimal",
                         "dataclasses", "inspect"}


# The README's start-up table: the modules each command loads besides the
# package, cli and errors.
@pytest.mark.parametrize("args, modules", [
    (["render", "--word", "01", "--window", "0:5:0:5", "--out", "r.svg"],
     {"render", "design_graph", "stitcher", "grid", "words"}),
    (["analyze", "--word", "01", "--window", "0:5:0:5", "--report", "r.json"],
     {"symmetry", "design_graph", "stitcher", "grid", "words"}),
    (["calibrate"], {"symmetry", "koch_oracle", "design_graph", "stitcher", "grid", "words"}),
    (["verify-koch", "--order", "1"], {"koch_oracle", "design_graph", "stitcher", "grid", "words"}),
    (["render", "--koch-order", "1", "--out", "r.svg"],
     {"render", "koch_oracle", "design_graph", "stitcher", "grid", "words"}),
], ids=["render", "analyze", "calibrate", "verify-koch", "render-koch-order"])
def test_each_subcommand_loads_the_modules_of_the_readme_table(tmp_path, args, modules):
    loaded = {m for m in _modules_loaded_by(*args, cwd=tmp_path) if m.split(".")[0] == "isostitch"}
    assert loaded == {"isostitch", "isostitch.cli", "isostitch.errors",
                      *(f"isostitch.{m}" for m in modules)}


@pytest.mark.parametrize("args", [
    ["verify-koch", "--order", "1"],
    ["analyze", "--word", "01", "--window", "0:5:0:5", "--report", "r.json"],
    ["render", "--word", "01", "--window", "0:5:0:5", "--out", "r.svg"],
])
def test_per_layer_tracer_installs_after_any_in_process_subcommand(tmp_path, args):
    # The benchmark's per-layer pass runs cli.main in-process, then wraps
    # every function in layers.LAYERS, which it looks up in sys.modules.
    probe = ("import sys\n"
             f"sys.path.insert(0, {str(Path(__file__).parent.parent / 'benchmarks')!r})\n"
             "from isostitch import cli\n"
             "from layers import Tracer\n"
             f"assert cli.main({args!r}) == 0\n"
             "tracer = Tracer('time')\n"
             "tracer.install()\n"
             "tracer.uninstall()\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_command_examples_run(tmp_path):
    # Every `isostitch ...` line of the README's sh blocks, so a removed flag
    # cannot linger in the docs.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = [line for block in re.findall(r"^```sh\n(.*?)^```", readme, re.S | re.M)
                for line in block.splitlines() if line.startswith("isostitch ")]
    assert len(examples) >= 8
    for line in examples:
        proc = run_cli(*shlex.split(line)[1:], cwd=tmp_path)
        assert proc.returncode == 0, (line, proc.stderr)


def test_koch_render_after_verify(tmp_path):
    out = tmp_path / "k2.svg"
    proc = run_cli("render", "--koch-order", "2", "--side", "front",
                   "--highlight-koch", "--out", str(out))
    assert proc.returncode == 0
    assert out.read_text().count("<polygon") == 1


def test_koch_render_highlights_in_a_window_without_a_period_cell_of_margin(tmp_path):
    # The 21x21 window holds the order-2 snowflake, at (5, 14), but not the
    # period cell of margin that verify-koch's phase search asks for.
    out = tmp_path / "k2.svg"
    proc = run_cli("render", "--koch-order", "2", "--highlight-koch",
                   "--window", "0:20:0:20", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().count("<polygon") == 1
