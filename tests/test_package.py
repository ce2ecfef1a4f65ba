import ast
import importlib
import os
import re
import subprocess
from pathlib import Path

import pytest

import isostitch


def test_every_public_name_is_the_object_its_defining_module_holds():
    for name in set(isostitch.__all__) - {"__version__"}:
        home = importlib.import_module(f"isostitch.{isostitch._HOME[name]}")
        value = getattr(isostitch, name)
        assert value is getattr(home, name), name
        # Classes and functions name where they are defined; the constants
        # (tuples, strings) carry no module.
        assert getattr(value, "__module__", home.__name__) == home.__name__, name


def test_dir_lists_every_public_name():
    assert set(isostitch.__all__) <= set(dir(isostitch))


@pytest.mark.parametrize("module", sorted(isostitch._EXPORTS))
def test_every_module_of_the_table_is_a_package_attribute(module):
    assert getattr(isostitch, module) is importlib.import_module(f"isostitch.{module}")
    assert module in dir(isostitch)


@pytest.mark.parametrize("name", ["no_such_name", "LineId", "lines_through", "is_line_present",
                                  "Word", "concat", "reverse", "scale_directions",
                                  "replace_runs", "direction_slots", "forward_maps"])
def test_an_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(isostitch, name)


_ROOT = Path(__file__).resolve().parents[1]


def _python_floor() -> tuple[int, int]:
    declared = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                         (_ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    return int(declared[1]), int(declared[2])


def test_sources_parse_at_the_declared_python_floor():
    # the grammar of the oldest Python that pyproject.toml admits, checked by
    # this interpreter's parser, so no older interpreter needs to be installed
    floor = _python_floor()
    sources = sorted([*(_ROOT / "src" / "isostitch").glob("*.py"), *(_ROOT / "tools").glob("*.py")])
    assert len(sources) > 10
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)


_GOLDEN = _ROOT / "tests" / "golden"
# to_svg of the three SVG goldens, as test_render builds them, into argv[1]
_WRITE_SVG_GOLDENS = """
import sys
from pathlib import Path
from isostitch import DirectionSpec, RenderOptions, StitchPattern, Window, generate_design, to_svg
for name, word, hi, opts in (
        ("hexagram_both_dots.svg", "0", 12,
         RenderOptions(side="both", show_grid_dots=True, show_empty_vertices=True)),
        ("triangles_front.svg", "0001", 15, RenderOptions(side="front")),
        ("alternating_back_mirrored.svg", "01", 8, RenderOptions(side="back", mirror_back=True))):
    pattern = StitchPattern.uniform(DirectionSpec.periodic(word))
    svg = to_svg(generate_design(Window(0, hi, 0, hi), pattern), opts)
    (Path(sys.argv[1]) / name).write_bytes(svg)
"""


def _pyenv_interpreters() -> list[Path]:
    """Every pyenv-installed python3 at or above the declared floor."""
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    found = []
    for exe in root.glob("versions/*/bin/python3"):
        version = re.match(r"(\d+)\.(\d+)\.", exe.parents[1].name)
        if version and (int(version[1]), int(version[2])) >= _python_floor():
            found.append(exe)
    return sorted(found)


@pytest.mark.slow
def test_goldens_are_byte_identical_on_every_installed_interpreter(tmp_path):
    interpreters = _pyenv_interpreters()
    if not interpreters:
        pytest.skip("no pyenv interpreter at or above the requires-python floor")
    for exe in interpreters:
        version = exe.parents[1].name
        for golden, args, code in (
                ("analyze_pmg.json", ("--word-a", "0", "--word-b", "0", "--word-c", "0011",
                                      "--phase-c", "1"), 0),
                ("analyze_small_window.json", ("--word", "0", "--window", "0:6:0:6"), 4)):
            report = tmp_path / f"{version}-{golden}"
            proc = subprocess.run([exe, "-m", "isostitch", "analyze", *args, "--report", report],
                                  capture_output=True, text=True)
            assert proc.returncode == code, (version, golden, proc.stderr)
            assert report.read_bytes() == (_GOLDEN / golden).read_bytes(), (version, golden)
        out = tmp_path / version
        out.mkdir()
        proc = subprocess.run([exe, "-c", _WRITE_SVG_GOLDENS, out], capture_output=True, text=True)
        assert proc.returncode == 0, (version, proc.stderr)
        goldens = sorted(_GOLDEN.glob("*.svg"))
        assert sorted(svg.name for svg in out.iterdir()) == [svg.name for svg in goldens]
        for svg in goldens:
            assert (out / svg.name).read_bytes() == svg.read_bytes(), (version, svg.name)
