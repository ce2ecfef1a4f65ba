import ast
import importlib
import re
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
                                  "replace_runs"])
def test_an_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(isostitch, name)


_ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_at_the_declared_python_floor():
    # the grammar of the oldest Python that pyproject.toml admits, checked by
    # this interpreter's parser, so no older interpreter needs to be installed
    declared = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                         (_ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    floor = (int(declared[1]), int(declared[2]))
    sources = sorted([*(_ROOT / "src" / "isostitch").glob("*.py"), *(_ROOT / "tools").glob("*.py")])
    assert len(sources) > 10
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)
