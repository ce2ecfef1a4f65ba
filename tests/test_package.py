import importlib

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


@pytest.mark.parametrize("name", ["no_such_name", "LineId", "lines_through", "is_line_present"])
def test_an_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(isostitch, name)
