import re
from dataclasses import replace
from pathlib import Path

import pytest

from isostitch import (DirectionSpec, RenderOptions, StitchPattern, Window,
                       generate_design, koch_polygon, to_svg, verify_koch)

GOLDEN = Path(__file__).parent / "golden"


def _design(word: str, hi: int):
    return generate_design(Window(0, hi, 0, hi),
                           StitchPattern.uniform(DirectionSpec.periodic(word)))


def test_rendering_is_byte_deterministic():
    d = _design("01", 10)
    opts = RenderOptions(side="both", show_grid_dots=True)
    assert to_svg(d, opts) == to_svg(d, opts)


def test_one_line_element_per_front_segment():
    d = _design("0", 20)
    svg = to_svg(d, RenderOptions(side="front")).decode()
    assert svg.count("<line") == len(d.front)


def test_both_sides_render_front_plus_back_lines():
    d = _design("0001", 12)
    svg = to_svg(d, RenderOptions(side="both")).decode()
    assert svg.count("<line") == len(d.front) + len(d.back)


def test_back_is_dashed_and_secondary():
    d = _design("0", 8)
    svg = to_svg(d, RenderOptions(side="back")).decode()
    assert "stroke-dasharray" in svg
    front_svg = to_svg(d, RenderOptions(side="front")).decode()
    assert "stroke-dasharray" not in front_svg


def test_empty_design_with_dots_has_only_dot_elements():
    pat = StitchPattern.uniform(DirectionSpec.periodic("0"))
    d = generate_design(Window(0, 6, 0, 6), pat)
    empty = replace(d, lines=((), (), ()))
    svg = to_svg(empty, RenderOptions(show_grid_dots=True,
                                      show_empty_vertices=True)).decode()
    assert svg.count("<line") == 0
    assert svg.count("<circle") == 49


def test_all_coordinates_inside_viewbox():
    d = _design("01", 9)
    svg = to_svg(d, RenderOptions(side="both", show_grid_dots=True)).decode()
    width = float(re.search(r'width="([\d.]+)"', svg).group(1))
    height = float(re.search(r'height="([\d.]+)"', svg).group(1))
    for attr, bound in (("x", width), ("y", height)):
        vals = [float(v) for v in
                re.findall(rf'(?:{attr}1|{attr}2|c{attr})="(-?[\d.]+)"', svg)]
        assert min(vals) >= 0 and max(vals) <= bound


def test_mirror_back_flips_horizontally():
    d = _design("0001", 8)
    plain = to_svg(d, RenderOptions(side="back")).decode()
    flipped = to_svg(d, RenderOptions(side="back", mirror_back=True)).decode()
    assert plain != flipped
    xs_plain = sorted(float(v) for v in re.findall(r'x1="(-?[\d.]+)"', plain))
    xs_flip = sorted(float(v) for v in re.findall(r'x1="(-?[\d.]+)"', flipped))
    assert len(xs_plain) == len(xs_flip)


def test_highlight_cycles_render_as_polygons():
    res = verify_koch(1, Window(0, 20, 0, 20))
    d = generate_design(Window(0, 20, 0, 20), StitchPattern.uniform(DirectionSpec.koch(1)))
    svg = to_svg(d, RenderOptions(highlight=(res.matched_cycle,))).decode()
    assert svg.count("<polygon") == 1


def test_fixed_four_decimal_formatting():
    d = _design("0", 6)
    svg = to_svg(d, RenderOptions()).decode()
    for val in re.findall(r'[xy][12]="(-?[\d.]+)"', svg):
        whole, frac = val.split(".")
        assert len(frac) == 4


def test_invalid_options_rejected():
    with pytest.raises(ValueError):
        RenderOptions(side="sideways")
    with pytest.raises(ValueError):
        RenderOptions(unit_px=0)
    with pytest.raises(ValueError):
        RenderOptions(stroke_width=-1)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            RenderOptions(unit_px=value)
        with pytest.raises(ValueError):
            RenderOptions(stroke_width=value)


@pytest.mark.parametrize("name,word,hi,opts", [
    ("hexagram_both_dots.svg", "0", 12,
     RenderOptions(side="both", show_grid_dots=True, show_empty_vertices=True)),
    ("triangles_front.svg", "0001", 15, RenderOptions(side="front")),
    ("alternating_back_mirrored.svg", "01", 8,
     RenderOptions(side="back", mirror_back=True)),
])
def test_golden_fixtures_are_stable(name, word, hi, opts):
    payload = to_svg(_design(word, hi), opts)
    assert payload == (GOLDEN / name).read_bytes()
