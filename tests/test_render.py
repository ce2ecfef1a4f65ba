import re
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isostitch import (Cycle, DirectionSpec, RenderOptions, StitchPattern, Window,
                       generate_design, koch_polygon, segment_endpoints, to_svg,
                       vertex_to_cartesian, verify_koch)
from isostitch.render import (BACK_COLOR, DOT_COLOR, EMPTY_DOT_COLOR, FRONT_COLOR,
                              HIGHLIGHT_COLOR)
from test_design_graph import convention, mixed_spec

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
    empty = d._replace(lines=((), (), ()))
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


def _reference_svg(design, opts: RenderOptions) -> bytes:
    """The SVG writer as one loop per side over the sorted segment set, with
    its own page mapping and four-decimal formatting."""
    def fmt(x):
        text = f"{x:.4f}"
        return "0.0000" if text == "-0.0000" else text

    win, unit = design.window, opts.unit_px
    corners = [vertex_to_cartesian(c) for c in product((win.i_min, win.i_max),
                                                       (win.j_min, win.j_max))]
    x_lo, x_hi = min(x for x, _ in corners) - 1.0, max(x for x, _ in corners) + 1.0
    y_lo, y_hi = min(y for _, y in corners) - 1.0, max(y for _, y in corners) + 1.0
    mirror = opts.mirror_back and opts.side in ("back", "both")

    def point(v):
        x, y = vertex_to_cartesian(v)
        if mirror:
            x = x_hi + x_lo - x
        return (x - x_lo) * unit, (y_hi - y) * unit

    width, height = fmt((x_hi - x_lo) * unit), fmt((y_hi - y_lo) * unit)
    sw = opts.stroke_width * unit
    parts = ['<?xml version="1.0" encoding="UTF-8"?>',
             f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="#ffffff"/>']
    if opts.show_grid_dots:
        for v in win.vertices():
            empty = v[0] % 2 == 1 and v[1] % 2 == 1
            if empty and not opts.show_empty_vertices:
                continue
            x, y = point(v)
            parts.append(f'<circle cx="{fmt(x)}" cy="{fmt(y)}" '
                         f'r="{fmt(unit * (0.05 if empty else 0.06))}" '
                         f'fill="{EMPTY_DOT_COLOR if empty else DOT_COLOR}"/>')
    for side, segments, color, dash in (
            ("back", design.back, BACK_COLOR,
             f' stroke-dasharray="{fmt(unit * 0.18)} {fmt(unit * 0.12)}"'),
            ("front", design.front, FRONT_COLOR, "")):
        if opts.side not in (side, "both"):
            continue
        for seg in sorted(segments):
            (x1, y1), (x2, y2) = (point(v) for v in segment_endpoints(seg))
            parts.append(f'<line x1="{fmt(x1)}" y1="{fmt(y1)}" x2="{fmt(x2)}" y2="{fmt(y2)}" '
                         f'stroke="{color}" stroke-width="{fmt(sw)}" '
                         f'stroke-linecap="round"{dash}/>')
    for cyc in opts.highlight:
        pts = " ".join(",".join(map(fmt, point(v))) for v in cyc.vertices)
        parts.append(f'<polygon points="{pts}" fill="none" stroke="{HIGHLIGHT_COLOR}" '
                     f'stroke-width="{fmt(sw * 1.6)}" stroke-linejoin="round"/>')
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


@settings(max_examples=30, deadline=None)
@given(st.tuples(mixed_spec, mixed_spec, mixed_spec), convention,
       st.integers(-9, 9), st.integers(-9, 9), st.integers(0, 14), st.integers(0, 14))
def test_svg_matches_the_sorted_segment_set_reference(specs, conv, i0, j0, w, h):
    design = generate_design(Window(i0, i0 + w, j0, j0 + h), StitchPattern(specs, conv))
    hexagram = Cycle((i0, j0), koch_polygon(1).codes)
    for side, mirror, dots, empty, highlight in product(
            ("front", "back", "both"), *[(False, True)] * 4):
        opts = RenderOptions(side=side, mirror_back=mirror, show_grid_dots=dots,
                             show_empty_vertices=empty,
                             highlight=(hexagram,) if highlight else ())
        assert to_svg(design, opts) == _reference_svg(design, opts)
