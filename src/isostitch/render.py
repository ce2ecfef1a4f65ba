"""Deterministic SVG rendering of stitch designs.

Output is plain SVG 1.1 with one <line> element per stitched segment, fixed
four-decimal coordinate formatting and a fixed element order (grid dots,
back, front, highlight polygons), so identical inputs give identical bytes
on any platform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .design_graph import Cycle
from .grid import EMPTY, Window, segment_endpoints, vertex_degree_class, vertex_to_cartesian
from .stitcher import Design

FRONT_COLOR = "#1a1a1a"
BACK_COLOR = "#8a8a8a"
HIGHLIGHT_COLOR = "#c22800"
DOT_COLOR = "#b0b0b0"
EMPTY_DOT_COLOR = "#e3e3e3"


@dataclass(frozen=True)
class RenderOptions:
    side: str = "front"                  # "front" | "back" | "both"
    mirror_back: bool = False
    show_grid_dots: bool = False
    show_empty_vertices: bool = False
    highlight: tuple[Cycle, ...] = ()
    stroke_width: float = 0.12
    unit_px: float = 16.0

    def __post_init__(self):
        if self.side not in ("front", "back", "both"):
            raise ValueError(f"side must be front, back or both, not {self.side!r}")
        if not (0 < self.unit_px < math.inf and 0 < self.stroke_width < math.inf):
            raise ValueError("unit_px and stroke_width must be positive and finite, "
                             f"got {self.unit_px} and {self.stroke_width}")


def _fmt(x: float) -> str:
    s = f"{x:.4f}"
    return "0.0000" if s == "-0.0000" else s


class _Canvas:
    """Maps lattice vertices to page coordinates (y down, optional x flip)."""

    def __init__(self, window: Window, unit_px: float, mirror_x: bool):
        xs, ys = [], []
        for corner in ((window.i_min, window.j_min), (window.i_max, window.j_min),
                       (window.i_min, window.j_max), (window.i_max, window.j_max)):
            x, y = vertex_to_cartesian(corner)
            xs.append(x)
            ys.append(y)
        pad = 1.0
        self.x_lo, self.x_hi = min(xs) - pad, max(xs) + pad
        self.y_lo, self.y_hi = min(ys) - pad, max(ys) + pad
        self.unit = unit_px
        self.mirror_x = mirror_x
        self.width = (self.x_hi - self.x_lo) * unit_px
        self.height = (self.y_hi - self.y_lo) * unit_px

    def point(self, v: tuple[int, int]) -> tuple[float, float]:
        x, y = vertex_to_cartesian(v)
        if self.mirror_x:
            x = self.x_hi + self.x_lo - x
        return (x - self.x_lo) * self.unit, (self.y_hi - y) * self.unit


def _line(canvas: _Canvas, seg, color: str, width: float, dashed: bool) -> str:
    (x1, y1), (x2, y2) = (canvas.point(p) for p in segment_endpoints(seg))
    dash = ' stroke-dasharray="{0} {1}"'.format(
        _fmt(canvas.unit * 0.18), _fmt(canvas.unit * 0.12)) if dashed else ""
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{_fmt(width)}" stroke-linecap="round"{dash}/>')


def to_svg(design: Design, opts: RenderOptions = RenderOptions()) -> bytes:
    """Render the design to SVG bytes.

    Element order is fixed: grid dots, back segments, front segments,
    highlight polygons. The back side is drawn dashed in a secondary color;
    mirror_back flips the whole page left-right, the view of the physical
    fabric turned over.
    """
    mirror = opts.mirror_back and opts.side in ("back", "both")
    canvas = _Canvas(design.window, opts.unit_px, mirror)
    sw = opts.stroke_width * opts.unit_px
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(canvas.width)}" height="{_fmt(canvas.height)}" '
        f'viewBox="0 0 {_fmt(canvas.width)} {_fmt(canvas.height)}">',
        f'<rect width="{_fmt(canvas.width)}" height="{_fmt(canvas.height)}" fill="#ffffff"/>',
    ]
    if opts.show_grid_dots:
        r_vis = _fmt(opts.unit_px * 0.06)
        r_empty = _fmt(opts.unit_px * 0.05)
        for v in design.window.vertices():
            empty = vertex_degree_class(v) == EMPTY
            if empty and not opts.show_empty_vertices:
                continue
            x, y = canvas.point(v)
            color = EMPTY_DOT_COLOR if empty else DOT_COLOR
            r = r_empty if empty else r_vis
            parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{r}" fill="{color}"/>')
    if opts.side in ("back", "both"):
        for seg in sorted(design.back):
            parts.append(_line(canvas, seg, BACK_COLOR, sw, dashed=True))
    if opts.side in ("front", "both"):
        for seg in sorted(design.front):
            parts.append(_line(canvas, seg, FRONT_COLOR, sw, dashed=False))
    for cyc in opts.highlight:
        pts = " ".join("{0},{1}".format(*map(_fmt, canvas.point(v))) for v in cyc.vertices)
        parts.append(f'<polygon points="{pts}" fill="none" stroke="{HIGHLIGHT_COLOR}" '
                     f'stroke-width="{_fmt(sw * 1.6)}" stroke-linejoin="round"/>')
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")
