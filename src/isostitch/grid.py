"""Triangular-lattice geometry: vertices, line families, segments, windows.

Lattice coordinates: vertex (i, j) sits at Cartesian (i + j/2, j*sqrt(3)/2).
The three line families and their integer coordinates through (i, j):

    family A: direction (1, 0),        line coordinate a = j
    family B: direction (1/2, r3/2),   line coordinate b = i
    family C: direction (-1/2, r3/2),  line coordinate c = i + j

so c = a + b always. A design is "dilute" when only every second line of each
family carries stitches: line k of family F is present when
k % 2 == PRESENCE_PARITY[F]. The presence parity is fixed at (0, 0, 1), so
every vertex lies on exactly 0 or 2 present lines; only the stitch
alternation (phase base and slope) is a convention, and `calibrate` varies
just that.
"""
from __future__ import annotations

import math
from enum import IntEnum
from typing import Iterator, NamedTuple

from .errors import WindowError

SQRT3_2 = math.sqrt(3.0) / 2.0

# Unit edge directions, counterclockwise from the +x axis (indices 0..5).
DIRECTIONS: tuple[tuple[int, int], ...] = (
    (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
DIRECTION_INDEX = {d: n for n, d in enumerate(DIRECTIONS)}


def point_directions(rotation: int, reflect: bool) -> tuple[int, ...]:
    """The lattice's 12-element point group on direction indices: d goes to
    (rotation + d) mod 6, or to (rotation - d) mod 6 when reflect, which
    reflects across the +x axis before rotating by rotation * 60 degrees."""
    sign = -1 if reflect else 1
    return tuple((rotation + sign * d) % 6 for d in range(6))


class Family(IntEnum):
    A = 0
    B = 1
    C = 2


class SegmentId(NamedTuple):
    family: int
    k: int
    s: int


PRESENCE_PARITY: tuple[int, int, int] = (0, 0, 1)
MAX_WINDOW_VERTICES = 20_000_000


class GridConvention(NamedTuple):
    """Parity conventions fixing stitch alternation on the present lines.

    phase_base/phase_slope anchor how stitch alternation on one present line
    relates to the next; their default values come from the calibration
    search (cli module) and are frozen here.
    """

    phase_base: tuple[int, int, int] = (0, 0, 0)
    phase_slope: tuple[int, int, int] = (1, 1, 1)


DEFAULT_CONVENTION = GridConvention()

EMPTY = "empty"
VISITED = "visited"


class Window(NamedTuple):
    i_min: int
    i_max: int
    j_min: int
    j_max: int

    def contains(self, v: tuple[int, int]) -> bool:
        return self.i_min <= v[0] <= self.i_max and self.j_min <= v[1] <= self.j_max

    def is_interior(self, v: tuple[int, int]) -> bool:
        """True when all six lattice neighbors of v lie in the window."""
        i, j = v
        return (self.i_min < i < self.i_max and self.j_min < j < self.j_max
                and self.contains((i + 1, j - 1)) and self.contains((i - 1, j + 1)))

    @property
    def i_count(self) -> int:
        return self.i_max - self.i_min + 1

    @property
    def j_count(self) -> int:
        return self.j_max - self.j_min + 1

    def vertex_count(self) -> int:
        return self.i_count * self.j_count

    def vertices(self) -> Iterator[tuple[int, int]]:
        for i in range(self.i_min, self.i_max + 1):
            for j in range(self.j_min, self.j_max + 1):
                yield (i, j)

    def validate(self) -> "Window":
        if self.i_min > self.i_max or self.j_min > self.j_max:
            raise WindowError(f"degenerate window {self}")
        if self.vertex_count() > MAX_WINDOW_VERTICES:
            raise WindowError(f"window {self} exceeds {MAX_WINDOW_VERTICES} vertices")
        return self


def vertex_to_cartesian(v: tuple[int, int]) -> tuple[float, float]:
    i, j = v
    return (i + j / 2.0, j * SQRT3_2)


def vertex_degree_class(v: tuple[int, int]) -> str:
    """EMPTY when v lies on no present line, VISITED when it lies on two.

    Under PRESENCE_PARITY (0, 0, 1), A-line j and B-line i are absent when
    j and i are odd, and C-line i + j when i + j is even. So a vertex with
    i and j both odd lies on no present line, and every other vertex on
    exactly two.
    """
    i, j = v
    return EMPTY if i & j & 1 else VISITED


def segment_endpoints(seg: SegmentId) -> tuple[tuple[int, int], tuple[int, int]]:
    f, k, s = seg
    if f == Family.A:
        return (s, k), (s + 1, k)
    if f == Family.B:
        return (k, s), (k, s + 1)
    return (k - s, s), (k - s - 1, s + 1)


def segment_between(u: tuple[int, int], v: tuple[int, int]) -> SegmentId:
    """The unique SegmentId whose endpoints are the neighboring vertices u, v."""
    d = (v[0] - u[0], v[1] - u[1])
    if d not in DIRECTION_INDEX:
        raise ValueError(f"{u} and {v} are not lattice neighbors")
    if DIRECTION_INDEX[d] >= 3:
        u, v = v, u
        d = (-d[0], -d[1])
    if d == (1, 0):
        return SegmentId(Family.A, u[1], u[0])
    if d == (0, 1):
        return SegmentId(Family.B, u[0], u[1])
    return SegmentId(Family.C, u[0] + u[1], u[1])
