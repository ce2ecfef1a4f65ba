"""One side of a design as a graph on lattice vertices: split it into closed
cycles and open paths (mostly pieces of infinite strands), and count cycles
up to lattice isometry.

Cycle shape is compared through a canonical form of the edge-direction
sequence (alphabet 0..5, counterclockwise from +x): the lexicographically
least string over all cyclic rotations, both traversal directions, and the 12
point symmetries of the lattice. Two cycles get the same signature exactly
when some lattice isometry maps one onto the other.
"""
from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .grid import DIRECTION_INDEX, DIRECTIONS, Family, point_directions
from .stitcher import Design


# Direction code c in 1..6 is direction index c - 1; code 0 means no stitch.
# _REVERSE[c] is the code of the opposite direction, and as a bytes.translate
# table it reverses every step of a code string.
_REVERSE = bytes.maketrans(b"\1\2\3\4\5\6", b"\4\5\6\1\2\3")


def _steps(j_count: int) -> tuple[int, ...]:
    """Index offset of one step by each direction code (0: none) when
    vertex (i, j) has index i * j_count + j."""
    return (0,) + tuple(di * j_count + dj for di, dj in DIRECTIONS)


def walk_vertices(start: tuple[int, int], codes: bytes) -> tuple[tuple[int, int], ...]:
    """The vertices of the walk that steps by codes from start: start, then
    the vertex each step reaches."""
    i, j = start
    out = [start]
    for code in codes:
        di, dj = DIRECTIONS[code - 1]
        i, j = i + di, j + dj
        out.append((i, j))
    return tuple(out)


class Cycle(NamedTuple):
    """A closed stitch path in canonical form: start is its least vertex,
    and codes holds the direction code (1..6, direction index + 1) of each
    step, starting toward start's lesser cycle-neighbor. The last step
    returns to start.

    len() counts the steps, not the two fields, so the tuple's _make and
    _replace, which check the field count by len(), do not apply."""

    start: tuple[int, int]
    codes: bytes

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def vertices(self) -> tuple[tuple[int, int], ...]:
        """The vertices in canonical order, each a neighbor of the next and
        the last a neighbor of the first."""
        return walk_vertices(self.start, self.codes[:-1])

    @classmethod
    def from_vertices(cls, verts: list[tuple[int, int]]) -> "Cycle":
        """The cycle through verts in order (any rotation, either way round),
        read from its least vertex toward that vertex's lesser neighbour.
        Raises ValueError unless the vertices are distinct and each, the
        last included, is a unit lattice step from the previous one."""
        n = len(verts)
        if n < 3:
            raise ValueError(f"a cycle needs at least 3 vertices, got {n}")
        if len(set(verts)) != n:
            raise ValueError("a cycle visits each of its vertices once")
        codes = bytearray()
        for a, b in zip(verts, verts[1:] + verts[:1]):
            d = DIRECTION_INDEX.get((b[0] - a[0], b[1] - a[1]))
            if d is None:
                raise ValueError(f"{tuple(a)} to {tuple(b)} is not a unit lattice step")
            codes.append(d + 1)
        least = verts.index(min(verts))
        codes = codes[least:] + codes[:least]
        if verts[least - 1] < verts[(least + 1) % n]:
            codes = codes[::-1].translate(_REVERSE)
        return cls(tuple(verts[least]), bytes(codes))


class MotifCensus(NamedTuple):
    counts: dict[str, int]
    open_paths: int

    def total_cycles(self) -> int:
        return sum(self.counts.values())


def family_codes(design: Design, side: str) -> tuple[bytearray, bytearray, bytearray]:
    """Per family F, the direction code of each window vertex's stitch on
    its F-line on one side: F + 1 where the stitch leaves the vertex
    forward, F + 4 where it leaves backward, 0 where there is none.

    Vertices are numbered v = (i - i_min) * j_count + (j - j_min), so index
    order is vertex order. A vertex lies on at most one line of each family,
    and a line's stitches alternate sides, so it has at most one stitch of
    a side there and each byte is written once. Each row of Design.runs
    fills its family's map with one strided slice: the row's stitches run
    forward from every second position, so from its first stitch to its
    last stitch's far end the codes alternate F + 1, F + 4, ... Position p
    of line k is vertex (p, k) on an A-line, (k, p) on a B-line and
    (k - p, p) on a C-line, whose index step 1 - j_count is negative, so
    its slice is taken the other way and gets the reversed pattern.
    """
    win = design.window
    j_count = win.j_count
    n = win.vertex_count()
    maps = (bytearray(n), bytearray(n), bytearray(n))
    step = _steps(j_count)
    for family, k, p, count in design.runs(side):
        i, j = (p, k) if family == Family.A else (k, p) if family == Family.B else (k - p, p)
        v = (i - win.i_min) * j_count + j - win.j_min
        d = step[family + 1]
        pattern = (family + 1, family + 4)
        if d < 0:
            v, d, pattern = v + (2 * count - 1) * d, -d, pattern[::-1]
        maps[family][v:v + (2 * count - 1) * d + 1:d] = bytes(pattern) * count
    return maps


def build_components(design: Design, side: str) -> tuple[list[Cycle], list[tuple[tuple[int, int], bytes]]]:
    """Decompose one side into cycles and open paths.

    Stitch graphs have maximum degree 2, so every component is a simple path
    or a simple cycle. An open path is a component the window boundary cut:
    mostly a piece of an infinite strand of the design, sometimes a loop.

    Works from the design's line rows without building segment sets, on the
    per-family direction codes of family_codes. A walk steps idx +=
    step[code]. Arriving by a code of family F, it has used the vertex's
    F-line stitch, and the vertex lies on one line of the other two
    families, so it leaves by the non-zero code of those two maps. It
    keeps the codes it steps by: a closed walk's codes are its Cycle's, and
    an open path is (start, codes) too, its vertices walk_vertices(start,
    codes). The scan jumps to the next unseen vertex with bytearray.find;
    one with no stitch on this side, an empty vertex among them, has no
    code in any map and starts nothing.

    Deterministic: cycles are listed by least vertex, each starting there
    and proceeding toward its lesser neighbor (Cycle's canonical form);
    paths run from their lesser endpoint and are listed in that endpoint's
    order.
    """
    win = design.window
    j_count = win.j_count
    n = win.vertex_count()
    maps = a_codes, b_codes, c_codes = family_codes(design, side)
    step = _steps(j_count)
    # others[c]: the maps of the two families other than that of code c
    others = [()] + [(maps[(f + 1) % 3], maps[(f + 2) % 3]) for f in (0, 1, 2) * 2]

    seen = bytearray(n)

    def point(v: int) -> tuple[int, int]:
        i, j = divmod(v, j_count)
        return win.i_min + i, win.j_min + j

    def walk(start: int, code: int) -> tuple[bytearray, int]:
        """Follow the stitches from start, leaving it by code; returns the
        codes of the steps taken and the index where the walk stopped,
        start itself when it closed."""
        codes = bytearray((code,))
        cur = start + step[code]
        while cur != start:
            seen[cur] = 1
            near, far = others[code]
            code = near[cur] or far[cur]
            if not code:
                break
            codes.append(code)
            cur += step[code]
        return codes, cur

    cycles: list[Cycle] = []
    paths: list[tuple[tuple[int, int], bytes]] = []
    v = seen.find(0)
    while v >= 0:
        # v lies on two lines: a B code stands in for a missing A or C code
        first, other = a_codes[v], c_codes[v]
        if not first:
            first = b_codes[v]
        elif not other:
            other = b_codes[v]
        # leave v toward its lesser neighbour, the one at the smaller offset
        if not first or (other and step[other] < step[first]):
            first, other = other, first
        if first:
            # v is the least vertex of its component: every lesser one was seen
            codes, end = walk(v, first)
            if end == v:
                cycles.append(Cycle(point(v), bytes(codes)))
            else:
                # splice in, reversed, the half of the path behind v if any
                back, start = walk(v, other) if other else (b"", v)
                codes = back[::-1].translate(_REVERSE) + codes
                if start > end:
                    start, codes = end, codes[::-1].translate(_REVERSE)
                paths.append((point(start), bytes(codes)))
        v = seen.find(0, v + 1)
    paths.sort()
    return cycles, paths


def _least_rotation(s: str) -> str:
    """Booth's algorithm: lexicographically least cyclic rotation of s."""
    d = s + s
    n = len(s)
    f = [-1] * len(d)
    k = 0
    for j in range(1, len(d)):
        sj = d[j]
        i = f[j - k - 1]
        while i != -1 and sj != d[k + i + 1]:
            if sj < d[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != d[k + i + 1]:
            if sj < d[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return d[k:k + n]


# One bytes.translate table per lattice point symmetry: direction code d + 1
# becomes the code of its image under grid.point_directions. Reversing a
# traversal turns each direction d into d + 3, which only permutes these 12
# tables, so the reversed codes need no table of their own.
_POINT_CODES = tuple(
    bytes.maketrans(b"\1\2\3\4\5\6", bytes(d + 1 for d in point_directions(r, reflect)))
    for r in range(6) for reflect in (False, True))
# Direction code d + 1 becomes the ASCII digit of d, the signature alphabet.
_DIGITS = bytes.maketrans(b"\1\2\3\4\5\6", b"012345")


def motif_signature(cycle: Cycle) -> str:
    """Canonical form of the cycle's edge-direction sequence, invariant under
    translation, the 12 lattice point symmetries, and traversal direction.

    It is the least of the least rotations of 24 variants, the codes forwards
    and reversed under each point symmetry. A variant that is a rotation of
    one already reduced has the same least rotation and is skipped, so a
    cycle that point symmetries map onto itself costs fewer Booth runs. The
    variants that trace the cycle counterclockwise are never rotations of
    the clockwise ones, so a Koch iterate of order >= 1, which every point
    symmetry maps onto itself, costs two: one per sense.
    """
    codes = cycle.codes
    doubled: list[bytes] = []
    for seq in (codes, codes[::-1]):
        for table in _POINT_CODES:
            variant = seq.translate(table)
            if not any(variant in d for d in doubled):
                doubled.append(variant + variant)
    n = len(codes)
    return min(_least_rotation(d[:n].translate(_DIGITS).decode()) for d in doubled)


def motif_census(design: Design, side: str) -> MotifCensus:
    """Count closed components per signature class; open paths are reported
    separately and never classified (window-cut pieces, mostly of strands).

    Translates share their codes, so the cycles are counted by codes first
    and each distinct shape is signed once."""
    cycles, paths = build_components(design, side)
    counts: Counter[str] = Counter()
    for codes, n in Counter(c.codes for c in cycles).items():
        counts[motif_signature(Cycle((0, 0), codes))] += n
    ordered = dict(sorted(counts.items(), key=lambda kv: (len(kv[0]), kv[0])))
    return MotifCensus(ordered, len(paths))
