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
from dataclasses import dataclass
from itertools import accumulate

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


def _canonical(codes: bytes) -> tuple[int, bytes]:
    """Canonical form of the closed walk that steps by codes from some
    vertex: the index of its least vertex (vertex k is reached after k
    steps), and the codes from there toward that vertex's lesser neighbour.

    The walk must visit each vertex once. Its vertices are ranked by running
    sums of _steps(2n + 1): coordinates stay within n of the first vertex,
    so i * (2n + 1) + j orders them as (i, j) does.
    """
    n = len(codes)
    keys = list(accumulate(map(_steps(2 * n + 1).__getitem__, codes[:-1]), initial=0))
    least = keys.index(min(keys))
    codes = codes[least:] + codes[:least]
    if keys[least - 1] < keys[(least + 1) % n]:
        codes = codes[::-1].translate(_REVERSE)
    return least, codes


@dataclass(frozen=True, slots=True)
class Cycle:
    """A closed stitch path in canonical form: start is its least vertex,
    and codes holds the direction code (1..6, direction index + 1) of each
    step, starting toward start's lesser cycle-neighbor. The last step
    returns to start."""

    start: tuple[int, int]
    codes: bytes

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def vertices(self) -> tuple[tuple[int, int], ...]:
        """The vertices in canonical order, each a neighbor of the next and
        the last a neighbor of the first."""
        i, j = self.start
        out = [self.start]
        for code in self.codes[:-1]:
            di, dj = DIRECTIONS[code - 1]
            i, j = i + di, j + dj
            out.append((i, j))
        return tuple(out)

    @classmethod
    def from_vertices(cls, verts: list[tuple[int, int]]) -> "Cycle":
        """The cycle through verts in order (any rotation, either way round).
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
        start, canonical = _canonical(bytes(codes))
        return cls(tuple(verts[start]), canonical)


@dataclass(frozen=True)
class MotifCensus:
    counts: dict[str, int]
    open_paths: int

    def total_cycles(self) -> int:
        return sum(self.counts.values())


def direction_slots(design: Design, side: str) -> tuple[bytearray, bytearray]:
    """Per window vertex, the direction codes of its stitches on one side.

    Vertices are numbered v = (i - i_min) * j_count + (j - j_min), so index
    order is vertex order. A visited vertex lies on two present lines: A-line
    j at position i and C-line i + j at position j, with B-line i at position
    j taking the slot that is free. On each present line a stitch of this
    side runs from position p to p + 1 when (p + row) has the side's parity
    and p lies in the line's range, so the positions with a stitch forward
    are every second one (Design.runs gives the first and their count), and
    their partners the positions just after them.
    Two bytearrays hold per vertex the direction code toward its partner on
    each line (0 where there is none), filled by slice assignment with the
    line's stride of two positions (2*j_count for A-lines, 2 for B-lines,
    2*(1 - j_count) for C-lines). Every stitch is recorded at both ends.
    """
    win = design.window
    j_count = win.j_count
    n = win.vertex_count()
    one, two = bytearray(n), bytearray(n)
    step = _steps(j_count)

    def put(slot: bytearray, v: int, stride: int, count: int, code: int) -> None:
        if stride < 0:
            v, stride = v + (count - 1) * stride, -stride
        slot[v:v + (count - 1) * stride + 1:stride] = bytes((code,)) * count

    # p is the first position stitched forward; family F's lines run in
    # direction F: code F + 1 ahead, F + 4 back
    for family, k, p, count in design.runs(side):
        d = step[family + 1]
        if family == Family.A:
            v, ahead, behind = (p - win.i_min) * j_count + k - win.j_min, one, one
        elif family == Family.B:
            v = (k - win.i_min) * j_count + p - win.j_min
            # vertex (k, p) is on A-line p when p is even, else on C-line k + p
            ahead, behind = (two, one) if p % 2 == 0 else (one, two)
        else:
            v, ahead, behind = (k - p - win.i_min) * j_count + p - win.j_min, two, two
        put(ahead, v, 2 * d, count, family + 1)
        put(behind, v + d, 2 * d, count, family + 4)
    return one, two


def build_components(design: Design, side: str) -> tuple[list[Cycle], list[tuple[tuple[int, int], ...]]]:
    """Decompose one side into cycles and open paths.

    Stitch graphs have maximum degree 2, so every component is a simple path
    or a simple cycle. An open path is a component the window boundary cut:
    mostly a piece of an infinite strand of the design, sometimes a loop.

    Works from the design's line rows without building segment sets, on the
    per-vertex direction codes of direction_slots. A walk steps idx +=
    step[code] and leaves each vertex by the slot that is not the reverse of
    the code it arrived by, and keeps the codes it steps by: a closed walk's
    codes are its Cycle's. The empty vertices (i and j both odd) start out
    seen, and the scan jumps to the next unseen vertex with bytearray.find.

    Deterministic: cycles are listed by least vertex, each starting there
    and proceeding toward its lesser neighbor (Cycle's canonical form);
    paths run from their lesser endpoint and are listed in that endpoint's
    order.
    """
    win = design.window
    j_count = win.j_count
    n = win.vertex_count()
    one, two = direction_slots(design, side)
    step = _steps(j_count)

    seen = bytearray(n)
    i_odd, j_odd = win.i_min | 1, win.j_min | 1
    if j_odd <= win.j_max:
        mark = b"\x01" * ((win.j_max - j_odd) // 2 + 1)
        for i in range(i_odd, win.i_max + 1, 2):
            v = (i - win.i_min) * j_count + j_odd - win.j_min
            seen[v:v + 2 * len(mark) - 1:2] = mark

    i_vals = list(range(win.i_min, win.i_max + 1))
    j_vals = list(range(win.j_min, win.j_max + 1))

    def points(idxs: list[int]) -> tuple[tuple[int, int], ...]:
        return tuple([(i_vals[v // j_count], j_vals[v % j_count]) for v in idxs])

    def walk(start: int, code: int) -> tuple[bytearray, bool]:
        """Follow the stitches from start, leaving it by code; returns the
        codes of the steps taken and whether the walk closed back onto
        start."""
        codes = bytearray((code,))
        cur = start + step[code]
        while cur != start:
            seen[cur] = 1
            back = _REVERSE[code]
            code = one[cur]
            if code == back:
                code = two[cur]
            if not code:
                return codes, False
            codes.append(code)
            cur += step[code]
        return codes, True

    def trail(start: int, codes: bytearray) -> list[int]:
        """The vertices an open walk from start visits."""
        out = [start]
        for code in codes:
            out.append(out[-1] + step[code])
        return out

    cycles: list[Cycle] = []
    paths: list[tuple[tuple[int, int], ...]] = []
    v = seen.find(0)
    while v >= 0:
        seen[v] = 1
        first, other = one[v], two[v]
        # leave v toward its lesser neighbour, the one at the smaller offset
        if not first or (other and step[other] < step[first]):
            first, other = other, first
        if first:
            # v is the least vertex of its component: every lesser one was seen
            codes, closed = walk(v, first)
            if closed:
                cycles.append(Cycle((i_vals[v // j_count], j_vals[v % j_count]), bytes(codes)))
            else:
                verts = trail(v, codes)
                if other:
                    verts = trail(v, walk(v, other)[0])[:0:-1] + verts
                if verts[0] > verts[-1]:
                    verts.reverse()
                paths.append(points(verts))
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
