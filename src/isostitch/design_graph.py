"""One side of a design as a graph on lattice vertices: split it into closed
cycles and boundary-cut open paths, and count cycles up to lattice isometry.

Cycle shape is compared through a canonical form of the edge-direction
sequence (alphabet 0..5, counterclockwise from +x): the lexicographically
least string over all cyclic rotations, both traversal directions, and the 12
point symmetries of the lattice. Two cycles get the same signature exactly
when some lattice isometry maps one onto the other.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .grid import DIRECTION_INDEX
from .stitcher import Design, side_parity


@dataclass(frozen=True)
class Cycle:
    """A closed stitch path; vertices[n] neighbors vertices[n+1] and the last
    vertex neighbors the first. Stored in a canonical rotation: starts at the
    least vertex and proceeds toward its lesser cycle-neighbor."""

    vertices: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.vertices)

    @classmethod
    def from_vertices(cls, verts: list[tuple[int, int]]) -> "Cycle":
        n = len(verts)
        start = min(range(n), key=lambda idx: verts[idx])
        nxt, prv = verts[(start + 1) % n], verts[(start - 1) % n]
        if prv < nxt:
            ordered = [verts[(start - idx) % n] for idx in range(n)]
        else:
            ordered = [verts[(start + idx) % n] for idx in range(n)]
        return cls(tuple(ordered))

    def directions(self) -> list[int]:
        out = []
        for a, b in zip(self.vertices, self.vertices[1:] + self.vertices[:1]):
            out.append(DIRECTION_INDEX[(b[0] - a[0], b[1] - a[1])])
        return out


@dataclass(frozen=True)
class MotifCensus:
    counts: dict[str, int]
    open_paths: int

    def total_cycles(self) -> int:
        return sum(self.counts.values())


def build_components(design: Design, side: str) -> tuple[list[Cycle], list[tuple[tuple[int, int], ...]]]:
    """Decompose one side into cycles and open paths.

    Stitch graphs have maximum degree 2, so every component is a simple path
    or a simple cycle; open paths can only occur where the window boundary
    cut a loop. Works from the design's line rows without building segment
    sets: vertex (i, j) lies on A-line j at position i, B-line i at position
    j and C-line i + j at position j, and on each present line its stitch on
    this side runs to position p + 1 when (p + row) has the side's parity,
    else to p - 1, if that segment lies in the line's range.

    Deterministic: cycles are listed by least vertex, each starting there
    and proceeding toward its lesser neighbor (Cycle's canonical form);
    paths run from their lesser endpoint and are listed in that endpoint's
    order.
    """
    parity = side_parity(side)
    win = design.window
    a_rows, b_rows, c_rows = ({k: (s_lo, s_hi, row) for k, s_lo, s_hi, row in rows}
                              for rows in design.lines)

    def neighbours(i: int, j: int) -> list[tuple[int, int]]:
        out = []
        for line, p, di, dj in ((a_rows.get(j), i, 1, 0), (b_rows.get(i), j, 0, 1),
                                (c_rows.get(i + j), j, -1, 1)):
            if line is not None:
                s_lo, s_hi, row = line
                if (p + row) % 2 == parity:
                    if s_lo <= p <= s_hi:
                        out.append((i + di, j + dj))
                elif s_lo < p <= s_hi + 1:
                    out.append((i - di, j - dj))
        return out

    j_count = win.j_count
    seen = bytearray(win.vertex_count())

    def walk(start: tuple[int, int], first: tuple[int, int]) -> tuple[list[tuple[int, int]], bool]:
        """Follow the stitches from start through first; returns the vertices
        visited and whether the walk closed back onto start."""
        out = [start]
        prev, cur = start, first
        while cur != start:
            out.append(cur)
            seen[(cur[0] - win.i_min) * j_count + cur[1] - win.j_min] = 1
            ahead = [v for v in neighbours(*cur) if v != prev]
            if not ahead:
                return out, False
            prev, cur = cur, ahead[0]
        return out, True

    cycles: list[Cycle] = []
    paths: list[tuple[tuple[int, int], ...]] = []
    for idx, v in enumerate(win.vertices()):
        if seen[idx]:
            continue
        seen[idx] = 1
        nbs = sorted(neighbours(*v))
        if not nbs:
            continue
        # v is the least vertex of its component: every lesser one was seen
        verts, closed = walk(v, nbs[0])
        if closed:
            cycles.append(Cycle(tuple(verts)))
            continue
        if len(nbs) == 2:
            verts = walk(v, nbs[1])[0][:0:-1] + verts
        paths.append(tuple(verts) if verts[0] < verts[-1] else tuple(reversed(verts)))
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


def _direction_variants(dirs: list[int]) -> list[str]:
    variants = []
    rev = [(dd + 3) % 6 for dd in reversed(dirs)]
    for seq in (dirs, rev):
        for r in range(6):
            variants.append("".join(str((dd + r) % 6) for dd in seq))
            variants.append("".join(str((r - dd) % 6) for dd in seq))
    return variants


def motif_signature(cycle: Cycle) -> str:
    """Canonical form of the cycle's edge-direction sequence, invariant under
    translation, the 12 lattice point symmetries, and traversal direction."""
    return min(_least_rotation(v) for v in _direction_variants(cycle.directions()))


def cycle_matches(cycle: Cycle, reference: Cycle) -> bool:
    return motif_signature(cycle) == motif_signature(reference)


def motif_census(design: Design, side: str) -> MotifCensus:
    """Count closed components per signature class; open paths are reported
    separately and never classified (they are window artifacts)."""
    cycles, paths = build_components(design, side)
    counts = Counter(motif_signature(c) for c in cycles)
    ordered = dict(sorted(counts.items(), key=lambda kv: (len(kv[0]), kv[0])))
    return MotifCensus(ordered, len(paths))
