"""Independent Koch snowflake construction and design verification.

koch_polygon builds snowflake iterates by pure turtle geometry: an
up-pointing triangle of side 3^order, then `order` rounds of the outward
edge replacement (each straight run of length L becomes four runs of length
L/3, bumping outward by 60 degrees). It never looks at words, stitch rules
or the calibration, so a verification hit is genuine cross-validation: two
unrelated constructions producing the same cycle.

verify_koch stitches the order-n word in all three directions and asks
whether some front cycle is the order-n polygon, up to lattice isometry.
"""
from __future__ import annotations

from dataclasses import dataclass

from .design_graph import Cycle, build_components, motif_signature
from .errors import InvalidOrderError, WindowError
from .grid import DIRECTIONS, Window
from .stitcher import Design, DirectionSpec, StitchPattern, generate_design
from .symmetry import period_cell


@dataclass(frozen=True)
class KochPolygon:
    """Snowflake iterate as a simple lattice cycle. Order 0 is the bare
    triangle; order 1 the hexagram; order k has 3 * 4**k unit segments."""
    order: int
    cycle: Cycle

    @property
    def segment_count(self) -> int:
        return len(self.cycle)


def _replaced_side(direction: int, depth: int) -> list[int]:
    if depth == 0:
        return [direction]
    run = _replaced_side(direction, depth - 1)
    return (run + _replaced_side((direction + 5) % 6, depth - 1)
            + _replaced_side((direction + 1) % 6, depth - 1) + run)


def koch_directions(order: int) -> list[int]:
    """Unit-step direction indices tracing the order-k snowflake
    counterclockwise from the origin."""
    out: list[int] = []
    for d in (0, 2, 4):
        out += _replaced_side(d, order)
    return out


def scale_directions(dirs: list[int], factor: int = 3) -> list[int]:
    """The same polygon with every edge stretched by an integer factor."""
    out: list[int] = []
    for d in dirs:
        out += [d] * factor
    return out


def replace_runs(dirs: list[int]) -> list[int]:
    """One outward Koch replacement applied to every maximal straight run.
    Run lengths must be divisible by 3."""
    out: list[int] = []
    i = 0
    while i < len(dirs):
        j = i
        while j < len(dirs) and dirs[j] == dirs[i]:
            j += 1
        length = j - i
        if length % 3:
            raise ValueError(f"run of length {length} is not divisible by 3")
        d, third = dirs[i], length // 3
        out += [d] * third + [(d + 5) % 6] * third + [(d + 1) % 6] * third + [d] * third
        i = j
    return out


def directions_to_vertices(dirs: list[int],
                           start: tuple[int, int] = (0, 0)) -> list[tuple[int, int]]:
    """Accumulate unit steps into a closed vertex list (closure asserted)."""
    vs = [start]
    for d in dirs:
        di, dj = DIRECTIONS[d]
        vs.append((vs[-1][0] + di, vs[-1][1] + dj))
    if vs[-1] != start:
        raise AssertionError("direction word does not close up")
    return vs[:-1]


def koch_polygon(order: int) -> KochPolygon:
    """Construct the order-k snowflake anchored at the origin.

    Asserts the contract while building: 3 * 4**k unit segments and base
    side displacement exactly (3**k, 0); Cycle.from_vertices raises
    ValueError if the polygon repeats a vertex.
    """
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        raise InvalidOrderError(f"polygon order must be an integer >= 0, got {order!r}")
    dirs = koch_directions(order)
    assert len(dirs) == 3 * 4 ** order
    vs = directions_to_vertices(dirs)
    side = 3 ** order
    base_end = vs[4 ** order] if order else vs[1]
    assert base_end == (side, 0), "base side must span 3**order"
    return KochPolygon(order=order, cycle=Cycle.from_vertices(vs))


@dataclass(frozen=True)
class VerificationResult:
    found: bool
    phases: dict[int, int]
    matched_cycle: Cycle | None


def _pattern_for(order: int, phases: tuple[int, int, int]) -> StitchPattern:
    """The order-n word stitched in families A, B and C at the given phases."""
    return StitchPattern(specs=tuple(DirectionSpec.koch(order, phase=p) for p in phases))


def _design_contains_polygon(design: Design, length: int, target_sig) -> Cycle | None:
    cycles, _ = build_components(design, side="front")
    for cyc in cycles:
        if len(cyc) == length and motif_signature(cyc) == target_sig:
            return cyc
    return None


def phase_period(order: int) -> int:
    """Period of the order-n palindromic word sequence, hence the number of
    distinct phases per family."""
    return 2 * 3 ** (order - 1)


def phase_candidates(order: int) -> list[tuple[int, int, int]]:
    """The phases verify_koch's search tries, in order: (0, b, c) for b in
    (0, 1) and c below phase_period(order), one per orbit of the translation
    argument in verify_koch's docstring."""
    return [(0, b, c) for b in (0, 1) for c in range(phase_period(order))]


def verify_koch(order: int, window: Window, phase_search: bool = True,
                phases: tuple[int, int, int] = (0, 0, 0)) -> VerificationResult:
    """Does the order-n word design contain the order-n snowflake?

    The order-n word is stitched in all three directions (palindromic
    repetition). With phase_search the relative word alignments for families
    B and C are scanned in lexicographic order, family A fixed at phase 0,
    and the first success wins; otherwise only the given phases (default all
    zero) are tried. Matching is by motif signature, i.e. up to lattice
    isometry. found=False is a result, not an error.

    The search scans only the 2P candidates (0, b, c) with b in (0, 1) of
    the P^2 phase pairs (P = phase_period(order), which is even), and finds
    the same first hit as the full lexicographic scan:
    - Translating design (0, b, c) by (4t, 0) gives design (0, b - 2t,
      c - 2t) (phases mod P). It maps every A-line onto itself and moves
      each B- and C-line k to k + 4t, shifting its present-line ordinal by
      2t. The phase slope's 2t and the A-line positions' 4t are even, so
      each moved line keeps its row parity exactly when its phase drops by
      2t.
    - The window spans at least the polygon's extent plus one period cell
      in each axis (checked below). So any copy of the polygon in the
      infinite design can be moved by a period translation to lie inside
      the window, where it is a front cycle; and a front cycle of the
      window is one of the infinite design, whose stitch graph has maximum
      degree 2.
      Whether a candidate has a hit is therefore the same across each orbit
      of the translations above.
    - Every orbit holds a candidate with b <= 1, lexicographically no later
      than its other members. So the first hit of the full scan has b <= 1,
      and the quotient scan, which visits those candidates in the same
      order, meets it first too, with the same design and matched cycle.
    """
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise InvalidOrderError(f"verification order must be an integer >= 1, got {order!r}")
    polygon = koch_polygon(order)
    verts = polygon.cycle.vertices
    i_span = max(v[0] for v in verts) - min(v[0] for v in verts) + 1
    j_span = max(v[1] for v in verts) - min(v[1] for v in verts) + 1
    cell = period_cell(_pattern_for(order, (0, 0, 0)))
    if window.i_count < i_span + cell[0] or window.j_count < j_span + cell[1]:
        raise WindowError(
            f"window {window} cannot hold an order-{order} polygon "
            f"({i_span}x{j_span}) with a {cell} period cell of margin")

    target_sig = motif_signature(polygon.cycle)
    length = polygon.segment_count
    hit = None
    for cand in phase_candidates(order) if phase_search else [phases]:
        design = generate_design(window, _pattern_for(order, cand))
        hit = _design_contains_polygon(design, length, target_sig)
        if hit is not None:
            phases = cand
            break
    return VerificationResult(found=hit is not None, phases=dict(enumerate(phases)),
                              matched_cycle=hit)
