"""Independent Koch snowflake construction and design verification.

koch_polygon builds snowflake iterates by pure turtle geometry: an
up-pointing triangle of side 3^order, then `order` rounds of the outward
edge replacement (each straight run of length L becomes four runs of length
L/3, bumping outward by 60 degrees). It never looks at words, stitch rules
or the calibration, so a verification hit is genuine cross-validation: two
unrelated constructions producing the same cycle.

verify_koch stitches the order-n word in all three directions and asks
whether some front cycle is the order-n polygon, up to lattice isometry. It
walks no candidate's cycles: every iterate of order >= 1 is mapped onto a
translate of itself by each lattice point symmetry, so it places the polygon
alone at every window vertex where it fits, and intersects shifted bitmaps
of the front stitches per direction until only the placements whose every
edge is a front stitch are left. A hit is re-found by the component walk on
its bounding window and matched by motif signature before it is returned.

KOCH_PHASES, koch_pattern and koch_window are the Koch design conventions
the CLI and tools share: the phases at which the search succeeds, the
order-n word stitched in all three families, and verify-koch's default
window.
"""
from __future__ import annotations

from dataclasses import dataclass

from .design_graph import Cycle, build_components, direction_slots, motif_signature
from .errors import InvalidOrderError, WindowError
from .grid import DIRECTIONS, Window
from .stitcher import Design, DirectionSpec, StitchPattern, generate_design
from .symmetry import period_cell

# Relative word phases under which the snowflake verification succeeds;
# reused as defaults so rendered Koch charts actually contain the snowflake.
KOCH_PHASES = (0, 0, 1)


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


def koch_polygon(order: int) -> Cycle:
    """Construct the order-k snowflake, traced from the origin: order 0 is
    the bare triangle, order 1 the hexagram.

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
    return Cycle.from_vertices(vs)


@dataclass(frozen=True)
class VerificationResult:
    found: bool
    phases: dict[int, int]
    matched_cycle: Cycle | None


def koch_pattern(order: int, phases: tuple[int, int, int]) -> StitchPattern:
    """The order-n word stitched in families A, B and C at the given phases."""
    return StitchPattern(specs=tuple(DirectionSpec.koch(order, phase=p) for p in phases))


def koch_window(order: int) -> Window:
    """verify-koch's default window, 0:4*3^n+8 on both axes: the order-n
    polygon and one period cell of margin fit in it."""
    side = 4 * 3 ** order + 8
    return Window(0, side, 0, side).validate()


def _box(cycle: Cycle) -> Window:
    """The least window holding the cycle."""
    verts = cycle.vertices
    return Window(min(i for i, _ in verts), max(i for i, _ in verts),
                  min(j for _, j in verts), max(j for _, j in verts))


# Edges of a placement checked as shifted bitmaps before the surviving
# anchors are checked one by one in the direction slots. Each AND costs a
# pass over the window, and after 64 edges few anchors are left (12 at
# order 4), so the order-6 polygon's 12,288 edges are not all ANDed.
_BITMAP_EDGES = 64


def _code_bitmap(slot: bytearray, code: int) -> int:
    """Bit v is set when slot v holds code."""
    digits = slot.translate(bytes(49 if c == code else 48 for c in range(256)))  # ASCII 1/0
    digits.reverse()
    return int(digits, 2)


def _find_polygon(design: Design, image: Cycle) -> Cycle | None:
    """The front cycle of the design with the least least-vertex among the
    translates of the image, or None.

    Each image edge from offset o by code c asks for a front stitch there;
    an edge with c > 3 is asked from its other end by code c - 3, so only
    codes 1-3 need a bitmap. The anchors start as every index a that keeps
    a + o inside the slots for each offset o. The first _BITMAP_EDGES edges
    AND in their code's bitmap shifted right by o, stopping at the first
    empty mask; every surviving anchor, in increasing order, then has its
    remaining edges checked in direction_slots. The first anchor that passes
    is the least vertex of its translate.

    A placement that wraps across a row edge of the window never passes:
    an edge found in direction_slots is an in-window stitch whose far end
    has the next polygon vertex's index, so from the anchor on every vertex
    of a passing placement is the in-window translate of the image's.
    """
    win = design.window
    j_count = win.j_count
    one, two = direction_slots(design, "front")
    bitmaps = {code: _code_bitmap(one, code) | _code_bitmap(two, code) for code in (1, 2, 3)}
    offsets = [i * j_count + j for i, j in image.vertices]
    mask = (1 << max(len(one) - max(offsets), 0)) - 1
    edges = [(o, code) if code <= 3 else (after, code - 3)
             for o, after, code in zip(offsets, offsets[1:] + offsets[:1], image.codes)]
    for offset, code in edges[:_BITMAP_EDGES]:
        mask &= bitmaps[code] >> offset
        if not mask:
            return None
    rest = edges[_BITMAP_EDGES:]
    # bit a of the mask is the character len(bits) - 1 - a of bin(mask)
    bits = bin(mask)
    pos = bits.rfind("1", 2)
    while pos >= 2:
        a = len(bits) - 1 - pos
        if all(one[a + o] == c or two[a + o] == c for o, c in rest):
            return Cycle((win.i_min + a // j_count, win.j_min + a % j_count), image.codes)
        pos = bits.rfind("1", 2, pos)
    return None


def _confirm(hit: Cycle, polygon: Cycle, pattern: StitchPattern) -> None:
    """Re-find the hit by the component walk on its bounding window, and
    match its shape to the polygon's by motif signature."""
    cycles, _ = build_components(generate_design(_box(hit), pattern), side="front")
    if hit not in cycles:
        raise AssertionError(f"placement search hit at {hit.start} is not a front cycle")
    if motif_signature(hit) != motif_signature(polygon):
        raise AssertionError(f"placement search hit at {hit.start} is not the polygon's shape")


def phase_period(order: int) -> int:
    """Period of the order-n palindromic word sequence, hence the number of
    distinct phases per family."""
    return len(DirectionSpec.koch(order).bit_sequence())


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
    zero) are tried. A match is a front cycle congruent to the polygon,
    i.e. equal to it up to lattice isometry. found=False is a result, not an
    error.

    Within one design the placement search returns the congruent front
    cycle with the least least-vertex, the first that a walk over
    build_components' cycles, which are listed by least vertex, would meet:
    - A congruent cycle is the image of the polygon under some lattice
      isometry, a point symmetry followed by a translation. Every iterate
      of order >= 1 has the lattice's full six-fold dihedral symmetry, so
      each of the 12 point symmetries maps it onto a translate of itself:
      a congruent cycle is a translate of the polygon, and its least vertex
      is the translate of the polygon's least vertex.
    - Conversely, a translate lying inside the window whose every edge is a
      front stitch is a whole front component, because front vertices have
      degree at most 2: it is a front cycle of the window.
    - _find_polygon tests the placements of the polygon inside the window
      in increasing order of least vertex and returns the first that passes.

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
    box = _box(polygon)
    cell = period_cell(koch_pattern(order, (0, 0, 0)))
    if window.i_count < box.i_count + cell[0] or window.j_count < box.j_count + cell[1]:
        raise WindowError(
            f"window {window} cannot hold an order-{order} polygon "
            f"({box.i_count}x{box.j_count}) with a {cell} period cell of margin")

    image = Cycle((0, 0), polygon.codes)
    hit = None
    for cand in phase_candidates(order) if phase_search else [phases]:
        pattern = koch_pattern(order, cand)
        hit = _find_polygon(generate_design(window, pattern), image)
        if hit is not None:
            _confirm(hit, polygon, pattern)
            phases = cand
            break
    return VerificationResult(found=hit is not None, phases=dict(enumerate(phases)),
                              matched_cycle=hit)
