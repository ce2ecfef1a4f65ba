"""Independent Koch snowflake construction and design verification.

koch_polygon builds snowflake iterates by pure turtle geometry: the unit
triangle's three steps, then `order` rounds of the unit-step substitution
that replaces each step by four, the middle two bumping outward by 60
degrees. It never looks at words, stitch rules or the calibration, so a
verification hit is genuine cross-validation: two unrelated constructions
producing the same cycle.

verify_koch stitches the order-n word in all three directions and asks
whether some front cycle is the order-n polygon, up to lattice isometry. It
walks no candidate's cycles: every iterate of order >= 1 is mapped onto a
translate of itself by each lattice point symmetry, so it places the polygon
alone. The Koch lattice is square, so a period translation moves any hit
whose least i or least j lies a period or more past the window's to a
lesser hit. So each design is built only on the sub-window that holds the
placements anchored in the period cell at the window's least corner. There
it intersects shifted bitmaps of each family's forward front stitches, read
from the front direction codes, until only the placements whose every edge
is a front stitch are left. A hit is re-found by the component walk on its
bounding window and matched by motif signature before it is returned.

KOCH_PHASES, koch_pattern and koch_window are the Koch design conventions
the CLI and tools share: the phases at which the search succeeds, the
order-n word stitched in all three families, and verify-koch's default
window.
"""
from __future__ import annotations

from typing import NamedTuple

from .design_graph import (Cycle, build_components, family_codes, motif_signature,
                           walk_vertices)
from .errors import InvalidOrderError, WindowError
from .grid import Window
from .stitcher import (Design, DirectionSpec, StitchPattern, generate_design,
                       translation_basis)

# Relative word phases under which the snowflake verification succeeds;
# reused as defaults so rendered Koch charts actually contain the snowflake.
KOCH_PHASES = (0, 0, 1)


def koch_directions(order: int) -> list[int]:
    """Unit-step direction indices tracing the order-k snowflake
    counterclockwise from the origin: the triangle (0, 2, 4) with every
    step d replaced `order` times by the four steps d, d - 1, d + 1, d
    (mod 6), whose middle two bump outward by 60 degrees."""
    dirs = [0, 2, 4]
    for _ in range(order):
        dirs = [e for d in dirs for e in (d, (d + 5) % 6, (d + 1) % 6, d)]
    return dirs


def koch_polygon(order: int) -> Cycle:
    """Construct the order-k snowflake, traced from the origin: order 0 is
    the bare triangle, order 1 the hexagram.

    Asserts the contract while building: 3 * 4**k unit segments, a walk
    that closes up, and base side displacement exactly (3**k, 0);
    Cycle.from_vertices raises ValueError if the polygon repeats a vertex.
    """
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        raise InvalidOrderError(f"polygon order must be an integer >= 0, got {order!r}")
    dirs = koch_directions(order)
    assert len(dirs) == 3 * 4 ** order
    vs = walk_vertices((0, 0), bytes(d + 1 for d in dirs))
    assert vs[-1] == (0, 0), "direction word must close up"
    assert vs[4 ** order] == (3 ** order, 0), "base side must span 3**order"
    return Cycle.from_vertices(list(vs[:-1]))


class VerificationResult(NamedTuple):
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
# anchors are checked one by one in the code maps. Each AND costs a pass
# over the window, and after 64 edges few anchors are left (12 at order 4),
# so the order-6 polygon's 12,288 edges are not all ANDed.
_BITMAP_EDGES = 64

# Per family F, a bytes.translate table that makes code F + 1 the ASCII
# digit "1" and every other byte "0".
_FORWARD_DIGITS = tuple(bytes(ord("1") if b == f + 1 else ord("0") for b in range(256))
                        for f in range(3))


def _bitmap(codes: bytearray, family: int) -> int:
    """Bit v is set when byte v of the family's code map is family + 1: a
    stitch of the family leaves vertex v forward."""
    digits = codes.translate(_FORWARD_DIGITS[family])
    digits.reverse()
    return int(digits, 2)


def _find_polygon(design: Design, image: Cycle) -> Cycle | None:
    """The front cycle of the design with the least least-vertex among the
    translates of the image, or None.

    Each image edge from offset o by code c asks for a front stitch there;
    an edge with c > 3 is asked from its other end by code c - 3. Codes 1-3
    are the forward directions of families A, B and C, so each edge asks
    whether byte anchor + o of one family's front code map
    (design_graph.family_codes) is that family's forward code. The anchors
    start as every index a that keeps a + o inside the window for each
    offset o. The first _BITMAP_EDGES edges AND in their family's bitmap,
    built when an edge first needs it, shifted right by o, stopping at the
    first empty mask; every surviving anchor, in increasing order, then has
    its remaining edges looked up in the code maps. The first anchor that
    passes is the least vertex of its translate.

    A placement that wraps across a row edge of the window never passes:
    code F + 1 at a vertex marks an in-window stitch whose far end, holding
    F + 4, is the vertex one step on in the edge's direction and has the
    next polygon vertex's index, so from the anchor on every vertex of a
    passing placement is the in-window translate of the image's.
    """
    win = design.window
    j_count = win.j_count
    maps = family_codes(design, "front")
    offsets = [i * j_count + j for i, j in image.vertices]
    mask = (1 << max(len(maps[0]) - max(offsets), 0)) - 1
    # (offset, family): a front stitch of the family leaves anchor + offset forward
    edges = [(o, code - 1) if code <= 3 else (after, code - 4)
             for o, after, code in zip(offsets, offsets[1:] + offsets[:1], image.codes)]
    bitmaps: list[int | None] = [None, None, None]
    for offset, family in edges[:_BITMAP_EDGES]:
        if bitmaps[family] is None:
            bitmaps[family] = _bitmap(maps[family], family)
        mask &= bitmaps[family] >> offset
        if not mask:
            return None
    rest = [(o, maps[family], family + 1) for o, family in edges[_BITMAP_EDGES:]]
    # bit a of the mask is the character len(bits) - 1 - a of bin(mask)
    bits = bin(mask)
    pos = bits.rfind("1", 2)
    while pos >= 2:
        a = len(bits) - 1 - pos
        if all(codes[a + o] == forward for o, codes, forward in rest):
            return Cycle((win.i_min + a // j_count, win.j_min + a % j_count), image.codes)
        pos = bits.rfind("1", 2, pos)
    return None


def find_koch(design: Design, polygon: Cycle) -> Cycle | None:
    """The front cycle of the design that is a translate of the polygon,
    the one with the least least-vertex, or None. A hit is re-found by the
    component walk on its bounding window, and its shape matched to the
    polygon's by motif signature, before it is returned."""
    hit = _find_polygon(design, Cycle((0, 0), polygon.codes))
    if hit is None:
        return None
    cycles, _ = build_components(generate_design(_box(hit), design.pattern), side="front")
    if hit not in cycles:
        raise AssertionError(f"placement search hit at {hit.start} is not a front cycle")
    if motif_signature(hit) != motif_signature(polygon):
        raise AssertionError(f"placement search hit at {hit.start} is not the polygon's shape")
    return hit


def phase_period(order: int) -> int:
    """Period of the order-n palindromic word sequence, hence the number of
    distinct phases per family."""
    return len(DirectionSpec.koch(order).bits)


def phase_candidates(order: int) -> list[tuple[int, int, int]]:
    """The phases verify_koch's search tries, in order: (0, b, c) for b in
    (0, 1) and c below phase_period(order), one per orbit of the translation
    argument in verify_koch's docstring.

    The A phase is fixed at 0, so these cover half of the phase space's
    translation classes: no translation changes the A phase's parity, and
    the classes with A phase 1 are not visited."""
    return [(0, b, c) for b in (0, 1) for c in range(phase_period(order))]


def verify_koch(order: int, window: Window,
                phases: tuple[int, int, int] | None = None) -> VerificationResult:
    """Does the order-n word design contain the order-n snowflake?

    The order-n word is stitched in all three directions (palindromic
    repetition). Given phases, only that design is tried. Without them the
    relative word alignments for families B and C are scanned in
    lexicographic order, family A fixed at phase 0, and the first success
    wins; a scan that finds nothing reports phases (0, 0, 0). A match is a
    front cycle congruent to the polygon, i.e. equal to it up to lattice
    isometry. found=False is a result, not an error.

    Within one design find_koch returns the congruent front cycle with the
    least least-vertex, the first that a walk over build_components'
    cycles, which are listed by least vertex, would meet:
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

    Each design is built on one period cell of anchors, the sub-window
    i_min..i_min + X + A - 2 by j_min..j_min + Y + B - 2 of the given
    window, where X by Y is the polygon's extent in vertices and (A, B) the
    period cell. It has the same least hit as the whole window:
    - The Koch lattice is square, with basis (A, 0), (0, B) (checked
      below). translation_basis reads only the least periods of the row
      bits, and a phase rotates a family's row bits and may complement them,
      which keeps their least period, so the basis is the same at every
      phase.
    - Take a hit whose least i is at least i_min + A. Its translate by
      (-A, 0) is a front cycle of the infinite design, lies in the window,
      and has the lesser least vertex. So does the translate by (0, -B) of
      a hit whose least j is at least j_min + B. So the least hit of the
      window has its least i and least j within one period of i_min and
      j_min, and lies in the sub-window; a hit in the sub-window is a hit
      of the window, since the sub-window's front stitches are the window's
      there.

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
      less one vertex in each axis (checked below), and the sub-window
      searched is that much of it. So any copy of the polygon
      in the infinite design can be moved by a period translation to lie
      inside the sub-window, where it is a front cycle; and a front cycle
      of the sub-window is one of the infinite design, whose stitch graph
      has maximum degree 2.
      Whether a candidate has a hit is therefore the same across each orbit
      of the translations above.
    - Every orbit holds a candidate with b <= 1, lexicographically no later
      than its other members. So the first hit of the full scan has b <= 1,
      and the quotient scan, which visits those candidates in the same
      order, meets it first too, with the same design and matched cycle.

    The full scan, and so this search, fixes the A phase at 0 and does not
    visit the other half of the phase space. Translating design (a, b, c) by
    (0, 4t) gives design (a - 2t, b, c - 2t), and by (4t, 0) design
    (a, b - 2t, c - 2t), so no translation changes the A phase's parity, and
    the designs with A phase 1 are never tried.
    """
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise InvalidOrderError(f"verification order must be an integer >= 1, got {order!r}")
    polygon = koch_polygon(order)
    box = _box(polygon)
    (a, _), (e, b) = translation_basis(koch_pattern(order, (0, 0, 0)))
    if e:
        raise AssertionError(f"the order-{order} Koch lattice is not square: E = {e}")
    anchors = Window(window.i_min, window.i_min + box.i_count + a - 2,
                     window.j_min, window.j_min + box.j_count + b - 2)
    if anchors.i_max > window.i_max or anchors.j_max > window.j_max:
        raise WindowError(
            f"window {window} cannot hold an order-{order} polygon "
            f"({box.i_count}x{box.j_count}) with a {(a, b)} period cell of anchors")

    for cand in phase_candidates(order) if phases is None else [phases]:
        hit = find_koch(generate_design(anchors, koch_pattern(order, cand)), polygon)
        if hit is not None:
            return VerificationResult(True, dict(enumerate(cand)), hit)
    return VerificationResult(False, dict(enumerate(phases or (0, 0, 0))), None)
