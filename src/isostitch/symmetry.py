"""Point symmetries, wallpaper group, and self-duality.

Isometries of the triangular lattice are affine maps v -> M v + t in lattice
coordinates, where M is one of the 12 integer point-group matrices (6
rotations by multiples of 60 degrees, optionally preceded by the reflection
across the +x axis) and t is an integer translation.

All symmetry claims are certified on a finite window: a candidate isometry g
is accepted only if the stitched segments agree exactly with their g-images
wherever both are visible, and only if that overlap is big enough to contain
a full period cell of the design (otherwise the test would be vacuous and an
OverlapTooSmallError is raised). Periodicity extends a certified patch
symmetry to the whole plane.

The search uses exact integer and rational arithmetic, no floats. For a
reflection M, the pure reflections are (M, k n), where n is the primitive
integer vector with (M + I) n = 0. A verified reflection (M, t) is a mirror
when some k n lies in t + Lambda, tested on the Hermite-form basis of the
translation lattice Lambda (stitcher.translation_basis), and a proper glide
otherwise. Its mirror witness is the pure reflection of that class nearest
the window middle a: least Q(M a + k n - a), where Q(x, y) = x^2 + xy + y^2
is four times the squared distance from a to the axis, with exact ties
going to the lesser translation.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import count
from math import gcd

from .errors import OverlapTooSmallError
from .grid import (DIRECTIONS, SegmentId, Window, point_directions, segment_between,
                   segment_endpoints)
from .stitcher import Design, period_cell, translation_basis

Matrix = tuple[tuple[int, int], tuple[int, int]]


def point_matrix(rotation: int, reflect: bool) -> Matrix:
    """Reflection across +x first (when requested), then rotation: the
    matrix whose columns are the images of directions 0 and 1, the lattice
    basis, under grid.point_directions."""
    d0, d1 = point_directions(rotation, reflect)[:2]
    (a, c), (b, d) = DIRECTIONS[d0], DIRECTIONS[d1]
    return ((a, b), (c, d))


def _apply(m: Matrix, t: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    return (m[0][0] * v[0] + m[0][1] * v[1] + t[0],
            m[1][0] * v[0] + m[1][1] * v[1] + t[1])


@dataclass(frozen=True)
class LatticeIsometry:
    rotation: int = 0
    reflect: bool = False
    translation: tuple[int, int] = (0, 0)
    center: tuple[Fraction, Fraction] | None = None
    role: str = ""

    def matrix(self) -> Matrix:
        return point_matrix(self.rotation, self.reflect)


def _invert(m: Matrix, t: tuple[int, int]) -> tuple[Matrix, tuple[int, int]]:
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    mi: Matrix = ((m[1][1] // det, -m[0][1] // det),
                  (-m[1][0] // det, m[0][0] // det))
    ti = _apply(mi, (0, 0), t)
    return mi, (-ti[0], -ti[1])


def _overlap_has_cell(win: Window, m: Matrix, t: tuple[int, int],
                      cell: tuple[int, int]) -> bool:
    """Is there an integer-anchored period cell visible on both sides of g?"""
    ci, cj = cell

    def fits(x: int, y: int) -> bool:
        for dx, dy in ((0, 0), (ci, 0), (0, cj), (ci, cj)):
            u = (x + dx, y + dy)
            if not win.contains(u) or not win.contains(_apply(m, t, u)):
                return False
        return True

    cx = (win.i_min + win.i_max) // 2
    cy = (win.j_min + win.j_max) // 2
    for ax in (cx - ci // 2, cx - ci // 2 - (t[0] + 1) // 2):
        for ay in (cy - cj // 2, cy - cj // 2 - (t[1] + 1) // 2):
            for dx in (0, -ci, ci):
                for dy in (0, -cj, cj):
                    if fits(ax + dx, ay + dy):
                        return True
    for x in range(win.i_min, win.i_max - ci + 1):
        for y in range(win.j_min, win.j_max - cj + 1):
            if fits(x, y):
                return True
    return False


def _segment_sets_match(source: frozenset[SegmentId], target: frozenset[SegmentId],
                        win: Window, m: Matrix, t: tuple[int, int]) -> bool:
    """Exact agreement of target with the g-image of source on the overlap:
    g maps source onto target wherever both ends are visible, both ways."""
    mi, ti = _invert(m, t)
    for seg in source:
        u, v = segment_endpoints(seg)
        gu, gv = _apply(m, t, u), _apply(m, t, v)
        if win.contains(gu) and win.contains(gv) and segment_between(gu, gv) not in target:
            return False
    for seg in target:
        u, v = segment_endpoints(seg)
        gu, gv = _apply(mi, ti, u), _apply(mi, ti, v)
        if win.contains(gu) and win.contains(gv) and segment_between(gu, gv) not in source:
            return False
    return True


def _maps_front_onto(design: Design, iso: LatticeIsometry,
                     target: frozenset[SegmentId]) -> bool:
    """Does iso map the front stitches exactly onto target (the front or the
    back) on the window overlap? Raises OverlapTooSmallError unless the
    overlap contains at least one full period cell."""
    m, t = iso.matrix(), iso.translation
    cell = period_cell(design.pattern)
    if not _overlap_has_cell(design.window, m, t, cell):
        raise OverlapTooSmallError(
            f"overlap of {design.window} with its image leaves no {cell} period cell")
    return _segment_sets_match(design.front, target, design.window, m, t)


def is_symmetry(design: Design, iso: LatticeIsometry) -> bool:
    """Certify that iso maps the front stitches exactly onto themselves on
    the window overlap. Requires the overlap to contain at least one full
    period cell; raises OverlapTooSmallError otherwise. The identity is a
    symmetry of any design."""
    if iso.rotation % 6 == 0 and not iso.reflect and iso.translation == (0, 0):
        return True
    return _maps_front_onto(design, iso, design.front)


def _fixing(rotation: int, reflect: bool, c: tuple) -> LatticeIsometry | None:
    """The isometry with point part (rotation, reflect) that fixes the point
    c, centered at c; None when its translation part is not integral."""
    mc = _apply(point_matrix(rotation, reflect), (0, 0), c)
    tx, ty = c[0] - mc[0], c[1] - mc[1]
    if tx.denominator != 1 or ty.denominator != 1:
        return None
    return LatticeIsometry(rotation, reflect, (int(tx), int(ty)), center=c)


def _candidate_centers(cell: tuple[int, int], kinds: str, anchor: tuple[int, int]):
    """Rotation-center candidates in one period cell near the anchor:
    lattice vertices (v), edge midpoints (e), triangle barycenters (t).
    Centers repeat modulo the translation lattice, so one cell anchored at
    the window middle covers every class while keeping the certified overlap
    inside the window."""
    out = []
    for i in range(anchor[0], anchor[0] + cell[0]):
        for j in range(anchor[1], anchor[1] + cell[1]):
            fi, fj = Fraction(i), Fraction(j)
            if "v" in kinds:
                out.append((fi, fj))
            if "e" in kinds:
                out.append((fi + Fraction(1, 2), fj))
                out.append((fi, fj + Fraction(1, 2)))
                out.append((fi + Fraction(1, 2), fj + Fraction(1, 2)))
            if "t" in kinds:
                out.append((fi + Fraction(1, 3), fj + Fraction(1, 3)))
                out.append((fi + Fraction(2, 3), fj + Fraction(2, 3)))
    return out


def _norm(v: tuple[int, int]) -> int:
    """Q(x, y) = x^2 + xy + y^2, the squared length of a lattice vector."""
    return v[0] * v[0] + v[0] * v[1] + v[1] * v[1]


def _kernel_line(m: Matrix) -> tuple[int, int]:
    """The primitive integer n with (M + I) n = 0 for a reflection M: the
    pure reflections with point part M are exactly (M, k n)."""
    p, q = next(row for row in ((m[0][0] + 1, m[0][1]), (m[1][0], m[1][1] + 1))
                if row != (0, 0))
    g = gcd(p, q)
    return -q // g, p // g


class _Engine:
    """Bounded symmetry search for one design side."""

    def __init__(self, design: Design):
        self.design = design
        self.basis = translation_basis(design.pattern)
        self.cell = (self.basis[0][0], self.basis[1][1])
        win = design.window
        self.anchor = ((win.i_min + win.i_max) // 2, (win.j_min + win.j_max) // 2)

    def rotation_hits(self) -> tuple[int, list[LatticeIsometry]]:
        """Maximal rotation order and every verified center at that order."""
        for step, order, kinds in ((1, 6, "v"), (2, 3, "vt"), (3, 2, "ve")):
            hits = []
            for c in _candidate_centers(self.cell, kinds, self.anchor):
                iso = _fixing(step, False, c)
                if iso is not None and is_symmetry(self.design, iso):
                    hits.append(iso)
            if hits:
                return order, hits
        return 1, []

    def cell_rows(self, rotation: int, reflect: bool):
        """Translations in one period cell around the one that makes the
        point part fix the anchor, one row per first coordinate."""
        bt = _fixing(rotation, reflect, self.anchor).translation
        for ti in range(self.cell[0]):
            yield [(bt[0] + ti, bt[1] + tj) for tj in range(self.cell[1])]

    def _in_lattice(self, v: tuple[int, int]) -> bool:
        """Is v in Lambda? Read off the Hermite-form basis (a, 0), (e, b)."""
        (a, _), (e, b) = self.basis
        return v[1] % b == 0 and (v[0] - v[1] // b * e) % a == 0

    def reflection_survey(self) -> dict[int, dict[str, LatticeIsometry]]:
        """Per axis direction r (axis angle 30*r degrees): a verified mirror
        and/or proper glide witness, when they exist.

        Translation parts are scanned over one period cell around the value
        that parks the axis at the window middle, so certified overlaps exist
        on off-center windows too. The k with k n in t + Lambda repeat with
        period q, the least k > 0 with k n in Lambda."""
        out: dict[int, dict[str, LatticeIsometry]] = {}
        for r in range(6):
            m = point_matrix(r, True)
            n = _kernel_line(m)
            q = next(k for k in count(1) if self._in_lattice((k * n[0], k * n[1])))
            found: dict[str, LatticeIsometry] = {}
            for row in self.cell_rows(r, True):
                for t in row:
                    iso = LatticeIsometry(rotation=r, reflect=True, translation=t)
                    if not is_symmetry(self.design, iso):
                        continue
                    k0 = next((k for k in range(q)
                               if self._in_lattice((k * n[0] - t[0], k * n[1] - t[1]))), None)
                    if k0 is None:
                        found.setdefault("glide", iso)
                    elif "mirror" not in found:
                        found["mirror"] = self._pure_mirror(r, m, n, k0, q)
                if len(found) == 2:
                    break
            if found:
                out[r] = found
        return out

    def _pure_mirror(self, r: int, m: Matrix, n: tuple[int, int],
                     k0: int, q: int) -> LatticeIsometry:
        """The pure reflection (M, k n), k = k0 mod q, nearest the window
        middle a, by Q(M a + k n - a), then least translation. M a - a = c n,
        so the nearest k are the two of the class next to -c."""
        a = self.anchor
        d = _apply(m, (-a[0], -a[1]), a)
        c = d[0] // n[0] if n[0] else d[1] // n[1]
        lo = -c - (-c - k0) % q
        tt = min(((k * n[0], k * n[1]) for k in (lo, lo + q)),
                 key=lambda s: (_norm(_apply(m, (s[0] - a[0], s[1] - a[1]), a)), s))
        assert _apply(m, tt, tt) == (0, 0), "glide vector did not cancel"
        center = (Fraction(tt[0], 2), Fraction(tt[1], 2))
        iso = LatticeIsometry(rotation=r, reflect=True, translation=tt, center=center)
        assert is_symmetry(self.design, iso)
        return iso

    def on_mirror(self, c: tuple[Fraction, Fraction]) -> bool:
        """Does some verified mirror axis pass through the point c?"""
        for r in range(6):
            iso = _fixing(r, True, c)
            if iso is not None and is_symmetry(self.design, iso):
                return True
        return False


def classify_wallpaper(design: Design) -> tuple[str, list[LatticeIsometry]]:
    """Wallpaper group of the design's front, with verified witnesses.

    Bounded search: translation generators come from the word periods, the
    maximal rotation order is taken over all center candidates in one period
    cell, and mirror/glide axes are scanned over translations in one cell.
    The standard decision tree then names the group. Every returned witness
    passes is_symmetry; nothing is trusted unverified.
    """
    eng = _Engine(design)
    win = design.window
    ci, cj = eng.cell
    if win.i_count < 3 * ci or win.j_count < 3 * cj:
        raise OverlapTooSmallError(
            f"window {win} spans fewer than 3 period cells {eng.cell} per direction")

    witnesses: list[LatticeIsometry] = []
    for g in eng.basis:
        iso = LatticeIsometry(translation=g, role="translation")
        if not is_symmetry(design, iso):
            raise AssertionError(f"translation basis {g} failed verification")
        witnesses.append(iso)

    order, rot_hits = eng.rotation_hits()
    if rot_hits:
        witnesses.append(replace(rot_hits[0], role=f"rotation-{order}"))

    survey = eng.reflection_survey()
    mirrors = {r: d["mirror"] for r, d in survey.items() if "mirror" in d}
    glides = {r: d["glide"] for r, d in survey.items() if "glide" in d}
    for role, found in (("mirror", mirrors), ("glide", glides)):
        witnesses += [replace(iso, role=role) for _, iso in sorted(found.items())]

    has_mirror = bool(mirrors)
    has_glide = bool(glides)

    if order == 6:
        group = "p6mm" if has_mirror else "p6"
    elif order == 3:
        if not has_mirror:
            group = "p3"
        elif all(eng.on_mirror(h.center) for h in rot_hits):
            group = "p3m1"
        else:
            group = "p31m"
    elif order == 2:
        if not has_mirror:
            group = "pgg" if has_glide else "p2"
        elif any(r in mirrors and (r + 3) % 6 in mirrors for r in range(3)):
            group = "pmm" if all(eng.on_mirror(h.center) for h in rot_hits) else "cmm"
        else:
            group = "pmg"
    else:
        if has_mirror:
            group = "cm" if has_glide else "pm"
        else:
            group = "pg" if has_glide else "p1"

    for iso in witnesses:
        if not is_symmetry(design, iso):
            raise AssertionError(f"witness {iso} failed re-verification")
    if group == "p6mm" and len(mirrors) < 2:
        return "Unknown", witnesses
    return group, witnesses


def is_self_dual(design: Design) -> tuple[bool, LatticeIsometry | None]:
    """Search for a lattice isometry mapping the front onto the back: the 12
    point operations composed with translations in one period cell, in a
    fixed canonical order. The witness is the first isometry whose image of
    the front matches the back on the window overlap; it is returned as
    found, with no second check."""
    eng = _Engine(design)
    for reflect in (False, True):
        for rotation in range(6):
            for row in eng.cell_rows(rotation, reflect):
                for t in row:
                    iso = LatticeIsometry(rotation, reflect, t, role="self-dual")
                    if _maps_front_onto(design, iso, design.back):
                        return True, iso
    return False, None
