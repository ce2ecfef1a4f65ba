from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isostitch import (PRESENCE_PARITY, DirectionSpec, GridConvention,
                       LatticeIsometry, OverlapTooSmallError, SegmentId,
                       StitchPattern, Window, classify_wallpaper, cli, dual,
                       generate_design, is_self_dual, is_symmetry, period_cell,
                       segment_between, segment_endpoints, stitcher,
                       translation_basis)
from isostitch.design_graph import _POINT_CODES
from isostitch.grid import DIRECTIONS, point_directions
from isostitch.stitcher import _row_shift_period
from isostitch.symmetry import _apply, point_matrix
from stitch_rule import LineId, is_front, is_line_present


def _design(word: str, half: int | None = None):
    pat = StitchPattern.uniform(DirectionSpec.periodic(word))
    if half is None:
        ci, cj = period_cell(pat)
        half = max(4 * max(ci, cj), 24)
    return generate_design(Window(-half, half, -half, half), pat)


def _image(iso: LatticeIsometry, v: tuple[int, int]) -> tuple[int, int]:
    """The image of vertex v under iso."""
    return _apply(iso.matrix(), iso.translation, v)


def _matmul(p, q):
    return tuple(tuple(sum(p[r][k] * q[k][c] for k in range(2)) for c in range(2))
                 for r in range(2))


def test_point_matrices():
    identity = ((1, 0), (0, 1))
    rot60 = ((0, -1), (1, 1))        # 60 degrees counterclockwise
    mirror_x = ((1, 1), (0, -1))     # reflection across the +x axis
    assert point_matrix(0, False) == identity
    assert point_matrix(1, False) == rot60
    m = rot60
    for _ in range(5):
        m = _matmul(rot60, m)
    assert m == identity
    assert point_matrix(0, True) == mirror_x


_POINT_PARTS = [(r, reflect) for r in range(6) for reflect in (False, True)]


@pytest.mark.parametrize("rotation,reflect", _POINT_PARTS)
def test_point_matrix_and_point_codes_act_as_point_directions(rotation, reflect):
    perm = point_directions(rotation, reflect)
    m = point_matrix(rotation, reflect)
    for d, (x, y) in enumerate(DIRECTIONS):
        assert (m[0][0] * x + m[0][1] * y, m[1][0] * x + m[1][1] * y) == DIRECTIONS[perm[d]]
    codes = bytes(range(1, 7)).translate(_POINT_CODES[_POINT_PARTS.index((rotation, reflect))])
    assert codes == bytes(d + 1 for d in perm)


def test_composing_point_parts_composes_their_permutations():
    part_of = {point_directions(*part): part for part in _POINT_PARTS}
    assert len(part_of) == 12
    for p in _POINT_PARTS:
        for q in _POINT_PARTS:
            pp, pq = point_directions(*p), point_directions(*q)
            composed = tuple(pp[pq[d]] for d in range(6))
            assert composed in part_of
            assert _matmul(point_matrix(*p), point_matrix(*q)) == point_matrix(*part_of[composed])


def test_sixfold_rotation_has_order_six():
    iso = LatticeIsometry(rotation=1)
    v = (3, 1)
    out = v
    for _ in range(6):
        out = _image(iso, out)
    assert out == v


def test_translation_lattice_from_word_periods():
    assert translation_basis(
        StitchPattern.uniform(DirectionSpec.periodic("0"))) == ((4, 0), (0, 4))
    assert translation_basis(
        StitchPattern.uniform(DirectionSpec.periodic("01"))) == ((2, 0), (0, 2))
    assert translation_basis(
        StitchPattern.uniform(DirectionSpec.periodic("0001"))) == ((8, 0), (0, 8))
    assert period_cell(StitchPattern.uniform(DirectionSpec.koch(3))) == (36, 36)


def _reference_row_shift_period(pattern: StitchPattern, f: int) -> int:
    """The row-shift period by search: the least d with bit(m + d) equal to
    bit(m) xor (slope * d mod 2) for every m."""
    seq = pattern.specs[f].bit_sequence()
    slope = pattern.convention.phase_slope[f]
    p = len(seq)
    for d in range(1, 2 * p + 1):
        eps = (slope * d) % 2
        if all(int(seq[(m + d) % p]) == int(seq[m]) ^ eps for m in range(p)):
            return d
    raise AssertionError("unreachable: 2p always satisfies the condition")


_bits = st.tuples(*[st.integers(0, 1)] * 3)
# any of the 64 phase base/slope conventions
_convention = st.builds(GridConvention, phase_base=_bits, phase_slope=_bits)


@settings(max_examples=300, deadline=None)
@given(spec=st.builds(DirectionSpec.periodic, st.text(alphabet="01", min_size=1, max_size=12),
                      phase=st.integers(-30, 30)),
       convention=_convention, f=st.integers(0, 2))
def test_row_shift_period_is_the_least_period_found_by_search(spec, convention, f):
    pattern = StitchPattern.uniform(spec, convention)
    assert _row_shift_period(pattern, f) == _reference_row_shift_period(pattern, f)


@pytest.mark.parametrize("order", range(1, 7))
def test_row_shift_period_of_koch_words_matches_the_search(order):
    for slope in (0, 1):
        pattern = StitchPattern.uniform(DirectionSpec.koch(order, phase=order),
                                        GridConvention(phase_slope=(slope, slope, slope)))
        assert _row_shift_period(pattern, 0) == _reference_row_shift_period(pattern, 0)


def test_analyze_derives_the_translation_lattice_once(tmp_path, monkeypatch):
    # One row-shift period per family for the whole command, however many
    # isometries the searches check on the design and on its dual.
    calls = []
    period = stitcher._row_shift_period

    def counting(pattern, f):
        calls.append(f)
        return period(pattern, f)

    translation_basis.cache_clear()
    monkeypatch.setattr(stitcher, "_row_shift_period", counting)
    assert cli.main(["analyze", "--word-a", "01", "--word-b", "0", "--word-c", "0011",
                     "--phase-c", "1", "--window=-24:24:-24:24",
                     "--report", str(tmp_path / "r.json")]) == 0
    assert sorted(calls) == [0, 1, 2]


def test_identity_is_a_symmetry_of_any_design():
    d = _design("0", 2)
    assert is_symmetry(d, LatticeIsometry())


def test_basis_translations_are_symmetries_and_odd_ones_are_not():
    d = _design("0")
    g1, g2 = translation_basis(d.pattern)
    assert is_symmetry(d, LatticeIsometry(translation=g1))
    assert is_symmetry(d, LatticeIsometry(translation=g2))
    assert not is_symmetry(d, LatticeIsometry(translation=(1, 0)))
    assert not is_symmetry(d, LatticeIsometry(translation=(2, 0)))


def test_overlap_too_small_raises():
    d = _design("0", 4)
    with pytest.raises(OverlapTooSmallError):
        is_symmetry(d, LatticeIsometry(translation=(8, 0)))
    with pytest.raises(OverlapTooSmallError):
        classify_wallpaper(_design("0", 5))


def test_rotation_that_is_not_a_symmetry_returns_false():
    d = _design("0001")
    assert not is_symmetry(d, LatticeIsometry(rotation=1))


def test_hexagram_classifies_p6mm_on_both_sides():
    d = _design("0")
    for side in (d, dual(d)):
        group, witnesses = classify_wallpaper(side)
        assert group == "p6mm"
        assert all(is_symmetry(side, w) for w in witnesses)


def test_triangle_word_classifies_p3m1():
    d = _design("0001")
    group, witnesses = classify_wallpaper(d)
    assert group == "p3m1"
    group_back, _ = classify_wallpaper(dual(d))
    assert group_back == "p3m1"


def test_alternating_word_classifies_p3m1():
    d = _design("01")
    group, _ = classify_wallpaper(d)
    assert group == "p3m1"


def test_classification_works_on_corner_anchored_windows():
    pat = StitchPattern.uniform(DirectionSpec.periodic("0"))
    d = generate_design(Window(0, 39, 0, 39), pat)
    group, _ = classify_wallpaper(d)
    assert group == "p6mm"


def test_witness_roles_and_geometry():
    d = _design("0")
    group, witnesses = classify_wallpaper(d)
    roles = [w.role for w in witnesses]
    assert roles.count("translation") == 2
    assert "rotation-6" in roles
    mirrors = [w for w in witnesses if w.role == "mirror"]
    assert len(mirrors) == 6
    for w in mirrors:
        m = point_matrix(w.rotation, True)
        t = w.translation
        image = (m[0][0] * t[0] + m[0][1] * t[1] + t[0],
                 m[1][0] * t[0] + m[1][1] * t[1] + t[1])
        assert image == (0, 0), "mirror witnesses carry no glide component"
        assert w.center == (Fraction(t[0], 2), Fraction(t[1], 2))
    rot = next(w for w in witnesses if w.role == "rotation-6")
    assert rot.center is not None
    c = rot.center
    assert c[0].denominator == 1 and c[1].denominator == 1


def test_rotation_witness_for_threefold_group_sits_on_triangle_center_or_vertex():
    d = _design("0001")
    _, witnesses = classify_wallpaper(d)
    rot = next(w for w in witnesses if w.role.startswith("rotation"))
    assert rot.role == "rotation-3"
    denominators = {rot.center[0].denominator, rot.center[1].denominator}
    assert denominators <= {1, 3}


def test_self_duality_of_alternating_word():
    d = _design("01")
    found, witness = is_self_dual(d)
    assert found
    assert witness is not None
    assert (witness.rotation, witness.reflect, witness.translation) == (1, False, (0, 1))


def test_reference_words_that_are_not_self_dual():
    for word in ("0", "0001"):
        found, witness = is_self_dual(_design(word))
        assert not found and witness is None


def test_self_dual_witness_maps_front_onto_back():
    d = _design("01")
    _, witness = is_self_dual(d)
    from isostitch.grid import segment_between, segment_endpoints
    moved = set()
    for seg in d.front:
        u, v = segment_endpoints(seg)
        gu, gv = _image(witness, u), _image(witness, v)
        if d.window.contains(gu) and d.window.contains(gv):
            moved.add(segment_between(gu, gv))
    assert moved <= d.back
    assert len(moved) > len(d.back) // 2


def _exact_maps_front_onto(pattern: StitchPattern, iso: LatticeIsometry, flip: bool) -> bool:
    """Window-free reference: does iso map the front of the infinite design
    onto the front (flip=False) or onto the back (flip=True)?

    iso maps every line onto a line and positions along it by s -> +-s + c,
    and both sides alternate along a line, so the segment at s = 0 decides a
    whole line. Row parities repeat after the lcm of the row-shift periods,
    and moving by that many present lines moves the image position by an
    even amount, so one such period of ordinals per family decides all."""
    period = lcm(*(_row_shift_period(pattern, f) for f in range(3)))
    for f in range(3):
        for m in range(period):
            seg = SegmentId(f, 2 * m + PRESENCE_PARITY[f], 0)
            u, v = segment_endpoints(seg)
            image = segment_between(_image(iso, u), _image(iso, v))
            if not is_line_present(LineId(image.family, image.k)):
                return False
            if is_front(image, pattern) != (is_front(seg, pattern) ^ flip):
                return False
    return True


def _centered(rotation: int, reflect: bool, window: Window, shift: tuple[int, int]):
    """Isometry with the given point part fixing the window middle, then
    translated by shift."""
    c = ((window.i_min + window.i_max) // 2, (window.j_min + window.j_max) // 2)
    mc = _image(LatticeIsometry(rotation, reflect), c)
    return LatticeIsometry(rotation, reflect,
                           (c[0] - mc[0] + shift[0], c[1] - mc[1] + shift[1]))


_word = st.text(alphabet="01", min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(words=st.tuples(_word, _word, _word),
       phases=st.tuples(*[st.integers(0, 2)] * 3),
       base=_bits, slope=_bits,
       cells=st.integers(3, 4), corner=st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
       rotation=st.integers(0, 5), reflect=st.booleans(),
       shift=st.tuples(st.integers(0, 99), st.integers(0, 99)))
def test_is_symmetry_agrees_with_exact_oracle(words, phases, base, slope, cells, corner,
                                               rotation, reflect, shift):
    pattern = StitchPattern(
        specs=tuple(DirectionSpec.periodic(w, phase=p) for w, p in zip(words, phases)),
        convention=GridConvention(phase_base=base, phase_slope=slope))
    ci, cj = period_cell(pattern)
    window = Window(corner[0], corner[0] + cells * ci, corner[1], corner[1] + cells * cj)
    iso = _centered(rotation, reflect, window, (shift[0] % ci, shift[1] % cj))
    try:
        certified = is_symmetry(generate_design(window, pattern), iso)
    except OverlapTooSmallError:
        return
    assert certified == _exact_maps_front_onto(pattern, iso, flip=False)


@pytest.mark.parametrize("pattern", [
    StitchPattern.uniform(DirectionSpec.periodic("0")),
    StitchPattern.uniform(DirectionSpec.periodic("01")),
    StitchPattern.uniform(DirectionSpec.periodic("0001")),
    StitchPattern(specs=(DirectionSpec.periodic("0"), DirectionSpec.periodic("0"),
                         DirectionSpec.periodic("0011", phase=1))),
], ids=["0", "01", "0001", "pmg"])
def test_witnesses_pass_exact_oracle(pattern):
    ci, cj = period_cell(pattern)
    half = 3 * max(ci, cj)
    design = generate_design(Window(-half, half, -half, half), pattern)
    for side in (design, dual(design)):
        _, witnesses = classify_wallpaper(side)
        assert all(_exact_maps_front_onto(pattern, w, flip=False) for w in witnesses)
    found, witness = is_self_dual(design)
    assert witness is None or _exact_maps_front_onto(pattern, witness, flip=True)
    # The search covers every point part and every translation modulo the
    # lattice, so its verdict is the oracle's over the same candidates.
    assert found == any(
        _exact_maps_front_onto(pattern, _centered(r, reflect, design.window, (ti, tj)), True)
        for reflect in (False, True) for r in range(6)
        for ti in range(ci) for tj in range(cj))


def _groups(design):
    """Wallpaper group of each side, or None where the window is too small."""
    out = []
    for side in (design, dual(design)):
        try:
            out.append(classify_wallpaper(side)[0])
        except OverlapTooSmallError:
            out.append(None)
    return out


_patterns = st.builds(
    lambda words, phases, base, slope: StitchPattern(
        specs=tuple(DirectionSpec.periodic(w, phase=p) for w, p in zip(words, phases)),
        convention=GridConvention(phase_base=base, phase_slope=slope)),
    st.tuples(_word, _word, _word), st.tuples(*[st.integers(0, 2)] * 3), _bits, _bits)


@settings(max_examples=15, deadline=None)
@given(pattern=_patterns, corner=st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
       which=st.integers(0, 1))
def test_groups_are_unchanged_by_a_period_translation_of_the_window(pattern, corner, which):
    # Four period cells: with three, most rotation checks find no full cell
    # in the overlap and both sides come out None.
    ci, cj = period_cell(pattern)
    window = Window(corner[0], corner[0] + 4 * ci, corner[1], corner[1] + 4 * cj)
    gi, gj = translation_basis(pattern)[which]
    moved = Window(window.i_min + gi, window.i_max + gi, window.j_min + gj, window.j_max + gj)
    assert _groups(generate_design(moved, pattern)) == _groups(generate_design(window, pattern))


@settings(max_examples=25, deadline=None)
@given(pattern=_patterns, corner=st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
def test_self_duality_is_symmetric_and_self_dual_sides_share_a_group(pattern, corner):
    ci, cj = period_cell(pattern)
    design = generate_design(
        Window(corner[0], corner[0] + 4 * ci, corner[1], corner[1] + 4 * cj), pattern)
    try:
        found = is_self_dual(design)[0]
        assert is_self_dual(dual(design))[0] == found
    except OverlapTooSmallError:
        return
    if found:
        front, back = _groups(design)
        assert front == back


def _q(v):
    """x^2 + xy + y^2: the squared length of the lattice vector v."""
    return v[0] * v[0] + v[0] * v[1] + v[1] * v[1]


@settings(max_examples=50, deadline=None)
@given(pattern=_patterns, corner=st.tuples(st.integers(-30, 30), st.integers(-30, 30)))
def test_mirror_witness_is_the_nearest_pure_reflection_of_its_class(pattern, corner):
    ci, cj = period_cell(pattern)
    window = Window(corner[0], corner[0] + 4 * ci, corner[1], corner[1] + 4 * cj)
    design = generate_design(window, pattern)
    g1, g2 = translation_basis(pattern)
    det = g1[0] * g2[1] - g1[1] * g2[0]

    def in_lattice(v):
        return ((v[0] * g2[1] - v[1] * g2[0]) % det == 0
                and (g1[0] * v[1] - g1[1] * v[0]) % det == 0)

    a = ((window.i_min + window.i_max) // 2, (window.j_min + window.j_max) // 2)
    for side in (design, dual(design)):
        try:
            _, witnesses = classify_wallpaper(side)
        except OverlapTooSmallError:
            continue
        for w in (w for w in witnesses if w.role == "mirror"):
            t = w.translation
            assert _image(w, t) == (0, 0), "a pure reflection: M t + t = 0"
            assert _exact_maps_front_onto(pattern, w, flip=False)

            def key(s):
                # Q of the displacement of a: 4 * (distance from a to the axis)^2
                ma = _image(LatticeIsometry(w.rotation, True, s), a)
                return _q((ma[0] - a[0], ma[1] - a[1])), s

            point = LatticeIsometry(w.rotation, True)
            n = next((x, y) for x in range(-2, 3) for y in range(-2, 3)
                     if gcd(x, y) == 1 and _image(point, (x, y)) == (-x, -y))
            # M a - a = c n, and det n is in the lattice, so the nearest k of
            # the class lies within |det| of -c
            d = _image(point, a)
            reach = abs(d[0] - a[0]) + abs(d[1] - a[1]) + abs(det)
            for k in range(-reach, reach + 1):
                s = (k * n[0], k * n[1])
                if in_lattice((s[0] - t[0], s[1] - t[1])):
                    assert key(s) >= key(t)


def _about_empty_vertex(rotation: int, reflect: bool) -> LatticeIsometry:
    """The point symmetry (rotation, reflect) fixing the empty vertex (1, 1).
    All three lines through (1, 1) are absent, so it maps absent lines onto
    absent lines and present ones onto present ones."""
    m1 = _image(LatticeIsometry(rotation, reflect), (1, 1))
    return LatticeIsometry(rotation, reflect, (1 - m1[0], 1 - m1[1]))


def _conjugate(pattern: StitchPattern, rotation: int, reflect: bool) -> StitchPattern:
    """The pattern whose design is the image of pattern's under
    _about_empty_vertex(rotation, reflect).

    The image of a line alternates like its preimage, so the side of its
    s = 0 segment decides it: the image's row for ordinal m' is 1 exactly
    when the preimage of that segment is a front stitch. Moving m' by the
    lcm of the row_bits periods moves the preimage by a multiple of every
    family's period and its position by an even amount, so the rows repeat
    with that period, stored as a word with phase base and slope 0."""
    # a reflection is its own inverse
    inverse = _about_empty_vertex(rotation if reflect else -rotation % 6, reflect)
    period = lcm(*(len(pattern.row_bits(f)) for f in range(3)))
    specs = []
    for f in range(3):
        rows = []
        for m in range(period):
            u, v = segment_endpoints(SegmentId(f, 2 * m + PRESENCE_PARITY[f], 0))
            preimage = segment_between(_image(inverse, u), _image(inverse, v))
            rows.append("1" if is_front(preimage, pattern) else "0")
        specs.append(DirectionSpec.periodic("".join(rows)))
    return StitchPattern(tuple(specs), GridConvention(phase_base=(0, 0, 0),
                                                      phase_slope=(0, 0, 0)))


# one mixed-family pattern per wallpaper group of the front, small period cells
_GROUP_PATTERNS = {
    "p1": (("01", 0), ("0001", 0), ("01", 1)),
    "p2": (("0011", 0), ("011", 0), ("0", 1)),
    "pm": (("01", 0), ("01", 0), ("01", 1)),
    "pmg": (("1", 0), ("0", 0), ("0011", 0)),
    "pmm": (("0", 0), ("0011", 0), ("1", 1)),
    "cmm": (("0", 0), ("0011", 0), ("0011", 1)),
    "p3m1": (("01", 0), ("01", 0), ("01", 0)),
    "p6mm": (("1", 0), ("0", 0), ("1", 1)),
}


@settings(max_examples=12, deadline=None)
@given(group=st.sampled_from(sorted(_GROUP_PATTERNS)), rotation=st.integers(0, 5),
       reflect=st.booleans())
def test_conjugating_by_a_point_symmetry_maps_the_front_and_keeps_the_group(group, rotation,
                                                                          reflect):
    pattern = StitchPattern(tuple(DirectionSpec.periodic(w, phase=p)
                                  for w, p in _GROUP_PATTERNS[group]))
    image = _conjugate(pattern, rotation, reflect)
    g = _about_empty_vertex(rotation, reflect)
    half = 2 * max(*period_cell(pattern), *period_cell(image), 6)
    window = Window(1 - half, 1 + half, 1 - half, 1 + half)
    design, moved = generate_design(window, pattern), generate_design(window, image)
    mapped = {segment_between(_image(g, u), _image(g, v))
              for u, v in map(segment_endpoints, design.front)}
    visible = {seg for seg in mapped
               if all(map(window.contains, segment_endpoints(seg)))}
    assert visible and visible <= moved.front
    assert classify_wallpaper(design)[0] == group
    assert classify_wallpaper(moved)[0] == group
