from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isostitch import (PRESENCE_PARITY, DirectionSpec, GridConvention,
                       LatticeIsometry, LineId, OverlapTooSmallError, SegmentId,
                       StitchPattern, Window, classify_wallpaper, dual,
                       generate_design, is_line_present, is_self_dual,
                       is_symmetry, period_cell, segment_between,
                       segment_endpoints, translation_basis)
from isostitch.symmetry import IDENTITY, MIRROR_X, ROT60, _row_shift_period, point_matrix
from stitch_rule import is_front


def _design(word: str, half: int | None = None):
    pat = StitchPattern.uniform(DirectionSpec.periodic(word))
    if half is None:
        ci, cj = period_cell(pat)
        half = max(4 * max(ci, cj), 24)
    return generate_design(Window(-half, half, -half, half), pat)


def test_point_matrices():
    assert point_matrix(0, False) == IDENTITY
    assert point_matrix(1, False) == ROT60
    m = ROT60
    for _ in range(5):
        m = tuple(tuple(sum(ROT60[r][k] * m[k][c] for k in range(2))
                        for c in range(2)) for r in range(2))
    assert m == IDENTITY
    assert point_matrix(0, True) == MIRROR_X


def test_sixfold_rotation_has_order_six():
    iso = LatticeIsometry(rotation=1)
    v = (3, 1)
    out = v
    for _ in range(6):
        out = iso.apply(out)
    assert out == v


def test_translation_lattice_from_word_periods():
    assert translation_basis(
        StitchPattern.uniform(DirectionSpec.periodic("0"))) == ((4, 0), (0, 4))
    assert translation_basis(
        StitchPattern.uniform(DirectionSpec.periodic("01"))) == ((2, 0), (0, 2))
    assert translation_basis(
        StitchPattern.uniform(DirectionSpec.periodic("0001"))) == ((8, 0), (0, 8))
    assert period_cell(StitchPattern.uniform(DirectionSpec.koch(3))) == (36, 36)


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
        gu, gv = witness.apply(u), witness.apply(v)
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
            image = segment_between(iso.apply(u), iso.apply(v))
            if not is_line_present(LineId(image.family, image.k)):
                return False
            if is_front(image, pattern) != (is_front(seg, pattern) ^ flip):
                return False
    return True


def _centered(rotation: int, reflect: bool, window: Window, shift: tuple[int, int]):
    """Isometry with the given point part fixing the window middle, then
    translated by shift."""
    c = ((window.i_min + window.i_max) // 2, (window.j_min + window.j_max) // 2)
    mc = LatticeIsometry(rotation, reflect).apply(c)
    return LatticeIsometry(rotation, reflect,
                           (c[0] - mc[0] + shift[0], c[1] - mc[1] + shift[1]))


_bits = st.tuples(*[st.integers(0, 1)] * 3)
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
            assert w.apply(t) == (0, 0), "a pure reflection: M t + t = 0"
            assert _exact_maps_front_onto(pattern, w, flip=False)

            def key(s):
                # Q of the displacement of a: 4 * (distance from a to the axis)^2
                ma = LatticeIsometry(w.rotation, True, s).apply(a)
                return _q((ma[0] - a[0], ma[1] - a[1])), s

            point = LatticeIsometry(w.rotation, True)
            n = next((x, y) for x in range(-2, 3) for y in range(-2, 3)
                     if gcd(x, y) == 1 and point.apply((x, y)) == (-x, -y))
            # M a - a = c n, and det n is in the lattice, so the nearest k of
            # the class lies within |det| of -c
            d = point.apply(a)
            reach = abs(d[0] - a[0]) + abs(d[1] - a[1]) + abs(det)
            for k in range(-reach, reach + 1):
                s = (k * n[0], k * n[1])
                if in_lattice((s[0] - t[0], s[1] - t[1])):
                    assert key(s) >= key(t)
