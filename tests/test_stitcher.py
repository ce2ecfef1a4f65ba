import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isostitch import (DEFAULT_CONVENTION, EMPTY, PRESENCE_PARITY, Design, DirectionSpec,
                       SegmentId, StitchPattern, Window, WordError, dual, generate_design,
                       segment_between, segment_endpoints, vertex_degree_class)
from stitch_rule import is_front, is_line_present, line_bit, lines_through
from test_design_graph import convention

spec_strategy = st.one_of(
    st.sampled_from("01").map(DirectionSpec.periodic),
    st.builds(DirectionSpec.periodic,
              st.text(alphabet="01", min_size=1, max_size=6),
              phase=st.integers(-3, 3)),
    st.builds(DirectionSpec.koch, st.integers(1, 3), phase=st.integers(0, 5)),
)
pattern_strategy = st.builds(
    lambda a, b, c: StitchPattern(specs=(a, b, c)),
    spec_strategy, spec_strategy, spec_strategy)
window_strategy = st.builds(
    lambda i0, j0, w, h: Window(i0, i0 + w, j0, j0 + h),
    st.integers(-15, 15), st.integers(-15, 15),
    st.integers(0, 24), st.integers(0, 24))


@settings(max_examples=200, deadline=None)
@given(spec=spec_strategy, conv=convention, family=st.integers(0, 2))
def test_row_bits_are_the_stitch_rule_rows(spec, conv, family):
    # the row of present line 2m + parity is the side of its s = 0 segment,
    # front for 1, and one period of rows covers every ordinal
    pattern = StitchPattern.uniform(spec, conv)
    bits = pattern.row_bits(family)
    assert len(bits) == 2 * len(spec.bit_sequence())
    for m in range(-len(bits), 2 * len(bits)):
        seg = SegmentId(family, 2 * m + PRESENCE_PARITY[family], 0)
        assert bits[m % len(bits)] == is_front(seg, pattern)


def test_direction_spec_kinds():
    assert DirectionSpec.periodic("0110").bit_sequence() == "0110"
    assert DirectionSpec.koch(2).bit_sequence() == "110011"
    with pytest.raises(WordError):
        DirectionSpec.periodic("")


def test_uniform_pattern():
    pat = StitchPattern.uniform(DirectionSpec.periodic("01"))
    assert len(set(pat.specs)) == 1
    assert pat.convention == DEFAULT_CONVENTION


def test_single_point_window_has_at_most_two_segments():
    pat = StitchPattern.uniform(DirectionSpec.periodic("0"))
    d = generate_design(Window(0, 0, 0, 0), pat)
    assert len(d.front) + len(d.back) <= 2


def _present_segments_in(design: Design):
    win = design.window
    for v in win.vertices():
        for u in ((v[0] + 1, v[1]), (v[0], v[1] + 1), (v[0] - 1, v[1] + 1)):
            if not win.contains(u):
                continue
            seg = segment_between(v, u)
            if is_line_present(lines_through(v)[seg.family]):
                yield seg


@settings(max_examples=60, deadline=None)
@given(pattern_strategy, window_strategy)
def test_design_matches_stitch_rule_segment_by_segment(pattern, window):
    design = generate_design(window, pattern)
    expected_front = set()
    expected_back = set()
    for seg in _present_segments_in(design):
        (expected_front if is_front(seg, pattern) else expected_back).add(seg)
    assert design.front == frozenset(expected_front)
    assert design.back == frozenset(expected_back)


@settings(max_examples=60, deadline=None)
@given(pattern_strategy, window_strategy)
def test_front_and_back_partition_the_present_segments(pattern, window):
    design = generate_design(window, pattern)
    assert not design.front & design.back
    total = sum(1 for _ in _present_segments_in(design))
    assert len(design.front) + len(design.back) == total
    flipped = dual(design)
    assert flipped.front == design.back and flipped.back == design.front
    assert dual(flipped) == design


@settings(max_examples=40, deadline=None)
@given(pattern_strategy, window_strategy)
def test_interior_visited_vertices_have_degree_two_on_both_sides(pattern, window):
    design = generate_design(window, pattern)
    for side in ("front", "back"):
        deg: dict = {}
        for seg in getattr(design, side):
            for v in segment_endpoints(seg):
                deg[v] = deg.get(v, 0) + 1
        for v in design.window.vertices():
            if design.window.is_interior(v) and vertex_degree_class(v) != EMPTY:
                assert deg.get(v, 0) == 2, (side, v)


def test_dual_swaps_sides():
    pat = StitchPattern.uniform(DirectionSpec.periodic("01"))
    d = generate_design(Window(0, 10, 0, 10), pat)
    dd = dual(d)
    assert dd.front == d.back and dd.back == d.front
    assert dual(dd) == d


def test_line_bit_uses_phase():
    pat = StitchPattern.uniform(DirectionSpec.periodic("0001", phase=3))
    la = lines_through((0, 0))[0]
    assert line_bit(la, pat) == 1


def test_alternating_word_flips_consecutive_present_lines():
    pat = StitchPattern.uniform(DirectionSpec.periodic("01"))
    la0 = lines_through((0, 0))[0]
    la2 = lines_through((0, 2))[0]
    assert line_bit(la0, pat) != line_bit(la2, pat)
