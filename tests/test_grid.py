import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isostitch import (DIRECTIONS, EMPTY, VISITED, Family, LineId, SegmentId,
                       Window, WindowError, is_line_present, lines_through,
                       segment_between, segment_endpoints, vertex_degree_class,
                       vertex_to_cartesian)
from stitch_rule import present_line_ordinal

coords = st.integers(min_value=-50, max_value=50)
vertices = st.tuples(coords, coords)


def test_cartesian_embedding():
    assert vertex_to_cartesian((0, 0)) == (0.0, 0.0)
    assert vertex_to_cartesian((1, 0)) == (1.0, 0.0)
    x, y = vertex_to_cartesian((0, 1))
    assert math.isclose(x, 0.5) and math.isclose(y, math.sqrt(3) / 2)


@given(vertices)
def test_directions_are_unit_steps(v):
    for d in DIRECTIONS:
        x0, y0 = vertex_to_cartesian(v)
        x1, y1 = vertex_to_cartesian((v[0] + d[0], v[1] + d[1]))
        assert math.isclose(math.hypot(x1 - x0, y1 - y0), 1.0)


@given(vertices)
def test_lines_through_indices(v):
    i, j = v
    la, lb, lc = lines_through(v)
    assert la == LineId(Family.A, j)
    assert lb == LineId(Family.B, i)
    assert lc == LineId(Family.C, i + j)


def test_line_presence_parity():
    assert is_line_present(LineId(Family.A, 0))
    assert not is_line_present(LineId(Family.A, 1))
    assert is_line_present(LineId(Family.B, -2))
    assert not is_line_present(LineId(Family.C, 0))
    assert is_line_present(LineId(Family.C, 3))


def test_present_line_ordinal():
    assert present_line_ordinal(LineId(Family.A, 0)) == 0
    assert present_line_ordinal(LineId(Family.A, 4)) == 2
    assert present_line_ordinal(LineId(Family.A, -4)) == -2
    assert present_line_ordinal(LineId(Family.C, 1)) == 0
    assert present_line_ordinal(LineId(Family.C, 5)) == 2
    with pytest.raises(ValueError):
        present_line_ordinal(LineId(Family.A, 3))


@given(vertices)
def test_vertex_classes(v):
    i, j = v
    expected = EMPTY if (i % 2 and j % 2) else VISITED
    assert vertex_degree_class(v) == expected


def test_vertex_class_closed_form_counts_the_present_lines():
    # Every residue class of (i, j) mod 2, in all four quadrants.
    for i in range(-4, 4):
        for j in range(-4, 4):
            n = sum(is_line_present(line) for line in lines_through((i, j)))
            assert n in (0, 2)
            assert vertex_degree_class((i, j)) == (EMPTY if n == 0 else VISITED)


def test_quarter_of_vertices_empty_on_even_window():
    win = Window(0, 39, 0, 39)
    empties = sum(1 for v in win.vertices() if vertex_degree_class(v) == EMPTY)
    assert empties * 4 == win.vertex_count()


@given(vertices, st.sampled_from(range(6)))
def test_segment_between_round_trips(v, d):
    u = (v[0] + DIRECTIONS[d][0], v[1] + DIRECTIONS[d][1])
    seg = segment_between(v, u)
    assert seg == segment_between(u, v)
    assert set(segment_endpoints(seg)) == {v, u}


@given(vertices, st.sampled_from(range(6)))
def test_segment_direction_matches_family(v, d):
    u = (v[0] + DIRECTIONS[d][0], v[1] + DIRECTIONS[d][1])
    seg = segment_between(v, u)
    (i0, j0), (i1, j1) = segment_endpoints(seg)
    assert (i1 - i0, j1 - j0) == DIRECTIONS[seg.family]
    assert seg.family == d % 3


def test_segment_between_rejects_non_neighbors():
    with pytest.raises(ValueError):
        segment_between((0, 0), (2, 0))
    with pytest.raises(ValueError):
        segment_between((0, 0), (1, 1))


def test_segment_endpoints_by_family():
    assert segment_endpoints(SegmentId(Family.A, 0, 3)) == ((3, 0), (4, 0))
    assert segment_endpoints(SegmentId(Family.B, 2, -1)) == ((2, -1), (2, 0))
    assert segment_endpoints(SegmentId(Family.C, 3, 1)) == ((2, 1), (1, 2))


def test_window_counts_and_validation():
    win = Window(0, 99, 0, 99)
    assert win.vertex_count() == 10000
    assert Window(0, 0, 0, 0).validate() == Window(0, 0, 0, 0)
    with pytest.raises(WindowError):
        Window(3, 2, 0, 5).validate()
    with pytest.raises(WindowError):
        Window(0, 9999, 0, 9999).validate()


def test_window_interior():
    win = Window(0, 4, 0, 4)
    assert win.is_interior((2, 2))
    assert not win.is_interior((0, 2))
    assert not win.is_interior((4, 4))
