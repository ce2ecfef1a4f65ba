import tracemalloc
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isostitch import koch_oracle
from isostitch import (Cycle, InvalidOrderError, StitchPattern, Window, WindowError,
                       build_components, generate_design, koch_directions,
                       koch_polygon, motif_signature, period_cell, replace_runs,
                       scale_directions, verify_koch)
from isostitch.grid import DIRECTION_INDEX
from test_design_graph import _CHIRAL, convention, mixed_spec


def test_order_zero_is_a_triangle():
    p = koch_polygon(0)
    assert p.segment_count == 3
    assert set(p.cycle.vertices) == {(0, 0), (1, 0), (0, 1)}


def test_order_one_is_the_twelve_segment_hexagram():
    p = koch_polygon(1)
    assert p.segment_count == 12


def test_segment_counts_and_simplicity_up_to_order_five():
    for k in range(6):
        p = koch_polygon(k)
        assert p.segment_count == 3 * 4 ** k
        assert len(set(p.cycle.vertices)) == p.segment_count


def test_order_three_has_192_segments():
    assert koch_polygon(3).segment_count == 192


def test_negative_order_rejected():
    with pytest.raises(InvalidOrderError):
        koch_polygon(-1)
    with pytest.raises(InvalidOrderError):
        koch_polygon(1.5)


def test_scale_then_replace_reproduces_the_next_iterate():
    for k in range(4):
        scaled = scale_directions(koch_directions(k))
        assert replace_runs(scaled) == koch_directions(k + 1)


def test_replace_runs_rejects_indivisible_runs():
    with pytest.raises(ValueError):
        replace_runs([0, 0])


def _window(order: int) -> Window:
    side = 4 * 3 ** order + 8
    return Window(0, side, 0, side)


def test_verify_order_one_trivially_found():
    res = verify_koch(1, _window(1))
    assert res.found
    assert res.phases == {0: 0, 1: 0, 2: 0}
    assert len(res.matched_cycle.vertices) == 12


def test_verify_order_two_found_with_searched_phases():
    res = verify_koch(2, _window(2))
    assert res.found
    assert res.phases == {0: 0, 1: 0, 2: 1}
    assert len(res.matched_cycle.vertices) == 48
    assert motif_signature(res.matched_cycle) == motif_signature(koch_polygon(2).cycle)


def test_verify_order_three_found():
    res = verify_koch(3, _window(3))
    assert res.found
    assert len(res.matched_cycle.vertices) == 192


def test_verify_never_materializes_segment_sets(monkeypatch):
    designs = []
    generate = koch_oracle.generate_design

    def capturing(window, pattern):
        designs.append(generate(window, pattern))
        return designs[-1]

    monkeypatch.setattr(koch_oracle, "generate_design", capturing)
    assert verify_koch(3, _window(3)).found
    assert designs
    for design in designs:
        assert "front" not in design.__dict__ and "back" not in design.__dict__


def _walk_search(order: int, window: Window, phases: tuple[int, int, int]):
    """Reference search: walk every front cycle of the design and return
    the first with the polygon's length and motif signature, or None."""
    polygon = koch_polygon(order)
    sig = motif_signature(polygon.cycle)
    design = koch_oracle.generate_design(window, koch_oracle._pattern_for(order, phases))
    cycles, _ = build_components(design, side="front")
    return next((c for c in cycles
                 if len(c) == polygon.segment_count and motif_signature(c) == sig), None)


@cache
def _walk_hits(order: int) -> dict[tuple[int, int], object]:
    """The reference hit of every phase pair (0, b, c) on _window(order)."""
    period = koch_oracle.phase_period(order)
    return {(b, c): _walk_search(order, _window(order), (0, b, c))
            for b in range(period) for c in range(period)}


@pytest.mark.parametrize("order", [1, 2, 3])
def test_phase_quotient_agrees_with_the_full_search(order):
    # Every (0, b, c) has a hit exactly when its representative with b <= 1
    # does, and the quotient search returns the full scan's first hit.
    period = koch_oracle.phase_period(order)
    hits = _walk_hits(order)
    for (b, c), hit in hits.items():
        assert (hit is None) == (hits[b % 2, (c - b + b % 2) % period] is None)
    first = next((b, c) for (b, c), hit in sorted(hits.items()) if hit is not None)
    res = verify_koch(order, _window(order))
    assert (res.phases[1], res.phases[2]) == first
    assert res.matched_cycle == hits[first]
    assert len(koch_oracle.phase_candidates(order)) == 2 * period


@pytest.mark.parametrize("order", [1, 2, 3])
def test_placement_search_agrees_with_the_walk_at_every_phase_pair(order):
    for (b, c), hit in _walk_hits(order).items():
        res = verify_koch(order, _window(order), phase_search=False, phases=(0, b, c))
        assert res.found == (hit is not None)
        assert res.matched_cycle == hit


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(-60, 60), st.integers(-60, 60), st.data())
def test_placement_search_agrees_with_the_walk_on_tight_windows(order, i_min, j_min, data):
    # Windows exactly the polygon's extent plus one period cell wide, off
    # the origin, so some placements touch every edge of the window.
    polygon = koch_polygon(order)
    cell = period_cell(koch_oracle._pattern_for(order, (0, 0, 0)))
    verts = polygon.cycle.vertices
    i_span = max(i for i, _ in verts) - min(i for i, _ in verts) + 1
    j_span = max(j for _, j in verts) - min(j for _, j in verts) + 1
    window = Window(i_min, i_min + i_span + cell[0] - 1, j_min, j_min + j_span + cell[1] - 1)
    period = koch_oracle.phase_period(order)
    phases = tuple(data.draw(st.integers(0, period - 1)) for _ in range(3))
    res = verify_koch(order, window, phase_search=False, phases=phases)
    hit = _walk_search(order, window, phases)
    assert res.found == (hit is not None)
    assert res.matched_cycle == hit


@settings(deadline=None)
@given(st.integers(0, 2), st.integers(-30, 30), st.integers(-30, 30),
       st.integers(-2, 12), st.integers(-2, 12))
def test_anchors_are_the_placements_inside_the_window(order, i_min, j_min, i_extra, j_extra):
    # Windows from a little narrower to a little wider than each point
    # image of the polygon; the triangle has two, of different extents.
    for image in koch_oracle._point_images(koch_polygon(order).cycle):
        verts = image.vertices
        i_span = max(i for i, _ in verts) - min(i for i, _ in verts) + 1
        j_span = max(j for _, j in verts) - min(j for _, j in verts) + 1
        window = Window(i_min, i_min + i_span + i_extra - 1, j_min, j_min + j_span + j_extra - 1)
        inside = set(window.vertices())
        fits = set.intersection(*({(i - di, j - dj) for i, j in inside} for di, dj in verts))
        bits = bin(koch_oracle._anchors(window, image))[:1:-1]
        assert {(window.i_min + a // window.j_count, window.j_min + a % window.j_count)
                for a, bit in enumerate(bits) if bit == "1"} == fits


def test_point_images_keep_one_per_class_of_translates():
    # Every iterate of order >= 1 has the lattice's full point symmetry; the
    # bare triangle has two classes, pointing up and down.
    for order in (1, 2, 3):
        (image,) = koch_oracle._point_images(koch_polygon(order).cycle)
        assert image.codes == koch_polygon(order).cycle.codes and image.start == (0, 0)
    assert len(koch_oracle._point_images(koch_polygon(0).cycle)) == 2


def _reference_point_images(cycle: Cycle) -> list[Cycle]:
    """The point images from vertex lists: each image's directions are
    accumulated into vertices, the list is rotated to start at its least
    vertex and read toward that vertex's lesser neighbour, and the steps are
    looked up as direction codes."""
    images: dict[bytes, Cycle] = {}
    for r in range(6):
        for sign in (1, -1):
            dirs = [(r + sign * (code - 1)) % 6 for code in cycle.codes]
            verts = koch_oracle.directions_to_vertices(dirs)
            n = len(verts)
            start = min(range(n), key=verts.__getitem__)
            sense = -1 if verts[start - 1] < verts[(start + 1) % n] else 1
            walk = [verts[(start + sense * k) % n] for k in range(n + 1)]
            codes = bytes(DIRECTION_INDEX[(b[0] - a[0], b[1] - a[1])] + 1
                          for a, b in zip(walk, walk[1:]))
            images.setdefault(codes, Cycle((0, 0), codes))
    return list(images.values())


@pytest.mark.parametrize("cycle", [koch_polygon(k).cycle for k in range(6)] + [_CHIRAL])
def test_point_images_match_the_vertex_list_reference(cycle):
    assert koch_oracle._point_images(cycle) == _reference_point_images(cycle)


@settings(max_examples=40, deadline=None)
@given(st.tuples(mixed_spec, mixed_spec, mixed_spec), convention,
       st.integers(-9, 9), st.integers(-9, 9), st.integers(0, 24), st.integers(0, 24))
def test_point_images_of_front_cycles_match_the_vertex_list_reference(specs, conv, i0, j0,
                                                                       w, h):
    design = generate_design(Window(i0, i0 + w, j0, j0 + h), StitchPattern(specs, conv))
    for cycle in build_components(design, "front")[0]:
        assert koch_oracle._point_images(cycle) == _reference_point_images(cycle)


@pytest.mark.slow
def test_verify_order_four_peaks_at_a_few_bytes_per_window_vertex():
    # The placement search holds two direction-code slots and a few packed
    # bitmaps over the window; walking every front cycle of each candidate
    # peaked at about 26 bytes per vertex.
    window = _window(4)
    tracemalloc.start()
    try:
        res = verify_koch(4, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.found
    assert peak <= 8 * window.vertex_count()


def test_verify_without_search_reports_not_found_at_zero_phases():
    res = verify_koch(2, _window(2), phase_search=False)
    assert not res.found
    assert res.matched_cycle is None


def test_verify_without_search_succeeds_at_recorded_phases():
    res = verify_koch(2, _window(2), phase_search=False, phases=(0, 0, 1))
    assert res.found


def test_verify_rejects_too_small_window():
    with pytest.raises(WindowError):
        verify_koch(2, Window(0, 20, 0, 20))


def test_verify_rejects_bad_order():
    with pytest.raises(InvalidOrderError):
        verify_koch(0, _window(1))


@pytest.mark.slow
def test_verify_order_four_found():
    res = verify_koch(4, _window(4))
    assert res.found
    assert res.phases == {0: 0, 1: 0, 2: 1}
    assert len(res.matched_cycle.vertices) == 768
