import runpy
import tracemalloc
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isostitch import koch_oracle
from isostitch import (Cycle, InvalidOrderError, StitchPattern, Window, WindowError,
                       build_components, generate_design, koch_directions,
                       koch_pattern, koch_polygon, koch_window, motif_signature,
                       period_cell, segment_endpoints, translation_basis, verify_koch,
                       walk_vertices)
from isostitch.grid import DIRECTION_INDEX
from koch_rule import replace_runs, scale_directions
from test_design_graph import _CHIRAL, convention, mixed_spec


def test_order_zero_is_a_triangle():
    p = koch_polygon(0)
    assert len(p) == 3
    assert set(p.vertices) == {(0, 0), (1, 0), (0, 1)}


def test_order_one_is_the_twelve_segment_hexagram():
    p = koch_polygon(1)
    assert len(p) == 12


def test_segment_counts_and_simplicity_up_to_order_five():
    for k in range(6):
        p = koch_polygon(k)
        assert len(p) == 3 * 4 ** k
        assert len(set(p.vertices)) == len(p)


def test_order_three_has_192_segments():
    assert len(koch_polygon(3)) == 192


def test_negative_order_rejected():
    with pytest.raises(InvalidOrderError):
        koch_polygon(-1)
    with pytest.raises(InvalidOrderError):
        koch_polygon(1.5)


def test_scale_then_replace_reproduces_the_next_iterate():
    # From the same triangle, the run-by-run replacement reproduces the
    # unit-step substitution up to order 6.
    assert koch_directions(0) == [0, 2, 4]
    for k in range(6):
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
    assert motif_signature(res.matched_cycle) == motif_signature(koch_polygon(2))


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
    sig = motif_signature(polygon)
    design = koch_oracle.generate_design(window, koch_pattern(order, phases))
    cycles, _ = build_components(design, side="front")
    return next((c for c in cycles
                 if len(c) == len(polygon) and motif_signature(c) == sig), None)


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


def _moved_front(design, di: int, dj: int = 0) -> set:
    """The design's front stitches as endpoint pairs, moved by (di, dj)."""
    return {tuple((i + di, j + dj) for i, j in segment_endpoints(seg)) for seg in design.front}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_moving_design_0bc_by_4t_gives_design_0_b_minus_2t_c_minus_2t(order, data):
    # The lemma the 2P-candidate search rests on, phases taken mod P: the
    # front of design (0, b, c) on a window, moved by (4t, 0), is the front
    # of design (0, b - 2t, c - 2t) on the moved window.
    period = koch_oracle.phase_period(order)
    b, c = (data.draw(st.integers(0, period - 1)) for _ in range(2))
    t = data.draw(st.integers(-period, period))
    i0, j0 = (data.draw(st.integers(-40, 40)) for _ in range(2))
    w, h = (data.draw(st.integers(0, 16)) for _ in range(2))
    design = generate_design(Window(i0, i0 + w, j0, j0 + h), koch_pattern(order, (0, b, c)))
    moved = generate_design(Window(i0 + 4 * t, i0 + w + 4 * t, j0, j0 + h),
                            koch_pattern(order, (0, (b - 2 * t) % period, (c - 2 * t) % period)))
    assert _moved_front(design, 4 * t) == _moved_front(moved, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_moving_design_abc_by_0_4t_gives_design_a_minus_2t_b_c_minus_2t(order, data):
    # The other generator of the phase classes, phases taken mod P: (0, 4t)
    # moves every A- and C-line by 4t, two present-line ordinals per t, and
    # keeps each B-line, so the front of design (a, b, c) moved by (0, 4t)
    # is the front of design (a - 2t, b, c - 2t). With (4t, 0) above, no
    # translation changes the A phase's parity, so the search, which fixes
    # a = 0, visits half of the translation classes.
    period = koch_oracle.phase_period(order)
    a, b, c = (data.draw(st.integers(0, period - 1)) for _ in range(3))
    t = data.draw(st.integers(-period, period))
    i0, j0 = (data.draw(st.integers(-40, 40)) for _ in range(2))
    w, h = (data.draw(st.integers(0, 16)) for _ in range(2))
    design = generate_design(Window(i0, i0 + w, j0, j0 + h), koch_pattern(order, (a, b, c)))
    moved = generate_design(Window(i0, i0 + w, j0 + 4 * t, j0 + h + 4 * t),
                            koch_pattern(order, ((a - 2 * t) % period, b, (c - 2 * t) % period)))
    assert _moved_front(design, 0, 4 * t) == _moved_front(moved, 0)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_placement_search_agrees_with_the_walk_at_every_phase_pair(order):
    for (b, c), hit in _walk_hits(order).items():
        res = verify_koch(order, _window(order), (0, b, c))
        assert res.found == (hit is not None)
        assert res.matched_cycle == hit


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(-60, 60), st.integers(-60, 60), st.data())
def test_placement_search_agrees_with_the_walk_on_tight_windows(order, i_min, j_min, data):
    # Windows exactly the polygon's extent plus one period cell wide, off
    # the origin, so some placements touch every edge of the window; and
    # the placement search alone on windows from 2 narrower than the
    # polygon to a period cell wider, where placements that would wrap
    # across a row edge are not ruled out beforehand.
    polygon = koch_polygon(order)
    cell = period_cell(koch_pattern(order, (0, 0, 0)))
    verts = polygon.vertices
    i_span = max(i for i, _ in verts) - min(i for i, _ in verts) + 1
    j_span = max(j for _, j in verts) - min(j for _, j in verts) + 1
    window = Window(i_min, i_min + i_span + cell[0] - 1, j_min, j_min + j_span + cell[1] - 1)
    period = koch_oracle.phase_period(order)
    # the Koch phases, at which the polygon is found, or any phases
    phases = data.draw(st.one_of(st.just(koch_oracle.KOCH_PHASES),
                                 st.tuples(*[st.integers(0, period - 1)] * 3)))
    res = verify_koch(order, window, phases)
    hit = _walk_search(order, window, phases)
    assert res.found == (hit is not None)
    assert res.matched_cycle == hit
    i_extra, j_extra = (data.draw(st.integers(-2, c)) for c in cell)
    window = Window(i_min, i_min + i_span + i_extra - 1, j_min, j_min + j_span + j_extra - 1)
    design = generate_design(window, koch_pattern(order, phases))
    assert (koch_oracle._find_polygon(design, Cycle((0, 0), polygon.codes))
            == _walk_search(order, window, phases))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(-60, 60), st.integers(-60, 60), st.data())
def test_one_period_cell_of_anchors_finds_the_hit_of_the_whole_window(order, i_min, j_min,
                                                                     data):
    # verify_koch builds each design only on the placements anchored in the
    # period cell at the window's least corner. On off-origin windows with up
    # to two more period cells per axis than it needs, its hit must be the
    # first that walking every front cycle of the whole window meets.
    box = koch_oracle._box(koch_polygon(order))
    cell = period_cell(koch_pattern(order, (0, 0, 0)))
    i_extra, j_extra = (data.draw(st.integers(0, 2 * c)) for c in cell)
    window = Window(i_min, i_min + box.i_count + cell[0] + i_extra - 1,
                    j_min, j_min + box.j_count + cell[1] + j_extra - 1)
    period = koch_oracle.phase_period(order)
    # the default hit's phases at order 1 and at orders 2-3, or any phases
    phases = data.draw(st.one_of(st.sampled_from([(0, 0, 0), koch_oracle.KOCH_PHASES]),
                                 st.tuples(*[st.integers(0, period - 1)] * 3)))
    res = verify_koch(order, window, phases)
    hit = _walk_search(order, window, phases)
    assert res.found == (hit is not None)
    assert res.matched_cycle == hit


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.data())
def test_the_koch_lattice_is_square_at_every_phase(order, data):
    # the one-cell restriction translates hits by (A, 0) and (0, B), the
    # basis translation_basis gives at any phases: a 4*3^(n-1) square
    period = koch_oracle.phase_period(order)
    phases = data.draw(st.tuples(*[st.integers(0, period - 1)] * 3))
    side = 4 * 3 ** (order - 1)
    assert translation_basis(koch_pattern(order, phases)) == ((side, 0), (0, side))


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_the_default_hit_has_its_least_vertex_in_closed_form(order):
    # the snowflake's place under the Koch inflation: least vertex
    # (2*3^(n-1) - 1, 5*3^(n-1) - 1), at phases (0, 0, 0) for order 1 and
    # (0, 0, 1) above it
    res = verify_koch(order, koch_window(order))
    assert res.found
    assert res.phases == dict(enumerate((0, 0, 0) if order == 1 else (0, 0, 1)))
    assert res.matched_cycle.start == (2 * 3 ** (order - 1) - 1, 5 * 3 ** (order - 1) - 1)


def _point_image_walks(cycle: Cycle) -> list[list[tuple[int, int]]]:
    """The vertex lists of the cycle's images under the 12 lattice point
    symmetries, each traced from the origin."""
    return [list(walk_vertices((0, 0), bytes((r + sign * (code - 1)) % 6 + 1
                                             for code in cycle.codes[:-1])))
            for r in range(6) for sign in (1, -1)]


def _reference_canonical(verts: list[tuple[int, int]]) -> Cycle:
    """The cycle through verts in canonical form, from the vertex list: it is
    rotated to start at its least vertex and read toward that vertex's lesser
    neighbour, and the steps are looked up as direction codes."""
    n = len(verts)
    start = min(range(n), key=verts.__getitem__)
    sense = -1 if verts[start - 1] < verts[(start + 1) % n] else 1
    walk = [verts[(start + sense * k) % n] for k in range(n + 1)]
    return Cycle(walk[0], bytes(DIRECTION_INDEX[(b[0] - a[0], b[1] - a[1])] + 1
                                for a, b in zip(walk, walk[1:])))


def _reference_point_images(cycle: Cycle) -> list[Cycle]:
    """The point images from vertex lists, one per class of translates, each
    with its least vertex at the origin."""
    images: dict[bytes, Cycle] = {}
    for verts in _point_image_walks(cycle):
        codes = _reference_canonical(verts).codes
        images.setdefault(codes, Cycle((0, 0), codes))
    return list(images.values())


def test_every_iterate_of_order_one_up_is_its_only_point_image():
    # verify_koch places the polygon alone: every iterate of order >= 1 has
    # the lattice's full six-fold dihedral symmetry, so each of its 12 point
    # images is a translate of it. The bare triangle has two classes,
    # pointing up and down.
    for order in range(1, 7):
        polygon = koch_polygon(order)
        assert _reference_point_images(polygon) == [Cycle((0, 0), polygon.codes)]
    assert len(_reference_point_images(koch_polygon(0))) == 2


@pytest.mark.parametrize("cycle", [koch_polygon(k) for k in range(6)] + [_CHIRAL])
def test_point_images_match_the_vertex_list_reference(cycle):
    # Cycle.from_vertices puts each image in canonical form by rotating and
    # reversing its step codes, the reference by re-walking its vertex list
    # from the least vertex.
    for verts in _point_image_walks(cycle):
        assert Cycle.from_vertices(verts) == _reference_canonical(verts)


@settings(max_examples=40, deadline=None)
@given(st.tuples(mixed_spec, mixed_spec, mixed_spec), convention,
       st.integers(-9, 9), st.integers(-9, 9), st.integers(0, 24), st.integers(0, 24))
def test_point_images_of_front_cycles_match_the_vertex_list_reference(specs, conv, i0, j0,
                                                                       w, h):
    design = generate_design(Window(i0, i0 + w, j0, j0 + h), StitchPattern(specs, conv))
    for cycle in build_components(design, "front")[0]:
        for verts in _point_image_walks(cycle):
            assert Cycle.from_vertices(verts) == _reference_canonical(verts)


def test_koch_iterates_tool_reproduces_the_readme_table():
    # The order-3 and order-4 rows of the README's table of snowflake
    # iterates, which tools/koch_iterates.py prints.
    tool = runpy.run_path(str(Path(__file__).resolve().parent.parent / "tools"
                              / "koch_iterates.py"))
    assert tool["iterate_counts"](3) == {"front": [121, 0, 4], "back": [361, 0, 0]}
    assert tool["iterate_counts"](4) == {"front": [1008, 108, 0, 4],
                                         "back": [3025, 0, 0, 0]}


@pytest.mark.slow
def test_verify_order_four_peaks_at_a_few_bytes_per_window_vertex():
    # The placement search holds three front direction-code maps, a byte
    # per vertex each, and up to three packed bitmaps, over the 216^2 vertices
    # of one period cell of anchors rather than the 333^2 window. The peak,
    # about 2.8 bytes per window vertex under Python 3.11, is set by the
    # component walk that re-checks the hit on its 109^2 box, which holds
    # those three maps and a seen mark; when Python's free lists are
    # cleared moves it by a few tenths. Walking every front cycle of each
    # candidate peaked at about 26.
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
    res = verify_koch(2, _window(2), (0, 0, 0))
    assert not res.found
    assert res.phases == {0: 0, 1: 0, 2: 0}
    assert res.matched_cycle is None


def test_verify_without_search_succeeds_at_recorded_phases():
    res = verify_koch(2, _window(2), (0, 0, 1))
    assert res.found


def test_verify_search_that_misses_reports_zero_phases(monkeypatch):
    monkeypatch.setattr(koch_oracle, "_find_polygon", lambda design, image: None)
    res = verify_koch(1, _window(1))
    assert (res.found, res.phases, res.matched_cycle) == (False, {0: 0, 1: 0, 2: 0}, None)


def test_verify_rejects_too_small_window():
    with pytest.raises(WindowError):
        verify_koch(2, Window(0, 20, 0, 20))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(-60, 60), st.integers(-60, 60), st.data())
def test_the_least_accepted_window_agrees_with_the_walk(order, i_min, j_min, data):
    # Off-origin windows of exactly the polygon's extent plus a period cell
    # less one vertex per axis, the least verify_koch accepts, at the Koch
    # phases or any phases; one vertex less on one axis is refused.
    box = koch_oracle._box(koch_polygon(order))
    cell = period_cell(koch_pattern(order, (0, 0, 0)))
    window = Window(i_min, i_min + box.i_count + cell[0] - 2,
                    j_min, j_min + box.j_count + cell[1] - 2)
    period = koch_oracle.phase_period(order)
    phases = data.draw(st.one_of(st.just(koch_oracle.KOCH_PHASES),
                                 st.tuples(*[st.integers(0, period - 1)] * 3)))
    res = verify_koch(order, window, phases)
    hit = _walk_search(order, window, phases)
    assert res.found == (hit is not None)
    assert res.matched_cycle == hit
    narrower = data.draw(st.sampled_from([window._replace(i_max=window.i_max - 1),
                                          window._replace(j_max=window.j_max - 1)]))
    with pytest.raises(WindowError):
        verify_koch(order, narrower, phases)


def test_verify_rejects_bad_order():
    with pytest.raises(InvalidOrderError):
        verify_koch(0, _window(1))


@pytest.mark.slow
def test_verify_order_four_found():
    res = verify_koch(4, _window(4))
    assert res.found
    assert res.phases == {0: 0, 1: 0, 2: 1}
    assert len(res.matched_cycle.vertices) == 768
