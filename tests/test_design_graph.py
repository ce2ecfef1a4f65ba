import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isostitch import (Cycle, DirectionSpec, GridConvention, StitchPattern,
                       Window, build_components, dual,
                       generate_design, koch_polygon, motif_census,
                       motif_signature, segment_endpoints, translation_basis)
from isostitch import design_graph
from isostitch.design_graph import _least_rotation
from isostitch.grid import DIRECTION_INDEX, DIRECTIONS


def _design(word: str, hi: int):
    pat = StitchPattern.uniform(DirectionSpec.periodic(word))
    return generate_design(Window(0, hi, 0, hi), pat)


def _histogram(census) -> list[tuple[int, int]]:
    out: dict[int, int] = {}
    for sig, n in census.counts.items():
        out[len(sig)] = out.get(len(sig), 0) + n
    return sorted(out.items())


def test_hexagram_design_census_small_window():
    d = _design("0", 20)
    assert len(d.front) == 320
    census = motif_census(d, "front")
    assert _histogram(census) == [(12, 16)]


def test_hexagram_design_census_forty_window():
    d = _design("0", 39)
    front = motif_census(d, "front")
    assert _histogram(front) == [(12, 81)]
    assert len(front.counts) == 1
    assert front.open_paths == 39
    back = motif_census(d, "back")
    assert _histogram(back) == [(3, 200), (6, 81)]


def test_triangle_word_census():
    d = _design("0001", 39)
    assert _histogram(motif_census(d, "front")) == [(3, 131), (30, 16)]
    assert _histogram(motif_census(d, "back")) == [(3, 200), (24, 16)]


def test_every_front_cycle_of_the_hexagram_design_is_a_hexagram():
    d = _design("0", 39)
    hexagram = motif_signature(koch_polygon(1).cycle)
    cycles, paths = build_components(d, "front")
    assert len(cycles) == 81
    assert all(motif_signature(c) == hexagram for c in cycles)
    assert len(paths) == 39


def test_cycle_canonical_form_is_traversal_independent():
    verts = [(0, 0), (1, 0), (1, 1), (0, 2), (-1, 2), (-1, 1)]
    for k in range(6):
        rotated = verts[k:] + verts[:k]
        assert Cycle.from_vertices(rotated) == Cycle.from_vertices(verts)
        assert Cycle.from_vertices(rotated[::-1]) == Cycle.from_vertices(verts)


def test_cycle_directions_are_unit_steps_closing_up():
    cyc = koch_polygon(2).cycle
    assert len(cyc.codes) == len(cyc.vertices) == 48
    assert all(1 <= code <= 6 for code in cyc.codes)
    steps = [DIRECTIONS[code - 1] for code in cyc.codes]
    assert (sum(di for di, _ in steps), sum(dj for _, dj in steps)) == (0, 0)


@pytest.mark.parametrize("verts", [
    [(0, 0), (2, 0), (0, 1)],  # a step of length 2
    [(0, 0), (1, 0), (2, 0)],  # the closing step is not a unit step
    [(0, 0), (1, 0)],
    [(0, 0)],
    [(0, 0), (1, 0), (0, 0), (1, 0)],  # retraces one edge
    [(0, 0), (1, 0), (0, 1)] * 2,  # a triangle listed twice
])
def test_from_vertices_rejects_what_is_not_a_lattice_cycle(verts):
    with pytest.raises(ValueError):
        Cycle.from_vertices(verts)


def _transform(verts, rotation, reflect, t):
    from isostitch.symmetry import point_matrix
    m = point_matrix(rotation, reflect)
    return [(m[0][0] * i + m[0][1] * j + t[0], m[1][0] * i + m[1][1] * j + t[1])
            for i, j in verts]


def _reference_signature(cycle):
    """The signature as the minimum, over the 24 string-joined direction
    sequences of the cycle's images, of their least rotations, with the
    directions read off the vertex tuples."""
    verts = cycle.vertices
    dirs = [DIRECTION_INDEX[(b[0] - a[0], b[1] - a[1])]
            for a, b in zip(verts, verts[1:] + verts[:1])]
    rev = [(d + 3) % 6 for d in reversed(dirs)]
    variants = []
    for seq in (dirs, rev):
        for r in range(6):
            variants.append("".join(str((d + r) % 6) for d in seq))
            variants.append("".join(str((r - d) % 6) for d in seq))
    return min(_least_rotation(v) for v in variants)


# a parallelogram of sides 2 and 1, unlike the snowflakes not mapped onto
# itself by any reflection
_CHIRAL = Cycle.from_vertices([(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1)])


@settings(deadline=None)
@given(st.integers(0, 5), st.booleans(),
       st.tuples(st.integers(-7, 7), st.integers(-7, 7)),
       st.one_of(st.integers(0, 4).map(lambda order: koch_polygon(order).cycle),
                 st.just(_CHIRAL)))
def test_signature_is_isometry_invariant(rotation, reflect, t, base):
    moved = Cycle.from_vertices(_transform(list(base.vertices), rotation, reflect, t))
    assert motif_signature(moved) == motif_signature(base) == _reference_signature(moved)
    assert Cycle.from_vertices(moved.vertices) == moved


def test_different_motifs_have_different_signatures():
    assert motif_signature(koch_polygon(1).cycle) != motif_signature(koch_polygon(2).cycle)
    triangle = Cycle.from_vertices([(0, 0), (1, 0), (0, 1)])
    hexagon = Cycle.from_vertices([(0, 0), (1, 0), (1, 1), (0, 2), (-1, 2), (-1, 1)])
    assert motif_signature(triangle) != motif_signature(hexagon)


@given(st.text(alphabet="012345", min_size=1, max_size=60))
def test_booth_least_rotation_matches_naive(s):
    naive = min(s[k:] + s[:k] for k in range(len(s)))
    assert _least_rotation(s) == naive


def test_census_count_ordering_is_deterministic():
    d = _design("0001", 39)
    census = motif_census(d, "front")
    keys = list(census.counts)
    assert keys == sorted(keys, key=lambda sig: (len(sig), sig))
    assert census.total_cycles() == sum(census.counts.values())


@pytest.fixture
def booth_runs(monkeypatch):
    """The strings design_graph._least_rotation is called on, from here on."""
    calls = []
    least_rotation = design_graph._least_rotation

    def counting(s):
        calls.append(s)
        return least_rotation(s)

    monkeypatch.setattr(design_graph, "_least_rotation", counting)
    return calls


def test_census_signs_each_shape_once(booth_runs):
    # 81 translates of one hexagram: per cycle, 24 variants each would make
    # 1,944 Booth runs.
    census = motif_census(_design("0", 39), "front")
    assert census.total_cycles() == 81
    assert len(booth_runs) <= 24


def test_a_fully_symmetric_cycle_costs_one_booth_run_per_sense(booth_runs):
    # Every point symmetry maps the snowflake onto itself, so its 12
    # counterclockwise variants are rotations of one string and its 12
    # clockwise ones of another; the two senses are never rotations of each
    # other.
    polygon = koch_polygon(4).cycle
    assert not booth_runs
    motif_signature(polygon)
    assert len(booth_runs) == 2


def _oracle_components(design, side):
    """Reference decomposition from the materialized segment set: an
    adjacency dict, paths seeded at degree-1 vertices, then cycles, both in
    sorted vertex order."""
    adj: dict = {}
    for seg in design.side(side):
        u, v = segment_endpoints(seg)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen: set = set()

    def walk(start):
        out, prev, cur = [start], None, start
        seen.add(start)
        while True:
            nxt = next((nb for nb in adj[cur] if nb != prev), None)
            if nxt is None or nxt in seen:
                return out
            out.append(nxt)
            seen.add(nxt)
            prev, cur = cur, nxt

    paths = [tuple(walk(v)) for v in sorted(adj) if v not in seen and len(adj[v]) == 1]
    cycles = [Cycle.from_vertices(walk(v)) for v in sorted(adj) if v not in seen]
    return cycles, paths


def _assert_matches_oracle(design):
    for side in ("front", "back"):
        cycles, paths = build_components(design, side)
        ref_cycles, ref_paths = _oracle_components(design, side)
        assert cycles == ref_cycles
        assert paths == ref_paths


mixed_spec = st.one_of(
    st.sampled_from("01").map(DirectionSpec.periodic),
    st.builds(DirectionSpec.periodic, st.text(alphabet="01", min_size=1, max_size=8),
              phase=st.integers(-5, 5)))
_bits = st.tuples(*[st.integers(0, 1)] * 3)
# any of the 64 phase base/slope conventions calibrate chooses from
convention = st.builds(GridConvention, phase_base=_bits, phase_slope=_bits)


@settings(max_examples=150, deadline=None)
@given(st.tuples(mixed_spec, mixed_spec, mixed_spec), convention,
       st.integers(-9, 9), st.integers(-9, 9),
       st.integers(0, 20), st.integers(0, 20))
def test_components_match_adjacency_oracle(specs, conv, i0, j0, w, h):
    # off-origin windows with odd and even bounds, down to one-vertex-thin
    # strips whose corner C-lines carry no segment
    design = generate_design(Window(i0, i0 + w, j0, j0 + h), StitchPattern(specs, conv))
    _assert_matches_oracle(design)
    _assert_matches_oracle(dual(design))


@settings(deadline=None)
@given(st.tuples(mixed_spec, mixed_spec, mixed_spec), convention,
       st.integers(-9, 9), st.integers(-9, 9),
       st.integers(0, 30), st.integers(0, 30))
def test_signature_matches_the_string_join_reference(specs, conv, i0, j0, w, h):
    design = generate_design(Window(i0, i0 + w, j0, j0 + h), StitchPattern(specs, conv))
    for side in ("front", "back"):
        for cycle in build_components(design, side)[0]:
            assert motif_signature(cycle) == _reference_signature(cycle)
            assert Cycle.from_vertices(cycle.vertices) == cycle


@settings(max_examples=60, deadline=None)
@given(st.tuples(mixed_spec, mixed_spec, mixed_spec), convention,
       st.integers(-9, 9), st.integers(-9, 9),
       st.integers(0, 30), st.integers(0, 30))
def test_census_counts_each_cycle_by_its_signature(specs, conv, i0, j0, w, h):
    design = generate_design(Window(i0, i0 + w, j0, j0 + h), StitchPattern(specs, conv))
    for side in ("front", "back"):
        cycles, paths = build_components(design, side)
        per_cycle = Counter(motif_signature(c) for c in cycles)
        census = motif_census(design, side)
        assert list(census.counts.items()) == sorted(per_cycle.items(),
                                                     key=lambda kv: (len(kv[0]), kv[0]))
        assert census.open_paths == len(paths)


@pytest.mark.parametrize("order,phases,window", [
    (2, (0, 0, 1), Window(0, 44, 0, 44)),
    (2, (0, 3, 5), Window(-7, 30, 3, 41)),
    (3, (0, 0, 1), Window(0, 116, 0, 116)),
    # verify-koch --order 4 with its default window, as it finds the snowflake
    (4, (0, 0, 1), Window(0, 332, 0, 332)),
])
def test_koch_components_match_adjacency_oracle(order, phases, window):
    pattern = StitchPattern(specs=tuple(DirectionSpec.koch(order, phase=p) for p in phases))
    _assert_matches_oracle(generate_design(window, pattern))


@settings(max_examples=60, deadline=None)
@given(st.tuples(mixed_spec, mixed_spec, mixed_spec), convention,
       st.integers(-30, 9), st.integers(-30, 9),
       st.integers(0, 24), st.integers(0, 24), st.integers(0, 1))
def test_census_is_unchanged_by_a_period_translation_of_the_window(specs, conv, i0, j0,
                                                                    w, h, which):
    pattern = StitchPattern(specs, conv)
    ti, tj = translation_basis(pattern)[which]
    design = generate_design(Window(i0, i0 + w, j0, j0 + h), pattern)
    moved = generate_design(Window(i0 + ti, i0 + ti + w, j0 + tj, j0 + tj + h), pattern)
    for side in ("front", "back"):
        assert motif_census(moved, side) == motif_census(design, side)


def test_build_components_working_memory_is_a_few_bytes_per_vertex():
    # What build_components allocates beyond its result must stay a few
    # bytearrays over the window: a table with an object per vertex would
    # cost tens of bytes per vertex and show at high Koch orders.
    window = Window(0, 116, 0, 116)
    pattern = StitchPattern(specs=tuple(DirectionSpec.koch(3, phase=p) for p in (0, 0, 1)))
    design = generate_design(window, pattern)
    tracemalloc.start()
    try:
        result = build_components(design, "front")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result[0]
    assert peak - held <= 8 * window.vertex_count()


def test_build_components_result_is_a_few_bytes_per_cycle_vertex():
    # A cycle is its least vertex and one byte per step; vertex tuples per
    # cycle would cost about a hundred bytes per vertex and, at Koch order
    # 6, most of the memory the search needs.
    pattern = StitchPattern(specs=tuple(DirectionSpec.koch(3, phase=p) for p in (0, 0, 1)))
    design = generate_design(Window(0, 116, 0, 116), pattern)
    tracemalloc.start()
    try:
        cycles, paths = build_components(design, "front")
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 60 * sum(len(c) for c in cycles)
