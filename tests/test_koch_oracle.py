import pytest

from isostitch import koch_oracle
from isostitch import (InvalidOrderError, Window, WindowError, koch_directions,
                       koch_polygon, motif_signature, replace_runs,
                       scale_directions, verify_koch)


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


@pytest.mark.parametrize("order", [1, 2, 3])
def test_phase_quotient_agrees_with_the_full_search(order):
    # Every (0, b, c) has a hit exactly when its representative with b <= 1
    # does, and the quotient search returns the full scan's first hit.
    window = _window(order)
    polygon = koch_polygon(order)
    sig, length = motif_signature(polygon.cycle), polygon.segment_count
    period = koch_oracle.phase_period(order)
    hits = {}
    for b in range(period):
        for c in range(period):
            design = koch_oracle.generate_design(window, koch_oracle._pattern_for(order, (0, b, c)))
            hits[b, c] = koch_oracle._design_contains_polygon(design, length, sig)
    for (b, c), hit in hits.items():
        assert (hit is None) == (hits[b % 2, (c - b + b % 2) % period] is None)
    first = next((b, c) for (b, c), hit in sorted(hits.items()) if hit is not None)
    res = verify_koch(order, window)
    assert (res.phases[1], res.phases[2]) == first
    assert res.matched_cycle == hits[first]
    assert len(koch_oracle.phase_candidates(order)) == 2 * period


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
