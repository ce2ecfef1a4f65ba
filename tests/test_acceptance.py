"""End-to-end acceptance checks.

Each test prints one CRITERION line (PASS or FAIL with the measured detail)
before asserting, so a full run documents every criterion's outcome. Run
with `pytest -rA` to see the lines for passing tests too.
"""
import json
import random
import subprocess
import sys
import time

import pytest

from isostitch import (DirectionSpec, StitchPattern, Window, classify_wallpaper,
                       dual, generate_design, is_self_dual, is_symmetry,
                       koch_directions, koch_polygon, koch_word, motif_census,
                       motif_signature, period_cell, segment_endpoints,
                       vertex_degree_class, verify_koch)
from isostitch.grid import EMPTY
from koch_rule import replace_runs, scale_directions


def _report(n, ok: bool, detail: str) -> None:
    print(f"CRITERION {n} {'PASS' if ok else 'FAIL'} - {detail}")


def _centered_design(word: str):
    pat = StitchPattern.uniform(DirectionSpec.periodic(word))
    ci, cj = period_cell(pat)
    h = max(4 * max(ci, cj), 24)
    return generate_design(Window(-h, h, -h, h), pat)


def _koch_design(order: int, window: Window, phase_c: int = 1):
    pat = StitchPattern(specs=(DirectionSpec.koch(order),
                               DirectionSpec.koch(order),
                               DirectionSpec.koch(order, phase=phase_c)))
    return generate_design(window, pat)


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "isostitch", *args],
                          capture_output=True)


def test_criterion_1_word_recursion_exactness():
    t0 = time.perf_counter()
    values_ok = [koch_word(n) for n in (1, 2, 3)] == ["0", "110", "100001110"]
    lengths_ok = all(len(koch_word(n)) == 3 ** (n - 1) for n in range(1, 9))
    elapsed = time.perf_counter() - t0
    ok = values_ok and lengths_ok and elapsed < 0.001
    _report(1, ok, f"words exact={values_ok} lengths(n<=8)={lengths_ok} "
                   f"runtime={elapsed * 1000:.3f}ms (budget 1ms)")
    assert ok


def test_criterion_2_dilute_invariants_on_random_patterns():
    rng = random.Random(20260814)
    t0 = time.perf_counter()
    checked = degree_bad = fraction_bad = 0
    for trial in range(100):
        word = "".join(rng.choice("01") for _ in range(rng.randint(1, 8)))
        specs = tuple(DirectionSpec.periodic(word, phase=rng.randint(-4, 4))
                      for _ in range(3))
        pattern = StitchPattern(specs=specs)
        i0 = rng.randint(-60, 60)
        j0 = rng.randint(-60, 60)
        wi = rng.randint(8, 119)
        wj = rng.randint(8, 119)
        if trial % 2 == 0:
            wi |= 1
            wj |= 1  # odd span means an even point count per side
        win = Window(i0, i0 + wi, j0, j0 + wj)
        design = generate_design(win, pattern)
        for side in ("front", "back"):
            deg: dict = {}
            for seg in getattr(design, side):
                for v in segment_endpoints(seg):
                    deg[v] = deg.get(v, 0) + 1
            for v in win.vertices():
                if win.is_interior(v) and vertex_degree_class(v) != EMPTY:
                    checked += 1
                    if deg.get(v, 0) != 2:
                        degree_bad += 1
        if win.i_count % 2 == 0 and win.j_count % 2 == 0:
            empties = sum(1 for v in win.vertices()
                          if vertex_degree_class(v) == EMPTY)
            if empties * 4 != win.vertex_count():
                fraction_bad += 1
    elapsed = time.perf_counter() - t0
    ok = degree_bad == 0 and fraction_bad == 0 and elapsed < 10
    _report(2, ok, f"100 random patterns, {checked} interior degree checks, "
                   f"{degree_bad} degree violations, {fraction_bad} windows off "
                   f"25% empty, runtime={elapsed:.1f}s (budget 10s)")
    assert ok


def test_criterion_3_hexagram_reproduction():
    t0 = time.perf_counter()
    design = generate_design(Window(0, 39, 0, 39),
                             StitchPattern.uniform(DirectionSpec.periodic("0")))
    front = motif_census(design, "front")
    back = motif_census(design, "back")
    hexagram = motif_signature(koch_polygon(1))
    front_ok = set(front.counts) == {hexagram}
    back_lengths = {len(sig) for sig in back.counts}
    back_ok = back_lengths == {3, 6}
    elapsed = time.perf_counter() - t0
    ok = front_ok and back_ok and elapsed < 1
    _report(3, ok, f"front classes={[(len(s), c) for s, c in front.counts.items()]} "
                   f"single hexagram class={front_ok}, back lengths={sorted(back_lengths)}, "
                   f"runtime={elapsed:.2f}s (budget 1s)")
    assert ok


def test_criterion_4_wallpaper_groups():
    t0 = time.perf_counter()
    results = {}
    reverified = True
    d0 = _centered_design("0")
    for label, d in (("0/front", d0), ("0/back", dual(d0))):
        group, witnesses = classify_wallpaper(d)
        results[label] = group
        reverified &= all(is_symmetry(d, w) for w in witnesses) and len(witnesses) > 0
    d1 = _centered_design("0001")
    group, witnesses = classify_wallpaper(d1)
    results["0001/front"] = group
    reverified &= all(is_symmetry(d1, w) for w in witnesses)
    elapsed = time.perf_counter() - t0
    ok = (results["0/front"] == "p6mm" and results["0/back"] == "p6mm"
          and results["0001/front"] == "p3m1" and reverified and elapsed < 30)
    _report(4, ok, f"groups={results} witnesses_reverified={reverified} "
                   f"runtime={elapsed:.1f}s (budget 30s)")
    assert ok


def test_criterion_5_self_duality():
    t0 = time.perf_counter()
    found01, witness = is_self_dual(_centered_design("01"))
    witness_ok = witness is not None
    found0, _ = is_self_dual(_centered_design("0"))
    found0001, _ = is_self_dual(_centered_design("0001"))
    elapsed = time.perf_counter() - t0
    ok = found01 and witness_ok and not found0 and not found0001 and elapsed < 30
    _report(5, ok, f"'01' self-dual={found01} witness={witness} "
                   f"'0'={found0} '0001'={found0001} runtime={elapsed:.1f}s (budget 30s)")
    assert ok


def _verify_window(order: int) -> Window:
    side = 4 * 3 ** order + 8
    return Window(0, side, 0, side)


def test_criterion_6_koch_verification_default_orders():
    t0 = time.perf_counter()
    found = {n: verify_koch(n, _verify_window(n)).found for n in (1, 2, 3)}
    exit_code = _cli("verify-koch", "--order", "2", "--phase-b", "0",
                     "--phase-c", "0").returncode
    elapsed = time.perf_counter() - t0
    ok = all(found.values()) and exit_code == 5 and elapsed < 120
    _report(6, ok, f"orders 1-3 found={found}, refutation exit code={exit_code} "
                   f"(want 5), runtime={elapsed:.1f}s (budget 120s)")
    assert ok


@pytest.mark.slow
def test_criterion_6_koch_verification_order_four():
    t0 = time.perf_counter()
    res = verify_koch(4, _verify_window(4))
    elapsed = time.perf_counter() - t0
    ok = res.found and elapsed < 1800
    _report(6, ok, f"(slow part) order 4 found={res.found} phases={res.phases} "
                   f"runtime={elapsed:.1f}s (budget 1800s)")
    assert ok


def test_criterion_7_lower_order_iterates_in_census():
    sig1 = motif_signature(koch_polygon(1))
    sig2 = motif_signature(koch_polygon(2))
    d3 = _koch_design(3, Window(0, 108, 0, 108))
    census3 = motif_census(d3, "front")
    n1_in_3 = census3.counts.get(sig1, 0)
    n2_in_3 = census3.counts.get(sig2, 0)
    d4 = _koch_design(4, Window(51, 163, 51, 163))
    census4 = motif_census(d4, "front")
    n2_in_4 = census4.counts.get(sig2, 0)
    ok = n1_in_3 >= 1 and n2_in_3 >= 1 and n2_in_4 >= 4
    _report(7, ok, f"order-3 design: order-1 count={n1_in_3} (want >=1), "
                   f"order-2 count={n2_in_3} (want >=1); "
                   f"order-4 design: order-2 count={n2_in_4} (want >=4)")
    assert ok


def test_criterion_8_oracle_self_consistency():
    t0 = time.perf_counter()
    counts_ok = simple_ok = True
    for k in range(6):
        p = koch_polygon(k)
        counts_ok &= len(p) == 3 * 4 ** k
        simple_ok &= len(set(p.vertices)) == len(p)
    replace_ok = all(replace_runs(scale_directions(koch_directions(k)))
                     == koch_directions(k + 1) for k in range(5))
    elapsed = time.perf_counter() - t0
    ok = counts_ok and simple_ok and replace_ok and elapsed < 5
    _report(8, ok, f"segment counts(k<=5)={counts_ok} simple={simple_ok} "
                   f"scale+replace(k<=4)={replace_ok} runtime={elapsed:.1f}s (budget 5s)")
    assert ok


def test_criterion_9_cli_determinism(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        svg = tmp_path / f"r{tag}.svg"
        rep = tmp_path / f"n{tag}.json"
        krep = tmp_path / f"k{tag}.json"
        render = _cli("render", "--word", "0", "--window", "0:20:0:20",
                      "--side", "both", "--out", str(svg))
        analyze = _cli("analyze", "--word", "01", "--report", str(rep))
        verify = _cli("verify-koch", "--order", "1", "--report", str(krep))
        calibrate = _cli("calibrate")
        assert render.returncode == analyze.returncode == verify.returncode == 0
        assert calibrate.returncode == 0
        outputs.append((svg.read_bytes(), rep.read_bytes(), krep.read_bytes(),
                        calibrate.stdout))
    names = ("render svg", "analyze json", "verify json", "calibrate stdout")
    same = {name: outputs[0][i] == outputs[1][i] for i, name in enumerate(names)}
    ok = all(same.values())
    _report(9, ok, f"byte-identical across repeated runs: {same}")
    assert ok
