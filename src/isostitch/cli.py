"""Command line interface: rendering, analysis reports, Koch verification
and convention calibration.

Exit codes: 0 success, 2 usage error, 3 I/O error, 4 analysis inconclusive,
5 verification not found.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import __version__
from .design_graph import MotifCensus, motif_census, motif_signature
from .errors import CalibrationError, InvalidOrderError, IsostitchError, \
    OverlapTooSmallError, WindowError, WordError
from .grid import EMPTY, PRESENCE_PARITY, Family, GridConvention, Window, \
    segment_endpoints, vertex_degree_class
from .koch_oracle import (KOCH_PHASES, VerificationResult, koch_pattern, koch_polygon,
                          koch_window, phase_candidates, verify_koch)
from .render import RenderOptions, to_svg
from .stitcher import Design, DirectionSpec, StitchPattern, dual, generate_design
from .symmetry import LatticeIsometry, classify_wallpaper, is_self_dual, period_cell

USAGE_ERROR, IO_ERROR, INCONCLUSIVE, NOT_FOUND = 2, 3, 4, 5


# ---------------------------------------------------------------- reports

def _spec_to_dict(spec: DirectionSpec) -> dict:
    out: dict = {"kind": spec.kind}
    if spec.kind == "periodic":
        out["word"] = str(spec.word)
    else:
        out["order"] = spec.order
    out["phase"] = spec.phase
    return out


def _pattern_to_dict(p: StitchPattern) -> dict:
    return {"directions": [_spec_to_dict(s) for s in p.specs],
            "convention": {"presence_parity": list(PRESENCE_PARITY),
                           "phase_base": list(p.convention.phase_base),
                           "phase_slope": list(p.convention.phase_slope)}}


def iso_to_dict(iso: LatticeIsometry) -> dict:
    return {"role": iso.role, "rotation": iso.rotation, "reflect": iso.reflect,
            "translation": list(iso.translation),
            "center": None if iso.center is None else [str(c) for c in iso.center]}


def _koch_to_dict(res: VerificationResult) -> dict:
    return {"found": res.found,
            "phases": {Family(f).name: v for f, v in sorted(res.phases.items())},
            "matched_cycle": None if res.matched_cycle is None
            else [list(v) for v in res.matched_cycle.vertices]}


def _report(pattern: StitchPattern, window: Window, invariants: dict, census: dict,
            wallpaper: dict, self_dual: dict | None, koch: VerificationResult | None) -> dict:
    """The JSON report; verify-koch leaves the analysis sections empty."""
    return {"tool_version": __version__,
            "pattern": _pattern_to_dict(pattern),
            "window": list(window),
            "invariant_results": invariants,
            "census": census,
            "wallpaper": wallpaper,
            "self_dual": self_dual,
            "koch": None if koch is None else _koch_to_dict(koch)}


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ------------------------------------------------------------ arg parsing

def _parse_window(text: str) -> Window:
    parts = text.split(":")
    if len(parts) != 4:
        raise WindowError(f"window must be imin:imax:jmin:jmax, got {text!r}")
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        raise WindowError(f"window bounds must be integers, got {text!r}") from None
    return Window(*nums).validate()


def _add_pattern_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--word", help="offset word for all three directions")
    p.add_argument("--word-a", help="offset word for direction A (horizontal lines)")
    p.add_argument("--word-b", help="offset word for direction B")
    p.add_argument("--word-c", help="offset word for direction C")
    p.add_argument("--koch-order", type=int,
                   help="use the order-n recursive word in all three directions")
    p.add_argument("--phase-a", type=int, default=None, help="word phase, direction A")
    p.add_argument("--phase-b", type=int, default=None, help="word phase, direction B")
    p.add_argument("--phase-c", type=int, default=None, help="word phase, direction C")
    p.add_argument("--window", help="lattice window as imin:imax:jmin:jmax")


def _pattern_from_args(args) -> StitchPattern:
    phases = [args.phase_a or 0, args.phase_b or 0, args.phase_c or 0]
    if args.koch_order is not None:
        if any(w is not None for w in (args.word, args.word_a, args.word_b, args.word_c)):
            raise WordError("--koch-order cannot be combined with --word options")
        phases = tuple(KOCH_PHASES[f] if p is None else p
                       for f, p in enumerate((args.phase_a, args.phase_b, args.phase_c)))
        return koch_pattern(args.koch_order, phases)
    words = [args.word_a, args.word_b, args.word_c]
    if args.word is not None:
        if any(w is not None for w in words):
            raise WordError("--word cannot be combined with --word-a/b/c")
        words = [args.word, args.word, args.word]
    if any(w is None for w in words):
        raise WordError("give --word, all of --word-a/b/c, or --koch-order")
    return StitchPattern(specs=tuple(
        DirectionSpec.periodic(words[f], phase=phases[f]) for f in range(3)))


def _auto_window(pattern: StitchPattern) -> Window:
    """Origin-centered window spanning at least four period cells."""
    ci, cj = period_cell(pattern)
    h = max(4 * max(ci, cj), 24)
    return Window(-h, h, -h, h).validate()


def _window_from_args(args, pattern: StitchPattern) -> Window:
    if args.window is not None:
        return _parse_window(args.window)
    if args.koch_order is not None:
        return koch_window(args.koch_order)
    return _auto_window(pattern)


# ---------------------------------------------------------------- analyze

def _degree(segments, interior_visited) -> dict:
    deg: dict = {}
    for seg in segments:
        for v in segment_endpoints(seg):
            deg[v] = deg.get(v, 0) + 1
    violations = sum(1 for v in interior_visited if deg.get(v, 0) != 2)
    return {"checked": len(interior_visited), "violations": violations,
            "pass": violations == 0}


def invariant_results(design: Design) -> dict:
    interior_visited = [v for v in design.window.vertices()
                        if design.window.is_interior(v)
                        and vertex_degree_class(v) != EMPTY]
    win = design.window
    empties = sum(1 for v in win.vertices() if vertex_degree_class(v) == EMPTY)
    odd_i = sum(1 for i in range(win.i_min, win.i_max + 1) if i % 2)
    odd_j = sum(1 for j in range(win.j_min, win.j_max + 1) if j % 2)
    expected = odd_i * odd_j
    return {"front_degree_two": _degree(design.front, interior_visited),
            "back_degree_two": _degree(design.back, interior_visited),
            "empty_vertices": {"empty": empties, "total": win.vertex_count(),
                               "expected": expected, "pass": empties == expected}}


def census_to_dict(census: MotifCensus) -> dict:
    return {"classes": [{"length": len(sig), "signature": sig, "count": n}
                        for sig, n in census.counts.items()],
            "open_paths": census.open_paths,
            "total_cycles": census.total_cycles()}


def cmd_analyze(args) -> int:
    pattern = _pattern_from_args(args)
    window = _window_from_args(args, pattern)
    design = generate_design(window, pattern)
    back_design = dual(design)
    exit_code = 0

    census = {"front": census_to_dict(motif_census(design, "front")),
              "back": census_to_dict(motif_census(design, "back"))}
    wallpaper: dict = {}
    for side_name, d in (("front", design), ("back", back_design)):
        try:
            group, witnesses = classify_wallpaper(d)
            wallpaper[side_name] = {"group": group,
                                    "witnesses": [iso_to_dict(w) for w in witnesses]}
        except OverlapTooSmallError as exc:
            wallpaper[side_name] = {"group": "Unknown", "witnesses": [],
                                    "error": str(exc)}
            exit_code = INCONCLUSIVE
    try:
        dual_found, witness = is_self_dual(design)
        self_dual = {"value": dual_found,
                     "witness": None if witness is None else iso_to_dict(witness)}
    except OverlapTooSmallError as exc:
        self_dual = {"value": False, "witness": None, "error": str(exc)}
        exit_code = INCONCLUSIVE

    _write_json(args.report, _report(pattern, window, invariant_results(design),
                                     census, wallpaper, self_dual, None))
    print(f"wallpaper front={wallpaper['front']['group']} "
          f"back={wallpaper['back']['group']} self_dual={self_dual['value']} "
          f"-> {args.report}")
    return exit_code


# ----------------------------------------------------------------- render

def cmd_render(args) -> int:
    try:
        opts = RenderOptions(side=args.side, mirror_back=args.mirror_back,
                             show_grid_dots=args.dots, show_empty_vertices=args.empty_dots,
                             stroke_width=args.stroke_width, unit_px=args.unit_px)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    pattern = _pattern_from_args(args)
    window = _window_from_args(args, pattern)
    design = generate_design(window, pattern)
    if args.highlight_koch:
        if args.koch_order is None:
            raise WordError("--highlight-koch requires --koch-order")
        res = verify_koch(args.koch_order, window, phase_search=False,
                          phases=tuple(s.phase for s in pattern.specs))
        if res.matched_cycle is not None:
            opts = replace(opts, highlight=(res.matched_cycle,))
    payload = to_svg(design, opts)
    with open(args.out, "wb") as fh:
        fh.write(payload)
    front, back = (sum(count for *_, count in design.runs(side)) for side in ("front", "back"))
    print(f"{front} front / {back} back segments -> {args.out}")
    return 0


# ------------------------------------------------------------ verify-koch

def cmd_verify_koch(args) -> int:
    if not 1 <= args.order <= 6:
        raise InvalidOrderError(f"--order must be in 1..6, got {args.order}")
    if args.order >= 5 and not args.long_running:
        raise InvalidOrderError(
            f"order {args.order} search is long-running; pass --long-running to confirm")
    window = _parse_window(args.window) if args.window else koch_window(args.order)
    phases = (0, args.phase_b, args.phase_c)
    result = verify_koch(args.order, window, phase_search=args.phase_search,
                         phases=phases)
    result_phases = tuple(result.phases[f] for f in range(3))
    if args.report:
        _write_json(args.report, _report(koch_pattern(args.order, result_phases), window,
                                         invariants={}, census={}, wallpaper={},
                                         self_dual=None, koch=result))
    phase_text = ",".join(map(str, result_phases))
    if result.found:
        print(f"order {args.order}: found ({3 * 4 ** args.order} segments, "
              f"phases {phase_text})")
        return 0
    if args.phase_search:
        searched = f"searched {len(phase_candidates(args.order))} phase candidates"
    else:
        searched = f"tried phases {phase_text}"
    print(f"order {args.order}: not found ({searched})")
    return NOT_FOUND


# -------------------------------------------------------------- calibrate

def calibrate() -> tuple[GridConvention, list[GridConvention]]:
    """Brute-force the 64 stitch anchoring conventions (phase base and slope
    per direction; presence parity is the fixed grid.PRESENCE_PARITY).

    A convention is accepted when the all-0 design on a 40x40
    window has degree-2 and quarter-empty invariants, a front census that is
    a single 12-segment motif class, and full hexagonal symmetry with
    mirrors. Returns the lexicographically least accepting convention plus
    the whole accepting list.
    """
    win = Window(0, 39, 0, 39)
    hexagram_sig = motif_signature(koch_polygon(1))
    accepted = []
    for base_bits in range(8):
        for slope_bits in range(8):
            base = tuple((base_bits >> f) & 1 for f in range(3))
            slope = tuple((slope_bits >> f) & 1 for f in range(3))
            conv = GridConvention(phase_base=base, phase_slope=slope)
            pattern = StitchPattern.uniform(DirectionSpec.periodic("0"), convention=conv)
            design = generate_design(win, pattern)
            inv = invariant_results(design)
            if not all(entry["pass"] for entry in inv.values()):
                continue
            census = motif_census(design, "front")
            if set(census.counts) != {hexagram_sig}:
                continue
            group, _ = classify_wallpaper(design)
            if group != "p6mm":
                continue
            accepted.append(conv)
    if not accepted:
        raise CalibrationError("no anchoring convention reproduces the hexagram tiling")
    accepted.sort(key=lambda c: (c.phase_base, c.phase_slope))
    return accepted[0], accepted


def cmd_calibrate(args) -> int:
    chosen, accepted = calibrate()
    for conv in accepted:
        print(f"accepting: base={conv.phase_base} slope={conv.phase_slope}")
    print(f"calibrated: base={chosen.phase_base} slope={chosen.phase_slope} "
          f"(presence parity {PRESENCE_PARITY})")
    return 0


# ------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="isostitch",
        description="Dilute stitch designs on the isometric grid: render, "
                    "analyze, verify snowflake content, calibrate.")
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    r = sub.add_parser("render", help="write an SVG chart of a design")
    _add_pattern_args(r)
    r.add_argument("--side", choices=("front", "back", "both"), default="front")
    r.add_argument("--mirror-back", action="store_true",
                   help="flip left-right, as seen from behind the fabric")
    r.add_argument("--dots", action="store_true", help="draw lattice dots")
    r.add_argument("--empty-dots", action="store_true",
                   help="also draw the unvisited quarter of vertices")
    r.add_argument("--highlight-koch", action="store_true",
                   help="outline the verified snowflake cycle (koch mode only)")
    r.add_argument("--stroke-width", type=float, default=0.12)
    r.add_argument("--unit-px", type=float, default=16.0)
    r.add_argument("--out", required=True, help="output SVG path")
    r.set_defaults(func=cmd_render)

    a = sub.add_parser("analyze", help="write a JSON analysis report")
    _add_pattern_args(a)
    a.add_argument("--report", required=True, help="output JSON path")
    a.set_defaults(func=cmd_analyze)

    v = sub.add_parser("verify-koch", help="search a design for the snowflake iterate")
    v.add_argument("--order", type=int, required=True, help="iterate order, 1..6")
    v.add_argument("--window", help="lattice window as imin:imax:jmin:jmax")
    v.add_argument("--phase-search", action=argparse.BooleanOptionalAction, default=True,
                   help="scan relative word phases (default) or test fixed ones")
    v.add_argument("--phase-b", type=int, default=0,
                   help="fixed phase for direction B with --no-phase-search")
    v.add_argument("--phase-c", type=int, default=0,
                   help="fixed phase for direction C with --no-phase-search")
    v.add_argument("--long-running", action="store_true",
                   help="confirm searches of order 5 and up")
    v.add_argument("--report", help="optional JSON report path")
    v.set_defaults(func=cmd_verify_koch)

    c = sub.add_parser("calibrate", help="brute-force the stitch anchoring convention")
    c.set_defaults(func=cmd_calibrate)
    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WordError, InvalidOrderError, WindowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return IO_ERROR
    except IsostitchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INCONCLUSIVE


if __name__ == "__main__":
    raise SystemExit(main())
