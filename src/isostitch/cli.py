"""Command line interface: rendering, analysis reports, Koch verification
and convention calibration.

Exit codes: 0 success, 2 usage error, 3 I/O error, 4 analysis inconclusive,
5 verification not found.

Each function imports the modules it uses when it runs, so a process that
runs one command line through ``run`` (``python -m isostitch``, the
``isostitch`` script) loads only what that command needs: --version and
--help load no design module, and verify-koch loads neither symmetry nor
render. ``main`` is the in-process entry point; it loads every design
module first (see its docstring).
"""
from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from . import __version__
from .errors import (CalibrationError, InvalidOrderError, IsostitchError,
                     OverlapTooSmallError, WindowError, WordError)

if TYPE_CHECKING:
    from .design_graph import MotifCensus
    from .grid import GridConvention, Window
    from .koch_oracle import VerificationResult
    from .stitcher import Design, DirectionSpec, StitchPattern
    from .symmetry import LatticeIsometry

USAGE_ERROR, IO_ERROR, INCONCLUSIVE, NOT_FOUND = 2, 3, 4, 5


# ---------------------------------------------------------------- reports

def _spec_to_dict(spec: DirectionSpec) -> dict:
    if spec.order is None:
        return {"kind": "periodic", "word": spec.bits, "phase": spec.phase}
    return {"kind": "koch", "order": spec.order, "phase": spec.phase}


def _pattern_to_dict(p: StitchPattern) -> dict:
    from .grid import PRESENCE_PARITY
    return {"directions": [_spec_to_dict(s) for s in p.specs],
            "convention": {"presence_parity": list(PRESENCE_PARITY),
                           "phase_base": list(p.convention.phase_base),
                           "phase_slope": list(p.convention.phase_slope)}}


def iso_to_dict(iso: LatticeIsometry) -> dict:
    return {"role": iso.role, "rotation": iso.rotation, "reflect": iso.reflect,
            "translation": list(iso.translation),
            "center": None if iso.center is None else [str(c) for c in iso.center]}


def _koch_to_dict(res: VerificationResult) -> dict:
    from .grid import Family
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
    import json
    text = json.dumps(payload, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ------------------------------------------------------------ arg parsing

def _parse_window(text: str) -> Window:
    from .grid import Window
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
    from .stitcher import DirectionSpec, StitchPattern
    phases = [args.phase_a or 0, args.phase_b or 0, args.phase_c or 0]
    if args.koch_order is not None:
        if any(w is not None for w in (args.word, args.word_a, args.word_b, args.word_c)):
            raise WordError("--koch-order cannot be combined with --word options")
        from .koch_oracle import KOCH_PHASES, koch_pattern
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
    from .grid import Window
    from .stitcher import period_cell
    ci, cj = period_cell(pattern)
    h = max(4 * max(ci, cj), 24)
    return Window(-h, h, -h, h).validate()


def _window_from_args(args, pattern: StitchPattern) -> Window:
    if args.window is not None:
        return _parse_window(args.window)
    if args.koch_order is not None:
        from .koch_oracle import koch_window
        return koch_window(args.koch_order)
    return _auto_window(pattern)


# ---------------------------------------------------------------- analyze

def _degree(degrees: list) -> dict:
    violations = sum(1 for d in degrees if d != 2)
    return {"checked": len(degrees), "violations": violations, "pass": violations == 0}


def invariant_results(design: Design) -> dict:
    """Degree two at each interior visited vertex, per side, and the count
    of window vertices with no stitch against grid's count of empty ones; a
    window one vertex wide can fail the latter. One table counts the stitch
    ends at each vertex, front ends as 1 and back ends as 8: no vertex ends
    more than six, so count % 8 and count // 8 are its two degrees, and as
    every stitch lies in the window, the vertices not in it have none."""
    from .grid import EMPTY, segment_endpoints, vertex_degree_class
    win = design.window
    ends: dict = {}
    for weight, segments in ((1, design.front), (8, design.back)):
        for seg in segments:
            for v in segment_endpoints(seg):
                ends[v] = ends.get(v, 0) + weight
    interior_ends = [ends.get(v, 0) for v in win.vertices()
                     if win.is_interior(v) and vertex_degree_class(v) != EMPTY]
    empty = win.vertex_count() - len(ends)
    expected = sum(1 for v in win.vertices() if vertex_degree_class(v) == EMPTY)
    return {"front_degree_two": _degree([n % 8 for n in interior_ends]),
            "back_degree_two": _degree([n // 8 for n in interior_ends]),
            "empty_vertices": {"empty": empty, "total": win.vertex_count(),
                               "expected": expected, "pass": empty == expected}}


def census_to_dict(census: MotifCensus) -> dict:
    return {"classes": [{"length": len(sig), "signature": sig, "count": n}
                        for sig, n in census.counts.items()],
            "open_paths": census.open_paths,
            "total_cycles": census.total_cycles()}


def cmd_analyze(args) -> int:
    from .design_graph import motif_census
    from .stitcher import dual, generate_design
    from .symmetry import classify_wallpaper, is_self_dual
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
    from dataclasses import replace

    from .render import RenderOptions, to_svg
    from .stitcher import generate_design
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
        from .koch_oracle import find_koch, koch_polygon
        hit = find_koch(design, koch_polygon(args.koch_order))
        if hit is not None:
            opts = replace(opts, highlight=(hit,))
    payload = to_svg(design, opts)
    with open(args.out, "wb") as fh:
        fh.write(payload)
    front, back = (sum(count for *_, count in design.runs(side)) for side in ("front", "back"))
    print(f"{front} front / {back} back segments -> {args.out}")
    return 0


# ------------------------------------------------------------ verify-koch

def cmd_verify_koch(args) -> int:
    from .koch_oracle import koch_pattern, koch_window, phase_candidates, verify_koch
    if not 1 <= args.order <= 6:
        raise InvalidOrderError(f"--order must be in 1..6, got {args.order}")
    window = _parse_window(args.window) if args.window else koch_window(args.order)
    phases = None
    if args.phase_b is not None or args.phase_c is not None:
        phases = (0, args.phase_b or 0, args.phase_c or 0)
    result = verify_koch(args.order, window, phases)
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
    if phases is None:
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
    from .design_graph import motif_census, motif_signature
    from .grid import GridConvention, Window
    from .koch_oracle import koch_polygon
    from .stitcher import DirectionSpec, StitchPattern, generate_design
    from .symmetry import classify_wallpaper
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
    from .grid import PRESENCE_PARITY
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
    v.add_argument("--phase-b", type=int,
                   help="test this phase for direction B (0 if only --phase-c is given) "
                        "instead of searching")
    v.add_argument("--phase-c", type=int,
                   help="test this phase for direction C (0 if only --phase-b is given) "
                        "instead of searching")
    v.add_argument("--report", help="optional JSON report path")
    v.set_defaults(func=cmd_verify_koch)

    c = sub.add_parser("calibrate", help="brute-force the stitch anchoring convention")
    c.set_defaults(func=cmd_calibrate)
    return top


def run(argv: list[str] | None = None) -> int:
    """Run one command line; the subcommand loads only the modules it uses."""
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


def main(argv: list[str] | None = None) -> int:
    """Run one command line in this process, as ``run`` does, after loading
    every design module a subcommand can use. A caller that wraps or patches
    module functions between calls, as the per-layer tracer in
    ``benchmarks/layers.py`` does, then finds every module in sys.modules
    whichever subcommand ran first."""
    from . import design_graph, koch_oracle, render, stitcher, symmetry  # noqa: F401
    return run(argv)


if __name__ == "__main__":
    raise SystemExit(run())
