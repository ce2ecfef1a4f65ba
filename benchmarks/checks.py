"""Checks of the CLI's outputs that do not rely on isostitch itself.

Each check takes one command's arguments, stdout bytes and output file
bytes (None when it writes no file) and returns a list of problems, empty
when the output is valid.
"""
from __future__ import annotations

import json
import re

WALLPAPER_GROUPS = {"p1", "p2", "p3", "p3m1", "p31m", "p6", "p6mm", "cm", "cmm",
                    "pm", "pg", "pmm", "pmg", "pgg", "Unknown"}
REPORT_KEYS = {"tool_version", "pattern", "window", "invariant_results", "census",
               "wallpaper", "self_dual", "koch"}
# Unit steps of the triangular lattice in (i, j) coordinates.
UNIT_STEPS = {(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)}

ANALYZE_LINE = re.compile(
    rb"wallpaper front=(\S+) back=(\S+) self_dual=(True|False) -> (\S+)\n")
RENDER_LINE = re.compile(rb"(\d+) front / (\d+) back segments -> (\S+)\n")
KOCH_LINE = re.compile(rb"order (\d+): found \((\d+) segments, phases (\d+),(\d+),(\d+)\)\n")
CALIBRATE_LINE = re.compile(rb"(accepting|calibrated): base=(\([01], [01], [01]\)) "
                            rb"slope=(\([01], [01], [01]\))")


def _load_report(output: bytes | None, problems: list[str]) -> dict | None:
    try:
        report = json.loads(output)
    except (TypeError, ValueError) as exc:
        problems.append(f"report is not JSON: {exc}")
        return None
    if set(report) != REPORT_KEYS:
        problems.append(f"report keys {sorted(report)}")
        return None
    return report


def check_analyze(argv: list[str], stdout: bytes, output: bytes | None) -> list[str]:
    problems: list[str] = []
    line = ANALYZE_LINE.fullmatch(stdout)
    report = _load_report(output, problems)
    if line is None:
        problems.append(f"stdout {stdout[:200]!r}")
    if report is None or line is None:
        return problems
    for side, group in (("front", line[1]), ("back", line[2])):
        if report["wallpaper"][side]["group"] != group.decode():
            problems.append(f"{side} group differs between stdout and report")
        if group.decode() not in WALLPAPER_GROUPS:
            problems.append(f"unknown {side} group {group!r}")
        census = report["census"][side]
        if census["total_cycles"] != sum(c["count"] for c in census["classes"]):
            problems.append(f"{side} census total does not add up")
        if any(len(c["signature"]) != c["length"] for c in census["classes"]):
            problems.append(f"{side} census signature length mismatch")
    if str(report["self_dual"]["value"]) != line[3].decode():
        problems.append("self_dual differs between stdout and report")
    if not all(entry["pass"] for entry in report["invariant_results"].values()):
        problems.append("an invariant check failed")
    if report["koch"] is not None:
        problems.append("analyze report carries a koch result")
    return problems


def check_render(argv: list[str], stdout: bytes, output: bytes | None) -> list[str]:
    line = RENDER_LINE.fullmatch(stdout)
    if line is None:
        return [f"stdout {stdout[:200]!r}"]
    if output is None or not output.startswith(b'<?xml version="1.0" encoding="UTF-8"?>\n<svg ') \
            or not output.endswith(b"</svg>\n"):
        return ["SVG header or footer missing"]
    segments = int(line[1]) + int(line[2])
    if output.count(b"<line ") != segments:
        return [f"SVG has {output.count(b'<line ')} lines, stdout says {segments} segments"]
    return []


def check_koch_cycle(vertices: list[list[int]], order: int) -> list[str]:
    """The matched cycle has 3 * 4**order distinct vertices joined by unit
    lattice steps, and its last vertex steps back to its first."""
    problems = []
    if len(vertices) != 3 * 4 ** order:
        problems.append(f"cycle has {len(vertices)} vertices, want {3 * 4 ** order}")
    if len({tuple(v) for v in vertices}) != len(vertices):
        problems.append("cycle repeats a vertex")
    for a, b in zip(vertices, vertices[1:] + vertices[:1]):
        if (b[0] - a[0], b[1] - a[1]) not in UNIT_STEPS:
            problems.append(f"step {a} -> {b} is not a unit lattice step")
            break
    return problems


def check_verify_koch(argv: list[str], stdout: bytes, output: bytes | None) -> list[str]:
    problems: list[str] = []
    line = KOCH_LINE.fullmatch(stdout)
    report = _load_report(output, problems)
    if line is None:
        problems.append(f"stdout {stdout[:200]!r}")
    if report is None or line is None:
        return problems
    order = int(argv[argv.index("--order") + 1])
    if int(line[1]) != order or int(line[2]) != 3 * 4 ** order:
        problems.append("stdout names the wrong order or segment count")
    koch = report["koch"]
    if not koch["found"] or koch["matched_cycle"] is None:
        return problems + ["report says not found"]
    if [koch["phases"][f] for f in "ABC"] != [int(p) for p in line.group(3, 4, 5)]:
        problems.append("phases differ between stdout and report")
    return problems + check_koch_cycle(koch["matched_cycle"], order)


def check_calibrate(argv: list[str], stdout: bytes, output: bytes | None) -> list[str]:
    lines = stdout.splitlines()
    parsed = [CALIBRATE_LINE.match(text) for text in lines]
    if len(lines) < 2 or None in parsed or parsed[-1][1] != b"calibrated" \
            or any(p[1] != b"accepting" for p in parsed[:-1]):
        return [f"stdout {stdout[:200]!r}"]
    # The least accepting convention is printed first and chosen.
    if parsed[0].group(2, 3) != parsed[-1].group(2, 3):
        return ["calibrated convention is not the first accepted one"]
    return []


CHECKS = {"analyze": check_analyze, "render": check_render,
          "verify-koch": check_verify_koch, "calibrate": check_calibrate}
