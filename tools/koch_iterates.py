"""Count the snowflake iterates of every order on both faces of the order-n
Koch design.

For each order n given (default 3 4 5) it stitches the order-n word in all
three directions at phases (0, 0, 1), the phases verify-koch finds, on the
window 0:4*3^n+8 on both axes (verify-koch's default), and reads from each
face's motif census the number of cycles whose motif signature is that of
koch_polygon(k), k = 1..n; the census signs each distinct shape once.
It prints one Markdown table row per design and face.

Run from the repository root (standard library only; on a 2-core VM
orders 3-5 take 1.6 s, and order 6 takes 9.3 s at 222 MB peak RSS):

    PYTHONPATH=src python3 tools/koch_iterates.py 3 4 5
"""
from __future__ import annotations

import sys

from isostitch import (DirectionSpec, StitchPattern, Window, generate_design,
                       koch_polygon, motif_census, motif_signature)

PHASES = (0, 0, 1)


def iterate_counts(order: int) -> dict[str, list[int]]:
    """Per face, the number of order-k snowflake cycles for k = 1..order."""
    side = 4 * 3 ** order + 8
    pattern = StitchPattern(specs=tuple(DirectionSpec.koch(order, phase=p) for p in PHASES))
    design = generate_design(Window(0, side, 0, side), pattern)
    targets = [motif_signature(koch_polygon(k).cycle) for k in range(1, order + 1)]
    counts = {}
    for face in ("front", "back"):
        census = motif_census(design, face).counts
        counts[face] = [census.get(sig, 0) for sig in targets]
    return counts


def main(argv: list[str]) -> int:
    orders = [int(a) for a in argv] or [3, 4, 5]
    top = max(orders)
    print("| design order | window | face | "
          + " | ".join(f"order {k}" for k in range(1, top + 1)) + " |")
    print("|---" * (top + 3) + "|")
    for order in orders:
        side = 4 * 3 ** order + 8
        for face, found in iterate_counts(order).items():
            cells = [f"{n:,}" for n in found] + [""] * (top - order)
            print(f"| {order} | `0:{side}` | {face} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
