"""Count the snowflake iterates of every order on both faces of the order-n
Koch design.

For each order n given (default 3 4 5) it stitches the order-n word in all
three directions at phases (0, 0, 1), the phases verify-koch finds, on the
window 0:4*3^n+8 on both axes (verify-koch's default), and counts the cycles
of each face whose motif signature is that of koch_polygon(k), k = 1..n.
It prints one Markdown table row per design and face.

Run from the repository root (standard library only; orders 3-5 take
12-15 s on a 2-core VM):

    PYTHONPATH=src python3 tools/koch_iterates.py 3 4 5
"""
from __future__ import annotations

import sys

from isostitch import (DirectionSpec, StitchPattern, Window, build_components,
                       generate_design, koch_polygon, motif_signature)

PHASES = (0, 0, 1)


def iterate_counts(order: int) -> dict[str, list[int]]:
    """Per face, the number of order-k snowflake cycles for k = 1..order."""
    side = 4 * 3 ** order + 8
    pattern = StitchPattern(specs=tuple(DirectionSpec.koch(order, phase=p) for p in PHASES))
    design = generate_design(Window(0, side, 0, side), pattern)
    targets = {3 * 4 ** k: (k, motif_signature(koch_polygon(k).cycle))
               for k in range(1, order + 1)}
    counts = {}
    for face in ("front", "back"):
        found = [0] * order
        cycles, _ = build_components(design, face)
        for cycle in cycles:
            k, sig = targets.get(len(cycle), (0, None))
            if k and motif_signature(cycle) == sig:
                found[k - 1] += 1
        counts[face] = found
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
