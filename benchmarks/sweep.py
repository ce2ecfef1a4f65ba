#!/usr/bin/env python3
"""Scaling sweep: regenerate the ROADMAP "Baseline" table with one command.

    python3 benchmarks/sweep.py

Times generate_design, motif_census (front), invariant_results and to_svg
(both sides) on the uniform word "01" at 121², 401² and 1001² windows, and
verify_koch(5) on its 980² window. Each cell runs in a fresh child process
that builds its input untimed and then times the layer call alone; the
table gives the median over the repeats and the child's peak RSS, read with
os.wait4. Prints a Markdown table and writes benchmarks/out/sweep.json.

The sweep is on demand and ungated: it is not one of the benchmark's
workloads and claims nothing. Expect a few minutes and about 1.5 GB of
memory at 1001².
"""
from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time

from run import OUT, child_env, git_sha, loadavg

CHILD = r"""
import json, statistics, sys, time
from isostitch import DirectionSpec, RenderOptions, StitchPattern, Window, \
    generate_design, motif_census, to_svg, verify_koch
from isostitch.cli import invariant_results

layer, size, repeats = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
if layer == "verify_koch":
    side = 4 * 3 ** size + 8
    call = lambda: verify_koch(size, Window(0, side, 0, side))
else:
    window = Window(0, size - 1, 0, size - 1)
    pattern = StitchPattern.uniform(DirectionSpec.periodic("01"))
    # A design kept alive would slow generate_design through garbage collection.
    design = None if layer == "generate_design" else generate_design(window, pattern)
    call = {"generate_design": lambda: generate_design(window, pattern),
            "motif_census": lambda: motif_census(design, "front"),
            "invariant_results": lambda: invariant_results(design),
            "to_svg": lambda: to_svg(design, RenderOptions(side="both"))}[layer]
times = []
for _ in range(repeats):
    start = time.perf_counter()
    result = call()
    times.append(time.perf_counter() - start)
    if layer == "verify_koch" and not result.found:
        sys.exit("verify_koch found no snowflake")
    del result
print(json.dumps(statistics.median(times)))
"""

SIZES = ((121, 5), (401, 3), (1001, 1))   # window side, repeats
LAYERS = ("generate_design", "motif_census", "invariant_results", "to_svg")


def measure(layer: str, size: int, repeats: int) -> dict:
    proc = subprocess.Popen([sys.executable, "-c", CHILD, layer, str(size), str(repeats)],
                            env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE)
    try:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"{layer} at {size} failed with exit code {proc.returncode}")
    return {"layer": layer, "size": size, "repeats": repeats,
            "seconds": json.loads(stdout), "peak_rss_mb": usage.ru_maxrss / 1024}


def main() -> int:
    record = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "git_sha": git_sha(), "loadavg_start": loadavg(),
              "started": time.strftime("%Y-%m-%dT%H:%M:%S")}
    cells = [measure(layer, size, repeats)
             for layer in LAYERS for size, repeats in SIZES]
    cells.append(measure("verify_koch", 5, 1))
    record["loadavg_end"] = loadavg()
    print("| workload | " + " | ".join(f"{s}²" for s, _ in SIZES) + " |")
    print("|---|" + "---|" * len(SIZES))
    for layer in LAYERS:
        row = [c for c in cells if c["layer"] == layer]
        print(f"| `{layer}` | " + " | ".join(
            f"{c['seconds']:.3g} s, {c['peak_rss_mb']:.0f} MB" for c in row) + " |")
    koch = cells[-1]
    print(f"\n`verify_koch(5)`, 980² window: {koch['seconds']:.3g} s, "
          f"{koch['peak_rss_mb']:.0f} MB peak RSS")
    print(f"\nPython {record['python']}, nproc {record['nproc']}, "
          f"git {record['git_sha']}, load {record['loadavg_start']} -> {record['loadavg_end']}; "
          "seconds are medians of the repeats, RSS is the child's peak.")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "sweep.json").write_text(json.dumps({"record": record, "cells": cells}, indent=1)
                                    + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
