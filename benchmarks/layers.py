"""Outside-in per-layer tracing of isostitch, run in-process.

The tracer wraps the public functions named in LAYERS and installs each
wrapper in every loaded ``isostitch`` module that holds the original, so a
name bound with ``from .x import y`` is replaced too. Nothing under ``src/``
is edited; ``uninstall`` puts the originals back.

Spans (name, start, end, parent, command id) are kept in memory. A span's
self time is its duration minus the time covered by its child spans. Counts
are taken at the same boundaries from the wrapped calls' results.

Helpers called once per vertex or segment (``words``, ``grid``) are not
wrapped: the wrapper would cost more than the call, so their time lands in
the self time of the wrapped caller.
"""
from __future__ import annotations

import sys
import time
import tracemalloc
from collections import defaultdict

# (layer, module, function) for every wrapped public function.
LAYERS = (
    ("symmetry", "isostitch.symmetry", "is_symmetry"),
    ("symmetry", "isostitch.symmetry", "classify_wallpaper"),
    ("symmetry", "isostitch.symmetry", "is_self_dual"),
    ("design_graph", "isostitch.design_graph", "motif_signature"),
    ("design_graph", "isostitch.design_graph", "motif_census"),
    ("design_graph", "isostitch.design_graph", "build_components"),
    ("stitcher", "isostitch.stitcher", "generate_design"),
    ("koch_oracle", "isostitch.koch_oracle", "verify_koch"),
    ("render", "isostitch.render", "to_svg"),
    ("cli", "isostitch.cli", "invariant_results"),
    ("cli", "isostitch.cli", "main"),
)

# Functions whose tracemalloc peak is measured in the memory pass. None of
# them calls another, so each call gets tracemalloc to itself.
PEAK_SPANS = ("design_graph.build_components", "stitcher.generate_design",
              "render.to_svg")
SYMMETRY_SPANS = ("symmetry.is_symmetry", "symmetry.classify_wallpaper",
                  "symmetry.is_self_dual")


def _isostitch_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "isostitch" or name.startswith("isostitch."))]


class Tracer:
    """Wraps the LAYERS functions while installed.

    mode "time" records spans and counts; mode "memory" records only the
    tracemalloc peak of the PEAK_SPANS calls.
    """

    def __init__(self, mode: str = "time"):
        if mode not in ("time", "memory"):
            raise ValueError(f"mode must be 'time' or 'memory', not {mode!r}")
        self.mode = mode
        self.command_id = 0
        # span: [name, start, end, parent index, command id]
        self.spans: list[list] = []
        self.child_time: list[float] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        self.signatures: set[tuple[int, str]] = set()
        self._bindings: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        originals = {}
        for layer, module_name, func_name in LAYERS:
            name = f"{layer}.{func_name}"
            if self.mode == "memory" and name not in PEAK_SPANS:
                continue
            original = getattr(sys.modules[module_name], func_name)
            originals[id(original)] = (original, self._wrap(name, original))
        for module in _isostitch_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in originals and value is originals[id(value)][0]:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, originals[id(value)][1])
        missed = [f"{m.__name__}.{a}" for m in _isostitch_modules()
                  for a, v in vars(m).items()
                  if id(v) in originals and v is originals[id(v)][0]]
        if missed:
            self.uninstall()
            raise AssertionError(f"bindings left unwrapped: {missed}")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    # ------------------------------------------------------------ spans

    def _wrap(self, name: str, func):
        if self.mode == "memory":
            def measured(*args, **kwargs):
                if tracemalloc.is_tracing():
                    raise AssertionError(f"{name} called inside another measured call")
                tracemalloc.start()
                try:
                    return func(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peaks[name] = max(self.peaks[name], peak)
            return measured

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            span = [name, 0.0, 0.0, parent, self.command_id]
            self.spans.append(span)
            self.child_time.append(0.0)
            self.stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                # Count a failed symmetry operation once, where it leaves the layer.
                if (type(exc).__name__ == "OverlapTooSmallError" and name in SYMMETRY_SPANS
                        and (parent < 0 or self.spans[parent][0] not in SYMMETRY_SPANS)):
                    self.counts["symmetry.overlap_too_small"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
                if parent >= 0:
                    self.child_time[parent] += span[2] - span[1]
            self._observe(name, result)
            return result
        return traced

    def _observe(self, name: str, result) -> None:
        counts = self.counts
        counts[f"{name}.calls"] += 1
        if name == "symmetry.is_symmetry":
            counts["symmetry.is_symmetry.accepted"] += bool(result)
        elif name == "design_graph.motif_signature":
            self.signatures.add((self.command_id, result))
        elif name == "design_graph.build_components":
            cycles, paths = result
            counts["design_graph.cycles"] += len(cycles)
            counts["design_graph.open_paths"] += len(paths)
        elif name == "stitcher.generate_design":
            counts["stitcher.segments"] += len(result.front) + len(result.back)
            # Called after the span left the stack, so the stack holds its ancestors.
            if any(self.spans[i][0] == "koch_oracle.verify_koch" for i in self.stack):
                counts["koch_oracle.phase_candidates"] += 1
        elif name == "render.to_svg":
            counts["render.svg_bytes"] += len(result)

    # ------------------------------------------------------------ results

    def self_seconds(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, self.child_time):
            out[name] += (end - start) - child
        return out

    def calls(self, name: str) -> int:
        return self.counts[f"{name}.calls"]

    def distinct_signatures(self) -> int:
        """Distinct motif signatures per command, summed over commands: each
        CLI command is its own process, so a cache could not span two."""
        return len(self.signatures)

    def span_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "command": c}
                for n, s, e, p, c in self.spans]
