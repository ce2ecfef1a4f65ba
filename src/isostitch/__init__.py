"""Dilute running-stitch designs on the isometric grid.

Binary offset words stitched along the three line directions of a
triangular lattice produce two-sided designs; this package generates them,
decomposes them into motif cycles, classifies their wallpaper symmetry and
verifies which Koch snowflake iterates they contain.

Every public name below, and every module in the table, is importable
from the package itself. Each is loaded on first use (PEP 562), so
importing the package, or running one CLI subcommand, loads only the
modules that are asked for.
"""
from importlib import import_module as _import_module

__version__ = "0.1.0"

# The public API: each module and the names it defines.
_EXPORTS = {
    "design_graph": ("Cycle", "MotifCensus", "build_components", "direction_slots",
                     "motif_census", "motif_signature"),
    "errors": ("CalibrationError", "InvalidOrderError", "IsostitchError",
               "OverlapTooSmallError", "WindowError", "WordError"),
    "grid": ("DEFAULT_CONVENTION", "DIRECTIONS", "EMPTY", "PRESENCE_PARITY", "VISITED",
             "Family", "GridConvention", "SegmentId", "Window", "segment_between",
             "segment_endpoints", "vertex_degree_class", "vertex_to_cartesian"),
    "koch_oracle": ("KOCH_PHASES", "VerificationResult", "koch_directions", "koch_pattern",
                    "koch_polygon", "koch_window", "phase_candidates", "phase_period",
                    "replace_runs", "scale_directions", "verify_koch"),
    "render": ("RenderOptions", "to_svg"),
    "stitcher": ("Design", "DirectionSpec", "StitchPattern", "dual", "generate_design",
                 "period_cell", "translation_basis"),
    "symmetry": ("LatticeIsometry", "classify_wallpaper", "is_self_dual", "is_symmetry"),
    "words": ("complement", "koch_word", "palindromic_period", "parse_word"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
