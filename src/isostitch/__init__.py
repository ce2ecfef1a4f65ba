"""Dilute running-stitch designs on the isometric grid.

Binary offset words stitched along the three line directions of a
triangular lattice produce two-sided designs; this package generates them,
decomposes them into motif cycles, classifies their wallpaper symmetry and
verifies which Koch snowflake iterates they contain.
"""
__version__ = "0.1.0"

from .design_graph import (Cycle, MotifCensus, build_components,
                           direction_slots, motif_census, motif_signature)
from .errors import (CalibrationError, InvalidOrderError, IsostitchError,
                     OverlapTooSmallError, WindowError, WordError)
from .grid import (DEFAULT_CONVENTION, DIRECTIONS, EMPTY, PRESENCE_PARITY,
                   VISITED, Family, GridConvention, LineId, SegmentId, Window,
                   is_line_present, lines_through, segment_between,
                   segment_endpoints, vertex_degree_class, vertex_to_cartesian)
from .koch_oracle import (KOCH_PHASES, VerificationResult, koch_directions,
                          koch_pattern, koch_polygon, koch_window,
                          phase_candidates, phase_period, replace_runs,
                          scale_directions, verify_koch)
from .render import RenderOptions, to_svg
from .stitcher import (Design, DirectionSpec, StitchPattern, dual,
                       generate_design)
from .symmetry import (LatticeIsometry, classify_wallpaper, is_self_dual,
                       is_symmetry, period_cell, translation_basis)
from .words import (Word, complement, concat, koch_word, palindromic_period,
                    reverse)

__all__ = [
    "__version__",
    "Cycle", "MotifCensus", "build_components", "direction_slots",
    "motif_census", "motif_signature",
    "CalibrationError", "InvalidOrderError", "IsostitchError",
    "OverlapTooSmallError", "WindowError", "WordError",
    "DEFAULT_CONVENTION", "DIRECTIONS", "EMPTY", "PRESENCE_PARITY", "VISITED",
    "Family",
    "GridConvention", "LineId", "SegmentId", "Window", "is_line_present",
    "lines_through", "segment_between", "segment_endpoints",
    "vertex_degree_class", "vertex_to_cartesian",
    "KOCH_PHASES", "VerificationResult", "koch_directions", "koch_pattern",
    "koch_polygon", "koch_window", "phase_candidates", "phase_period",
    "replace_runs", "scale_directions", "verify_koch",
    "RenderOptions", "to_svg",
    "Design", "DirectionSpec", "StitchPattern", "dual", "generate_design",
    "LatticeIsometry", "classify_wallpaper", "is_self_dual", "is_symmetry",
    "period_cell", "translation_basis",
    "Word", "complement", "concat", "koch_word", "palindromic_period",
    "reverse",
]
