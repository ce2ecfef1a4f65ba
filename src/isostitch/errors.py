"""Exception types shared across the package."""


class IsostitchError(Exception):
    """Base class for all errors raised by this package."""


class WordError(IsostitchError):
    """Malformed binary word (bad character, empty period, bad order)."""


class InvalidOrderError(WordError):
    """Koch word or polygon order outside the supported range."""


class WindowError(IsostitchError):
    """Window is degenerate, too large, or too small for the requested analysis."""


class OverlapTooSmallError(IsostitchError):
    """Window overlap left after applying an isometry is below one period cell."""


class CalibrationError(IsostitchError):
    """No phase convention satisfied the calibration criteria."""
