"""Exception taxonomy shared by all modules."""


class AnalysisError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(AnalysisError):
    """Inputs have incompatible lengths, misaligned frames, or out-of-range indices."""


class DegenerateSeries(AnalysisError):
    """A series is too short or carries no usable samples."""


class ConfigError(AnalysisError):
    """Invalid parameter value or inconsistent configuration."""


class FormatError(AnalysisError):
    """Malformed input file: bad header, non-numeric cell, or invalid manifest row."""


class EmptyOverlap(AnalysisError):
    """Two recordings share no usable frames after confidence filtering."""


class InsufficientData(AnalysisError):
    """Not enough effective samples for the requested model order or test."""


class SingularDesign(AnalysisError):
    """Regression design is degenerate (for example a constant segment)."""


class EmptyInput(AnalysisError):
    """An aggregation was called with nothing to aggregate."""
