"""Exception types shared across the package."""


class RadkgError(Exception):
    """Base class for all package-specific errors."""


class ParseError(RadkgError):
    """A data file violated its format.

    Carries the offending file path and 1-based line number so callers can
    point at the exact location.
    """

    def __init__(self, path, line, message):
        self.path = str(path)
        self.line = line
        super().__init__(f"{self.path}:{line}: {message}")


class CheckpointError(RadkgError):
    """A checkpoint file is malformed, truncated, corrupted (its checksum
    does not match), or has the wrong version."""


class TrainingDivergedError(RadkgError):
    """Training produced a non-finite loss."""
