"""Exception types shared across the package."""


class CarError(Exception):
    """Base class for all errors raised by dfam_car."""


class ConfigError(CarError):
    """Invalid configuration value (cutoff, window size, bin layout, ...)."""


class DataQualityError(CarError):
    """Input samples violate a data invariant (non-finite values, ...)."""


class NotEnoughDataError(CarError):
    """A series or dataset is too short for the requested operation."""


class AlignmentError(CarError):
    """Multi-channel inputs disagree on window size, rate or channel set."""


class TrainingError(CarError):
    """A model cannot be trained from the given dataset."""


class ParseError(CarError):
    """A file could not be parsed. Carries the file and the offending line number."""

    def __init__(self, message: str, line: int | None = None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message if path is None else f"{path}: {message}")
        self.line = line
        self.path = path
