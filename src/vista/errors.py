"""Exception types shared across the package, and the text reader that
raises them."""


class VistaError(Exception):
    """Base class for all package errors."""


class ConfigError(VistaError):
    """Invalid configuration value, key, or combination."""


class DataError(VistaError):
    """Malformed or inconsistent input data."""


class CheckpointError(VistaError):
    """Checkpoint file is corrupt, truncated, or version-incompatible."""


class AlignmentError(VistaError):
    """Prediction and ground-truth files do not align on (scene, agent, frame)."""

    def __init__(self, message, first_mismatch=None):
        super().__init__(message)
        self.first_mismatch = first_mismatch


class DivergenceError(VistaError):
    """Non-finite values appeared during computation."""

    def __init__(self, message, step=None, report=None):
        super().__init__(message)
        self.step = step
        self.report = report


def read_text(path, error) -> str:
    """The contents of the file ``path`` decoded as UTF-8; ``error``, an
    exception class, names the file when its bytes are not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None
