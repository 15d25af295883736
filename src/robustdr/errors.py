"""Shared exception types."""


class CorpusFormatError(ValueError):
    """An input data file violates the expected layout."""


class BlobFileError(ValueError):
    """A checkpoint, cluster model or trainer state file is truncated, foreign or inconsistent."""


class ConfigError(ValueError):
    """A run-configuration field is missing, malformed, or out of range."""


class InvariantError(RuntimeError):
    """An internal numerical contract was violated (finiteness, simplex, monotonicity)."""
