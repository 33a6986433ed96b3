"""Shared exception types. Every failure mode the library reports deliberately
gets its own class so callers (and the CLI) can map them to exit codes."""


class RhfillError(Exception):
    """Base class for all library errors."""


class UnsupportedKindError(RhfillError):
    """Group or label descriptor names a kind we do not implement."""


class InvalidParameterError(RhfillError):
    """Descriptor parameters out of range (rank 0, order 0, bad kernel...)."""


class BudgetExceededError(RhfillError):
    """An enumeration or build crossed a configured size budget.

    Maps to CLI exit code 3.
    """

    def __init__(self, what: str, limit, actual=None):
        self.what = what
        self.limit = limit
        self.actual = actual
        msg = f"budget exceeded for {what}: limit {limit}"
        if actual is not None:
            msg += f", needed {actual}"
        super().__init__(msg)


class WindowError(RhfillError):
    """A truncated window is too small/shallow for the requested computation."""


class DisconnectedError(RhfillError):
    """Two vertices are not connected inside the truncation window."""


class SchemaError(RhfillError):
    """Scenario or descriptor JSON violates the schema. Maps to CLI exit 2."""


class NoTabularDataError(RhfillError):
    """The report passed to the CSV emitter has no tabular section."""
