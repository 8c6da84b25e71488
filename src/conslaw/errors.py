"""Exception hierarchy shared across the package."""


class ConslawError(Exception):
    """Base class for all errors raised by this package.  ``rank`` is the
    failing rank of a check on a stack of subdomains, else None."""

    def __init__(self, *args, rank=None):
        super().__init__(*args)
        self.rank = rank


class ConfigError(ConslawError):
    """Invalid run configuration (bad key, bad value, cross-field violation)."""

    def __init__(self, message, line=None, key=None):
        self.line = line
        self.key = key
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ExprError(ConfigError):
    """Syntax or semantic error in an initial-data expression."""

    def __init__(self, message, pos=None):
        self.pos = pos
        if pos is not None:
            message = f"position {pos}: {message}"
        super(ConfigError, self).__init__(message)


class UnphysicalStateError(ConslawError):
    """A state with non-positive density or pressure was encountered."""


class SimulationError(ConslawError):
    """A run failed mid-flight (non-finite values, failed sample, ...)."""


class StaticFieldError(SimulationError):
    """All wave speeds vanish: no finite CFL timestep exists."""


class SnapshotError(ConslawError):
    """Snapshot file is corrupt, truncated, or of an unknown version."""
