"""Exception hierarchy shared by all bisim modules.

The CLI maps these onto exit codes: ConfigError (and subclasses) -> 2,
NumericalError -> 3, OSError -> 4. A MemoryError, an allocation within
channel.MAX_ENTRIES that the process cannot make, also exits 2.
"""


class BisimError(Exception):
    """Base class for all bisim errors."""


class ConfigError(BisimError, ValueError):
    """Invalid configuration, parameters, or input data."""


class GeometryError(ConfigError):
    """Singular or degenerate geometry (coincident points, non-finite hops...)."""


class UsageError(ConfigError):
    """API misuse: mismatched shapes, modes, or waveforms."""


class NumericalError(BisimError, RuntimeError):
    """A solver failed to converge or produced a flagged-invalid result."""
