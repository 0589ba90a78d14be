"""Exception taxonomy shared across the package."""

__all__ = [
    "AmalgamError",
    "ConfigurationError",
    "ExpressionError",
    "PreconditionError",
    "HypothesisError",
    "EmptyRegionWarning",
]


class AmalgamError(Exception):
    """Base class for all package errors."""


class ConfigurationError(AmalgamError):
    """Invalid parameter, grid, or config input."""


class ExpressionError(ConfigurationError):
    """An expression string failed to parse or evaluate."""


class PreconditionError(AmalgamError):
    """A check was asked to run outside its domain of validity."""


class HypothesisError(AmalgamError):
    """An empirical hypothesis gate failed.

    Carries the name of the failing gate so drivers can report which
    assumption broke rather than a bare message.
    """

    def __init__(self, name: str, detail: str = ""):
        self.name = name
        self.detail = detail
        msg = f"hypothesis gate failed: {name}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class EmptyRegionWarning(UserWarning):
    """A region contains no grid nodes; the operation returned a neutral value."""
