"""Exception types shared across the package."""

from __future__ import annotations


class PpmatchError(Exception):
    """Base class for package errors."""


class ConfigurationError(PpmatchError):
    """A parameter or config value violates a documented precondition."""


class ResourceError(PpmatchError):
    """A size or enumeration cap was exceeded."""


class CensoringError(PpmatchError):
    """A query cannot be answered inside the window without bias."""


class ContractViolationError(PpmatchError):
    """An internal invariant failed; indicates a bug, not bad input."""


class StageDivergenceError(PpmatchError):
    """A matching stage exceeded its sweep cap without converging."""
