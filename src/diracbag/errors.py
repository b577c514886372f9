"""Exception types shared across the solver modules."""

__all__ = [
    "DiracBagError",
    "NumericsError",
    "ConsistencyError",
    "LevelTrackingError",
]


class DiracBagError(Exception):
    """Base class for solver-specific failures."""


class NumericsError(DiracBagError):
    """A numerical routine failed hard (integration, eigensolve, ...)."""


class ConsistencyError(DiracBagError):
    """An internal cross-check failed (e.g. level counts along a refinement ladder)."""


class LevelTrackingError(DiracBagError):
    """A level crossed zero, so its Pruefer index is not its sign-class label."""
