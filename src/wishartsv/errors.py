"""Exception types shared across the package."""


class WishartSVError(Exception):
    """Base class for all package errors."""


class NotPositiveDefinite(WishartSVError):
    """A matrix required to be symmetric positive definite is not."""


class InvalidParameter(WishartSVError):
    """A hyperparameter or argument violates its stated constraints."""


class DimensionMismatch(WishartSVError):
    """Array shapes are inconsistent with each other or with q."""


class ParseError(WishartSVError):
    """Input file could not be parsed; message carries row/column context."""


class EmptyEnsemble(WishartSVError):
    """An operation requiring at least one sampled path received none."""
