"""Exception hierarchy shared by all localforms modules."""


class LocalFormsError(Exception):
    """Base class for all errors raised by this package."""


class ExpressionSyntaxError(LocalFormsError):
    """Malformed expression text; carries the 0-based source position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ValidationError(LocalFormsError):
    """Structurally invalid input: unknown names, bad references, bad shapes
    detectable before any numerical evaluation."""


class ShapeError(LocalFormsError):
    """Operands with non-conforming dimensions."""


class DomainError(LocalFormsError):
    """Evaluation outside the domain of a scalar function (log of a
    non-positive number, division by zero, ...).

    `index` is the batch index of the first offending sample, when the
    error comes from a batched evaluation that has not yet named its point.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class SingularMatrixError(LocalFormsError):
    """A matrix required to be invertible fails the determinant threshold."""


class AtlasMismatchError(LocalFormsError):
    """Two bundles that must share an atlas do not."""


class PathDiscontinuityError(LocalFormsError):
    """Consecutive transport path segments do not agree at the junction."""


class MorphismCocycleViolation(LocalFormsError):
    """Target transitions are not generated by the morphism data."""


class TowerInvariantViolation(LocalFormsError):
    """A projective tower fails a structural invariant."""


class LevelOutOfRange(LocalFormsError):
    """Requested tower level does not exist."""


class GroupMismatchError(LocalFormsError):
    """Group dimension incompatible with the requested operation."""
