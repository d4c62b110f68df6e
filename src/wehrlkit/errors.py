"""Exception types raised by the toolkit."""

from contextlib import contextmanager


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class NonNormalizedMixture(ToolkitError):
    """Mixture weights are negative, duplicated, or do not sum to one."""


class LambdaOutOfRange(ToolkitError):
    """Two-mode squeezing parameter must lie in [0, 1)."""


class InadmissibleCovariance(ToolkitError):
    """Covariance matrix violates the symplectic admissibility bound.

    Carries the smallest symplectic eigenvalue found, when available.
    """

    def __init__(self, message: str, min_symplectic: float | None = None):
        super().__init__(message)
        self.min_symplectic = min_symplectic


class SingularMatrix(ToolkitError):
    """Matrix inversion failed for a quantity that must be invertible."""


class DimensionMismatch(ToolkitError):
    """Phase-space point or matrix has the wrong dimension."""


class NotBipartite(ToolkitError):
    """Operation requires a state with a nontrivial A/B mode split."""


class ToleranceNotReached(ToolkitError):
    """Quadrature escalation exhausted without meeting the tolerance.

    The best available estimate is attached as ``result``.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class SupportViolation(ToolkitError):
    """Relative-entropy support condition failed at a quadrature node."""


class UnsupportedState(ToolkitError):
    """Requested quantity is not defined or not implemented for this state."""


class DegenerateBlock(ToolkitError):
    """A covariance sub-block is singular where a nonzero determinant is needed."""


class NonSymmetric(ToolkitError):
    """Matrix expected to be symmetric is not."""


class NotPure(ToolkitError):
    """Normal-form parameters do not satisfy the purity conditions."""


@contextmanager
def grid_point(label: str):
    """Re-raise a tolerance failure inside the block with ``label`` in front."""
    try:
        yield
    except ToleranceNotReached as exc:
        raise ToleranceNotReached(f"{label}: {exc}", result=exc.result) from exc
