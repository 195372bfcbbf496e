"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: format problems exit 2,
domain/support violations exit 3, optimizer failures exit 4.
"""


class LevyAugError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(LevyAugError, ValueError):
    """A parameter is outside its admissible range (alpha, degrees of
    freedom, natural-parameter domain, malformed config)."""


class SupportError(LevyAugError, ValueError):
    """Feature values lie outside the support of the requested family,
    or a density was evaluated outside its support."""


class DecompositionError(LevyAugError, ValueError):
    """A matrix that must be symmetric positive-definite failed its
    factorization (Cholesky or eigendecomposition), or a thinned copy left
    the bracket its origin bounds because the origin is too close to the
    edge of the support (near-singular, or subnormal) for floating point."""


class ShapeError(LevyAugError, ValueError):
    """Array dimensions are inconsistent with the model or family."""


class DegenerateDataError(LevyAugError, ValueError):
    """Training data cannot identify the model (e.g. a class label with
    no examples)."""


class OptimizationError(LevyAugError, RuntimeError):
    """The optimizer stopped without reaching the convergence tolerance."""

    def __init__(self, message: str, grad_norm: float | None = None):
        super().__init__(message)
        self.grad_norm = grad_norm


class DataFormatError(LevyAugError, ValueError):
    """An input file does not conform to the documented dataset format."""
