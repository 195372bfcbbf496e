"""Reproducible random state and the matrix primitives the samplers use.

All randomness flows through :class:`RngState`, a (seed, stream) pair that
derives independent substreams by feeding the pair plus an arbitrary integer
key into ``numpy``'s ``SeedSequence``.  Substreams keyed by, say,
``(origin_id, b)`` are therefore independent of iteration order and of each
other, which is what makes pseudo-example generation reproducible under
reordering and parallelism.  The thinning samplers draw scalars and
vectors from the generator directly (``binomial``, ``beta``,
``standard_normal``) and Wishart matrices through the private Bartlett
primitive here; their parameters (the Wishart degrees of freedom too) are
checked once, with the originals and ``alpha``, in :mod:`levyaug.thinning`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError

__all__ = [
    "RngState",
    "cholesky",
    "matrix_sqrt_sym_pd",
]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngState:
    """A named random stream: identical (seed, stream) pairs reproduce
    identical draws across runs and platforms."""

    seed: int
    stream: int = 0

    def _entropy(self, key: tuple[int, ...]) -> tuple[int, ...]:
        return (self.seed & _MASK64, self.stream & _MASK64) + tuple(k & _MASK64 for k in key)

    def spawn(self, *key: int) -> np.random.Generator:
        """Generator for the substream identified by an integer key tuple."""
        return np.random.default_rng(np.random.SeedSequence(entropy=self._entropy(key)))

    def substate(self, *key: int) -> "RngState":
        """A derived RngState whose stream id folds in the given key."""
        mixed = np.random.SeedSequence(entropy=self._entropy(key)).generate_state(2, np.uint64)
        return RngState(seed=int(mixed[0]), stream=int(mixed[1]))


# --------------------------------------------------------------------------
# Matrix primitives
# --------------------------------------------------------------------------

def cholesky(m: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"matrix is not positive-definite: {exc}") from None


def matrix_sqrt_sym_pd(m: np.ndarray) -> np.ndarray:
    """Symmetric square root of a symmetric positive-definite matrix."""
    w, v = np.linalg.eigh(m)
    if w.min() <= 0.0:
        raise DecompositionError("matrix has a nonpositive eigenvalue")
    return (v * np.sqrt(w)) @ v.T


def _bartlett(chol_scale, tril, dof: float, rng: np.random.Generator, size=None):
    """Wishart(scale, dof) draws via the Bartlett decomposition, given
    L = chol(scale), the strict lower-triangle indices of a d x d matrix
    and a real ``dof >= d`` that the caller has checked.

    The lower-triangular factor A has chi(dof - i) diagonal entries and
    standard-normal strict lower entries, and the draw is L A A' L'.
    """
    d = chol_scale.shape[0]
    n = 1 if size is None else size
    a = np.zeros((n, d, d))
    idx = np.arange(d)
    chi2 = rng.chisquare(dof - idx, size=(n, d))
    a[:, idx, idx] = np.sqrt(chi2)
    rows, cols = tril
    if rows.size:
        a[:, rows, cols] = rng.standard_normal((n, rows.size))
    la = chol_scale @ a
    w = la @ np.swapaxes(la, -1, -2)
    w = 0.5 * (w + np.swapaxes(w, -1, -2))
    return w[0] if size is None else w
