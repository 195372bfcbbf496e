"""Reproducible random state and the matrix primitives the samplers use.

All randomness flows through :class:`RngState`, a (seed, stream) pair that
derives independent substreams by feeding the pair plus an arbitrary integer
key into ``numpy``'s ``SeedSequence``.  Substreams keyed by, say,
``(origin_id, b)`` are therefore independent of iteration order and of each
other, which is what makes pseudo-example generation reproducible under
reordering and parallelism.  The thinning samplers draw scalars and
vectors from the generator directly (``binomial``, ``beta``,
``standard_normal``) and Wishart matrices through the private Bartlett
primitives here; their parameters (the Wishart degrees of freedom too) are
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

_MASK32, _MASK64 = (1 << 32) - 1, (1 << 64) - 1


@dataclass(frozen=True)
class RngState:
    """A named random stream: identical (seed, stream) pairs reproduce
    identical draws across runs and platforms."""

    seed: int
    stream: int = 0

    def _entropy(self, key: tuple[int, ...]) -> np.ndarray:
        """The seed, the stream and the key, each taken modulo 2^64, as the
        little-endian uint32 words ``SeedSequence`` splits an int tuple into
        (one word for a value below 2^32, else two): the same pool, built
        without numpy's per-int conversion."""
        words = []
        for value in (self.seed, self.stream, *key):
            value &= _MASK64
            words.append(value & _MASK32)
            if value > _MASK32:
                words.append(value >> 32)
        return np.array(words, dtype=np.uint32)

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
    """Symmetric square root of a symmetric positive-definite matrix, or of
    each matrix of a stack."""
    w, v = np.linalg.eigh(m)
    if w.min() <= 0.0:
        raise DecompositionError("matrix has a nonpositive eigenvalue")
    return (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2)


# Wishart(I, dof) draws via the Bartlett decomposition come in two
# steps, so that a caller can make the generator calls of many draws one at
# a time and finish them all as one stacked computation.

def _bartlett(d: int, dof: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """The variates of ``n`` Bartlett factors of d x d Wishart draws with a
    real ``dof >= d`` that the caller has checked, as an (n, d (d + 1) / 2)
    stack: chi-square(dof - i) for diagonal entry i, then standard normals
    for the strict lower triangle in row-major order.  The chi-squares are
    drawn first, one scalar call each in row-major order (an array of
    degrees of freedom costs a validation per call), then the normals."""
    variates = np.empty((n, d * (d + 1) // 2))
    variates[:, :d].flat = [rng.chisquare(dof - i) for _ in range(n) for i in range(d)]
    variates[:, d:] = rng.standard_normal((n, d * (d - 1) // 2))
    return variates


def _wishart_from_bartlett(d: int, variates: np.ndarray) -> np.ndarray:
    """The d x d Wishart(I, dof) draws A A', symmetrized, from a stack of
    :func:`_bartlett` variates.  The lower-triangular factor A has the
    square roots of the chi-square variates on its diagonal and the
    normals below it.  A draw with scale L L' is L A A' L'."""
    a = np.zeros((len(variates), d, d))
    idx = np.arange(d)
    a[:, idx, idx] = np.sqrt(variates[:, :d])
    rows, cols = np.tril_indices(d, k=-1)
    a[:, rows, cols] = variates[:, d:]
    w = a @ np.swapaxes(a, -1, -2)
    return 0.5 * (w + np.swapaxes(w, -1, -2))
