"""Dense complex linear algebra and the exact polynomial substitution.

Matrices and vectors are plain numpy arrays with dtype complex128.  The
helpers here add shape checking, and floating-point reductions run in a
fixed order so repeated runs are bit-identical.

The substitution takes and returns tuples of Fraction coefficients, so
transform identities can be checked without any rounding.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable

import numpy as np

# Default absolute tolerance for entrywise matrix comparisons.
# Operations take an optional tol argument and fall back to this, so a
# caller can retune the whole package globally.
ENTRY_TOL = 1e-9


class DimensionMismatchError(ValueError):
    """Operand shapes do not compose."""


class DegreeOverflowError(ValueError):
    """Polynomial degree exceeds what the transform target can hold."""


class GuardExceededError(RuntimeError):
    """A requested computation exceeds the desk-scale cost guard."""


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d array, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(a) -> np.ndarray:
    """Coerce to a 1-d complex array, rejecting non-finite entries."""
    v = np.asarray(a, dtype=complex)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-d array, got shape {v.shape}")
    if v.size and not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def orthonormalize(vectors: Iterable, tol: float = 1e-10) -> list[np.ndarray]:
    """Orthonormal basis for the span of the input vectors.

    Gram-Schmidt with a second re-orthogonalization pass to control
    cancellation.  Vectors whose residual norm falls below tol are
    dropped, so the result has one entry per independent input.
    """
    vecs = [as_vector(v) for v in vectors]
    if not vecs:
        raise ValueError("orthonormalize needs at least one vector")
    dim = vecs[0].shape[0]
    if any(v.shape[0] != dim for v in vecs):
        raise DimensionMismatchError("vectors must share one dimension")
    basis: list[np.ndarray] = []
    for v in vecs:
        w = v.copy()
        for _ in range(2):
            for u in basis:
                w = w - (u.conj() @ w) * u
        nrm = float(np.linalg.norm(w))
        if nrm >= tol:
            basis.append(w / nrm)
    return basis


def numeric_rank(a, tol: float = 1e-10) -> int:
    """Number of singular values above tol relative to the largest one."""
    a = as_matrix(a)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact rational coefficient required, got {type(x).__name__}")


def poly_substitute_macwilliams(p, n: int, q: int, scale) -> tuple[Fraction, ...]:
    """Expand scale * sum_d p_d (1-z)^d (1+(q^2-1)z)^(n-d) exactly.

    This is the substitution step of the weight-distribution transform.
    p lists exact coefficients (int or Fraction), p[d] multiplying z**d,
    and its degree must not exceed n; the caller supplies the normalizing
    scale as an exact rational.  Returns the n + 1 coefficients of the
    result.  Floats are refused, so the expansion never rounds.
    """
    coeffs = [_as_fraction(c) for c in p]
    s = _as_fraction(scale)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if q < 2:
        raise ValueError("q must be at least 2")
    degree = max((d for d, c in enumerate(coeffs) if c), default=-1)
    if degree > n:
        raise DegreeOverflowError(f"degree {degree} exceeds n = {n}")
    lam = q * q - 1
    out = [Fraction(0)] * (n + 1)
    for d, c in enumerate(coeffs):
        if c == 0:
            continue
        first = [Fraction(comb(d, k) * (-1) ** k) for k in range(d + 1)]
        second = [Fraction(comb(n - d, j) * lam**j) for j in range(n - d + 1)]
        for k, fk in enumerate(first):
            if fk == 0:
                continue
            for j, sj in enumerate(second):
                out[k + j] += c * fk * sj
    return tuple(s * c for c in out)


def max_abs_diff(a, b) -> float:
    """Largest entrywise absolute difference between two arrays."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape {a.shape} differs from {b.shape}")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))
