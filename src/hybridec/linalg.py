"""Dense complex linear algebra and the exact polynomial substitution.

Matrices and vectors are plain numpy arrays with dtype complex128.  The
helpers here add shape checking, and floating-point reductions run in a
fixed order so repeated runs are bit-identical.

The substitution takes and returns tuples of Fraction coefficients, so
transform identities can be checked without any rounding.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isfinite, lcm
from typing import Iterable

import numpy as np

# Default absolute tolerance for entrywise matrix comparisons; functions
# that take tol bind it as their default when they are defined.
ENTRY_TOL = 1e-9


def check_tol(tol: float) -> float:
    """tol, when it is a finite number >= 0; ValueError otherwise.

    Verdicts compare nonnegative violations and residuals with tol, so a
    negative or NaN tol has no meaning there, and engines that test
    different quantities would disagree on it.
    """
    if not (isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    return tol


class DimensionMismatchError(ValueError):
    """Operand shapes do not compose."""


class DegreeOverflowError(ValueError):
    """Polynomial degree exceeds what the transform target can hold."""


class GuardExceededError(RuntimeError):
    """A requested computation exceeds the desk-scale cost guard."""


def require_within(estimate: int, limit: int, refusal: str) -> None:
    """Raise GuardExceededError, saying refusal, if estimate > limit; every guard
    refuses here.  Price a power by its exponent or digits: 2^(10^9) takes seconds to form."""
    if estimate > limit:
        raise GuardExceededError(refusal)


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


def poly_substitute_macwilliams(p, n: int, q: int, scale,
                                max_degree: int | None = None) -> tuple[Fraction, ...]:
    """Expand scale * sum_d p_d (1-z)^d (1+(q^2-1)z)^(n-d) exactly.

    This is the substitution step of the weight-distribution transform.
    p lists exact coefficients (int or Fraction), p[d] multiplying z**d,
    and its degree must not exceed n; the caller supplies the normalizing
    scale as an exact rational.  Returns the coefficients of the result
    up to max_degree, all n + 1 of them by default.  Floats are refused,
    so the expansion never rounds: it sums integers over the
    coefficients' common denominator and divides once per output.
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
    top = n if max_degree is None else max_degree
    if not 0 <= top <= n:
        raise ValueError(f"max_degree must lie in [0, {n}], got {top}")
    den = lcm(*(c.denominator for c in coeffs))
    powers = [(q * q - 1) ** j for j in range(top + 1)]
    out = [0] * (top + 1)
    for d, c in enumerate(coeffs):
        if c == 0:
            continue
        num = c.numerator * (den // c.denominator)
        # Only terms of degree k + j <= top reach the output.
        second = [comb(n - d, j) * powers[j] for j in range(min(n - d, top) + 1)]
        for k in range(min(d, top) + 1):
            first = num * comb(d, k) * (-1) ** k
            for j, sj in enumerate(second[:top - k + 1]):
                out[k + j] += first * sj
    return tuple(Fraction(s.numerator * v, s.denominator * den) for v in out)
