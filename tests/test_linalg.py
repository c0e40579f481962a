"""Dense-matrix helpers and the exact polynomial substitution."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import max_abs_diff

from hybridec.linalg import (
    DegreeOverflowError,
    DimensionMismatchError,
    as_matrix,
    as_vector,
    numeric_rank,
    orthonormalize,
    poly_substitute_macwilliams,
)


def test_as_matrix_rejects_non_finite():
    bad = np.array([[1.0, np.inf], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_matrix(bad)
    with pytest.raises(ValueError):
        as_vector(np.array([np.nan, 0.0]))


def test_as_matrix_rejects_wrong_rank():
    with pytest.raises(DimensionMismatchError):
        as_matrix(np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        as_vector(np.zeros((2, 2)))


def test_orthonormalize_gram_is_identity():
    rng = np.random.default_rng(31)
    vecs = [rng.normal(size=6) + 1j * rng.normal(size=6) for _ in range(4)]
    out = orthonormalize(vecs)
    assert len(out) == 4
    g = np.array([[np.vdot(u, v) for v in out] for u in out])
    assert max_abs_diff(g, np.eye(4)) < 1e-12


def test_orthonormalize_keeps_orthonormal_input():
    e0 = np.array([1, 0, 0], dtype=complex)
    e2 = np.array([0, 0, 1], dtype=complex)
    out = orthonormalize([e0, e2])
    assert max_abs_diff(np.array(out), np.array([e0, e2])) < 1e-12


def test_orthonormalize_drops_dependent_vectors():
    v = np.array([1.0, 2.0, 0.0], dtype=complex)
    out = orthonormalize([v, 3 * v, np.array([0, 0, 1], dtype=complex)])
    assert len(out) == 2


def test_numeric_rank():
    assert numeric_rank(np.eye(4)) == 4
    assert numeric_rank(np.zeros((3, 3))) == 0
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert numeric_rank(a) == 1
    # Rank is insensitive to overall scale because the cutoff is relative.
    assert numeric_rank(1e-8 * np.eye(3)) == 3


def test_macwilliams_substitution_single_qubit():
    # Input p = (1, 1), n = 1, q = 2, scale 1/2.  Expanding by hand:
    #   (1/2) * [ (1 + 3z) + (1 - z) ] = 1 + z.
    out = poly_substitute_macwilliams((1, 1), n=1, q=2, scale=Fraction(1, 2))
    assert out == (Fraction(1), Fraction(1))


def test_macwilliams_substitution_two_qubits():
    out = poly_substitute_macwilliams((1, 2, 1), n=2, q=2, scale=Fraction(1, 4))
    assert out == (Fraction(1), Fraction(2), Fraction(1))


def test_macwilliams_substitution_five_qubits():
    out = poly_substitute_macwilliams((1, 0, 0, 0, 15), n=5, q=2, scale=Fraction(2, 32))
    assert out == (
        Fraction(1), Fraction(0), Fraction(0),
        Fraction(30), Fraction(15), Fraction(18),
    )


def test_macwilliams_substitution_is_an_involution_up_to_scale():
    # Applying the substitution twice with scale product q**(-2n) returns the
    # original polynomial exactly.
    cases = [
        ((1, 1), 1, 2, Fraction(1, 2)),
        ((1, 2, 1), 2, 2, Fraction(1, 4)),
        ((1, 0, 0, 0, 15, 0), 5, 2, Fraction(2, 32)),
        ((1, 4, 4), 2, 3, Fraction(3, 9)),
    ]
    for coeffs, n, q, scale in cases:
        once = poly_substitute_macwilliams(coeffs, n=n, q=q, scale=scale)
        inverse_scale = Fraction(1, q ** (2 * n)) / scale
        back = poly_substitute_macwilliams(once, n=n, q=q, scale=inverse_scale)
        assert back == coeffs


def test_macwilliams_substitution_rejects_overlong_input():
    with pytest.raises(DegreeOverflowError):
        poly_substitute_macwilliams((1, 0, 0, 1), n=2, q=2, scale=Fraction(1))
    # Trailing zeros do not count towards the degree.
    out = poly_substitute_macwilliams((1, 1, 0, 0), n=1, q=2, scale=Fraction(1, 2))
    assert out == (Fraction(1), Fraction(1))


def test_rational_polynomial_rejects_floats():
    # Coefficients and scale must be exact (int or Fraction).
    with pytest.raises(TypeError):
        poly_substitute_macwilliams((1.5, 2), n=1, q=2, scale=Fraction(1))
    with pytest.raises(TypeError):
        poly_substitute_macwilliams((1, 1), n=1, q=2, scale=0.5)


def fraction_substitution(p, n, q, scale):
    """The expansion term by term in Fractions, as its definition reads."""
    out = [Fraction(0)] * (n + 1)
    for d, c in enumerate(p):
        for k in range(d + 1):
            for j in range(n - d + 1):
                out[k + j] += (Fraction(c) * comb(d, k) * (-1) ** k
                               * comb(n - d, j) * (q * q - 1) ** j)
    return tuple(scale * c for c in out)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(data=st.data())
def test_macwilliams_substitution_matches_the_fraction_expansion(data):
    """Exact and float-derived coefficients, q in {2, 3, 4}, n <= 12 and
    macwilliams_of_a's scales K / q^n: the same rationals as the
    term-by-term expansion, and a capped result is its prefix."""
    q = data.draw(st.sampled_from([2, 3, 4]))
    n = data.draw(st.integers(0, 12))
    coefficient = st.one_of(
        st.integers(-10**6, 10**6),
        st.fractions(max_denominator=10**4),
        st.floats(-1e6, 1e6, allow_nan=False).map(Fraction))
    p = data.draw(st.lists(coefficient, max_size=n + 1))
    scale = Fraction(data.draw(st.integers(1, q**n)), q**n)
    want = fraction_substitution(p, n, q, scale)
    assert poly_substitute_macwilliams(p, n, q, scale) == want
    top = data.draw(st.integers(0, n))
    assert poly_substitute_macwilliams(p, n, q, scale, top) == want[:top + 1]


def test_macwilliams_substitution_refuses_degrees_outside_the_result():
    for top in (-1, 3):
        with pytest.raises(ValueError, match="max_degree must lie in"):
            poly_substitute_macwilliams((1, 1), n=2, q=2, scale=Fraction(1, 2), max_degree=top)
