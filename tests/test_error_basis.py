"""Generalized Pauli elements: matrices, enumeration, composition, text forms."""

import itertools
import re
from math import comb

import numpy as np
import pytest

from conftest import (
    compose_adjoint_left,
    kron_chain_oracle,
    lexicographic_elements,
    max_abs_diff,
    weight,
)

from hybridec import code_model
from hybridec.error_basis import (
    PauliElement,
    WeightedPauliSet,
    apply_to_state,
    empty_letter,
    enumerate_weight,
    exponent_rows,
    format_element,
    letter_exponents,
    letter_of,
    parse_element,
    permutation_action,
    permutation_actions,
)


def action_error(e, matrix):
    """How far permutation_action(e) is from the dense matrix: the matrix must
    hold phase[j] at row perm[j] of column j and no other nonzero entry; the
    largest deviation of those entries from the phases is returned."""
    perm, phase = permutation_action(e)
    assert np.count_nonzero(matrix) == len(perm)
    return max_abs_diff(matrix[perm, np.arange(len(perm))], phase)


def test_weight_counts_nonidentity_sites():
    e = PauliElement(2, 3, (1, 0, 0), (0, 0, 1))
    assert weight(e) == 2
    assert weight(PauliElement.identity(3, 4)) == 0
    assert PauliElement.identity(2, 2).is_identity


def test_element_validation():
    with pytest.raises(ValueError):
        PauliElement(2, 2, (0, 2), (0, 0))
    with pytest.raises(ValueError):
        PauliElement(2, 2, (0,), (0, 0))
    with pytest.raises(ValueError):
        PauliElement(1, 1, (0,), (0,))
    with pytest.raises(ValueError, match="^n must be at least 1$"):
        PauliElement(2, 0, (), ())


def test_element_refuses_non_integer_exponents():
    # int() would truncate these: 1.5 to 1, 0.9 to 0, and read "1" as 1.
    for xvec, zvec in (((1.5, 0, 0), (0, 0, 0.9)), ((0, 0, 0), (0, 0, 0.9)),
                       (("1", 0, 0), (0, 0, 0)), ((np.float64(1), 0, 0), (0, 0, 0))):
        with pytest.raises(ValueError, match="exponents must be integers"):
            PauliElement(2, 3, xvec, zvec)
    # Python and numpy integers still pass, and are stored as Python ints.
    e = PauliElement(2, 3, np.array([1, 0, 0], dtype=np.int8), (np.int64(0), 0, 1))
    assert e == PauliElement(2, 3, (1, 0, 0), (0, 0, 1))
    assert all(type(v) is int for v in e.xvec + e.zvec)


def test_realize_single_qubit_letters():
    """The permutation form of each letter against its written-out matrix."""
    assert action_error(parse_element("X", 2), np.array([[0, 1], [1, 0]])) == 0
    assert action_error(parse_element("Z", 2), np.array([[1, 0], [0, -1]])) == 0
    assert action_error(parse_element("I", 2), np.eye(2)) == 0
    # The x=1, z=1 element is the product shift-then-clock: [[0, -1], [1, 0]].
    assert action_error(parse_element("Y", 2), np.array([[0, -1], [1, 0]])) == 0


def test_realize_qutrit_shift_and_clock():
    expect = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
    assert action_error(PauliElement(3, 1, (1,), (0,)), expect) < 1e-15
    w = np.exp(2j * np.pi / 3)
    assert action_error(PauliElement(3, 1, (0,), (1,)), np.diag([1, w, w * w])) < 1e-15


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 1), (3, 2)])
def test_realize_matches_kron_chain(q, n):
    """permutation_action against the Kronecker chain: at q = 2 the XOR
    permutation and popcount phases equal the chain exactly."""
    rng = np.random.default_rng(100 * q + n)
    for _ in range(8):
        xv = tuple(int(v) for v in rng.integers(0, q, n))
        zv = tuple(int(v) for v in rng.integers(0, q, n))
        e = PauliElement(q, n, xv, zv)
        diff = action_error(e, kron_chain_oracle(e))
        assert diff == 0 if q == 2 else diff < 1e-12


@pytest.mark.parametrize("q,n", [(2, 2), (3, 1), (5, 1)])
def test_realize_is_unitary(q, n):
    """permutation_action is a permutation with unit phases, so the element is
    unitary, and it is the Kronecker chain's form."""
    rng = np.random.default_rng(q * 17 + n)
    for _ in range(6):
        e = PauliElement(q, n,
                         tuple(int(v) for v in rng.integers(0, q, n)),
                         tuple(int(v) for v in rng.integers(0, q, n)))
        perm, phase = permutation_action(e)
        assert np.array_equal(np.sort(perm), np.arange(q ** n))
        assert max_abs_diff(np.abs(phase), np.ones(q ** n)) < 1e-12
        assert action_error(e, kron_chain_oracle(e)) < 1e-12


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (3, 1)])
def test_trace_orthogonality(q, n):
    # (1/q**n) Tr(E^dag F) is 1 when E == F and 0 otherwise.
    dim = q ** n
    elems = [PauliElement(q, n, xv, zv)
             for xv in itertools.product(range(q), repeat=n)
             for zv in itertools.product(range(q), repeat=n)]
    assert len(elems) == q ** (2 * n)
    mats = [kron_chain_oracle(e) for e in elems]
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            val = np.trace(a.conj().T @ b) / dim
            expect = 1.0 if i == j else 0.0
            assert abs(val - expect) < 1e-12


def test_permutation_action_contract():
    e = parse_element("x:1;z:2", 3)
    perm, phase = permutation_action(e)
    v = np.arange(1, 4, dtype=complex)
    out = np.zeros(3, dtype=complex)
    out[perm] = phase * v
    assert max_abs_diff(out, kron_chain_oracle(e) @ v) < 1e-14


def test_permutation_actions_of_no_elements():
    for q, n in [(2, 1), (2, 4), (3, 3)]:
        none = np.zeros((0, n), dtype=np.int64)
        perm, phase = permutation_actions(q, n, none, none)
        assert perm.shape == phase.shape == (0, q**n)


def test_apply_to_state_matches_dense_matrix():
    rng = np.random.default_rng(9)
    for q, n in [(2, 3), (3, 2)]:
        v = rng.normal(size=q ** n) + 1j * rng.normal(size=q ** n)
        e = PauliElement(q, n,
                         tuple(int(t) for t in rng.integers(0, q, n)),
                         tuple(int(t) for t in rng.integers(0, q, n)))
        assert max_abs_diff(apply_to_state(e, v), kron_chain_oracle(e) @ v) < 1e-12


def test_enumerate_weight_counts():
    cases = [(2, 2, 1, 6), (2, 5, 4, 405), (3, 1, 1, 8), (2, 3, 0, 1)]
    for q, n, d, expect in cases:
        s = enumerate_weight(q, n, d)
        assert len(s) == expect
        assert len(list(s)) == expect
        assert len(s) == comb(n, d) * (q * q - 1) ** d
        assert s.count_up_to(expect) == s.count_up_to(10**30) == expect
        assert s.count_up_to(expect - 1) > expect - 1
    # Past sys.maxsize, where len() refuses, and at n where C(n, d) is
    # never formed.
    for n, d in [(40, 20), (20000, 10000), (10**9, 5 * 10**8)]:
        assert enumerate_weight(2, n, d).count_up_to(4**8) > 4**8
    with pytest.raises(ValueError, match="^need q >= 2 and n >= 1$"):
        enumerate_weight(1, 2, 1)


def test_enumerate_weight_partitions_everything():
    for q, n in [(2, 2), (3, 1)]:
        seen = set()
        for d in range(n + 1):
            for e in enumerate_weight(q, n, d):
                assert weight(e) == d
                seen.add((e.xvec, e.zvec))
        assert len(seen) == q ** (2 * n)


def test_enumerate_weight_order_is_deterministic():
    s = WeightedPauliSet(2, 3, 2)
    first = [str(e) for e in s]
    second = [str(e) for e in s]
    assert first == second
    # Single-site classes come out in Z, X, Y order on the earliest site.
    assert [str(e) for e in enumerate_weight(2, 2, 1)][:3] == ["ZI", "XI", "YI"]


@pytest.mark.parametrize("q,n,d", [(2, 3, 2), (3, 2, 1), (2, 4, 4)])
def test_iteration_follows_the_lexicographic_order(q, n, d):
    elements = enumerate_weight(q, n, d)
    assert [(e.xvec, e.zvec) for e in elements] == lexicographic_elements(q, n, d)


@pytest.mark.parametrize("q,n,d", [(2, 4, 0), (2, 4, 2), (3, 3, 2), (2, 5, 5)])
def test_rows_follow_the_lexicographic_order_at_every_send_size(q, n, d):
    """WeightedPauliSet.rows() read at send sizes 1, 3, 7 and a frame scan's
    default share, CHUNK_ENTRIES // 2n: each read gives between one row and
    the size sent, and the rows, concatenated and spelled out with
    exponent_rows, are the nested-loop enumeration, as iteration is."""
    want = lexicographic_elements(q, n, d)
    for size in (1, 3, 7, code_model.CHUNK_ENTRIES // (2 * n)):
        reader, got = WeightedPauliSet(q, n, d).rows(), []
        next(reader)
        with pytest.raises(StopIteration):
            while True:
                letters = reader.send(size)
                assert 1 <= len(letters) <= size and letters.shape[1] == d
                xs, zs = exponent_rows(q, n, letters)
                got += [(tuple(x), tuple(z)) for x, z in zip(xs.tolist(), zs.tolist())]
        assert got == want
    assert [(e.xvec, e.zvec) for e in enumerate_weight(q, n, d)] == want


@pytest.mark.parametrize("q,n", [(2, 1), (2, 6), (3, 3), (4, 2), (5, 2)])
def test_letter_of_and_letter_exponents_invert_each_other(q, n):
    """letter_of numbers the nonzero pairs on n digits 0 .. (q^2 - 1) n - 1,
    each once, letter_exponents gives back every digit and pair, and the
    empty letter decodes to digit n.  The letters rows() emits are letter_of
    of the exponents exponent_rows spells them out as."""
    pairs = [(j, x, z) for j in range(n) for x in range(q) for z in range(q) if x or z]
    digit, x, z = (np.array(v) for v in zip(*pairs))
    letters = letter_of(q, digit, x, z)
    assert sorted(letters.tolist()) == list(range(empty_letter(q, n)))
    assert [v.tolist() for v in letter_exponents(q, letters)] == [digit.tolist(), x.tolist(),
                                                                 z.tolist()]
    assert [letter_of(q, j, a, b) for j, a, b in pairs] == letters.tolist()
    assert letter_exponents(q, empty_letter(q, n))[0] == n
    for d in {1, n}:
        reader = WeightedPauliSet(q, n, d).rows()
        next(reader)
        rows = reader.send(len(WeightedPauliSet(q, n, d)))
        xs, zs = exponent_rows(q, n, rows)
        owner, at = np.nonzero(xs | zs)  # a row's digits ascend, as its support does
        spelled = letter_of(q, at, xs[owner, at], zs[owner, at])
        assert np.array_equal(spelled.reshape(rows.shape), rows)


def test_compose_adjoint_left_examples():
    x = parse_element("X", 2)
    z = parse_element("Z", 2)
    assert compose_adjoint_left(x, x).is_identity
    g = compose_adjoint_left(z, x)
    assert (g.xvec, g.zvec) == ((1,), (1,))


@pytest.mark.parametrize("q,n", [(2, 2), (3, 1), (3, 2)])
def test_compose_adjoint_left_matches_matrix_product(q, n):
    # The matrix of f, adjoint, times that of e equals g's up to a unit scalar.
    rng = np.random.default_rng(q + 31 * n)
    for _ in range(10):
        f = PauliElement(q, n,
                         tuple(int(t) for t in rng.integers(0, q, n)),
                         tuple(int(t) for t in rng.integers(0, q, n)))
        e = PauliElement(q, n,
                         tuple(int(t) for t in rng.integers(0, q, n)),
                         tuple(int(t) for t in rng.integers(0, q, n)))
        g = compose_adjoint_left(f, e)
        product = kron_chain_oracle(f).conj().T @ kron_chain_oracle(e)
        target = kron_chain_oracle(g)
        # Find the scalar from the largest entry, then compare everywhere.
        idx = np.unravel_index(np.argmax(np.abs(target)), target.shape)
        scalar = product[idx] / target[idx]
        assert abs(abs(scalar) - 1.0) < 1e-12
        assert max_abs_diff(product, scalar * target) < 1e-12


def test_format_parse_round_trip_qubits():
    for text in ["IXYZ", "ZZII", "Y"]:
        e = parse_element(text, 2)
        assert format_element(e) == text
        assert parse_element(format_element(e), 2) == e


def test_format_parse_round_trip_general():
    e = PauliElement(3, 2, (1, 0), (2, 2))
    text = format_element(e)
    assert parse_element(text, 3, 2) == e
    assert parse_element("x:0,0;z:0,0", 3, 2).is_identity


def test_parse_element_errors():
    with pytest.raises(ValueError):
        parse_element("XQ", 2)
    with pytest.raises(ValueError):
        parse_element("XY", 2, 3)          # wrong length for declared n
    with pytest.raises(ValueError):
        parse_element("XY", 3)             # letters are a base-2 shorthand
    with pytest.raises(ValueError):
        parse_element("x:1;z:", 3)
    with pytest.raises(ValueError):
        parse_element("x:5;z:0", 3)        # exponent out of range
    with pytest.raises(ValueError, match="^empty error string$"):
        parse_element("  ", 2)
    with pytest.raises(ValueError, match=re.escape("malformed element 'x:1,0'; expected x:...;z:...")):
        parse_element("x:1,0", 3)
    with pytest.raises(ValueError, match="^element 'x:1,0;z:0' does not have 2 digits$"):
        parse_element("x:1,0;z:0", 3, 2)
