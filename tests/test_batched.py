"""The batched engines against the loops they replace, bit for bit.

detectable_column screens all its weight classes together, a
block_tensors chunk or a stabilizer_screen call serving several classes;
enumerators._partial_trace_sums forms the digit subsets of one size in
stacked products, and enumerators._trace_sums calls np.dot on the
operands np.tensordot would form for q >= 3 and, at q = 2, takes sums
and differences (a Walsh-Hadamard transform) with XOR permutations and
popcount weights.  Each is compared with its one-class, one-subset or
one-digit loop in conftest (per_weight_column, subset_pair_sums,
tensordot_trace_sums): the column's verdicts equal, the sums' float64
bits equal, q = 2 up to n = 8.
"""

from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    per_weight_column,
    random_code,
    random_stabilizer_spec,
    subset_pair_sums,
    tensordot_trace_sums,
)

from hybridec import code_model, detection, enumerators
from hybridec.code_model import StabilizerSpec, from_stabilizer

SETTINGS = settings(deadline=None, max_examples=40, derandomize=True)


@st.composite
def frames(draw):
    """Random frames with q in {2, 3} and q^n up to 256 or 81."""
    q = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 8 if q == 2 else 4))
    k = draw(st.integers(1, min(3, q**n)))
    m = draw(st.integers(1, min(5, q**n // k)))
    return random_code(q, n, k, m, seed=draw(st.integers(0, 2**32 - 1)))


@st.composite
def specs(draw):
    n = draw(st.integers(1, 6))
    total = draw(st.integers(0, n))
    c = draw(st.integers(0, min(total, 3)))
    return random_stabilizer_spec(n, total - c, c, seed=draw(st.integers(0, 2**32 - 1)))


def same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


BUDGETS = [code_model.CHUNK_ENTRIES, 1, 300]


@SETTINGS
@given(code=frames(), cap=st.integers(0, 8), entries=st.sampled_from(BUDGETS))
@example(code=random_code(2, 7, 2, 4, seed=1), cap=7, entries=BUDGETS[0])
@example(code=random_code(2, 7, 1, 16, seed=2), cap=3, entries=1)
@example(code=random_code(2, 7, 3, 2, seed=3), cap=5, entries=300)
@example(code=random_code(2, 8, 2, 2, seed=4), cap=2, entries=BUDGETS[0])
@example(code=random_code(2, 8, 1, 5, seed=5), cap=8, entries=1)
@example(code=random_code(2, 8, 2, 3, seed=6), cap=4, entries=300)
def test_stacked_partial_traces_and_dot_dft_repeat_the_loops_bit_for_bit(code, cap, entries):
    """At the default chunk budget and at budgets that split the subsets
    of one size into stacks of one or a few, and the shifts into chunks;
    max_d = min(cap, n).  The examples put q = 2 at n = 7 and at n = 8,
    the n of the scan-frames benchmark's r8_2_2 code, under each budget."""
    max_d = min(cap, code.n)
    with mock.patch.object(code_model, "CHUNK_ENTRIES", entries):
        assert same_bits(enumerators._partial_trace_sums(code, max_d), subset_pair_sums(code, max_d))
        assert same_bits(enumerators._trace_sums(code, max_d), tensordot_trace_sums(code, max_d))


def column_cases(code, data):
    max_d = data.draw(st.integers(0, code.n))
    tol = data.draw(st.sampled_from([0.0, 1e-9, 0.5, 1.0, 2.0]))
    return max_d, tol


@SETTINGS
@given(code=frames(), data=st.data())
def test_batched_column_matches_the_per_weight_scans_on_frames(code, data):
    max_d, tol = column_cases(code, data)
    assert detection.detectable_column(code, max_d, tol) == per_weight_column(code, max_d, tol)


@SETTINGS
@given(spec=specs(), data=st.data())
def test_batched_column_matches_the_per_weight_scans_on_specs(spec, data):
    """On the spec through the commutation screen, and on its frames,
    where whole weight classes are detectable and run out, through the
    kernel; at small chunk budgets the classes' shares split supports."""
    max_d, tol = column_cases(spec, data)
    entries = data.draw(st.sampled_from([code_model.CHUNK_ENTRIES, 8, 60]))
    frames_of_spec = from_stabilizer(spec)
    want = [per_weight_column(code, max_d, tol) for code in (spec, frames_of_spec)]
    with mock.patch.object(code_model, "CHUNK_ENTRIES", entries):
        assert [detection.detectable_column(code, max_d, tol)
                for code in (spec, frames_of_spec)] == want


def test_the_column_of_a_small_code_is_one_kernel_chunk(monkeypatch):
    """All seven weight classes of a random ((6, 2:4))_2 code share the
    kernel's chunks, so their first elements fail in one chunk."""
    code = random_code(2, 6, 2, 4, seed=5)
    chunks = []
    kernel = detection.block_tensors

    def counted(*args):
        for t in kernel(*args):
            chunks.append(len(t))
            yield t

    monkeypatch.setattr(detection, "block_tensors", counted)
    assert detection.detectable_column(code, 6) == (True,) + (False,) * 6
    assert len(chunks) == 1 and chunks[0] <= detection._chunk_rows(code)


def test_definitional_counts_screen_the_classes_together(monkeypatch):
    """The five-qubit code's 1024 elements, in six weight classes, take
    one stabilizer_screen call, and count as the per-class loop did."""
    spec = StabilizerSpec(5, ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"))
    calls = []
    screen = detection.stabilizer_screen

    def counted(spec, letters):
        calls.append(len(letters))
        return screen(spec, letters)

    monkeypatch.setattr(detection, "stabilizer_screen", counted)
    dists = enumerators.projector_distributions(spec)
    assert calls == [4**5]
    assert dists["A"].exact_values == (1, 0, 0, 0, 15, 0)
    assert dists["B"].exact_values == (1, 0, 0, 30, 15, 18)


def test_a_spec_is_not_screened_at_tol_one(monkeypatch):
    """A stabilizer code's violations are 0 or 1, so at tol >= 1 nothing
    fails: the column and the weight scan then make no stabilizer_screen
    call, while below 1 they screen and find the failures."""
    spec = StabilizerSpec(5, ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"))
    calls = []
    screen = detection.stabilizer_screen

    def counted(spec, blocks):
        calls.append(len(blocks))
        return screen(spec, blocks)

    monkeypatch.setattr(detection, "stabilizer_screen", counted)
    for tol in (1.0, 2.5):
        assert detection.detectable_column(spec, 5, tol) == (True,) * 6
        assert detection.all_detectable_of_weight(spec, 3, tol) == (True, [])
    assert calls == []
    assert detection.detectable_column(spec, 5, 0.5) == (True, True, True, False, True, False)
    assert not detection.all_detectable_of_weight(spec, 3, 0.5)[0]
    assert len(calls) >= 2


def test_identities_of_a_spec_transform_only_a(monkeypatch):
    """verify_identities takes A and B from the group counts and A' and C
    from the screen: the only transforms are B's, from the subgroup, and
    the transform of A it checks, none of A into the A' it discards."""
    spec = random_stabilizer_spec(5, 2, 1, seed=3)
    scales = []
    transform = enumerators.poly_substitute_macwilliams

    def recorded(coeffs, n, q, scale, *args):
        scales.append(scale)
        return transform(coeffs, n, q, scale, *args)

    monkeypatch.setattr(enumerators, "poly_substitute_macwilliams", recorded)
    report = enumerators.verify_identities(spec)
    assert report.ok
    assert scales == [Fraction(1, 2**2), Fraction(spec.k, 2**5)]
