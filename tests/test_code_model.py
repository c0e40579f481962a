"""Code construction, validation, stabilizer builds, file round trips."""

import gc
import json
import time
import tracemalloc

import numpy as np
import pytest

from conftest import (
    basis_state,
    codes_close,
    make_t1,
    max_abs_diff,
    projector,
    random_code,
    random_stabilizer_spec,
)

from hybridec.code_model import (
    CodeFileError,
    DimensionError,
    HybridCode,
    InvariantError,
    MalformedDocumentError,
    StabilizerSpec,
    encode,
    from_stabilizer,
    parse_code_file,
    serialize_code,
    validate,
)
from hybridec.linalg import GuardExceededError


def test_parameter_accessors(t1, t3, f5):
    assert (t1.q, t1.n, t1.k, t1.m) == (2, 1, 1, 2)
    assert (t3.q, t3.n, t3.k, t3.m) == (2, 2, 1, 2)
    assert (f5.q, f5.n, f5.k, f5.m) == (2, 5, 2, 1)
    assert t1.dimension == 2
    assert f5.frames.shape == (1, 2, 32)
    assert f5.frame_stack.shape == (2, 32)


def test_constructor_rejects_bad_shapes():
    e0, e1 = basis_state(2, 0), basis_state(2, 1)
    with pytest.raises(DimensionError):
        HybridCode(2, 2, [[e0]])                  # vector too short for n=2
    with pytest.raises(DimensionError, match=r"expected 2\^1000000000"):
        HybridCode(2, 10**9, [[e0]])              # refused without forming 2^n
    with pytest.raises(InvariantError):
        HybridCode(2, 1, [[e0], [e0], [e1]])      # M K = 3 > 2
    with pytest.raises(DimensionError):
        HybridCode(2, 1, [[e0], [e0, e1]])        # ragged: blocks of 1 and 2 vectors
    with pytest.raises(DimensionError):
        HybridCode(2, 1, [e0])                    # no block axis
    with pytest.raises(DimensionError):
        HybridCode(2, 1, np.zeros((0, 1, 2)))     # no blocks
    with pytest.raises(InvariantError):
        HybridCode(1, 1, [[e0]])
    with pytest.raises(InvariantError, match="^n must be at least 1$"):
        HybridCode(2, 0, [[e0]])


def test_frames_must_have_a_finite_squared_norm():
    # Finite entries whose squares overflow would give an inf or nan Gram.
    for entry in (1e200, 1e308 + 1e308j):
        with pytest.raises(InvariantError):
            HybridCode(2, 1, [[[entry, 0]]])


def test_frames_are_read_only(t1):
    with pytest.raises(ValueError):
        t1.frames[0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        t1.frame_stack[0, 0] = 5.0
    source = np.array([[basis_state(2, 0)]])
    code = HybridCode(2, 1, source)
    source[0, 0, 0] = 5.0
    assert code.frames[0, 0, 0] == 1.0


def test_frame_stack_is_a_view_of_the_frames(t3, f5):
    for code in (t3, f5, random_code(3, 2, 2, 3, seed=8)):
        assert np.shares_memory(code.frames, code.frame_stack)
        assert code.frame_stack.tobytes() == code.frames.tobytes()


def test_a_parsed_code_holds_its_frames_once():
    # The ((10, 16:8))_2 document lists 2 MiB of frames in about 6 MB of JSON.
    text = serialize_code(random_code(2, 10, 16, 8, seed=5))
    tracemalloc.start()
    try:
        code = parse_code_file(text)
        stack = code.frame_stack
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 1.1 * stack.nbytes
    assert np.shares_memory(code.frames, stack)


def test_a_parse_decodes_one_vector_at_a_time():
    # n = 8, M K = 64: 256 KiB of frames in 754 KB of JSON, which json.loads
    # alone turns into 2.3 MiB of lists.  The parse's peak is the
    # converted vectors and the stack they are copied into (2x the frames),
    # one vector's lists and, strict, Loewdin's product: 2.17x and 2.92x,
    # where the whole decoded document read 11.0x and 12.5x.
    code = random_code(2, 8, 8, 8, seed=7)
    text = serialize_code(code)
    for strict, bound in ((False, 2.5), (True, 3.5)):
        tracemalloc.start()
        try:
            parse_code_file(text, strict)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * code.frames.nbytes, (strict, peak / code.frames.nbytes)



def test_a_malformed_document_is_decoded_once():
    # The document of the test above cut by its last byte, and with data
    # after it: each is refused where the walk meets the fault, with
    # json.loads's message, holding the converted vectors and one vector's
    # lists (1.21x the frames).  Handing the text to json.loads after the
    # walk held the whole decoded document too: 9.05x.
    code = random_code(2, 8, 8, 8, seed=7)
    text = serialize_code(code)
    for bad in (text[:-1], text + " {}"):
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(bad)
        tracemalloc.start()
        try:
            with pytest.raises(MalformedDocumentError) as got:
                parse_code_file(bad, False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(got.value) == f"not valid JSON: {want.value}"
        assert peak < 2 * code.frames.nbytes, peak / code.frames.nbytes


def test_json_loads_never_reads_an_object_document(monkeypatch):
    """Valid or not, str or bytes, a document that opens with a brace is
    decoded by the walk alone; other text still goes to json.loads."""
    text = serialize_code(random_code(2, 3, 2, 2, seed=1))
    stabilizers = '{"n": 2, "stabilizers": ["ZZ"], "classical_ops": ["ZI"]}'
    loads, read = json.loads, []
    monkeypatch.setattr(json, "loads", lambda s, **kw: read.append(s) or loads(s, **kw))
    parse_code_file(text)
    parse_code_file((" " + stabilizers).encode("utf-16"))
    for bad in (text[:-1], text + "]", text.replace(":", "", 1), text.replace("]]", "],]", 1)):
        with pytest.raises(MalformedDocumentError, match="not valid JSON"):
            parse_code_file(bad)
    assert read == []
    for other in ("[]", "\ufeff" + stabilizers, " "):
        with pytest.raises(MalformedDocumentError):
            parse_code_file(other)
    assert read == ["[]", "\ufeff" + stabilizers, " "]

def test_projector_explicit(t1, t3):
    # projector is the block projector of the dense oracle in conftest.
    assert max_abs_diff(projector(t1.frames[0]), np.diag([1.0, 0.0])) == 0
    assert max_abs_diff(projector(t3.frames[1]), np.diag([0.0, 0.0, 0.0, 1.0])) == 0


def test_projector_properties_random():
    code = random_code(2, 2, 2, 2, seed=3)
    for frame in code.frames:
        p = projector(frame)
        assert max_abs_diff(p @ p, p) < 1e-12
        assert max_abs_diff(p.conj().T, p) < 1e-12
        assert abs(np.trace(p) - code.k) < 1e-12


def test_validate_reference_codes(t1, t3, f5):
    for code in (t1, t3, f5):
        report = validate(code, 1e-10)
        assert report.ok
        assert report.issues == ()
        assert report.max_gram_deviation < 1e-12
        assert report.max_cross_overlap < 1e-12


def test_validate_flags_cross_overlap():
    e0, e1 = basis_state(2, 0), basis_state(2, 1)
    tilted = (e0 + e1) / np.sqrt(2)
    code = HybridCode(2, 1, [[e0], [tilted]])
    report = validate(code, 1e-9)
    assert not report.ok
    kinds = {issue.kind for issue in report.issues}
    assert kinds == {"cross_overlap"}
    assert report.issues[0].where == (1, 2)
    assert abs(report.max_cross_overlap - 1 / np.sqrt(2)) < 1e-12


def test_validate_flags_non_unit_frame():
    code = HybridCode(2, 1, [[0.9 * basis_state(2, 0)]])
    report = validate(code, 1e-9)
    assert not report.ok
    assert report.issues[0].kind == "block_gram"
    assert abs(report.issues[0].magnitude - 0.19) < 1e-12


def test_validate_counts_incomparable_deviations_as_failures(t3):
    report = validate(t3, float("nan"))
    assert not report.ok
    assert {issue.kind for issue in report.issues} == {"block_gram", "cross_overlap"}


def test_from_stabilizer_reproduces_reference_codes(t1, t3):
    built_t3 = from_stabilizer(StabilizerSpec(2, ("ZZ",), ("ZI",)))
    assert codes_close(built_t3, t3, 1e-12)
    built_t1 = from_stabilizer(StabilizerSpec(1, (), ("Z",)))
    assert codes_close(built_t1, t1, 1e-12)


def test_from_stabilizer_five_qubit(f5):
    assert (f5.k, f5.m) == (2, 1)
    report = validate(f5, 1e-10)
    assert report.ok


def test_from_stabilizer_signed_generator():
    code = from_stabilizer(StabilizerSpec(2, ("-ZZ",)))
    # Negated parity check: the block is the odd-parity subspace.
    p = projector(code.frames[0])
    e1 = basis_state(4, 1)
    e0 = basis_state(4, 0)
    assert max_abs_diff(p @ e1, e1) < 1e-12
    assert max_abs_diff(p @ e0, np.zeros(4)) < 1e-12
    via_signs = from_stabilizer(StabilizerSpec(2, ("ZZ",), (), (-1,)))
    assert codes_close(code, via_signs, 1e-12)


def test_from_stabilizer_working_memory_is_bounded():
    # The build holds the frames and the constructor's copy of them, plus
    # arrays of 2^n entries per operator; a dense 2^n x 2^n complex array
    # alone would be 4 MiB at n = 9 and 16 MiB at n = 10.
    for args in ((9, 5, 2), (10, 3, 0)):
        spec = random_stabilizer_spec(*args, seed=4)
        from_stabilizer(spec)
        tracemalloc.start()
        try:
            code = from_stabilizer(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * code.frames.nbytes + 2**18


def test_from_stabilizer_refuses_large_n_without_forming_2_to_the_n():
    # 2**(10**9) alone took 7.7 s and 440 MB before the refusal.
    for n in (12, 10**9):
        start = time.perf_counter()
        with pytest.raises(GuardExceededError, match=f"dimension 2\\^{n}; guard is 2048"):
            from_stabilizer(StabilizerSpec(n, ()))
        assert time.perf_counter() - start < 0.5


def test_stabilizer_spec_rejects_bad_input():
    with pytest.raises(InvariantError, match="^operators 'XX' and 'ZI' do not commute$"):
        StabilizerSpec(2, ("XX", "ZI"))          # anticommuting pair
    with pytest.raises(InvariantError, match="^generators are dependent$"):
        StabilizerSpec(2, ("ZZ", "ZZ"))          # dependent generators
    with pytest.raises(InvariantError, match="^classical_ops are dependent modulo the generators$"):
        StabilizerSpec(2, ("ZZ",), ("ZZ",))      # classical op inside the group
    # The same two refusals with classical operators present, so the one
    # elimination over all rows must tell the generators' own dependencies
    # from the others.
    with pytest.raises(InvariantError, match="^generators are dependent$"):
        StabilizerSpec(2, ("ZZ", "ZZ"), ("ZI",))
    with pytest.raises(InvariantError, match="^classical_ops are dependent modulo the generators$"):
        StabilizerSpec(2, ("ZZ",), ("ZI", "IZ"))
    with pytest.raises(InvariantError, match="^classical_ops are dependent modulo the generators$"):
        StabilizerSpec(2, ("ZZ",), ("II",))      # a classical op dependent by itself
    with pytest.raises(InvariantError, match="^operator 'ZQ' uses letters outside I, X, Y, Z$"):
        StabilizerSpec(2, ("ZQ",))               # unknown letter
    with pytest.raises(InvariantError, match="^operator 'ZZZ' does not have 2 letters$"):
        StabilizerSpec(2, ("ZZZ",))              # wrong length
    with pytest.raises(InvariantError, match="^signs must match generators one for one$"):
        StabilizerSpec(2, ("ZZ",), (), (1, 1))
    with pytest.raises(InvariantError,
                       match="^classical_signs must match classical_ops one for one$"):
        StabilizerSpec(2, ("ZZ",), ("ZI",), (), (1, -1))
    with pytest.raises(InvariantError, match="does not have 2 letters"):
        StabilizerSpec(2, ("+-ZZ",))             # one leading sign only
    with pytest.raises(InvariantError, match="^n must be at least 1$"):
        StabilizerSpec(0, ())
    with pytest.raises(InvariantError, match="^signs must be \\+1 or -1$"):
        StabilizerSpec(2, ("ZZ",), ("ZI",), (1,), (2,))
    # Rows 0 and 3 clash, and rows 1 and 2: the first pair in (i, j > i)
    # order is named, not the first in column order.
    with pytest.raises(InvariantError, match="^operators 'XI' and 'ZI' do not commute$"):
        StabilizerSpec(2, ("XI", "IX", "IZ", "ZI"))
    # Past 64 qubits each half takes two words; the clash is in the second.
    far_x, far_z = "I" * 66 + "X" + "I" * 3, "I" * 66 + "Z" + "I" * 3
    with pytest.raises(InvariantError, match=f"^operators '{far_x}' and '{far_z}' do not commute$"):
        StabilizerSpec(70, ("Z" * 66 + "I" * 4, far_x), (far_z,))
    # Clashing and dependent at once: the commutation refusal comes first.
    with pytest.raises(InvariantError, match="^operators 'ZZ' and 'XI' do not commute$"):
        StabilizerSpec(2, ("ZZ", "ZZ", "XI"))


def test_stabilizer_spec_folds_one_leading_sign_per_operator():
    spec = StabilizerSpec(2, (" -zz",), ("+ZI",), (-1,), (-1,))
    assert (spec.generators, spec.signs) == (("ZZ",), (1,))
    assert (spec.classical_ops, spec.classical_signs) == (("ZI",), (-1,))


def test_stabilizer_spec_builds_without_byte_per_bit_tables():
    # The n = 2000 repetition code, Z_i Z_{i+1}: its 1999 folded operator
    # strings take 4 MB, read once more as 4 MB of bytes; the packed letter
    # words take 3 MB and the check rows 1 MB, and the build peaks near
    # 16.5 MiB.  The strings' X and Z bit strings, joined and encoded (16 MB),
    # or the rows at one byte per bit (8 MB), would pass the bound.
    n = 2000
    generators = tuple("I" * i + "ZZ" + "I" * (n - i - 2) for i in range(n - 1))
    tracemalloc.start()
    try:
        spec = StabilizerSpec(n, generators)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec._letter_words.shape == (63, 3 * n + 1)
    assert peak < 20 * 2**20


def test_from_stabilizer_block_order():
    # Two classical bits: blocks follow the sign vector in binary order
    # with the first operator as the high bit.
    code = from_stabilizer(StabilizerSpec(2, (), ("ZI", "IZ")))
    expect = [basis_state(4, i) for i in range(4)]
    for frame, vec in zip(code.frames, expect):
        assert max_abs_diff(frame[0], vec) < 1e-12


def test_encode(t3, f5):
    sent = encode(t3, 2, [1])
    assert max_abs_diff(sent, basis_state(4, 3)) < 1e-12
    for i in range(f5.k):
        phi = np.zeros(f5.k)
        phi[i] = 1.0
        assert max_abs_diff(encode(f5, 1, phi), f5.frames[0, i]) < 1e-12
    with pytest.raises(ValueError):
        encode(t3, 3, [1])
    with pytest.raises(ValueError):
        encode(t3, 0, [1])
    with pytest.raises(ValueError):
        encode(t3, 1, [0.5])
    with pytest.raises(DimensionError):
        encode(t3, 1, [1, 0])


def test_parse_pauses_the_cyclic_collector_and_restores_it(t3):
    # An n = 10, M K = 32 document decodes to 2^15 [re, im] lists, whose
    # allocation starts dozens of collections when the collector runs.
    text = serialize_code(random_code(2, 10, 4, 8, seed=6))
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        parse_code_file(text)
    finally:
        gc.callbacks.remove(count)
    assert starts == []
    assert gc.isenabled()
    bad_entry, skewed = json.loads(serialize_code(t3)), json.loads(serialize_code(t3))
    bad_entry["blocks"][0][0][1] = "12"
    skewed["blocks"][0][0][1][0] = 0.01
    refusals = {"{ not json": "not valid JSON", "[" * 100_000: "nests too deeply",
                json.dumps(bad_entry): r"entry 1 of .* \[re, im\] pair",
                json.dumps(skewed): "deviate from orthonormal"}
    for doc, message in refusals.items():
        with pytest.raises(CodeFileError, match=message):
            parse_code_file(doc)
        assert gc.isenabled()
    # A caller that turned the collector off finds it still off.
    gc.disable()
    try:
        parse_code_file(text)
        for doc in refusals:
            with pytest.raises(CodeFileError):
                parse_code_file(doc)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_serialize_parse_round_trip(t3):
    for code in (t3, random_code(3, 2, 2, 3, seed=8)):
        back = parse_code_file(serialize_code(code))
        assert isinstance(back, HybridCode)
        assert codes_close(back, code, 1e-12)


def test_parse_stabilizer_document():
    doc = {"n": 2, "stabilizers": ["ZZ"], "classical_ops": ["ZI"]}
    spec = parse_code_file(json.dumps(doc))
    assert isinstance(spec, StabilizerSpec)
    assert spec.generators == ("ZZ",)
    built = from_stabilizer(spec)
    assert (built.k, built.m) == (1, 2)
    with pytest.raises(InvariantError):
        parse_code_file(json.dumps({"q": 3, "n": 1, "stabilizers": ["Z"]}))


def test_parse_rejects_malformed_documents():
    with pytest.raises(MalformedDocumentError):
        parse_code_file("{ not json")
    with pytest.raises(MalformedDocumentError):
        parse_code_file(json.dumps([1, 2]))
    with pytest.raises(MalformedDocumentError):
        parse_code_file(json.dumps({"q": 2, "n": 1}))
    with pytest.raises(MalformedDocumentError):
        parse_code_file(json.dumps(
            {"q": True, "n": 1, "K": 1, "M": 1,
             "blocks": [[[[1, 0], [0, 0]]]]}
        ))


def test_parse_rejects_wrong_dimensions():
    base = {"q": 2, "n": 1, "K": 1, "M": 1}
    three_entries = dict(base, blocks=[[[[1, 0], [0, 0], [0, 0]]]])
    with pytest.raises(DimensionError):
        parse_code_file(json.dumps(three_entries))
    two_blocks = dict(base, blocks=[[[[1, 0], [0, 0]]], [[[0, 0], [1, 0]]]])
    with pytest.raises(DimensionError):
        parse_code_file(json.dumps(two_blocks))
    # JSON true and false would otherwise load as 1 and 0.
    for vec in ([[1, 0], 7], [[True, 0], [0, 0]], [[1, 0], [0, False]]):
        with pytest.raises(MalformedDocumentError, match=r"\[re, im\] pair"):
            parse_code_file(json.dumps(dict(base, blocks=[[vec]])))


def test_parse_checks_every_length_before_any_entry():
    # Block 1's vector has a bad entry, which the decoder sees first; the
    # refusal is still the first fault in the order of the checks.
    bad = [["x", 0], [0, 0]]
    doc = {"q": 2, "n": 1, "K": 1, "M": 2, "blocks": [[bad], [[[0, 0]]]]}
    with pytest.raises(DimensionError, match="vector 1 of block 2 has 1 entries"):
        parse_code_file(json.dumps(doc))
    with pytest.raises(MalformedDocumentError, match="block 2 must be a list"):
        parse_code_file(json.dumps(dict(doc, blocks=[[bad], 5])))
    with pytest.raises(MalformedDocumentError, match="K must be a positive integer"):
        parse_code_file(json.dumps(dict(doc, K=0)))
    with pytest.raises(MalformedDocumentError, match=r"entry 0 of vector 1 of block 1 must"):
        parse_code_file(json.dumps(dict(doc, blocks=[[bad], [[[0, 0], [1, 0]]]])))


def test_parse_refuses_unlistable_dimensions_before_computing_them():
    doc = {"q": 2, "K": 1, "M": 1, "blocks": [[[[1, 0], [0, 0]]]]}
    for n in (63, 10**9):
        with pytest.raises(DimensionError, match="cannot be listed"):
            parse_code_file(json.dumps(dict(doc, n=n)))
    with pytest.raises(DimensionError, match="has 2 entries"):
        parse_code_file(json.dumps(dict(doc, n=62)))


def test_parse_allocates_frames_only_for_listed_vectors():
    # M K = 4096 vectors are declared and one is listed: the refusal comes
    # before a buffer for 4096 vectors of 4096 entries (256 MiB) exists.
    dim = 2**12
    doc = {"q": 2, "n": 12, "K": 1, "M": dim, "blocks": [[[[0, 0]] * dim]] + [[]] * (dim - 1)}
    text = json.dumps(doc)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionError, match="block 2 has 0 vectors"):
            parse_code_file(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_parse_strict_absorbs_tiny_rounding(t3):
    doc = json.loads(serialize_code(t3))
    doc["blocks"][0][0][0][0] += 1e-7
    code = parse_code_file(json.dumps(doc))
    assert validate(code, 1e-9).ok
    assert codes_close(code, t3, 1e-6)


def test_parse_strict_rejects_large_deviation(t3):
    doc = json.loads(serialize_code(t3))
    doc["blocks"][0][0][1][0] = 0.01   # norm drifts well past the strict bound
    text = json.dumps(doc)
    with pytest.raises(InvariantError):
        parse_code_file(text)
    loose = parse_code_file(text, strict=False)
    assert isinstance(loose, HybridCode)
    assert not validate(loose, 1e-9).ok


def test_codes_close(t1, t3):
    assert codes_close(t1, make_t1())
    assert not codes_close(t1, t3)
    swapped = HybridCode(2, 1, t1.frames[::-1])
    assert not codes_close(t1, swapped)
