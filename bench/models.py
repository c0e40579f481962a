"""Reference answers computed independently of hybridec.

Two models predict what the program must print:

* StabilizerModel decides detectability of a qubit Pauli error from
  symplectic products with the stabilizer generators and classical
  operators, without any frames.
* GenericModel covers Haar-random frames, on which every non-identity
  basis error is undetectable with probability one.

reference_distributions computes A, B, A' and C of explicit frames from
partial traces over subsets of qudits (Shor-Laflamme / Rains) followed by
binomial inversion, instead of the program's per-element scan.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb

import numpy as np

QUBIT_LETTERS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_LETTER_OF = {v: k for k, v in QUBIT_LETTERS.items()}


def pauli_bits(text: str) -> int:
    """Symplectic vector of a qubit Pauli string as an int: x bits high, z bits low."""
    n = len(text)
    x = z = 0
    for i, ch in enumerate(text.upper()):
        xb, zb = QUBIT_LETTERS[ch]
        x |= xb << (n - 1 - i)
        z |= zb << (n - 1 - i)
    return (x << n) | z


def pauli_text(bits: int, n: int) -> str:
    x, z = bits >> n, bits & ((1 << n) - 1)
    return "".join(
        _LETTER_OF[((x >> (n - 1 - i)) & 1, (z >> (n - 1 - i)) & 1)] for i in range(n)
    )


def symplectic_inner(a: int, b: int, n: int) -> int:
    mask = (1 << n) - 1
    return (bin(((a >> n) & b & mask) ^ (a & mask & (b >> n))).count("1")) & 1


def weight_class(n: int, w: int) -> list[str]:
    """Every qubit Pauli string of weight w (order is irrelevant to the checks)."""
    out = []
    for support in combinations(range(n), w):
        for letters in product("XYZ", repeat=w):
            s = ["I"] * n
            for pos, ch in zip(support, letters):
                s[pos] = ch
            out.append("".join(s))
    return out


class StabilizerModel:
    """Detectability for the hybrid code of generators S and classical ops h.

    Block index (0-based) is the sign pattern on h in binary, first
    operator most significant, +1 reading as 0.  A Pauli E is detectable
    iff it anticommutes with some generator (it leaves the code), or it
    commutes with S and every h and lies in <S, h> up to phase (it acts
    as a scalar on every block).  Otherwise E either moves block 1 to the
    block whose index has a bit set for each anticommuting h (witness
    (that block, 1)), or acts as a non-scalar logical on block 1
    (witness (1, 1)).
    """

    def __init__(self, n: int, generators, classical=()):
        self.n = n
        self.gens = [pauli_bits(g.lstrip("+-")) for g in generators]
        self.cls = [pauli_bits(h.lstrip("+-")) for h in classical]
        self._pivots: dict[int, int] = {}
        for row in self.gens + self.cls:
            if self._reduce(row) == 0:
                raise ValueError("dependent stabilizer rows")
            self._insert(row)

    def _reduce(self, v: int) -> int:
        for top in sorted(self._pivots, reverse=True):
            if (v >> top) & 1:
                v ^= self._pivots[top]
        return v

    def _insert(self, row: int) -> None:
        v = self._reduce(row)
        self._pivots[v.bit_length() - 1] = v

    def verdict(self, pauli: str) -> tuple[bool, tuple[int, int] | None]:
        e = pauli_bits(pauli)
        if any(symplectic_inner(e, g, self.n) for g in self.gens):
            return True, None
        mask = 0
        for h in self.cls:
            mask = (mask << 1) | symplectic_inner(e, h, self.n)
        if mask:
            return False, (mask + 1, 1)
        if self._reduce(e) == 0:
            return True, None
        return False, (1, 1)

    def target_block(self, pauli: str) -> int | None:
        """Block (1-based) that block 1 lands in under E, None if E leaves the code."""
        e = pauli_bits(pauli)
        if any(symplectic_inner(e, g, self.n) for g in self.gens):
            return None
        mask = 0
        for h in self.cls:
            mask = (mask << 1) | symplectic_inner(e, h, self.n)
        return mask + 1


class GenericModel:
    """Random frames: only the identity is detectable."""

    def __init__(self, k: int, m: int):
        self.k, self.m = k, m

    def verdict(self, pauli: str) -> tuple[bool, tuple[int, int] | None]:
        if set(pauli) <= {"I"}:
            return True, None
        return False, ((1, 1) if self.k > 1 else (2, 1))


def model_from_spec(spec: dict):
    if spec["kind"] == "stabilizer":
        return StabilizerModel(spec["n"], spec["generators"], spec["classical"])
    return GenericModel(spec["K"], spec["M"])


def compose(f: str, e: str) -> str:
    """f^dagger e up to phase, which is all detectability depends on."""
    return pauli_text(pauli_bits(f) ^ pauli_bits(e), len(f))


def correctable_verdict(model, errors: list[str]):
    for f in errors:
        for e in errors:
            if not model.verdict(compose(f, e))[0]:
                return False, [f, e]
    return True, None


def all_detectable(model, n: int, w: int) -> tuple[bool, int]:
    """(every weight-w error detectable, number that are not)."""
    bad = sum(1 for p in weight_class(n, w) if not model.verdict(p)[0])
    return bad == 0, bad


def reference_distributions(frames: np.ndarray, q: int, n: int) -> dict[str, list[float]]:
    """A, B, A_perp, C of an (M, K, q^n) frame array via subset partial traces.

    For a subset S of the qudits, with E running over basis errors
    supported inside S:
      sum_E sum_a |Tr(P_a E)|^2          = q^|S| sum_a ||Tr_{S^c} P_a||_F^2
      sum_E sum_a Tr(P_a E P_a E^dagger) = q^|S| sum_a ||Tr_S P_a||_F^2
      sum_E Tr(P E P E^dagger)           = q^|S| ||Tr_S P||_F^2,  P = sum_a P_a.
    Summing over |S| = j and inverting the binomial relation gives the
    per-weight sums.
    """
    m, k, dim = frames.shape
    g = frames.reshape((m, k) + (q,) * n)
    acc = np.zeros((3, n + 1))
    for bits in range(2**n):
        s = [i for i in range(n) if (bits >> (n - 1 - i)) & 1]
        sc = [i for i in range(n) if not (bits >> (n - 1 - i)) & 1]
        ds, dsc = q ** len(s), q ** len(sc)
        gs = g.transpose([0, 1] + [2 + i for i in s] + [2 + i for i in sc]).reshape(m, k, ds, dsc)
        # Tr_{S^c} P_a is a (ds x ds) Gram matrix of the K slices.
        ga = gs.transpose(0, 2, 1, 3).reshape(m, ds, k * dsc)
        a_term = sum(_gram_norm2(ga[a]) for a in range(m))
        # Tr_S P_a is a (dsc x dsc) Gram matrix of the transposed slices.
        gb = gs.transpose(0, 3, 1, 2).reshape(m, dsc, k * ds)
        aperp_term = sum(_gram_norm2(gb[a]) for a in range(m))
        b_term = _gram_norm2(gb.transpose(1, 0, 2).reshape(dsc, m * k * ds))
        acc[:, len(s)] += ds * np.array([a_term, aperp_term, b_term])
    per_weight = np.zeros((3, n + 1))
    for d in range(n + 1):
        for j in range(d + 1):
            per_weight[:, d] += (-1) ** (d - j) * comb(n - j, d - j) * acc[:, j]
    a_vals = per_weight[0] / (k * k * m)
    aperp_vals = per_weight[1] / (k * m)
    b_vals = per_weight[2] / (k * m)
    return {
        "A": a_vals.tolist(),
        "B": b_vals.tolist(),
        "A_perp": aperp_vals.tolist(),
        "C": (b_vals - aperp_vals).tolist(),
    }


def _gram_norm2(rows: np.ndarray) -> float:
    """||R R^dagger||_F^2, computed on whichever side is smaller."""
    gram = rows @ rows.conj().T if rows.shape[0] <= rows.shape[1] else rows.conj().T @ rows
    return float(np.sum(np.abs(gram) ** 2))


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix(text: str) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for ch in text:
        out = np.kron(out, _PAULI[ch])
    return out


def apply_pauli(text: str, v: np.ndarray) -> np.ndarray:
    """Apply a qubit Pauli string to a state by one-qubit tensor contractions."""
    n = len(text)
    t = v.reshape((2,) * n)
    for i, ch in enumerate(text):
        if ch != "I":
            t = np.moveaxis(np.tensordot(_PAULI[ch], t, axes=([1], [i])), 0, i)
    return t.reshape(-1)


def measurement_probabilities(frames: np.ndarray, message: int, error: str) -> list[float]:
    """Outcome probabilities (messages 1..M, then the error outcome) after
    sending the first basis state of block `message` through `error`."""
    sent = frames[message - 1, 0]
    received = apply_pauli(error, sent)
    received = received / np.linalg.norm(received)
    probs = [float(np.sum(np.abs(frames[a].conj() @ received) ** 2)) for a in range(frames.shape[0])]
    return probs + [max(0.0, 1.0 - sum(probs))]
