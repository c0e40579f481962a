"""Seeded inputs for the benchmark workloads.

    python3 bench/generate.py --workload NAME --seed N --out DIR

writes the code documents of one workload into DIR together with
requests.json: the request list (CLI argv, in order) and, for every
request, the answer the checker expects.  Expected answers come from
bench/models.py and bench/expected.json, never from hybridec, so the
generator runs without the program.  The same seed gives the same bytes.
"""

from __future__ import annotations

import argparse
import json
import os
from math import comb

import numpy as np

import models

HERE = os.path.dirname(os.path.abspath(__file__))

FIVE_QUBIT = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")
STEANE = ("IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ")
SHOR = ("ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII", "IIIIIIZZI",
        "IIIIIIIZZ", "XXXXXXIII", "IIIXXXXXX")

# Named stabilizer codes: generators and classical operators.
NAMED = {
    "five_qubit": (5, FIVE_QUBIT, ()),
    "five_qubit_hybrid": (5, FIVE_QUBIT, ("ZZZZZ",)),
    "steane_hybrid": (7, STEANE, ("XXXXXXX",)),
    "shor": (9, SHOR, ()),
}


def load_expected() -> dict:
    """Stored distributions of the named codes (bench/expected.json)."""
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


# --- code construction ---------------------------------------------------

def random_frames(rng, q: int, n: int, k: int, m: int) -> np.ndarray:
    """(M, K, q^n) frames: QR of a seeded complex Gaussian, split into blocks."""
    dim = q**n
    a = rng.normal(size=(dim, m * k)) + 1j * rng.normal(size=(dim, m * k))
    qmat, _ = np.linalg.qr(a)
    return qmat.T.reshape(m, k, dim).copy()


def random_stabilizer(rng, n: int, r: int, c: int) -> tuple[list[str], list[str]]:
    """r generators and c classical operators on n qubits.

    Z on the first r + c qubits, scrambled by random H, S and CNOT gates
    acting on the check matrix; Clifford conjugation keeps the rows
    commuting and independent.
    """
    rows = [[0, 1 << (n - 1 - i)] for i in range(r + c)]  # [x bits, z bits]
    for _ in range(6 * n * n):
        gate = rng.integers(3)
        i = int(rng.integers(n))
        t = (i + 1 + int(rng.integers(n - 1))) % n
        bi, bt = 1 << (n - 1 - i), 1 << (n - 1 - t)
        for row in rows:
            x, z = row
            if gate == 0:  # H: swap x_i and z_i
                if bool(x & bi) != bool(z & bi):
                    x ^= bi
                    z ^= bi
            elif gate == 1:  # S: z_i ^= x_i
                if x & bi:
                    z ^= bi
            else:  # CNOT(i -> t)
                if x & bi:
                    x ^= bt
                if z & bt:
                    z ^= bi
            row[0], row[1] = x, z
    texts = [models.pauli_text((x << n) | z, n) for x, z in rows]
    return texts[:r], texts[r:]


def stabilizer_frames(rng, n: int, gens, cls, signs) -> np.ndarray:
    """Dense (M, K, 2^n) frames of a stabilizer code, independent of hybridec.

    Each block is the range of the product of (1 +- g)/2 factors, in the
    block order of the document format (classical signs in binary, first
    operator most significant).  A seeded K x K unitary mixes each block's
    basis so every entry is dense.
    """
    dim = 2**n
    base = np.eye(dim, dtype=complex)
    for s, g in zip(signs, gens):
        base = base @ (np.eye(dim) + s * models.pauli_matrix(g)) / 2
    k = 2 ** (n - len(gens) - len(cls))
    blocks = []
    for bits in range(2 ** len(cls)):
        p = base
        for j, h in enumerate(cls):
            s = -1 if (bits >> (len(cls) - 1 - j)) & 1 else 1
            p = p @ (np.eye(dim) + s * models.pauli_matrix(h)) / 2
        vals, vecs = np.linalg.eigh((p + p.conj().T) / 2)
        basis = vecs[:, vals > 0.5].T
        assert basis.shape[0] == k
        mix, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
        blocks.append(mix @ basis)
    return np.array(blocks)


def frames_doc(frames: np.ndarray, q: int, n: int) -> dict:
    m, k, _ = frames.shape
    blocks = [[[[float(z.real), float(z.imag)] for z in row] for row in block]
              for block in frames]
    return {"q": q, "n": n, "K": k, "M": m, "blocks": blocks}


def stabilizer_doc(n, gens, cls, signs) -> dict:
    return {"n": n, "stabilizers": list(gens), "classical_ops": list(cls),
            "signs": list(signs)}


def stabilizer_spec(n, gens, cls) -> dict:
    return {"kind": "stabilizer", "n": n, "generators": list(gens), "classical": list(cls)}


# --- request expectations --------------------------------------------------

def params(q, n, k, m) -> dict:
    return {"q": q, "n": n, "K": k, "M": m}


def random_pauli(rng, n: int, weight: int) -> str:
    s = ["I"] * n
    for pos in rng.choice(n, size=weight, replace=False):
        s[pos] = "XYZ"[int(rng.integers(3))]
    return "".join(s)


def scan_expect(code: dict, dists: dict, max_weight=None) -> dict:
    """Answers for enumerators / distance / identities on one code."""
    q, n, k, m = (code["params"][x] for x in ("q", "n", "K", "M"))
    top = n if max_weight is None else max_weight
    if code["model"]["kind"] == "stabilizer":
        model = models.model_from_spec(code["model"])
        detectable = [models.all_detectable(model, n, d)[0] for d in range(top + 1)]
    else:
        detectable = [d == 0 for d in range(top + 1)]
    distance = next((d for d in range(1, n + 1) if not detectable[d]), n + 1) \
        if max_weight is None else None
    return {
        "parameters": code["params"],
        "distributions": {key: vals[:top + 1] for key, vals in dists.items()},
        "sum_targets": [q**n / k, float(q**n * k * m)],
        "detectable": detectable,
        "distance": distance,
    }


def detect_error_expect(code: dict, error: str) -> dict:
    model = models.model_from_spec(code["model"])
    ok, witness = model.verdict(error)
    # A detectable error either leaves the code (every block scalar 0) or
    # acts as a phase on each block (modulus 1).
    leaves = code["model"]["kind"] == "stabilizer" and model.target_block(error) is None
    return {"error": error, "detectable": ok, "witness": list(witness) if witness else None,
            "blocks": code["params"]["M"], "lambda_modulus": 0.0 if leaves else 1.0}


def detect_weight_expect(code: dict, w: int) -> dict:
    n = code["params"]["n"]
    model = models.model_from_spec(code["model"])
    _, bad = models.all_detectable(model, n, w)
    return {"weight": w, "count": comb(n, w) * 3**w, "all_detectable": bad == 0,
            "counterexamples": min(bad, 10), "model": code["model"]}


def correctable_expect(code: dict, errors: list[str]) -> dict:
    ok, witness = models.correctable_verdict(models.model_from_spec(code["model"]), errors)
    return {"errors": errors, "correctable": ok, "witness": witness}


def dimension_expect(code: dict, numeric: bool) -> dict:
    q, n, k, m = (code["params"][x] for x in ("q", "n", "K", "M"))
    total = q ** (2 * n)
    hybrid, quantum = total - (m * k) ** 2 + m, total - (m * k) ** 2 + 1
    return {"parameters": code["params"], "hybrid": hybrid, "quantum": quantum,
            "numeric": hybrid if numeric else None}


def simulate_expect(code: dict, frames, message: int, error: str, trials: int) -> dict:
    m = code["params"]["M"]
    if code["model"]["kind"] == "stabilizer":
        model = models.model_from_spec(code["model"])
        # E moves block a to block a XOR mask, where block 1 lands in mask + 1.
        target = model.target_block(error)
        probs = [0.0] * (m + 1)
        probs[m if target is None else (message - 1) ^ (target - 1)] = 1.0
    else:
        probs = models.measurement_probabilities(frames, message, error)
    return {"parameters": code["params"], "message": message, "error": error,
            "trials": trials, "probabilities": probs}


# --- workloads -----------------------------------------------------------

class Builder:
    """Collects code files and requests for one workload directory."""

    def __init__(self, out: str, seed: int):
        self.out = out
        self.rng = np.random.default_rng(seed)
        self.requests: list[dict] = []

    def _write(self, name: str, doc: dict) -> str:
        path = os.path.join(self.out, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def random_frames(self, name, q, n, k, m, reference=True):
        frames = random_frames(self.rng, q, n, k, m)
        code = {"path": self._write(name, frames_doc(frames, q, n)),
                "params": params(q, n, k, m), "frames": frames,
                "model": {"kind": "generic", "K": k, "M": m}}
        if reference:
            code["dists"] = models.reference_distributions(frames, q, n)
        return code

    def named(self, name, dense=False):
        n, gens, cls = NAMED[name]
        signs = [1] * len(gens)
        k, m = 2 ** (n - len(gens) - len(cls)), 2 ** len(cls)
        code = {"params": params(2, n, k, m), "model": stabilizer_spec(n, gens, cls)}
        if dense:
            code["frames"] = stabilizer_frames(self.rng, n, gens, cls, signs)
            code["path"] = self._write(name + "_dense", frames_doc(code["frames"], 2, n))
        else:
            code["path"] = self._write(name, stabilizer_doc(n, gens, cls, signs))
            code["dists"] = load_expected()[name]
        return code

    def random_stabilizer(self, name, n, r, c):
        gens, cls = random_stabilizer(self.rng, n, r, c)
        signs = [int(s) for s in self.rng.choice([1, -1], size=r)]
        code = {"path": self._write(name, stabilizer_doc(n, gens, cls, signs)),
                "params": params(2, n, 2 ** (n - r - c), 2**c),
                "model": stabilizer_spec(n, gens, cls)}
        return code

    def add(self, code, argv, command, expect, covers=0):
        """Append a request; covers counts the basis errors its answer is about."""
        self.requests.append({"argv": [command, code["path"], *argv,
                                       "--format", "json", "--jobs", "1"],
                              "command": command, "expect": expect, "covers": covers})

    def scan(self, code, command, extra=(), max_weight=None):
        q, n = code["params"]["q"], code["params"]["n"]
        top = n if max_weight is None else max_weight
        covers = sum(comb(n, d) * (q * q - 1) ** d for d in range(top + 1))
        self.add(code, list(extra), command, scan_expect(code, code["dists"], max_weight),
                 covers)

    def detect_error(self, code, weight):
        err = random_pauli(self.rng, code["params"]["n"], weight)
        self.add(code, ["--error", err], "detect", detect_error_expect(code, err), 1)

    def detect_weight(self, code, w):
        expect = detect_weight_expect(code, w)
        self.add(code, ["--weight", str(w)], "detect", expect, expect["count"])

    def correctable(self, code):
        n = code["params"]["n"]
        errors = ["I" * n] + models.weight_class(n, 1)
        self.add(code, ["--errors", ",".join(errors)], "correctable",
                 correctable_expect(code, errors), len(errors) ** 2)

    def dimension(self, code, numeric=False):
        self.add(code, ["--numeric"] if numeric else [], "dimension",
                 dimension_expect(code, numeric))

    def validate(self, code):
        self.add(code, [], "validate", {"parameters": code["params"]})

    def simulate(self, code, trials):
        n, m = code["params"]["n"], code["params"]["M"]
        message = int(self.rng.integers(1, m + 1))
        err = random_pauli(self.rng, n, int(self.rng.integers(1, 3)))
        frames = code.get("frames")
        self.add(code, ["--message", str(message), "--error", err, "--trials", str(trials),
                        "--seed", str(int(self.rng.integers(1000)))], "simulate",
                 simulate_expect(code, frames, message, err, trials))


# Each build_* function appends one pass of its workload.  Commands are spread so
# a pass stays near NOMINAL_PASS_S in bench/run.py while every code and
# every command of the workload appears in it.

SCANS = ("enumerators", "distance", "identities")


def build_scan_frames(b: Builder) -> None:
    """Full weight-distribution scans (enumerators, distance, identities)."""
    five = b.named("five_qubit")
    for code in (b.random_frames("r6_2_4", 2, 6, 2, 4), five, b.named("five_qubit_hybrid")):
        for command in SCANS:
            b.scan(code, command)
    # About 0.6-2 s each: one command per code.
    b.scan(b.random_frames("r4_2_3_q3", 3, 4, 2, 3), "identities")
    b.scan(b.random_frames("r5_1_16", 2, 5, 1, 16), "distance")
    b.scan(b.named("steane_hybrid"), "enumerators")
    b.scan(b.random_frames("r8_2_2", 2, 8, 2, 2), "enumerators", ["--max-weight", "2"],
           max_weight=2)
    b.scan(five, "enumerators", ["--mode", "definitional"])


def build_stabilizer_queries(b: Builder) -> None:
    """Queries that need no full scan, on stabilizer documents."""
    # One request per code at n = 10 (a ~2.5 s build).  At n = 9 each
    # request gets its own random code, because a build's Gram-Schmidt
    # cost depends on the group by up to 1.5x; K = 4 and K = 128 put the
    # build's time in the dense projector products and in Gram-Schmidt.
    b.detect_weight(b.random_stabilizer("s10_128_1", 10, 3, 0), 2)
    n9 = [b.random_stabilizer(f"s9_{i}", 9, r, c)
          for i, (r, c) in enumerate([(5, 2), (4, 1), (4, 0)] * 2)]
    b.simulate(n9[0], 10000)
    b.dimension(n9[1])
    b.validate(n9[2])
    b.detect_error(n9[3], 1)
    b.correctable(n9[4])
    b.detect_weight(n9[5], 1)
    s8 = b.random_stabilizer("s8_4_4", 8, 4, 2)
    b.dimension(s8)
    b.validate(s8)
    b.detect_error(s8, 1)
    b.detect_weight(s8, 1)
    b.detect_weight(s8, 2)
    b.correctable(s8)
    b.simulate(s8, 10000)
    shor = b.named("shor")
    b.detect_error(shor, 2)
    b.detect_weight(shor, 2)
    b.correctable(shor)


def build_frame_queries(b: Builder) -> None:
    """Many short queries on large explicit-frame documents."""
    # The 6 MB document costs ~0.7 s a request, so it gets three queries.
    big = b.random_frames("f10_16_8", 2, 10, 16, 8, reference=False)
    b.validate(big)
    b.detect_weight(big, 1)
    b.correctable(big)
    codes = [
        b.random_frames("f10_4_8", 2, 10, 4, 8, reference=False),
        b.random_frames("f9_8_4", 2, 9, 8, 4, reference=False),
        b.named("shor", dense=True),
        b.named("steane_hybrid", dense=True),
    ]
    for code in codes:
        b.validate(code)
        b.detect_error(code, 1)
        b.detect_weight(code, 1)
        b.detect_weight(code, 2)
        b.correctable(code)
        b.simulate(code, 1000)
    for code in (b.random_frames("f4_2_2", 2, 4, 2, 2, reference=False),
                 b.random_frames("f2_1_3_q3", 3, 2, 1, 3, reference=False)):
        b.dimension(code, numeric=True)


WORKLOADS = {
    "scan-frames": build_scan_frames,
    "stabilizer-queries": build_stabilizer_queries,
    "frame-queries": build_frame_queries,
}


def generate(workload: str, seed: int, out: str) -> list[dict]:
    """Write the workload's files into out and return its request list."""
    os.makedirs(out, exist_ok=True)
    b = Builder(out, seed)
    b.random_frames("tiny", 2, 2, 1, 2, reference=False)  # set-up warm-up code
    WORKLOADS[workload](b)
    with open(os.path.join(out, "requests.json"), "w", encoding="utf-8") as fh:
        json.dump(b.requests, fh)
    return b.requests


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
