"""Shift-and-clock error operators on n digits with q levels each.

An element is recorded by two exponent vectors.  Digit i contributes the
factor X^(x_i) Z^(z_i), where X|j> = |j+1 mod q> and Z|j> = w^j |j> with
w = exp(2*pi*i/q).  Basis states of the q^n dimensional space are indexed
big-endian: the first digit is the most significant.  For q = 2 the pair
x = z = 1 realizes the product XZ, which differs from the Hermitian Y by
a phase; every quantity computed downstream is insensitive to that phase.

Scans read an element as a row of letters, spelled only by letter_of and
letter_exponents: the pair (x, z) != (0, 0) on digit j is letter (q^2 - 1) j
+ q x + z - 1, and the empty letter (q^2 - 1) n pads a lighter row.  A qubit
element's text is a string of I, Z, X, Y: read, by code_model too, through
QUBIT_X and QUBIT_Z alone, and written through their inverse.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from math import comb
from typing import Generator, Iterator

import numpy as np

from .linalg import DimensionMismatchError


@dataclass(frozen=True)
class PauliElement:
    """One basis error, identified by its shift and clock exponents."""

    q: int
    n: int
    xvec: tuple[int, ...]
    zvec: tuple[int, ...]

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("q must be at least 2")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        try:
            object.__setattr__(self, "xvec", tuple(map(operator.index, self.xvec)))
            object.__setattr__(self, "zvec", tuple(map(operator.index, self.zvec)))
        except TypeError:
            raise ValueError("exponents must be integers") from None
        if len(self.xvec) != self.n or len(self.zvec) != self.n:
            raise ValueError("exponent vectors must have length n")
        values = self.xvec + self.zvec
        if min(values) < 0 or max(values) >= self.q:
            raise ValueError("exponents must lie in [0, q)")

    @classmethod
    def identity(cls, q: int, n: int) -> "PauliElement":
        return cls(q, n, (0,) * n, (0,) * n)

    @property
    def is_identity(self) -> bool:
        return not any(self.xvec) and not any(self.zvec)

    def __str__(self) -> str:
        return format_element(self)


@functools.lru_cache(maxsize=None)
def _digit_table(q: int, n: int) -> np.ndarray:
    """Digit strings of all q^n basis indices, most significant first."""
    idx = np.arange(q**n, dtype=np.int64)
    digits = np.empty((q**n, n), dtype=np.int64)
    for i in range(n - 1, -1, -1):
        digits[:, i] = idx % q
        idx = idx // q
    digits.setflags(write=False)
    return digits


@functools.lru_cache(maxsize=None)
def _place_values(q: int, n: int) -> np.ndarray:
    p = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    p.setflags(write=False)
    return p


@functools.lru_cache(maxsize=None)
def _clock_phases(q: int) -> np.ndarray:
    """(q, q) table of w^((i + j) mod q), w the primitive q-th root of unity.

    Powers on the axes are exact.  permutation_actions indexes the table
    by the clock dot products of the two halves of the digits.
    """
    powers = np.empty(q, dtype=complex)
    for k in range(q):
        if (4 * k) % q == 0:
            powers[k] = (1, 1j, -1, -1j)[(4 * k // q) % 4]
        else:
            powers[k] = np.exp(2j * np.pi * k / q)
    i = np.arange(q)
    out = powers[(i[:, None] + i[None, :]) % q]
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _half_tables(q: int, n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Digit-wise sum and dot-product tables over each half of the digits, for q >= 3.

    For the first n // 2 digits and then the rest, with p the number of
    digits in the half: add[x, j] is the index of the digit-wise sum
    (x + j) mod q and dot[z, j] the product sum(z_i j_i) mod q, over all
    q^p indices x, z, j of that half.
    """
    out = []
    for part in (n // 2, n - n // 2):
        digits = _digit_table(q, part)
        add = ((digits[:, None, :] + digits[None, :, :]) % q) @ _place_values(q, part)
        dot = (digits @ digits.T) % q
        add.setflags(write=False)
        dot.setflags(write=False)
        out.append((add, dot))
    return tuple(out)


def permutation_actions(q: int, n: int, xs, zs) -> tuple[np.ndarray, np.ndarray]:
    """Permutations and phases of N elements given as (N, n) exponent arrays.

    Row b of the result is permutation_action of the element with shift
    exponents xs[b] and clock exponents zs[b].  At q = 2 the digits are
    the bits of an index, so the digit-wise sum mod 2 is index(x) XOR j
    and the clock dot product mod 2 the parity of popcount(index(z) AND
    j): the same integers and exact +-1 phases that digit tables give.
    For q >= 3 a basis index splits into its high and low halves of
    digits, each half is looked up in _half_tables, and the halves are
    combined by broadcasting, so no temporary is larger than the
    (N, q^n) result.
    """
    xs = np.asarray(xs, dtype=np.int64)
    zs = np.asarray(zs, dtype=np.int64)
    if q == 2:
        place, j = _place_values(2, n), np.arange(2**n)
        parity = np.bitwise_count((zs @ place)[:, None] & j)
        return (xs @ place)[:, None] ^ j, _clock_phases(2)[0][parity & 1]
    h = n // 2
    (add_hi, dot_hi), (add_lo, dot_lo) = _half_tables(q, n)
    place_hi, place_lo = _place_values(q, h), _place_values(q, n - h)
    perm = ((add_hi[xs[:, :h] @ place_hi] * len(add_lo))[:, :, None]
            + add_lo[xs[:, h:] @ place_lo][:, None, :])
    phase = _clock_phases(q)[dot_hi[zs[:, :h] @ place_hi][:, :, None],
                             dot_lo[zs[:, h:] @ place_lo][:, None, :]]
    shape = (len(xs), q**n)
    return perm.reshape(shape), phase.reshape(shape)


def permutation_action(e: PauliElement) -> tuple[np.ndarray, np.ndarray]:
    """The element as a phase-decorated index permutation.

    Returns (perm, phase) such that applying the element to a vector v
    produces out with out[perm[j]] = phase[j] * v[j] for every basis
    index j.  This is the fast path of apply_to_state.
    """
    perm, phase = permutation_actions(e.q, e.n, [e.xvec], [e.zvec])
    return perm[0], phase[0]


def apply_to_state(e: PauliElement, v) -> np.ndarray:
    """Apply the element to a state vector without building its matrix."""
    v = np.asarray(v, dtype=complex)
    d = e.q**e.n
    if v.shape != (d,):
        raise DimensionMismatchError(f"state must have shape ({d},), got {v.shape}")
    perm, phase = permutation_action(e)
    out = np.empty(d, dtype=complex)
    out[perm] = phase * v
    return out


@functools.lru_cache(maxsize=None)
def _pair_letters(q: int, d: int) -> np.ndarray:
    """The (q^2 - 1)^d assignments of pairs to d digits, product order, read-only (A, d)."""
    table = np.indices((q * q - 1,) * d).reshape(d, (q * q - 1) ** d).T
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class WeightedPauliSet:
    """Lazy, deterministically ordered view of all weight-d elements.

    The order is lexicographic: support positions first (as emitted by
    itertools.combinations), then the per-position (x, z) pairs.  rows()
    is the one reader of that order, as letter rows that exponent_rows
    spells out: detection.scan sends it the sizes of its shares, and
    iteration reads one support at a time.
    """

    q: int
    n: int
    d: int

    def __len__(self) -> int:
        return comb(self.n, self.d) * (self.q * self.q - 1) ** self.d

    def count_up_to(self, cap: int) -> int:
        """len(self) when it is at most cap, else some number above cap.

        len() refuses counts past sys.maxsize, and forming C(n, d) takes
        long at large n and d.  The count is built as C(n - d + j, j)
        (q^2 - 1)^j over j = 1..d, which grows 3-fold or more each step, so
        this stops within log_3(cap) + 2 steps at any n and d.
        """
        count = 1
        for j in range(1, self.d + 1):
            if count > cap:
                break
            count = count * (self.n - self.d + j) * (self.q * self.q - 1) // j
        return count

    def __iter__(self) -> Iterator[PauliElement]:
        reader = self.rows()
        next(reader)
        # One support a read; the send past the end raises StopIteration, which ends map.
        for letters in map(reader.send, itertools.repeat((self.q * self.q - 1) ** self.d)):
            xs, zs = exponent_rows(self.q, self.n, letters)
            for xv, zv in zip(xs.tolist(), zs.tolist()):
                yield PauliElement(self.q, self.n, xv, zv)

    def rows(self) -> Generator[np.ndarray, int, None]:
        """The class in order as (N, d) column-major letter rows, primed by next(), then
        at most as many as each send asks for: row b A + a puts the next assignment a of
        _pair_letters on support b.  Weight 0 holds no pool of n digits (combinations
        would), so it takes no memory in n."""
        pairs = _pair_letters(self.q, self.d)
        pool = itertools.combinations(range(self.n) if self.d else (), self.d)
        size = yield
        while batch := list(itertools.islice(pool, max(1, size // len(pairs)))):
            supports = np.array(batch, dtype=np.int64).reshape(len(batch), self.d)
            digits = (self.q * self.q - 1) * supports.T[:, :, None]
            start = 0
            while start < len(pairs):  # the next size pairs, then a new size
                part = pairs[start:start + size]
                rows = digits + part.T[:, None]
                start, size = start + size, (yield rows.reshape(self.d, len(batch) * len(part)).T)


def letter_of(q: int, digit, x, z):
    """The letter of the nonzero pair (x, z) on digit, elementwise on arrays."""
    return (q * q - 1) * digit + q * x + z - 1


def letter_exponents(q: int, letters) -> tuple:
    """(digit, x, z) of letters; the empty letter of n digits decodes to digit n."""
    digit, pair = np.divmod(letters, q * q - 1)
    return (digit, *np.divmod(pair + 1, q))


def empty_letter(q: int, n: int) -> int:
    """The empty letter, (q^2 - 1) n, which pads a lighter row."""
    return (q * q - 1) * n


def letter_weights(q: int, n: int, letters: np.ndarray) -> np.ndarray:
    """The weight of each (N, D) letter row: its letters other than the empty one."""
    return (letters < empty_letter(q, n)).sum(axis=1)


def exponent_rows(q: int, n: int, letters: np.ndarray) -> np.ndarray:
    """(2, N, n) shift and clock exponents of (N, D) letter rows, the empty letter dropped."""
    digit, x, z = letter_exponents(q, letters)
    rows = np.zeros((2, len(letters), n + 1), dtype=np.int64)
    at = (np.arange(len(letters))[:, None], digit)
    rows[0][at], rows[1][at] = x, z
    return rows[..., :n]


def enumerate_weight(q: int, n: int, d: int) -> WeightedPauliSet:
    """All elements of exact weight d, in a fixed lexicographic order."""
    if q < 2 or n < 1:
        raise ValueError("need q >= 2 and n >= 1")
    if not 0 <= d <= n:
        raise ValueError(f"weight must lie in [0, {n}], got {d}")
    return WeightedPauliSet(q, n, d)


# The qubit alphabet: letter 2x + z has exponents (x, z); pair p's letter is QUBIT_LETTERS[p + 1].
QUBIT_LETTERS = "IZXY"
# The one home of the letter bytes: bytes.translate tables from a byte to its letter's x and
# to its z exponent, 2 for every byte that is no letter, and their inverse, from 2x + z.
QUBIT_X, QUBIT_Z = (bytes(QUBIT_LETTERS.find(chr(c)) >> s & 1 if chr(c) in QUBIT_LETTERS else 2
                          for c in range(256)) for s in (1, 0))
_QUBIT_LETTER = QUBIT_LETTERS.encode().ljust(256, b"\0")


def format_element(e: PauliElement) -> str:
    """Render as a letter string for q = 2, or as x:...;z:... otherwise."""
    if e.q == 2:
        # Byte j of 2 X + Z is qubit j's 2x + z: its one-byte terms never carry.
        pairs = 2 * int.from_bytes(bytes(e.xvec), "big") + int.from_bytes(bytes(e.zvec), "big")
        return pairs.to_bytes(e.n, "big").translate(_QUBIT_LETTER).decode()
    return "x:{};z:{}".format(*(",".join(map(str, v)) for v in (e.xvec, e.zvec)))


def parse_element(text: str, q: int, n: int | None = None) -> PauliElement:
    """Parse the text form of an element for a code with parameters q, n.

    Accepts the letter alphabet I, X, Y, Z when q = 2 (Y meaning the
    x = z = 1 element) and the explicit x:a1,...,an;z:b1,...,bn form for
    any q.  When n is omitted it is taken from the text itself.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty error string")
    if s.lower().startswith("x:"):
        parts = s.split(";")
        if len(parts) != 2 or not parts[1].lower().startswith("z:"):
            raise ValueError(f"malformed element {text!r}; expected x:...;z:...")
        try:
            xv = tuple(int(t) for t in parts[0][2:].split(","))
            zv = tuple(int(t) for t in parts[1][2:].split(","))
        except ValueError as exc:
            raise ValueError(f"malformed element {text!r}: {exc}") from None
        if n is None:
            n = len(xv)
        if len(xv) != n or len(zv) != n:
            raise ValueError(f"element {text!r} does not have {n} digits")
        if min(xv + zv) < 0 or max(xv + zv) >= q:
            raise ValueError(f"element {text!r} has exponents outside [0, {q})")
        return PauliElement(q, n, xv, zv)
    if q != 2:
        raise ValueError("letter strings describe qubit elements; use x:...;z:... for q > 2")
    u = s.upper()
    if n is None:
        n = len(u)
    if len(u) != n:
        raise ValueError(f"element {text!r} does not have {n} letters")
    letters = u.encode("ascii", "replace")  # one byte a letter: a non-ASCII one is "?"
    xs, zs = letters.translate(QUBIT_X), letters.translate(QUBIT_Z)
    if 2 in xs:
        raise ValueError(f"element {text!r} uses letters outside I, X, Y, Z")
    return PauliElement(2, n, tuple(xs), tuple(zs))
