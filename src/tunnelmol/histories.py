"""Decoherence functional and consistency of multi-time histories.

A history assigns one projector from a decomposition {P^0_m, P^1_m} to each of
the times t_1 < ... < t_f.  With the collisional channel T carrying operators
between neighboring times, the decoherence functional is

    D(alpha, beta) = Tr[ P^{a_f}_f T( ... P^{a_2}_2 T( P^{a_1}_1 rho_0 P^{b_1}_1 ) P^{b_2}_2 ... ) P^{b_f}_f ].

Its diagonal holds the candidate probabilities W(alpha) = D(alpha, alpha);
the family is consistent when every off-diagonal entry is negligible, at
which point the weights obey classical probability sum rules and, for the
families produced by the forward/backward flows, form a Markov chain whose
per-step flip probabilities come from the local rate kappa.

Everything is evaluated in Pauli-coefficient space: sandwiching by projectors
and transport by the PTM are both linear maps on the complex coefficient
4-vector.  The branching tree is split in the middle: a forward tree of
coefficient vectors over the first half of the times, and a backward tree of
covectors that carry the second half down to the trace.  Each entry is one
dot product of the two, so nothing as large as the 2^f x 2^f matrix is built
beside it.  Multi-indices are packed little-endian: the outcome at t_1 is the
least significant bit of the row/column index.

A classical utility lives here as well: extraction of per-step transition
matrices from a consistent family's weights.
"""

from __future__ import annotations

import functools
import io
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .families import BlochDirection, FamilyTrajectory
from .ptm import ModelParams, PAULIS, operator_from_pauli, pauli_coefficients, propagator_closed_form

CONSISTENCY_TOL = 1e-8

# rows per step of the row-blocked Hermiticity and off-diagonal checks
_CHECK_BLOCK_ROWS = 128
# values per step of _format17g, whose (29, n) byte template then stays in cache
_FORMAT_BLOCK_VALUES = 8192
# _format17g itself formats |v| in [1e-300, 1e300], whose decimal exponents
# lie in [-301, 300] even where log10 rounds across a power of ten
_FORMAT_MAX_EXPONENT = 301
_LOW32 = 0xFFFFFFFF
# lines per block of write_csv: its grid of lines and the grid's NUL mask
# stay near 1 MB each
_CSV_BLOCK_LINES = 16384
# odd, so the high word of key * multiplier mod 2^64 mixes every bit of the key
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
# the low 32-bit word of a native uint64 viewed as two uint32
_LOW_WORD = 0 if sys.byteorder == "little" else 1


class NotConsistentError(ValueError):
    """Operation requires a consistent family but the off-diagonals are too large."""


def projector_pairs(units) -> np.ndarray:
    """(P0, P1) = ((I + n.sigma)/2, (I - n.sigma)/2) for unit vectors n (..., 3), as (..., 2, 2, 2)."""
    units = np.asarray(units, dtype=float)
    half = np.concatenate([np.ones(units.shape[:-1] + (1,)), units], axis=-1) / 2.0
    return operator_from_pauli(np.stack([half, half * [1.0, -1.0, -1.0, -1.0]], axis=-2))


@dataclass(frozen=True)
class Decomposition:
    """A two-outcome projective decomposition of the qubit identity.

    projectors   (P0, P1) with P0 = (I + n.sigma)/2;  outcome bit 0 is the
                 projector along +n, bit 1 the one along -n.
    """

    projectors: tuple
    label: str = ""

    def __post_init__(self):
        # one isclose over the stack P0 + P1, P0, P1, P0 P0, P1 P1 against
        # I, P0^H, P1^H, P0, P1: each matrix is np.allclose(atol=1e-10) of its pair
        P = np.asarray(self.projectors)
        close = np.isclose(
            np.concatenate(((P[0] + P[1])[None], P, P @ P)),
            np.concatenate((np.eye(2)[None], np.swapaxes(P, -1, -2).conj(), P)),
            atol=1e-10,
        ).all(axis=(-2, -1))
        if not close[0]:
            raise ValueError("projectors must sum to the identity")
        if not close.all():
            raise ValueError("decomposition entries must be Hermitian projectors")

    @property
    def bloch_direction(self) -> BlochDirection:
        n = 2.0 * pauli_coefficients(self.projectors[0])[1:].real
        return BlochDirection.from_vector(n)

    @classmethod
    def from_direction(cls, direction, label: str = "") -> "Decomposition":
        if not isinstance(direction, BlochDirection):
            direction = BlochDirection.from_vector(direction)
        return cls(projectors=tuple(projector_pairs(direction.unit_vector)), label=label)

    @classmethod
    def x_basis(cls) -> "Decomposition":
        return cls.from_direction(np.array([1.0, 0.0, 0.0]), label="x")

    @classmethod
    def y_basis(cls) -> "Decomposition":
        return cls.from_direction(np.array([0.0, 1.0, 0.0]), label="y")

    @classmethod
    def z_basis(cls) -> "Decomposition":
        return cls.from_direction(np.array([0.0, 0.0, 1.0]), label="z")


@dataclass(frozen=True)
class HistoryFamily:
    """Times plus one decomposition per time (f >= 1).

    Warns, but proceeds, when a gap is shorter than the collision correlation
    time tau_c: the Markovian channel between those instants is then of
    doubtful physical meaning, though still perfectly computable.
    """

    params: ModelParams
    times: np.ndarray
    decompositions: tuple

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if times.ndim != 1 or len(times) < 1:
            raise ValueError("need at least one history time")
        if np.any(np.diff(times) <= 0):
            raise ValueError("history times must be strictly increasing")
        if len(self.decompositions) != len(times):
            raise ValueError("need exactly one decomposition per time")
        if self.params.tau_c > 0 and len(times) > 1:
            gap = float(np.min(np.diff(times)))
            if gap < self.params.tau_c:
                warnings.warn(
                    f"history gap {gap:.3g} is below the collision correlation time "
                    f"tau_c = {self.params.tau_c:.3g}; treat the result with care",
                    stacklevel=2,
                )

    @property
    def f(self) -> int:
        return len(self.times)

    @classmethod
    def from_trajectory(cls, traj: FamilyTrajectory, times) -> "HistoryFamily":
        """Sample a moving-basis family at the given instants."""
        times = np.asarray(times, dtype=float)
        decomps = tuple(Decomposition.from_direction(n) for n in traj.unit_vectors_at(times))
        return cls(params=traj.params, times=times, decompositions=decomps)


@dataclass(frozen=True)
class DecoherenceMatrix:
    """The full 2^f x 2^f decoherence functional of a family."""

    family: HistoryFamily
    entries: np.ndarray

    @property
    def f(self) -> int:
        return self.family.f

    @property
    def weights(self) -> np.ndarray:
        """Candidate history probabilities (the real diagonal)."""
        return np.real(np.diag(self.entries))

    @property
    def max_offdiag(self) -> float:
        """Largest off-diagonal magnitude; unlike consistency_check, no validation."""
        return float(_max_offdiag(np.asarray(self.entries)))

    def label(self, index: int) -> tuple:
        """Outcome bits (a_1, ..., a_f), little-endian in the index."""
        return tuple((index >> m) & 1 for m in range(self.f))

    def write_csv(self, fh) -> None:
        """Write the entries as CSV rows (row, col, real, imag), row-major, to a text file.

        A block of lines is laid out as a grid of fixed-width fields: the
        NUL-padded labels, the separators, and the S24 texts of _format17g
        gathered through the inverse of _distinct.  The block's text is its
        grid with the NULs dropped.
        """
        n = self.entries.shape[0]
        parts = np.ascontiguousarray(self.entries, dtype=np.complex128).view(np.float64)
        # each distinct float is formatted once, keyed by its bits: -0.0 == 0.0
        # but prints as -0
        bits, inverse = _distinct(parts.view(np.uint64).ravel())
        text = _format17g(bits.view(np.float64))
        inverse = inverse.reshape(n, n, 2)
        labels = np.arange(n).astype(bytes)
        line = np.dtype(
            [("row", labels.dtype), ("comma1", "u1"), ("col", labels.dtype), ("comma2", "u1"),
             ("real", "S24"), ("comma3", "u1"), ("imag", "S24"), ("newline", "u1")]
        )
        rows = max(1, _CSV_BLOCK_LINES // n)
        grid = np.empty((min(rows, n), n), dtype=line)
        grid["col"] = labels
        grid["comma1"] = grid["comma2"] = grid["comma3"] = ord(",")
        grid["newline"] = ord("\n")
        fh.write("row,col,real,imag\n")
        for start in range(0, n, rows):
            block = grid[: min(rows, n - start)]
            block["row"] = labels[start : start + rows, None]
            # the inverse is in range by construction; mode="clip" lets take
            # write straight into the strided field
            np.take(text, inverse[start : start + rows, :, 0], out=block["real"], mode="clip")
            np.take(text, inverse[start : start + rows, :, 1], out=block["imag"], mode="clip")
            chars = block.view(np.uint8)
            fh.write(chars[chars != 0].tobytes().decode("ascii"))

    def to_csv(self) -> str:
        """The CSV of write_csv as one string."""
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys and the int32 index of each key among them: distinct[inverse] == keys.

    One np.sort orders (hash32(key) << 32) | position; equal keys then sit
    together, in order of position.  A hash collision can interleave two
    keys and list one of them twice in distinct, which costs one extra
    format and keeps distinct[inverse] exact.  distinct is not sorted.
    Positions take 32 bits: write_csv passes at most 2^21 keys (f = 10).
    """
    packed = keys * _HASH_MULTIPLIER
    packed &= np.uint64(_LOW32 << 32)
    packed.view(np.uint32)[_LOW_WORD::2] = np.arange(len(keys), dtype=np.uint32)
    packed.sort()
    order = packed.view(np.uint32)[_LOW_WORD::2]
    ordered = keys[order]
    first = np.empty(len(keys), dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    del ordered
    rank = np.cumsum(first, dtype=np.int32)
    rank -= 1
    inverse = np.empty(len(keys), dtype=np.int32)
    inverse[order] = rank
    return distinct, inverse


@functools.cache
def _format_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tables of _format17g, indexed by decimal exponent x + 301 for x in [-301, 301].

    10^(16 - x) = c 2^s (1 - eps) with c in [2^95, 2^96) and 0 <= eps < 2^-95:
    the 32-bit limbs of c (3, 603), high first, and s; then the exponent text
    of %g ("e-05", "e+300"), NUL-padded to 5 bytes.
    """
    limbs, shifts = [], []
    for x in range(-_FORMAT_MAX_EXPONENT, _FORMAT_MAX_EXPONENT + 1):
        p = 16 - x
        b = (10 ** abs(p)).bit_length()
        c = 10**p << 96 >> b if p >= 0 else (1 << 95 + b) // 10**-p
        limbs.append((c >> 64, c >> 32 & _LOW32, c & _LOW32))
        shifts.append(b - 96 if p >= 0 else -95 - b)
    exponents = np.array([b"e%+03d" % x for x in range(-_FORMAT_MAX_EXPONENT, _FORMAT_MAX_EXPONENT + 1)], dtype="S5")
    return np.array(limbs, dtype=np.uint64).T.copy(), np.array(shifts), exponents.view(np.uint8).reshape(-1, 5)


def _digits17(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, x, certified): |v| rounded half-even to 17 digits is D 10^(x - 16), 10^16 <= D < 10^17.

    The 53-bit significand times the table's 10^(16 - x), in 32-bit limbs,
    gives D and the next 64 bits G, which read low by less than 2^27.  Not
    certified: 0, NaN, inf, |v| outside [1e-300, 1e300], G within 2^27 of a
    tie, and D outside [10^16, 10^17), as where log10 rounds across a power
    of ten and x is off by one.
    """
    a = np.abs(values)
    certified = (a >= 1e-300) & (a <= 1e300)
    a[~certified] = 1.0
    x = np.floor(np.log10(a)).astype(np.int64)
    significand, e2 = np.frexp(a)
    m = np.ldexp(significand, 53).astype(np.uint64)
    limbs, shifts, _ = _format_tables()
    c2, c1, c0 = limbs.take(x + _FORMAT_MAX_EXPONENT, axis=1)
    m1, m0 = m >> 32, m & _LOW32
    # m c < 2^149: a top word over two 32-bit columns (with their carries);
    # the lowest column only carries
    p01, p10, p02, p11 = m0 * c1, m1 * c0, m0 * c2, m1 * c1
    col1 = (m0 * c0 >> 32) + (p01 & _LOW32) + (p10 & _LOW32)
    col2 = (col1 >> 32) + (p01 >> 32) + (p10 >> 32) + (p02 & _LOW32) + (p11 & _LOW32)
    top = (col2 >> 32) + (p02 >> 32) + (p11 >> 32) + m1 * c2
    # the binary point of v 10^(16 - x) lies d bits below the top word: d is
    # 1..5 where x is right, and where it is not D falls out of range
    d = np.maximum(e2 + shifts.take(x + _FORMAT_MAX_EXPONENT) + 43, 0).astype(np.uint64)
    D = top << d | (col2 & _LOW32) >> 32 - d
    G = col2 << 32 + d | (col1 & _LOW32) << d
    certified &= G - (2**63 - 2**27) > 2**28
    certified &= D >= 10**16
    D += G >> 63
    certified &= D < 10**17
    return D, x, certified


def _format17g(values: np.ndarray) -> np.ndarray:
    """b"%.17g" % v for each float v of a 1-d array, as an S24 array.

    Each block is laid out in a (29, n) byte template, a column per value: a
    spare row, four zero slots for 0.000ddd, the 17 digits with a slot opened
    for the point, and room for the exponent.  Slots not shown are NUL, the
    sign goes just before the first one shown, and one window gather per
    value reads its text.  Values _digits17 does not certify go to Python.
    """
    _, _, exponents = _format_tables()
    slots = np.arange(21)[:, None]
    text = np.empty((len(values), 24), dtype=np.uint8)
    certified = np.empty(len(values), dtype=bool)
    for start in range(0, len(values), _FORMAT_BLOCK_VALUES):
        v = values[start : start + _FORMAT_BLOCK_VALUES]
        n = len(v)
        D, x, certified[start : start + n] = _digits17(v)
        digits = np.empty((17, n), dtype=np.uint8)
        for k in range(16, -1, -1):
            q = D // 10
            digits[k] = D - q * 10
            D = q
        # %g drops trailing zeros, and writes d.ddde+xx outside 1e-4 <= |v| < 1e17
        significant = 17 - np.argmax(digits[::-1] != 0, axis=0)
        sci = (x < -4) | (x > 16)
        point = 4 + np.where(sci, 0, x)  # the point follows this slot of zeros and digits
        first = np.minimum(point, 4)
        end = np.maximum(4 + significant, point + 1)
        T = np.zeros((29, n), dtype=np.uint8)
        T[1:5] = ord("0")
        T[5:22] = digits + ord("0")
        T[1:22] *= (slots >= first) & (slots < end)
        T[2:23] = np.where(slots < point, T[2:23], T[1:22])
        has_point = end > point + 1  # else the opened slot holds a copy: clear it
        T[point + 2, np.arange(n)] = np.where(has_point, ord("."), 0)
        flat = T.T.ravel()
        base = np.arange(0, 29 * n, 29)
        flat[(base + end + has_point + 1)[sci, None] + np.arange(5)] = exponents[x[sci] + _FORMAT_MAX_EXPONENT]
        negative = np.signbit(v)
        flat[(base + first)[negative]] = ord("-")
        windows = np.lib.stride_tricks.sliding_window_view(flat, 24)
        text[start : start + n] = windows[base + first + 1 - negative]
    text = text.view("S24")[:, 0]
    for k in np.flatnonzero(~certified):
        text[k] = b"%.17g" % values[k]
    return text


# G[k, m, j] = Tr(sigma_k sigma_m sigma_j) / 2: in coefficient space, M -> P M
# is the matrix sum_m p_m G[:, m, :] and M -> M P is sum_m p_m G[:, :, m];
# the tables lay G out so that p @ table gives those matrices, flattened
_PRODUCT = np.einsum("kab,mbc,jca->kmj", PAULIS, PAULIS, PAULIS) / 2.0
_LEFT_TABLE = np.ascontiguousarray(_PRODUCT.transpose(1, 0, 2)).reshape(4, 16)
_RIGHT_TABLE = np.ascontiguousarray(_PRODUCT.transpose(2, 0, 1)).reshape(4, 16)


def _sandwiches(projectors: np.ndarray) -> np.ndarray:
    """Coefficient-space matrices of M -> P_a M P_b, (..., 2, 2, 4, 4), from (..., 2, 2, 2) pairs (P_0, P_1)."""
    p = pauli_coefficients(projectors)
    left = (p @ _LEFT_TABLE).reshape(p.shape[:-1] + (4, 4))
    right = (p @ _RIGHT_TABLE).reshape(p.shape[:-1] + (4, 4))
    return left[..., :, None, :, :] @ right[..., None, :, :, :]


def _coerce_initial(initial) -> np.ndarray:
    """Accept None (maximally mixed), a Bloch 3-vector, or a 2x2 density operator."""
    if initial is None:
        return np.eye(2, dtype=complex) / 2.0
    arr = np.asarray(initial)
    if arr.shape == (3,):
        return operator_from_pauli(np.array([1.0, *arr.astype(float)]) / 2.0)
    if arr.shape == (2, 2):
        return arr.astype(complex)
    raise ValueError("initial state must be None, a Bloch vector, or a 2x2 operator")


def _grow(V, S, newest_high: bool) -> np.ndarray:
    """Branch a tree of coefficient (co)vectors V (..., K, K, 4) on one more time.

    S holds the (..., 2, 2, 4, 4) matrices that act on V from the right, one
    per outcome pair (a, b).  The new outcome is the most significant bit of
    the grown (..., 2K, 2K, 4) index with newest_high, the least without.
    """
    K = V.shape[-2]
    stack = np.broadcast_shapes(V.shape[:-3], S.shape[:-4])
    grown = np.empty(stack + (2 * K, 2 * K, 4), dtype=complex)
    blocks = grown.reshape(stack + ((2, K, 2, K, 4) if newest_high else (K, 2, K, 2, 4)))
    for a in range(2):
        for b in range(2):
            block = blocks[..., a, :, b, :, :] if newest_high else blocks[..., :, a, :, b, :]
            np.matmul(V, S[..., a, b, None, :, :], out=block)
    return grown


def decoherence_entries(transfers, projectors, initial=None) -> np.ndarray:
    """D(alpha, beta) of one family, or of a stack of families evaluated together.

    transfers    f - 1 PTMs (..., 4, 4): the channel across each gap
    projectors   f arrays (..., 2, 2, 2): the decomposition (P0, P1) at each time
    initial      as for decoherence_functional, shared by the whole stack

    Returns the (..., 2^f, 2^f) entries.  The branching tree meets in the
    middle, after h = floor(f/2) times.  The forward tree holds the coefficient
    vectors A[i, j] of the branch operators over t_1..t_h, carried on to
    t_{h+1}; the backward tree holds the covectors
    R[p, q] = 2 e_0^T S_f T_{f-1} ... T_{h+1} S_{h+1} that take such a vector
    to its trace.  Each entry D[(p, i), (q, j)] = R[p, q] . A[i, j] is written
    once, straight into the output.
    """
    f = len(projectors)
    h = f // 2
    A = pauli_coefficients(_coerce_initial(initial)).reshape(1, 1, 4)
    for m in range(h):
        A = _grow(A, np.swapaxes(_sandwiches(projectors[m]), -1, -2), newest_high=True)
        A = A @ np.swapaxes(transfers[m], -1, -2)[..., None, :, :]
    # the trace of P_a M P_b is twice its coefficient 0.  Read off the sandwich
    # matrices like every other factor, it keeps the roundoff of entries that
    # the products make equal bitwise equal, and write_csv formats each
    # distinct float once
    R = 2.0 * _sandwiches(projectors[f - 1])[..., 0, :]
    for m in range(f - 2, h - 1, -1):
        R = _grow(R @ transfers[m][..., None, :, :], _sandwiches(projectors[m]), newest_high=False)
    P, I = R.shape[-2], A.shape[-2]
    stack = np.broadcast_shapes(A.shape[:-3], R.shape[:-3])
    out = np.empty(stack + (P * I, P * I), dtype=complex)
    # out[p, i, q, j] = sum_k R[p, q, k] A[i, j, k]
    np.matmul(R[..., :, None, :, :], np.swapaxes(A, -1, -2)[..., None, :, :, :],
              out=out.reshape(stack + (P, I, P, I)))
    return out


def decoherence_functional(family: HistoryFamily, initial=None) -> DecoherenceMatrix:
    """Evaluate D(alpha, beta) for every pair of histories of the family.

    Cost grows as 4^f, and f is capped at 10 because the CSV of every entry
    grows with it.  At f = 10 (2^20 entries, 16.8 MB) one call takes 5-7 ms
    with a traced peak of 17 MB, the entries plus 0.2 MB, on a 2-vCPU VM; past
    the cap, f = 11 measured 31-35 ms and 67 MB, again the entries alone.
    """
    if family.f > 10:
        raise ValueError("history families are capped at f = 10 times")
    transfers = propagator_closed_form(family.params, np.diff(family.times))
    projectors = [np.array(d.projectors) for d in family.decompositions]
    return DecoherenceMatrix(family=family, entries=decoherence_entries(transfers, projectors, initial))


def checked_weights(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(weights, max off-diagonal magnitude) of one or a stack of decoherence matrices.

    Raises ValueError unless every matrix is Hermitian and its weights are
    non-negative up to roundoff, as for any positive initial state.  The
    Hermiticity verdict is np.allclose(E, E^H, atol=1e-10), taken a block of
    rows at a time; np.isclose runs only on a block where some |E - E^H|
    exceeds 1e-10 or is not a number.
    """
    E = np.asarray(entries)
    n = E.shape[-1]
    hermitian = True
    for start in range(0, n, _CHECK_BLOCK_ROWS):
        stop = min(start + _CHECK_BLOCK_ROWS, n)
        rows = E[..., start:stop, :]
        cols = np.swapaxes(E[..., :, start:stop], -1, -2).conj()
        # |rows - cols| <= atol passes isclose whatever rtol adds; a NaN fails
        # the test, and an infinite entry makes the max infinite or NaN
        # (inf - inf, hence the errstate); initial=0 admits an empty stack
        with np.errstate(invalid="ignore"):
            within_atol = np.max(np.abs(rows - cols), initial=0.0) <= 1e-10
        if not within_atol:
            hermitian &= bool(np.isclose(rows, cols, atol=1e-10).all())
    if not hermitian:
        raise ValueError("decoherence matrix is not Hermitian")
    w = np.real(np.diagonal(E, axis1=-2, axis2=-1))
    if w.size and w.min() < -1e-10:
        raise ValueError("negative history weight beyond roundoff")
    return w, _max_offdiag(E)


def _max_offdiag(E: np.ndarray) -> np.ndarray:
    """max |E[..., i, j]| over i != j, taken a block of rows at a time; NaN where a diagonal entry is infinite."""
    n = E.shape[-1]
    off = np.zeros(E.shape[:-2])
    for start in range(0, n, _CHECK_BLOCK_ROWS):
        stop = min(start + _CHECK_BLOCK_ROWS, n)
        mag = np.abs(E[..., start:stop, :])
        # times 0 rather than set to 0: an infinite diagonal gives NaN, as in |E| (1 - I)
        with np.errstate(invalid="ignore"):
            mag[..., np.arange(stop - start), np.arange(start, stop)] *= 0.0
        off = np.maximum(off, mag.max(axis=(-2, -1)))
    return off


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of a consistency check on a decoherence matrix."""

    passed: bool
    max_offdiag: float
    tol: float
    weights: np.ndarray
    total_weight: float

    def normalized_weights(self) -> np.ndarray:
        return self.weights / self.total_weight


def consistency_check(D: DecoherenceMatrix, tol: float = CONSISTENCY_TOL) -> ConsistencyReport:
    """Consistent iff every off-diagonal magnitude is below tol.

    Also validates the matrix as checked_weights does (Hermitian, weights
    non-negative up to roundoff).
    """
    w, max_offdiag = checked_weights(D.entries)
    return ConsistencyReport(
        passed=bool(max_offdiag < tol),
        max_offdiag=float(max_offdiag),
        tol=tol,
        weights=np.clip(w, 0.0, None),
        total_weight=float(w.sum()),
    )


@dataclass(frozen=True)
class MarkovChain:
    """Initial distribution and per-step column-stochastic transition matrices."""

    initial_distribution: np.ndarray
    transitions: tuple
    factorization_error: float


def markov_from_family(family: HistoryFamily, initial=None, tol: float = CONSISTENCY_TOL) -> MarkovChain:
    """Extract the classical chain hiding in a consistent family's weights.

    Transition matrices are column-stochastic, M[k, j] = P(next = k | now = j).
    factorization_error is the largest deviation between the family weights
    and the product form p_1 * prod_m M_m, which vanishes for Markovian
    families (all the families this package constructs).  Raises
    NotConsistentError when the family fails the consistency check.
    """
    D = decoherence_functional(family, initial)
    report = consistency_check(D, tol)
    if not report.passed:
        raise NotConsistentError(
            f"family is not consistent: max off-diagonal {report.max_offdiag:.3e} >= {tol:.0e}"
        )
    w = report.normalized_weights()
    f = family.f
    shape = (2,) * f
    W = w.reshape(shape, order="F")  # little-endian: first axis = first time
    p1 = W.reshape(2, -1).sum(axis=1) if f > 1 else W.copy()
    if f == 1:
        return MarkovChain(initial_distribution=p1, transitions=(), factorization_error=0.0)
    transitions = []
    axes = tuple(range(f))
    for m in range(f - 1):
        pair = W.sum(axis=tuple(a for a in axes if a not in (m, m + 1)))  # shape (2, 2): [now, next]
        now = pair.sum(axis=1)
        M = np.zeros((2, 2))
        for j in range(2):
            if now[j] > 1e-15:
                M[:, j] = pair[j, :] / now[j]
            else:
                M[:, j] = 0.5  # unreachable state: convention only
        transitions.append(M)
    # reconstruct the joint p1[a_1] M_1[a_2, a_1] ... left to right and
    # measure the Markov factorization defect
    rec = p1
    for m, M in enumerate(transitions):
        rec = rec[..., None] * M.T.reshape((1,) * m + (2, 2))
    err = float(np.abs(rec - W).max())
    return MarkovChain(initial_distribution=p1, transitions=tuple(transitions), factorization_error=err)


def telegraph_flip_probability(params: ModelParams, dt: float) -> float:
    """Exact z-family flip probability over a gap, (1 - e^{-2 gamma dt})/2."""
    return 0.5 * (1.0 - math.exp(-2.0 * params.gamma * dt))
