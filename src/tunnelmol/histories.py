"""Decoherence functional and consistency of multi-time histories.

A history assigns one projector from a decomposition {P^0_m, P^1_m} to each of
the times t_1 < ... < t_f; a decomposition is held as its Bloch unit vector
n_m, P^a_m = (I + s_a n_m.sigma)/2.  With the collisional channel T carrying
operators between neighboring times, the decoherence functional is

    D(alpha, beta) = Tr[ P^{a_f}_f T( ... P^{a_2}_2 T( P^{a_1}_1 rho_0 P^{b_1}_1 ) P^{b_2}_2 ... ) P^{b_f}_f ].

Its diagonal holds the candidate probabilities W(alpha) = D(alpha, alpha);
the family is consistent when every off-diagonal entry is negligible, at
which point the weights obey classical probability sum rules and, for the
families produced by the forward/backward flows, form a Markov chain whose
per-step flip probabilities come from the local rate kappa.

Every projector is rank one, P_a = |a><a| with |0> along +n and |1> along
-n, so P_a X P_b = <a|X|b> |a><b| and D is a product along the pair of
histories, a chain on pairs of outcomes read in Pauli-coefficient space
(Griffiths, Consistent Quantum Theory, CUP 2002, ch. 10-11; Gell-Mann &
Hartle, PRD 47, 3345 (1993)):

    D(alpha, beta) = w(a_1 b_1) prod_k G_k(a_{k+1} b_{k+1} | a_k b_k) delta(a_f, b_f),
    w(a b) = <a|rho_0|b>,   G_k(a' b' | a b) = <a'| T_k(|a><b|) |b'>,

where the trace closes the last time, Tr(P_a Y P_b) = delta_ab <a|Y|a>.
Multi-indices are packed little-endian: the outcome at t_1 is the least
significant bit of the row/column index.

The weights read only the chain's real diagonal block, a = b and a' = b',
so those of any family, from any initial state, are a Markov chain.  With
s_0 = +1 and s_1 = -1, chain_kernel computes it in O(f) from one
propagator stack:

    p1(a)     = (1 + s_a n_1 . r0)/2,
    M_k(b|a)  = (1 + s_a s_b n_{k+1} . T3_k n_k)/2,

with r0 the initial Bloch vector and T3_k the Bloch block of the channel
across gap k (the model is unital, T[1:, 0] = 0, so no shift term).  Its
residuals, the miss of the forward condition, are twice |G_k(a' != b' | a = b)|.

The off-diagonals are a product along the pair of histories too, so the
largest is a max-product (Viterbi) path over the pair chain (Viterbi, IEEE
TIT 13, 260 (1967)).  _largest_offdiag finds it exactly in O(f), and
markov_from_family takes its verdict from it at any f.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .families import FamilyTrajectory, _as_unit_vector, _normalized
from .ptm import ModelParams, operator_from_pauli, pauli_coefficients, propagator_closed_form

CONSISTENCY_TOL = 1e-8

# rows per step of the off-diagonal check, and the side of a Hermiticity tile
_CHECK_BLOCK_ROWS = 128
# real and imaginary parts within this put a complex difference within the
# Hermiticity atol 1e-10: 0.7e-10 * sqrt(2) < 1e-10, with room for rounding
_ATOL_PART = 0.7e-10
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


def _outer_coefficients(units) -> np.ndarray:
    """Pauli coefficients of |a><b|, (..., 2, 2, 4), for unit vectors n (..., 3), |0> along +n and |1> along -n.

    (1, +n)/2 and (1, -n)/2 on the diagonal, (0, e1 + i e2)/2 at (0, 1) and
    its conjugate at (1, 0), for the branch-free right-handed orthonormal
    frame (e1, e2, n) of Duff et al., JCGT 6(1) (2017).  The phase of |0><1|
    that the frame fixes cancels between neighbouring factors of D.
    """
    n = np.asarray(units, dtype=float)
    x, y, z = n[..., 0], n[..., 1], n[..., 2]
    sign = np.where(z >= 0.0, 1.0, -1.0)
    a = -1.0 / (sign + z)
    b = x * y * a
    e1 = np.stack([1.0 + sign * x * x * a, sign * b, -sign * x], axis=-1)
    e2 = np.stack([b, sign + y * y * a, -y], axis=-1)
    C = np.zeros(n.shape[:-1] + (2, 2, 4), dtype=complex)
    C[..., 0, 0, 0] = C[..., 1, 1, 0] = 0.5
    C[..., 0, 0, 1:] = n / 2.0
    C[..., 1, 1, 1:] = -n / 2.0
    C[..., 0, 1, 1:] = (e1 + 1j * e2) / 2.0
    C[..., 1, 0, 1:] = (e1 - 1j * e2) / 2.0
    return C


def projector_pairs(units) -> np.ndarray:
    """(P0, P1) = ((I + n.sigma)/2, (I - n.sigma)/2) for unit vectors n (..., 3), as (..., 2, 2, 2)."""
    return operator_from_pauli(_outer_coefficients(units)[..., [0, 1], [0, 1], :])


@dataclass(frozen=True, eq=False)
class Decomposition:
    """A two-outcome projective decomposition of the qubit identity: a diameter of the Bloch ball.

    n   its unit vector (3,), normalised once here; outcome bit 0 is the
        projector P0 = (I + n.sigma)/2 along +n, bit 1 the one along -n.
        A zero or non-finite vector raises ValueError.
    """

    n: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "n", _normalized(self.n))

    @property
    def projectors(self) -> np.ndarray:
        return projector_pairs(self.n)

    @classmethod
    def from_direction(cls, direction, label: str = "") -> "Decomposition":
        return cls(_as_unit_vector(direction), label=label)

    @classmethod
    def x_basis(cls) -> "Decomposition":
        return cls.from_direction(np.array([1.0, 0.0, 0.0]), label="x")

    @classmethod
    def z_basis(cls) -> "Decomposition":
        return cls.from_direction(np.array([0.0, 0.0, 1.0]), label="z")


@dataclass(frozen=True, eq=False)
class HistoryFamily:
    """Times plus one decomposition per time (f >= 1), their unit vectors stacked once as units (f, 3).

    Warns, but proceeds, when a gap is shorter than the collision correlation
    time tau_c: the Markovian channel between those instants is then of
    doubtful physical meaning, though still perfectly computable.
    """

    params: ModelParams
    times: np.ndarray
    decompositions: tuple
    units: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if times.ndim != 1 or len(times) < 1:
            raise ValueError("need at least one history time")
        if np.any(np.diff(times) <= 0):
            raise ValueError("history times must be strictly increasing")
        if len(self.decompositions) != len(times):
            raise ValueError("need exactly one decomposition per time")
        object.__setattr__(self, "units", np.array([d.n for d in self.decompositions]))
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
        decomps = tuple(Decomposition(n) for n in traj.unit_vectors_at(times))
        return cls(params=traj.params, times=times, decompositions=decomps)


@dataclass(frozen=True, eq=False)
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


def _pair_factors(transfers, units, initial) -> tuple[np.ndarray, np.ndarray]:
    """The factors of D on pairs of outcomes: w (..., 2, 2), then G (f - 1, ..., 4, 4), one per gap.

    w[a, b] = <a|rho_0|b> at t_1 and G_k[(a', a), (b', b)] = <a'|T_k(|a><b|)|b'>,
    the later outcome the high bit, both read in Pauli coefficients as
    <a|X|b> = 2 conj(C[a, b]) . c(X).  transfers and units: arrays, times first, or non-empty lists.
    """
    C = _outer_coefficients(_stacked(units))
    w = 2.0 * C[0].conj() @ pauli_coefficients(_coerce_initial(initial))
    # rows (a, b) of |a><b|; the times go next to them so that the stacks broadcast
    C = np.moveaxis(C.reshape(C.shape[:-3] + (4, 4)), 0, -3)
    T = np.moveaxis(_stacked(transfers), 0, -3)
    G = 2.0 * (C[..., 1:, :, :].conj() @ T @ np.swapaxes(C[..., :-1, :, :], -1, -2))  # [(a', b'), (a, b)]
    return w, np.moveaxis(G.reshape(G.shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -2).reshape(G.shape), -3, 0)


def _stacked(arrays) -> np.ndarray:
    """An array as it is; a non-empty list of arrays broadcast and stacked on a new first axis."""
    return arrays if isinstance(arrays, np.ndarray) else np.stack(np.broadcast_arrays(*arrays))


def _join(Y, X) -> np.ndarray:
    """Y[(l, s), (l', s')] X[(s, k), (s', k')] for every (l, s, k, l', s', k'), as (..., 2LK, 2LK), l high.

    Y (..., 2L, 2L) covers later times than X (..., 2K, 2K); the low bit s
    of Y's indices is the high bit of X's, the time both share.  Each entry
    is one product, written once, along whole output rows: X's rows repeated
    along l' and Y's along k' make that twice as fast in numpy as runs of K.
    """
    L, K = Y.shape[-1] // 2, X.shape[-1] // 2
    stack = np.broadcast_shapes(Y.shape[:-2], X.shape[:-2])
    out = np.empty(stack + (2 * L * K,) * 2, dtype=complex)
    rows = out.reshape(stack + (L, 2, K, 2 * L * K))
    spread = np.concatenate([X] * L, axis=-1).reshape(X.shape[:-2] + (2, K, 2 * L * K))
    for l in range(L):
        pair = np.repeat(Y[..., 2 * l : 2 * l + 2, :], K, axis=-1)
        np.multiply(pair[..., :, None, :], spread, out=rows[..., l, :, :, :])
    return out


def decoherence_entries(transfers, units, initial=None) -> np.ndarray:
    """D(alpha, beta) of one family, or of a stack of families evaluated together.

    transfers    f - 1 PTMs (..., 4, 4): the channel across each gap
    units        f unit vectors (..., 3): the decomposition at each time, as in HistoryFamily.units
    initial      as for decoherence_functional, shared by the whole stack

    Returns the (..., 2^f, 2^f) entries, each the product of _pair_factors
    along its pair of histories.  A prefix over the first h = ceil(f/2)
    times and a suffix from t_h on are grown apart and joined once, straight
    into the output.
    """
    w, G = _pair_factors(transfers, units, initial)
    h = (len(units) + 1) // 2
    # the trace closes the last time: the suffix starts as delta(a_f, b_f)
    prefix, suffix = w, np.eye(2)
    for g in G[: h - 1]:
        prefix = _join(g, prefix)
    for g in reversed(G[h - 1 :]):
        suffix = _join(suffix, g)
    return _join(suffix, prefix)


def decoherence_functional(family: HistoryFamily, initial=None) -> DecoherenceMatrix:
    """Evaluate D(alpha, beta) for every pair of histories of the family.

    Cost grows as 4^f, and f is capped at 10 because the CSV of every entry
    grows with it.  At f = 10 (2^20 entries, 16.8 MB) one call takes 2-3 ms
    with a traced peak of 17.6 MB on a 2-vCPU VM; past the cap, f = 11
    measured 19-24 ms and 70 MB, of which the entries take 67 MB.
    """
    if family.f > 10:
        raise ValueError("history families are capped at f = 10 times")
    transfers = propagator_closed_form(family.params, np.diff(family.times))
    return DecoherenceMatrix(family=family, entries=decoherence_entries(transfers, family.units, initial))


def checked_weights(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(weights, max off-diagonal magnitude) of one or a stack of decoherence matrices.

    Raises ValueError unless every matrix is Hermitian and its weights are
    non-negative up to roundoff, as for any positive initial state.  The
    Hermiticity verdict is np.allclose(E, E^H, atol=1e-10), taken over square
    tiles E[I, J] against E[J, I]^H with J >= I, so each pair of entries is
    read once and the transposed read stays within a tile.  A tile where
    every real and imaginary part of E - E^H is within 0.7e-10 is
    within atol; np.isclose runs, both ways round, only on another tile,
    which includes every tile with an entry that is not a number.
    """
    E = np.asarray(entries)
    n = E.shape[-1]
    diff = np.empty(E.shape[:-2] + (min(n, _CHECK_BLOCK_ROWS),) * 2, dtype=complex)
    hermitian = True
    for i in range(0, n, _CHECK_BLOCK_ROWS):
        rows = slice(i, i + _CHECK_BLOCK_ROWS)
        for j in range(i, n, _CHECK_BLOCK_ROWS):
            cols = slice(j, j + _CHECK_BLOCK_ROWS)
            upper = E[..., rows, cols]
            lower = np.swapaxes(E[..., cols, rows], -1, -2)
            d = diff[..., : upper.shape[-2], : upper.shape[-1]]
            # an infinite entry makes inf - inf (hence the errstate), and a NaN
            # fails both comparisons; initial admits an empty stack
            with np.errstate(invalid="ignore"):
                np.conjugate(lower, out=d)
                np.subtract(upper, d, out=d)
                parts = d.view(float)
                within_atol = max(parts.max(initial=0.0), -parts.min(initial=0.0)) <= _ATOL_PART
            if not within_atol:
                hermitian &= bool(np.isclose(upper, lower.conj(), atol=1e-10).all())
                hermitian &= bool(np.isclose(lower, upper.conj(), atol=1e-10).all())
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


def _largest_offdiag(transfers, units, initial) -> float:
    """The largest |D(alpha, beta)| over alpha != beta of one family, in O(f) and with no entry of D built.

    The heaviest (Viterbi) path of |w| and the |G_k| through six states (a_k, b_k, differed),
    a = b until the histories differ.  A CPTP step does not enlarge the trace norm of |a><b|,
    so |G_k| <= 1 and no prefix of that path is lighter than the path: where the maximum is a
    normal float nothing it is built from underflows, and it keeps the rounding of a plain product.
    """
    w, G = _pair_factors(transfers, units, initial)
    a, b, differed = np.array([0, 1, 0, 0, 1, 1]), np.array([0, 1, 0, 1, 0, 1]), np.arange(6) >= 2
    # a step [to, from] keeps the flag and sets it where the new pair differs;
    # its factor is G_k[(a', a), (b', b)], flattened
    steps = np.abs(G).reshape(-1, 16)[:, 8 * a[:, None] + 4 * a + 2 * b[:, None] + b]
    steps *= differed[:, None] == (differed | (a != b)[:, None])
    v = np.abs(w)[a, b] * (differed == (a != b))
    for step in steps:
        v = (step * v).max(axis=1)
    # the trace closes t_f on a = b, which counts once the histories have differed
    return float(v[differed & (a == b)].max())


@dataclass(frozen=True, eq=False)
class ConsistencyReport:
    """Outcome of a consistency check on a decoherence matrix."""

    passed: bool
    max_offdiag: float
    tol: float
    weights: np.ndarray
    total_weight: float


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


@dataclass(frozen=True, eq=False)
class MarkovChain:
    """Initial distribution and per-step column-stochastic transition matrices.

    factorization_error is always 0.0, the chain's product being the weights
    by construction; it stays while the benchmark's markov check reads it.
    """

    initial_distribution: np.ndarray
    transitions: tuple
    factorization_error: float = 0.0


# s_a of outcome a, and s_a s_b, the same on [next, now] as on [now, next]
_SIGNS = np.array([1.0, -1.0])
_SIGN_PRODUCTS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def chain_kernel(units, T3, r0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Markov chain on the diagonal of the decoherence functional, and the residuals that bound the rest.

    units   (..., f, 3) unit vectors n_k: P^a_k = (I + s_a n_k.sigma)/2, s = (+1, -1)
    T3      (..., f - 1, 3, 3) Bloch blocks of the (unital) channel across each gap
    r0      (..., 3) Bloch vector of the initial state at t_1

    Returns (p1, transitions, residuals):
      p1           (..., 2)           p1[a] = (1 + s_a n_1 . r0)/2
      transitions  (..., f - 1, 2, 2) M_k[b, a] = (1 + s_a s_b n_{k+1} . T3_k n_k)/2,
                                      [next, now], column-stochastic
      residuals    (..., f)           |r0 - (n_1 . r0) n_1|, then the forward
                                      miss |T3_k n_k - (n_{k+1} . T3_k n_k) n_{k+1}|
                                      of each gap
    The product of p1 and the transitions is the weight of every history.
    Histories that first differ at t_k (k from 1) have
    |D(alpha, beta)| <= trace(rho_0) residuals[k - 1] / 2, and 0 at k = f,
    where the trace closes the cross term.
    """
    units = np.asarray(units, dtype=float)
    r0 = np.asarray(r0, dtype=float)
    moved = (T3 @ units[..., :-1, :, None])[..., 0]
    overlap = np.sum(units[..., 1:, :] * moved, axis=-1)
    first = np.sum(units[..., 0, :] * r0, axis=-1)
    p1 = 0.5 * (1.0 + _SIGNS * first[..., None])
    transitions = 0.5 * (1.0 + _SIGN_PRODUCTS * overlap[..., None, None])
    residuals = np.concatenate(
        (np.linalg.norm(r0 - first[..., None] * units[..., 0, :], axis=-1)[..., None],
         np.linalg.norm(moved - overlap[..., None] * units[..., 1:, :], axis=-1)),
        axis=-1,
    )
    return p1, transitions, residuals


def markov_from_family(family: HistoryFamily, initial=None, tol: float = CONSISTENCY_TOL) -> MarkovChain:
    """The classical chain of a consistent family's weights, from one propagator stack, at any f.

    Transition matrices are column-stochastic, M[k, j] = P(next = k | now = j),
    each column the physical conditional of chain_kernel, also for a state
    the chain cannot reach (at gamma = 0, from "up", a flow family's steps
    are the identity).  The verdict is the exact largest off-diagonal entry
    of the functional, from _largest_offdiag: NotConsistentError unless it
    is below tol.
    """
    coefficients = pauli_coefficients(_coerce_initial(initial))
    trace = 2.0 * coefficients[0].real
    if np.abs(coefficients.imag).max() > 1e-10 or not trace > 0.0:
        raise ValueError("initial state must be a Hermitian operator with positive trace")
    transfers = propagator_closed_form(family.params, np.diff(family.times))
    p1, transitions, _ = chain_kernel(family.units, transfers[:, 1:, 1:], 2.0 * coefficients[1:].real / trace)
    if p1.min() < -1e-10 / trace:
        raise ValueError("negative history weight beyond roundoff")
    largest = _largest_offdiag(transfers, family.units, initial)
    if not largest < tol:
        raise NotConsistentError(f"family is not consistent: max off-diagonal {largest:.3e} >= {tol:.0e}")
    return MarkovChain(initial_distribution=p1, transitions=tuple(transitions))


def telegraph_flip_probability(params: ModelParams, dt: float) -> float:
    """Exact z-family flip probability over a gap, (1 - e^{-2 gamma dt})/2, without cancellation at small gamma dt."""
    return -0.5 * math.expm1(-2.0 * params.gamma * dt)
