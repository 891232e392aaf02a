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
4-vector, so one level of the branching tree is four 4x4 matrix applications.
Multi-indices are packed little-endian: the outcome at t_1 is the least
significant bit of the row/column index.

Two classical utilities live here as well: extraction of per-step transition
matrices from a consistent family's weights, and averaging of
collision-count-conditioned transition matrices over the count distribution
(the coarse-graining that turns a collision-counting description into the
plain telegraph process).
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .families import BlochDirection, FamilyTrajectory
from .ptm import ModelParams, PAULIS, operator_from_pauli, pauli_coefficients, propagator_closed_form

CONSISTENCY_TOL = 1e-8

# rows per step of the row-blocked loops: the CSV writer, the Hermiticity and
# off-diagonal check, and the last level of the decoherence functional
_CSV_BLOCK_ROWS = 64
_CHECK_BLOCK_ROWS = 128
_LEVEL_BLOCK_ROWS = 64


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
        P0, P1 = self.projectors
        if not np.allclose(P0 + P1, np.eye(2), atol=1e-10):
            raise ValueError("projectors must sum to the identity")
        for P in (P0, P1):
            if not np.allclose(P, P.conj().T, atol=1e-10) or not np.allclose(P @ P, P, atol=1e-10):
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
        off = self.entries - np.diag(np.diag(self.entries))
        return float(np.abs(off).max()) if off.size > 1 else 0.0

    def label(self, index: int) -> tuple:
        """Outcome bits (a_1, ..., a_f), little-endian in the index."""
        return tuple((index >> m) & 1 for m in range(self.f))

    def write_csv(self, fh) -> None:
        """Write the entries as CSV rows (row, col, real, imag), row-major, to a text file."""
        n = self.entries.shape[0]
        parts = np.ascontiguousarray(self.entries, dtype=np.complex128).view(np.float64)
        # each distinct float is formatted once, keyed by its bits: -0.0 == 0.0
        # but prints as -0
        bits, inverse = _distinct(parts.view(np.uint64).ravel())
        text = np.array([f"{v:.17g}" for v in bits.view(np.float64).tolist()], dtype=object)
        inverse = inverse.reshape(n, 2 * n)
        cells = [f",{j},%s,%s\n" for j in range(n)]
        fh.write("row,col,real,imag\n")
        for start in range(0, n, _CSV_BLOCK_ROWS):
            block = text[inverse[start : start + _CSV_BLOCK_ROWS]].tolist()
            fh.write("".join([(str(i) + str(i).join(cells)) % tuple(row) for i, row in enumerate(block, start)]))

    def to_csv(self) -> str:
        """The CSV of write_csv as one string."""
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct keys and the index of each key among them.

    np.unique(keys, return_inverse=True) with an int32 inverse: over 2^21 keys
    (the entries at f = 10) its traced peak is 36-41 MB against 86-91 MB.
    """
    perm = np.argsort(keys)
    ordered = keys[perm]
    first = np.empty(len(keys), dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    del ordered
    rank = np.cumsum(first, dtype=np.int32)
    rank -= 1
    inverse = np.empty(len(keys), dtype=np.int32)
    inverse[perm] = rank
    return distinct, inverse


# G[k, m, j] = Tr(sigma_k sigma_m sigma_j) / 2: in coefficient space, M -> P M
# is the matrix sum_m p_m G[:, m, :] and M -> M P is sum_m p_m G[:, :, m]
_PRODUCT = np.einsum("kab,mbc,jca->kmj", PAULIS, PAULIS, PAULIS) / 2.0


def _sandwiches(projectors: np.ndarray) -> np.ndarray:
    """Coefficient-space matrices of M -> P_a M P_b, (..., 2, 2, 4, 4), from (..., 2, 2, 2) pairs (P_0, P_1)."""
    p = pauli_coefficients(projectors)
    left = np.einsum("...am,kmj->...akj", p, _PRODUCT)
    right = np.einsum("...bm,kjm->...bkj", p, _PRODUCT)
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


def decoherence_entries(transfers, projectors, initial=None) -> np.ndarray:
    """D(alpha, beta) of one family, or of a stack of families evaluated together.

    transfers    f - 1 PTMs (..., 4, 4): the channel across each gap
    projectors   f arrays (..., 2, 2, 2): the decomposition (P0, P1) at each time
    initial      as for decoherence_functional, shared by the whole stack

    Returns the (..., 2^f, 2^f) entries.
    """
    A = pauli_coefficients(_coerce_initial(initial)).reshape(1, 1, 4)
    for m, P in enumerate(projectors[:-1]):
        if m > 0:
            A = A @ np.swapaxes(transfers[m - 1], -1, -2)[..., None, :, :]
        S = np.swapaxes(_sandwiches(P), -1, -2)[..., None, :, :]
        K = A.shape[-2]
        nxt = np.empty(np.broadcast_shapes(A.shape[:-3], S.shape[:-5]) + (2 * K, 2 * K, 4), dtype=complex)
        for a in range(2):
            for b in range(2):
                nxt[..., a * K : (a + 1) * K, b * K : (b + 1) * K, :] = A @ S[..., a, b, :, :, :]
        A = nxt
    # the last level: only the trace (component 0) is read, and the transfer
    # and the sandwiches go through A a block of rows at a time
    last = len(projectors) - 1
    S = np.swapaxes(_sandwiches(projectors[last]), -1, -2)[..., None, :, :1]
    # with one time there is no transfer; the identity only sets the broadcast shape
    T = np.swapaxes(transfers[last - 1], -1, -2)[..., None, :, :] if last else np.eye(4)
    K = A.shape[-2]
    out = np.empty(np.broadcast_shapes(A.shape[:-3], T.shape[:-3], S.shape[:-5]) + (2 * K, 2 * K), dtype=complex)
    for start in range(0, K, _LEVEL_BLOCK_ROWS):
        stop = min(start + _LEVEL_BLOCK_ROWS, K)
        block = A[..., start:stop, :, :]
        if last:
            block = block @ T
        for a in range(2):
            for b in range(2):
                out[..., a * K + start : a * K + stop, b * K : (b + 1) * K] = (block @ S[..., a, b, :, :, :])[..., 0]
    out *= 2.0
    return out


def decoherence_functional(family: HistoryFamily, initial=None) -> DecoherenceMatrix:
    """Evaluate D(alpha, beta) for every pair of histories of the family.

    Cost grows as 4^f, and f is capped at 10.  At f = 10 (2^20 entries, 16.8 MB)
    one call takes 30-40 ms with a traced peak of 36 MB on a 2-vCPU VM; past the
    cap, f = 11 measured 1.2 s and 140 MB for the entries alone.
    """
    if family.f > 10:
        raise ValueError("history families are capped at f = 10 times")
    transfers = propagator_closed_form(family.params, np.diff(family.times))
    projectors = [np.array(d.projectors) for d in family.decompositions]
    return DecoherenceMatrix(family=family, entries=decoherence_entries(transfers, projectors, initial))


def checked_weights(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(weights, max off-diagonal magnitude) of one or a stack of decoherence matrices.

    Raises ValueError unless every matrix is Hermitian and its weights are
    non-negative up to roundoff, as for any positive initial state.
    """
    E = np.asarray(entries)
    n = E.shape[-1]
    hermitian = True
    off = np.zeros(E.shape[:-2])
    # np.allclose(E, E^H, atol=1e-10) and the largest off-diagonal magnitude,
    # a block of rows at a time over the whole stack
    for start in range(0, n, _CHECK_BLOCK_ROWS):
        stop = min(start + _CHECK_BLOCK_ROWS, n)
        rows = E[..., start:stop, :]
        hermitian &= bool(np.isclose(rows, np.swapaxes(E[..., :, start:stop], -1, -2).conj(), atol=1e-10).all())
        mag = np.abs(rows)
        # times 0 rather than set to 0: an infinite diagonal gives NaN, as in |E| (1 - I)
        mag[..., np.arange(stop - start), np.arange(start, stop)] *= 0.0
        off = np.maximum(off, mag.max(axis=(-2, -1)))
    if not hermitian:
        raise ValueError("decoherence matrix is not Hermitian")
    w = np.real(np.diagonal(E, axis1=-2, axis2=-1))
    if w.size and w.min() < -1e-10:
        raise ValueError("negative history weight beyond roundoff")
    return w, off


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


def classical_collision_average(markov_by_count, count_dist) -> np.ndarray:
    """Average count-conditioned transition matrices over the count distribution.

    markov_by_count[n] is the column-stochastic matrix given exactly n
    collisions in the interval; count_dist[n] their probabilities.  Because
    counts in disjoint intervals are independent, chaining intervals commutes
    with this average, which the tests verify by exhaustive enumeration.
    """
    Ms = [np.asarray(M, dtype=float) for M in markov_by_count]
    pr = np.asarray(count_dist, dtype=float)
    if len(Ms) != len(pr):
        raise ValueError("need one probability per matrix")
    if abs(pr.sum() - 1.0) > 1e-9 or pr.min() < -1e-12:
        raise ValueError("count distribution must be a probability vector")
    shape = Ms[0].shape
    for M in Ms:
        if M.shape != shape:
            raise ValueError("transition matrices must share one shape")
        if np.any(M < -1e-12) or not np.allclose(M.sum(axis=0), 1.0, atol=1e-9):
            raise ValueError("matrices must be column-stochastic")
    out = np.zeros(shape)
    for p, M in zip(pr, Ms):
        out += p * M
    return out


def telegraph_flip_probability(params: ModelParams, dt: float) -> float:
    """Exact z-family flip probability over a gap, (1 - e^{-2 gamma dt})/2."""
    return 0.5 * (1.0 - math.exp(-2.0 * params.gamma * dt))
