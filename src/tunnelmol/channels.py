"""Channel representations: PTM <-> Choi <-> Kraus, and the complementary channel.

A 4x4 Pauli transfer matrix fixes a linear map on 2x2 operators.  Three other
representations of the same map are used here:

  * Choi matrix  M = sum_{ij} |i><j| (x) T(|i><j|), Hermitian, trace 2 for a
    trace-preserving map, positive semidefinite exactly when the map is
    completely positive.
  * Kraus form   T(rho) = sum_k K_k rho K_k^dag, obtained from the spectral
    decomposition of M; the number of significant Choi eigenvalues is the
    minimal environment dimension d_E.
  * Stinespring dilation  V = sum_k |k>_E (x) K_k, an isometry from the system
    into environment (x) system.  Tracing the system out of V rho V^dag gives
    the complementary channel

        T^c(rho) = Tr_M[V rho V^dag],   T^c(rho)[k,l] = Tr(K_k rho K_l^dag),

    i.e. what the collisional environment learns.  Everything an information
    measure sees is invariant under re-dilation with a larger environment
    isometry, which the tests exercise.

The production route, complementary_outputs, works on whole PTM stacks; the
one-map objects (KrausSet, ComplementaryChannel with its literal dilation)
are the definition route, kept as an independent oracle.

For the tunneling model at omega = 0 the exact channel is the bit-flip channel
with Kraus set {sqrt(1-p) I, sqrt(p) X}, p = (1 - e^{-2 gamma t})/2; for small
t the full channel is still described by two Kraus operators up to O(t^2)
corrections, which is why d_E = 2 at short times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ptm import PAULIS, pauli_coefficients

# Choi eigenvalues below this count as numerically zero and are dropped
SIGNIFICANT_EIGENVALUE = 1e-10
# eigenvalues below this are a genuine complete-positivity violation
_NONCP_THRESHOLD = -1e-6


class NonCPError(ValueError):
    """The map is not completely positive (Choi eigenvalue below -1e-6)."""


@dataclass(frozen=True)
class KrausSet:
    """Kraus operators sorted by descending Choi eigenvalue.

    operators     tuple of 2x2 complex arrays K_k
    eigenvalues   the Choi eigenvalues they came from (same order)
    """

    operators: tuple
    eigenvalues: tuple

    def __len__(self) -> int:
        return len(self.operators)

    def completeness_defect(self) -> float:
        """Frobenius norm of sum_k K_k^dag K_k - I (zero for a trace-preserving map)."""
        acc = np.zeros((2, 2), dtype=complex)
        for K in self.operators:
            acc += K.conj().T @ K
        return float(np.linalg.norm(acc - np.eye(2)))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Channel action sum_k K_k rho K_k^dag (oracle route, independent of apply_ptm)."""
        out = np.zeros((2, 2), dtype=complex)
        for K in self.operators:
            out += K @ rho @ K.conj().T
        return out


@dataclass(frozen=True)
class ComplementaryChannel:
    """Minimal Stinespring dilation of a channel and its complementary map.

    isometry   (2 d_E, 2) complex matrix V with V^dag V = I; row block k is K_k
    kraus      the KrausSet the dilation was built from
    """

    isometry: np.ndarray
    kraus: KrausSet

    @property
    def env_dim(self) -> int:
        return len(self.kraus)


# Choi matrix of the map with PTM e_k e_l^T: block (i, j) is sigma_k c_l(|i><j|),
# c_l(|i><j|) = (sigma_l)_{ji} / 2; rows are (i, a), columns (j, b)
_CHOI_BASIS = (np.einsum("kab,lji->kliajb", PAULIS, PAULIS) / 2.0).reshape(4, 4, 4, 4)


def ptm_to_choi(ptm: np.ndarray) -> np.ndarray:
    """Choi matrix of a PTM, or of a stack (..., 4, 4); trace = 2 * ptm[0,0].

    The Choi matrix is a fixed linear image of the PTM, so this is one
    contraction with a constant tensor.  Every term of that tensor is
    Hermitian, so a real PTM gives an exactly Hermitian Choi matrix.
    """
    return np.einsum("...kl,klrc->...rc", np.asarray(ptm, dtype=float), _CHOI_BASIS)


def choi_to_ptm(choi: np.ndarray) -> np.ndarray:
    """Inverse bridge: PTM entries T_kj = Tr[sigma_k T(sigma_j)] / 2."""
    choi = np.asarray(choi, dtype=complex)
    T = np.zeros((4, 4))
    for j in range(4):
        # T(sigma_j) = Tr_in[ choi (sigma_j^T (x) I) ]
        sj = PAULIS[j].T
        out = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for ip in range(2):
                out += sj[ip, i] * choi[2 * i : 2 * i + 2, 2 * ip : 2 * ip + 2]
        for k in range(4):
            T[k, j] = np.real(np.trace(PAULIS[k] @ out) / 2.0)
    return T


def _canonical_phase(K: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest-magnitude entry is real positive."""
    flat = K.ravel()
    idx = int(np.argmax(np.abs(flat)))
    z = flat[idx]
    if abs(z) < 1e-300:
        return K
    return K * (abs(z) / z)


def choi_to_kraus(choi: np.ndarray, significance: float = SIGNIFICANT_EIGENVALUE) -> KrausSet:
    """Spectral Kraus decomposition of a Choi matrix.

    Eigenvalues below -1e-6 raise NonCPError; small negatives from roundoff
    are clipped to zero; only eigenvalues above `significance` contribute an
    operator.  Order is descending eigenvalue with a lexicographic tie-break
    on the operator entries, so the output is deterministic.
    """
    choi = np.asarray(choi, dtype=complex)
    w, V = np.linalg.eigh(choi)
    if w.min() < _NONCP_THRESHOLD:
        raise NonCPError(f"Choi matrix has eigenvalue {w.min():.3e}; map is not completely positive")
    w = np.clip(w, 0.0, None)
    items = []
    for lam, vec in zip(w, V.T):
        if lam <= significance:
            continue
        K = _canonical_phase(np.sqrt(lam) * vec.reshape(2, 2).T)
        key = tuple(np.round(np.concatenate([K.ravel().real, K.ravel().imag]), 12))
        items.append((-lam, key, lam, K))
    items.sort(key=lambda it: (it[0], it[1]))
    return KrausSet(
        operators=tuple(it[3] for it in items),
        eigenvalues=tuple(float(it[2]) for it in items),
    )


def kraus_to_ptm(kraus: KrausSet) -> np.ndarray:
    """PTM of a Kraus set (round-trip / oracle route)."""
    T = np.zeros((4, 4))
    for j in range(4):
        out = kraus.apply(PAULIS[j])
        T[:, j] = pauli_coefficients(out).real
    return T


def stinespring_isometry(kraus: KrausSet) -> np.ndarray:
    """Stack the Kraus operators into the minimal dilation isometry V."""
    d_E = len(kraus)
    V = np.zeros((2 * d_E, 2), dtype=complex)
    for k, K in enumerate(kraus.operators):
        V[2 * k : 2 * k + 2, :] = K
    return V


def complementary_channel(ptm: np.ndarray) -> ComplementaryChannel:
    """Minimal dilation of a PTM, ready for complementary_apply."""
    kraus = choi_to_kraus(ptm_to_choi(ptm))
    return ComplementaryChannel(isometry=stinespring_isometry(kraus), kraus=kraus)


def complementary_apply(comp: ComplementaryChannel, rho: np.ndarray) -> np.ndarray:
    """Environment output T^c(rho) = Tr_M[V rho V^dag], a d_E x d_E matrix.

    Defined for any operator rho by linearity (density operators give density
    operators).  Computed literally through the dilation: embed, conjugate,
    partial-trace the system factor.
    """
    V = comp.isometry
    big = V @ np.asarray(rho, dtype=complex) @ V.conj().T
    d_E = comp.env_dim
    # index (k, a) for environment k, system a; trace over a
    return big.reshape(d_E, 2, d_E, 2).trace(axis1=1, axis2=3)


def complementary_outputs(ptm: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Environment outputs T^c(rho)[k, l] = Tr(K_k rho K_l^dag) for a PTM stack.

    ptm is (..., 4, 4) and states (m, 2, 2); the result is (..., m, 4, 4).
    K_k comes from Choi eigenpair k of one stacked eigh, with weight zero for
    eigenvalues at or below SIGNIFICANT_EIGENVALUE, so every spectrum agrees
    with complementary_apply's minimal dilation.  Raises NonCPError if any
    Choi eigenvalue in the stack lies below -1e-6.
    """
    w, V = np.linalg.eigh(ptm_to_choi(ptm))
    if w.size and w.min() < _NONCP_THRESHOLD:
        raise NonCPError(f"Choi matrix has eigenvalue {w.min():.3e}; map is not completely positive")
    amp = np.sqrt(np.where(w > SIGNIFICANT_EIGENVALUE, w, 0.0))
    # Choi row 2 i + a of eigenvector k holds K_k[a, i] / sqrt(lambda_k)
    K = V.reshape(V.shape[:-2] + (2, 2, 4)) * amp[..., None, None, :]
    return np.einsum("...iak,mij,...jal->...mkl", K, np.asarray(states, dtype=complex), K.conj())


def bit_flip_kraus(p: float) -> KrausSet:
    """The analytic bit-flip channel {sqrt(1-p) I, sqrt(p) X}."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("flip probability must lie in [0, 1]")
    ops, eigs = [], []
    if 1.0 - p > 0:
        ops.append(np.sqrt(1.0 - p) * PAULIS[0])
        eigs.append(2.0 * (1.0 - p))
    if p > 0:
        ops.append(np.sqrt(p) * PAULIS[1])
        eigs.append(2.0 * p)
    order = np.argsort([-e for e in eigs])
    return KrausSet(
        operators=tuple(ops[i] for i in order),
        eigenvalues=tuple(eigs[i] for i in order),
    )
