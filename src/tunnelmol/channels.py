"""Channel representations: PTM -> Choi -> Kraus, and the complementary channel.

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

complementary_outputs takes that whole route at once for a stack of PTMs:
one stacked Choi eigh gives the Kraus operators of every map, and the
environment outputs are their overlaps.  It never forms the isometry V.

For the tunneling model at omega = 0 the exact channel is the bit-flip channel
with Kraus set {sqrt(1-p) I, sqrt(p) X}, p = (1 - e^{-2 gamma t})/2; for small
t the full channel is still described by two Kraus operators up to O(t^2)
corrections, which is why d_E = 2 at short times.
"""

from __future__ import annotations

import numpy as np

from .ptm import PAULIS

# Choi eigenvalues below this count as numerically zero and are dropped
SIGNIFICANT_EIGENVALUE = 1e-10
# eigenvalues below this are a genuine complete-positivity violation
_NONCP_THRESHOLD = -1e-6


class NonCPError(ValueError):
    """The map is not completely positive (Choi eigenvalue below -1e-6)."""


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


def complementary_outputs(ptm: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Environment outputs T^c(rho)[k, l] = Tr(K_k rho K_l^dag) for a PTM stack.

    ptm is (..., 4, 4) and states (m, 2, 2); the result is (..., m, 4, 4).
    K_k comes from Choi eigenpair k of one stacked eigh, with weight zero for
    eigenvalues at or below SIGNIFICANT_EIGENVALUE, so each output is the
    minimal dilation's d_E x d_E output padded with zero rows and columns.
    Raises NonCPError if any Choi eigenvalue in the stack lies below -1e-6.
    """
    w, V = np.linalg.eigh(ptm_to_choi(ptm))
    if w.size and w.min() < _NONCP_THRESHOLD:
        raise NonCPError(f"Choi matrix has eigenvalue {w.min():.3e}; map is not completely positive")
    amp = np.sqrt(np.where(w > SIGNIFICANT_EIGENVALUE, w, 0.0))
    # Choi row 2 i + a of eigenvector k holds K_k[a, i] / sqrt(lambda_k)
    K = V.reshape(V.shape[:-2] + (2, 2, 4)) * amp[..., None, None, :]
    return np.einsum("...iak,mij,...jal->...mkl", K, np.asarray(states, dtype=complex), K.conj())
