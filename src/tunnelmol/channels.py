"""Channel representations: the Choi matrix of a PTM and its spectrum.

A 4x4 Pauli transfer matrix fixes a linear map on 2x2 operators.  Its Choi
matrix M = sum_{ij} |i><j| (x) T(|i><j|) is Hermitian, has trace 2 for a
trace-preserving map, and is positive semidefinite exactly when the map is
completely positive.  Its spectrum fixes everything the environment of a
minimal dilation can learn: the eigenvalues lambda_k are the weights of the
Kraus operators K_k of the map, and the complementary channel

    T^c(rho)[k, l] = Tr(K_k rho K_l^dag)

sends the maximally mixed state to a state with spectrum lambda/2, so
H(lambda/2) is the entropy the collisions take from I/2.  For a pure input
the environment's output has the spectrum of the molecule's (the dilated
state is pure).  info_flow builds every information quantity from these two
facts; the explicit Kraus, Stinespring and environment-output route lives in
the tests as the independent check.

For the tunneling model at omega = 0 the exact channel is the bit-flip channel
with Kraus set {sqrt(1-p) I, sqrt(p) X}, p = (1 - e^{-2 gamma t})/2, so the
spectrum is (2(1-p), 2p, 0, 0); for small t the full channel is still
described by two Kraus operators up to O(t^2) corrections.
"""

from __future__ import annotations

import numpy as np

from .ptm import PAULIS

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


def choi_eigenvalues(choi: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Choi stack (..., 4, 4), ascending, from one stacked eigvalsh.

    Roundoff below zero is clipped to 0; no positive eigenvalue is dropped,
    however small.  Raises NonCPError if any eigenvalue in the stack lies
    below -1e-6.
    """
    w = np.linalg.eigvalsh(choi)
    if w.size and w.min() < _NONCP_THRESHOLD:
        raise NonCPError(f"Choi matrix has eigenvalue {w.min():.3e}; map is not completely positive")
    return np.clip(w, 0.0, None)
