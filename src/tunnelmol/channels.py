"""Complete positivity and the Choi spectrum of the model's channels, in closed form.

The Choi matrix sum_{ij} |i><j| (x) T(|i><j|) of a PTM T has trace 2 for a
trace-preserving map and is positive semidefinite exactly when the map is
completely positive.  Its eigenvalues lambda_k weigh the Kraus operators
K_k, and the complementary channel T^c(rho)[k, l] = Tr(K_k rho K_l^dag)
sends I/2 to the spectrum lambda/2: the collisions take H(lambda/2) from I/2.

Every map of the model is trace preserving and unital, with Bloch block
T3 = diag(B, e), B = [[a, b], [c, d]] the x-y block.  Rotations about z are
unitary conjugations, which keep the spectrum, and two of them bring B to
diag(s1, s2), its signed singular values:

    p = hypot(a + d, c - b)/2,  q = hypot(a - d, b + c)/2,  s1 = p + q,  s2 = p - q.

The Pauli-diagonal map diag(1, s1, s2, e) has the Kraus operators
sqrt(lambda_k/2) sigma_k, with

    lambda = (1 + s1 + s2 + e, 1 + s1 - s2 - e, 1 - s1 + s2 - e, 1 - s1 - s2 + e)/2,

and complete positivity is exactly lambda >= 0 (Fujiwara & Algoet, PRA 59,
3290 (1999); King & Ruskai, IEEE Trans. Inf. Theory 47, 192 (2001)).  At
omega = 0 this is the bit flip {sqrt(1-p) I, sqrt(p) X}, p = (1 - e)/2, with
spectrum (2(1-p), 2p, 0, 0).  The Choi matrix and its eigvalsh spectrum live
in the tests as the independent route.
"""

from __future__ import annotations

import numpy as np

# eigenvalues below this are a genuine complete-positivity violation
_NONCP_THRESHOLD = -1e-6


class NonCPError(ValueError):
    """The map is not completely positive (Choi eigenvalue below -1e-6)."""


def choi_spectrum(ptm: np.ndarray) -> np.ndarray:
    """Choi eigenvalues (..., 4) of PTMs (..., 4, 4) of the model's form, unsorted.

    lambda above, as (u + p, v + q, v - q, u - p) with u, v = (1 +- e)/2,
    from B and e alone.  Roundoff below zero is clipped to 0, no positive
    value is dropped, and one below -1e-6 anywhere raises NonCPError.
    """
    T = np.asarray(ptm, dtype=float)
    a, b, c, d, e = T[..., 1, 1], T[..., 1, 2], T[..., 2, 1], T[..., 2, 2], T[..., 3, 3]
    p, q = np.hypot(a + d, c - b) / 2.0, np.hypot(a - d, b + c) / 2.0
    u, v = (1.0 + e) / 2.0, (1.0 - e) / 2.0
    lam = np.stack([u + p, v + q, v - q, u - p], axis=-1)
    if lam.size and lam.min() < _NONCP_THRESHOLD:
        raise NonCPError(f"Choi matrix has eigenvalue {lam.min():.3e}; map is not completely positive")
    return np.clip(lam, 0.0, None)
