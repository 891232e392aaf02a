"""Information bookkeeping: what the future learns, what the environment takes.

All quantities are in bits.  The central object is the Holevo information of
a two-state ensemble fed through a channel: prepare the molecule in one arm
of a decomposition (equal priors), transmit with the collisional channel T
or leak through its complementary channel, and ask how distinguishable the
outputs remain.  Every such quantity here is a closed form in the PTM T; no
output state, Choi matrix or Kraus operator is ever built or diagonalized.

  * The arms (I +- n.sigma)/2 of the basis along a unit vector n leave the
    channel with Bloch vectors t +- T3 n, where t = T[1:, 0] and T3 =
    T[1:, 1:], and a qubit state with Bloch length r has entropy
    h2((1 + r)/2).  The arms average to I/2, whose output has Bloch vector t:

        chi_direct(n) = S(t) - (1/2) sum_+- S(t +- T3 n).

  * A pure input leaves the environment with the spectrum it leaves the
    molecule (the dilated state is pure), so the leaked arms have the same
    entropies; and T^c(I/2) has the spectrum lambda/2 of the Choi matrix,
    the entropy exchange (Schumacher, PRA 54, 2614 (1996)):

        chi_comp(n) = H(lambda/2) - (1/2) sum_+- S(t +- T3 n),

    lambda from channels.choi_spectrum, a closed form in T, none dropped.

The definition route (Choi matrix, Kraus operators, dilation, environment
outputs and their eigenvalues) lives in the tests as the independent check.

build_info_report is the one production route.  It evaluates every curve
on the whole time grid at once: one PTM stack, the closed-form Choi
spectrum, Bloch lengths for every arm, one chain per time.  Its columns
carry three structural facts, and the info command checks the first two
at every grid time:

  * records are faithful (record_information_identity): for the two-time
    family whose later basis is the forward flow image of the first one,
    the classical mutual information between first and last outcome, the
    mutual_info column, equals the direct Holevo information of the first
    basis, chi_<basis>_direct.  The joint distribution of the two records
    is the Markov chain of histories.chain_kernel, (1 + s_a s_b n1 . T3
    n0)/4 from I/2, so no decoherence functional is built.  A two-time
    family from I/2 is consistent for any pair of axes (I/2 leaves no cross
    term at the first time and the trace closes every one at the last), so
    the column needs no verdict;
  * complementarity (mub_information_bound, cross_basis_equality): for the
    mutually unbiased pair (x, z) the direct information about one basis
    plus the leaked information about the other, sum_zx and sum_xz, cannot
    exceed one bit, and for this model the two pairings are equal;
  * purity proxy: the quadratic measures quad_z_direct and quad_x_comp,
    quadratic forms in T, share the qualitative flow pattern, and
    quadratic_information gives their initial slopes exactly from the
    generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import choi_spectrum
from .families import FORWARD, _as_unit_vector, flow_unit_vectors
from .histories import chain_kernel
from .ptm import ModelParams, generator, propagator_closed_form

_LN2 = math.log(2.0)
# a Bloch length beyond this is a state with an eigenvalue below -1e-8, not roundoff
_MAX_BLOCH_LENGTH = 1.0 + 2e-8
_AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}
# rows of the two report bases, x then z, and with the y family basis after them
_XZ = np.array([_AXES["x"], _AXES["z"]])
_XZY = np.array([_AXES["x"], _AXES["z"], _AXES["y"]])


def _shannon(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits over the last axis of a stack of distributions."""
    return -(p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=-1) / _LN2


def _qubit_entropy(bloch: np.ndarray) -> np.ndarray:
    """S of qubit states given by Bloch vectors (..., 3): h2((1 + r)/2), r = |b|.

    Raises ValueError if some r exceeds 1 + 2e-8, a state with an
    eigenvalue below -1e-8; smaller excesses are roundoff and are clipped.
    """
    r = np.linalg.norm(bloch, axis=-1)
    if r.size and r.max() > _MAX_BLOCH_LENGTH:
        raise ValueError(f"state has negative eigenvalue {(1.0 - r.max()) / 2.0:.3e}")
    r = np.minimum(r, 1.0)
    return _shannon(np.stack([0.5 + 0.5 * r, 0.5 - 0.5 * r], axis=-1))


def _output_and_arm_entropies(T: np.ndarray, axes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S(t), t = T[1:, 0] the output of I/2, and (1/2) sum_+- S(t +- T3 n) in one entropy pass.

    For PTMs (..., 4, 4) and unit vectors n (m, 3); the results are (...) and (..., m).
    """
    t = T[..., None, 1:, 0]
    moved = np.einsum("...ij,mj->...mi", T[..., 1:, 1:], axes)
    S = _qubit_entropy(np.concatenate([t, t + moved, t - moved], axis=-2))
    return S[..., 0], 0.5 * (S[..., 1:len(axes) + 1] + S[..., len(axes) + 1:])


def _exchange_entropy(T: np.ndarray) -> np.ndarray:
    """S(T^c(I/2)) = H(lambda/2) for PTMs (..., 4, 4), every Choi eigenvalue kept."""
    return _shannon(choi_spectrum(T) / 2.0)


def _flow_record_information(n0: np.ndarray, T: np.ndarray, n1: np.ndarray) -> np.ndarray:
    """Record information of the two-time families (n0 at 0, n1 at t) from I/2, for PTMs T(t) (..., 4, 4).

    Such a family is consistent whatever its axes: from I/2 the kernel's
    first residual is 0, and the trace closes every cross term at the last
    time.  So its weights are the joint distribution, and no verdict is
    needed.
    """
    units = np.stack(np.broadcast_arrays(n0, n1), axis=-2)
    p1, M, _ = chain_kernel(units, T[..., None, 1:, 1:], np.zeros(3))
    # the joint distribution of the two outcomes is M[b, a] p1[a], [next, now]
    joint = np.clip(M[..., 0, :, :] * p1[..., None, :], 0.0, None)
    indep = joint.sum(axis=-1, keepdims=True) * joint.sum(axis=-2, keepdims=True)
    seen = joint > 0.0
    ratio = np.where(seen, joint, 1.0) / np.where(seen, indep, 1.0)
    return (joint * np.log2(ratio)).sum(axis=(-2, -1))


def _kept_square(T: np.ndarray, n: np.ndarray) -> np.ndarray:
    """(1/2) Tr[T(n.sigma)^2] = |T3 n|^2 for a PTM stack (..., 4, 4)."""
    return np.square(T[..., 1:, 1:] @ n).sum(axis=-1)


def _leaked_square(T: np.ndarray, n: np.ndarray) -> np.ndarray:
    """(1/2) Tr[T^c(n.sigma)^2] = (1/2) [(T^T T)_00 + 2 n.G n - tr G], G = (T^T T)[1:, 1:], for PTMs (..., 4, 4).

    For n.sigma = P_0 - P_1 the pure arms give Tr[T^c(P_a)^2] = Tr[T(P_a)^2],
    and the cross term is Tr[T^c(P_0) T^c(P_1)] = ||T(|0><1|)||_F^2; in Pauli
    components this is the form above for any trace-preserving qubit PTM.
    """
    cols = T[..., :, 1:]  # (T^T T)_00 = |T[:, 0]|^2, n.G n = |cols n|^2, tr G = ||cols||_F^2
    return 0.5 * (np.square(T[..., :, 0]).sum(-1) + 2.0 * np.square(cols @ n).sum(-1) - np.square(cols).sum((-2, -1)))


def quadratic_information(params: ModelParams, direction) -> tuple[float, float]:
    """Exact initial slopes (direct, complementary) of the quadratic proxies (1/2) Tr[channel(n.sigma)^2].

    n is the unit vector of a BlochDirection, a Decomposition or a 3-vector;
    the proxies themselves are the report's quad_* columns.  T(0) = I and
    T'(0) = S, so d(T^T T)/dt = S^T + S at t = 0, and with S3 = S[1:, 1:]
    the slopes are
    2 n.S3 n = -4 gamma (n_y^2 + n_z^2) (direct) and S_00 + 2 n.S3 n - tr S3
    = 4 gamma n_x^2 (complementary).  For the unbiased pair (x, z) that is
    claim (d) as an identity of rates: x leaks to the environment at
    4 gamma, exactly as fast as z decays in the molecule.
    """
    n = _as_unit_vector(direction)
    S = generator(params)
    flow = 2.0 * float(n @ S[1:, 1:] @ n)
    return flow, float(S[0, 0] + flow - np.trace(S[1:, 1:]))


@dataclass(frozen=True, eq=False)
class InfoReport:
    """Named information curves on a common time grid."""

    params: ModelParams
    times: np.ndarray
    curves: dict

    def cross_equality_residual(self) -> float:
        """Largest gap between the two direct-plus-leaked pairings of x and z."""
        return float(np.abs(self.curves["sum_zx"] - self.curves["sum_xz"]).max())


def build_info_report(params: ModelParams, times, family_basis=None) -> InfoReport:
    """Evaluate the standard information curves on a grid, all times at once.

    Curves: direct and leaked Holevo information for the x and z bases, the
    two cross pairings sum_zx = z_direct + x_leaked and sum_xz = x_direct +
    z_leaked (equal for this model), and the quadratic proxies (values
    only).  When family_basis (x, y or z) is given, a mutual_info column
    tracks the two-time forward family rooted at that basis: its second
    basis is the flow image T3 n0 / |T3 n0| at each time.  For y the report
    also gains chi_y_direct, the direct information of that basis.
    """
    times = np.asarray(times, dtype=float)
    T = propagator_closed_form(params, times)  # raises ValueError on a negative time
    out, arms = _output_and_arm_entropies(T, _XZY if family_basis == "y" else _XZ)  # arms: [time, basis]
    direct = out[..., None] - arms
    leaked = _exchange_entropy(T)[..., None] - arms[..., :2]
    xd, zd, xc, zc = direct[..., 0], direct[..., 1], leaked[..., 0], leaked[..., 1]
    cols = {
        "chi_x_direct": xd,
        "chi_z_direct": zd,
        "chi_x_comp": xc,
        "chi_z_comp": zc,
        "sum_zx": zd + xc,
        "sum_xz": xd + zc,
        "quad_z_direct": _kept_square(T, _XZ[1]),
        "quad_x_comp": _leaked_square(T, _XZ[0]),
    }
    if family_basis == "y":
        cols["chi_y_direct"] = direct[..., 2]
    if family_basis is not None:
        n0 = np.array(_AXES[family_basis])
        cols["mutual_info"] = _flow_record_information(n0, T, flow_unit_vectors(n0, params, FORWARD, times))
    return InfoReport(params=params, times=times, curves=cols)
