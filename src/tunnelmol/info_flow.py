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

Three structural facts get dedicated verifiers:

  * records are faithful: for a family whose later basis is the forward flow
    image of the first one, the classical mutual information between first
    and last outcome equals the Holevo information of the connecting channel.
    The joint distribution of the two records is the Markov chain of
    histories.chain_kernel, (1 + s_a s_b n1 . T3 n0)/4 from I/2, so no
    decoherence functional is built.  A two-time family from I/2 is
    consistent for any pair of axes (I/2 leaves no cross term at the first
    time and the trace closes every one at the last), so the report's column
    and the identity need no verdict; mutual_information_family, which takes
    any initial state, gets its verdict from histories.markov_from_family,
    the exact largest off-diagonal entry of its 4x4 functional;
  * complementarity: for mutually unbiased bases the direct information
    about one basis plus the leaked information about the other cannot
    exceed one bit;
  * purity proxy: the quadratic measures, quadratic forms in T, share the
    qualitative flow pattern and have initial slopes exact in the generator.

Reports are evaluated on the whole time grid at once: one PTM stack, the
closed-form Choi spectrum, Bloch lengths for every arm, one chain per time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import choi_spectrum
from .families import FORWARD, _as_unit_vector, check_forward_condition, flow_unit_vectors
from .histories import CONSISTENCY_TOL, HistoryFamily, chain_kernel, markov_from_family
from .ptm import ModelParams, generator, propagator_closed_form

_LN2 = math.log(2.0)
# a Bloch length beyond this is a state with an eigenvalue below -1e-8, not roundoff
_MAX_BLOCH_LENGTH = 1.0 + 2e-8
_AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}
# rows of the two report bases, x then z
_XZ = np.array([_AXES["x"], _AXES["z"]])


class ForwardConditionError(ValueError):
    """Supplied target basis is not the forward flow image of the source basis."""


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


def _axis(basis) -> np.ndarray:
    """Unit Bloch vector of a basis: a name x, y or z, a Decomposition, a direction or a vector."""
    if isinstance(basis, str):
        try:
            return np.array(_AXES[basis])
        except KeyError:
            raise ValueError(f"unknown basis name {basis!r}") from None
    return _as_unit_vector(basis)


def holevo_direct(basis, params: ModelParams, t: float) -> float:
    """Information about the basis record still held by the molecule after t."""
    out, arms = _output_and_arm_entropies(propagator_closed_form(params, t), _axis(basis)[None])
    return float(out - arms[0])


def holevo_complementary(basis, params: ModelParams, t: float) -> float:
    """Information about the basis record carried off by the collisions up to t."""
    T = propagator_closed_form(params, t)
    return float(_exchange_entropy(T) - _output_and_arm_entropies(T, _axis(basis)[None])[1][0])


def _record_information(p1: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Mutual information between the two records of two-time families, from their chains.

    p1 (..., 2) and M (..., 2, 2), [next, now], as chain_kernel gives them;
    the joint distribution of the two outcomes is M[b, a] p1[a].
    """
    joint = np.clip(M * p1[..., None, :], 0.0, None)
    indep = joint.sum(axis=-1, keepdims=True) * joint.sum(axis=-2, keepdims=True)
    seen = joint > 0.0
    ratio = np.where(seen, joint, 1.0) / np.where(seen, indep, 1.0)
    return (joint * np.log2(ratio)).sum(axis=(-2, -1))


def _flow_record_information(n0: np.ndarray, T: np.ndarray, n1: np.ndarray) -> np.ndarray:
    """Record information of the two-time families (n0 at 0, n1 at t) from I/2, for PTMs T(t) (..., 4, 4).

    Such a family is consistent whatever its axes: from I/2 the kernel's
    first residual is 0, and the trace closes every cross term at the last
    time.  So its weights are the joint distribution, and no verdict is
    needed.
    """
    units = np.stack(np.broadcast_arrays(n0, n1), axis=-2)
    p1, M, _ = chain_kernel(units, T[..., None, 1:, 1:], np.zeros(3))
    return _record_information(p1, M[..., 0, :, :])


def mutual_information_family(family: HistoryFamily, initial=None, tol: float = CONSISTENCY_TOL) -> float:
    """Classical mutual information between the two records of a two-time family.

    Requires f = 2 and a consistent family, whose weights then form a genuine
    joint distribution over the four outcome pairs.  The chain and the
    verdict come from markov_from_family.
    """
    if family.f != 2:
        raise ValueError("mutual information needs exactly two history times")
    chain = markov_from_family(family, initial, tol)
    return float(_record_information(chain.initial_distribution, chain.transitions[0]))


@dataclass(frozen=True)
class InformationIdentityReport:
    """Classical record information versus the quantum channel bound."""

    mutual_info: float
    holevo: float
    residual: float
    passed: bool


def verify_family_information_identity(
    basis,
    params: ModelParams,
    t: float,
    target=None,
    tol: float = 1e-8,
) -> InformationIdentityReport:
    """Check that a forward family's records carry exactly the Holevo information.

    The second-time axis defaults to the forward flow image of the first;
    a caller-supplied target is accepted only after passing the forward span
    condition, otherwise ForwardConditionError is raised.  The records are
    those of the two-time family from I/2, read from its chain.  The residual
    is |I(record_1 : record_2) - holevo_direct| and should sit at roundoff.
    """
    n0 = _axis(basis)
    if t <= 0:
        raise ValueError("need a positive time separation")
    if target is None:
        n1 = flow_unit_vectors(n0, params, FORWARD, t)
    else:
        n1 = _axis(target)
        cond = check_forward_condition([n0, n1], params, np.array([0.0, t]))
        if not cond.passed:
            raise ForwardConditionError(
                f"target basis misses the forward flow image by {cond.max_residual:.3e}"
            )
    mi = float(_flow_record_information(n0, propagator_closed_form(params, t), n1))
    hol = holevo_direct(basis, params, t)
    residual = abs(mi - hol)
    return InformationIdentityReport(mutual_info=mi, holevo=hol, residual=residual, passed=residual < tol)


@dataclass(frozen=True)
class MubBoundReport:
    """Direct plus leaked information for a mutually unbiased pair."""

    holevo_direct: float
    holevo_complementary: float
    slack: float
    passed: bool


def mub_bound_check(basis, conjugate_basis, params: ModelParams, t: float) -> MubBoundReport:
    """For mutually unbiased bases, direct + leaked information <= 1 bit.

    Validates unbiasedness first: every cross overlap Tr(P_i Q_j) must equal
    one half.  slack = 1 - holevo_direct(basis) - holevo_complementary(conjugate).
    """
    # Tr(P_i Q_j) = (1 +- n.m)/2 for the basis directions n and m
    if abs(_axis(basis) @ _axis(conjugate_basis)) > 2e-10:
        raise ValueError("bases are not mutually unbiased")
    direct = holevo_direct(basis, params, t)
    leaked = holevo_complementary(conjugate_basis, params, t)
    slack = 1.0 - direct - leaked
    return MubBoundReport(
        holevo_direct=direct,
        holevo_complementary=leaked,
        slack=slack,
        passed=slack > -1e-9,
    )


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


def quadratic_information(basis, params: ModelParams, t: float, which: str = "direct"):
    """Purity-based proxy (1/2) Tr[ channel(sigma_W)^2 ] at t, and its exact slope at t = 0.

    sigma_W = n . sigma for the basis direction n.  T(0) = I and T'(0) = S,
    so d(T^T T)/dt = S^T + S at t = 0, and with S3 = S[1:, 1:] the slopes are
    2 n.S3 n = -4 gamma (n_y^2 + n_z^2) (direct) and S_00 + 2 n.S3 n - tr S3
    = 4 gamma n_x^2 (complementary).  For the unbiased pair (x, z) that is
    claim (d) as an identity of rates: x leaks to the environment at
    4 gamma, exactly as fast as z decays in the molecule.
    """
    n = _axis(basis)
    if which not in ("direct", "complementary"):
        raise ValueError("which must be 'direct' or 'complementary'")
    T = propagator_closed_form(params, float(t))
    S = generator(params)
    flow = 2.0 * float(n @ S[1:, 1:] @ n)
    if which == "direct":
        return float(_kept_square(T, n)), flow
    return float(_leaked_square(T, n)), float(S[0, 0] + flow - np.trace(S[1:, 1:]))


def short_time_leak_model(params: ModelParams, t: float) -> float:
    """Leading small-time behavior of the leaked information, in bits.

    The environment picks up g t ln(1/(g t)) + g t nats (g the collision
    rate) before oscillation corrections kick in.
    """
    x = params.gamma * t
    if x <= 0:
        return 0.0
    return (x * math.log(1.0 / x) + x) / _LN2


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
    only).  When family_basis is given, a mutual_info column tracks the
    two-time forward family rooted at that basis: its second basis is the
    flow image T3 n0 / |T3 n0| at each time.
    """
    times = np.asarray(times, dtype=float)
    T = propagator_closed_form(params, times)  # raises ValueError on a negative time
    out, arms = _output_and_arm_entropies(T, _XZ)  # arms: [time, basis]
    direct = out[..., None] - arms
    leaked = _exchange_entropy(T)[..., None] - arms
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
    if family_basis is not None:
        n0 = _axis(family_basis)
        cols["mutual_info"] = _flow_record_information(n0, T, flow_unit_vectors(n0, params, FORWARD, times))
    return InfoReport(params=params, times=times, curves=cols)
