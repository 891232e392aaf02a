"""Information bookkeeping: what the future learns, what the environment takes.

All quantities are in bits.  The central object is the Holevo information of
a two-state ensemble fed through a channel: prepare the molecule in one arm
of a decomposition (equal priors), transmit with the collisional channel T
or leak through its complementary channel, and ask how distinguishable the
outputs remain.  For this unital qubit model the direct quantity has the
closed form 1 - h2((1 + |n'|)/2) with n' the transported Bloch direction,
which the tests use as an independent check on the definition-based route
implemented here.

Three structural facts get dedicated verifiers:

  * records are faithful: for a family whose later basis is the forward flow
    image of the first one, the classical mutual information between first
    and last outcome equals the Holevo information of the connecting channel;
  * complementarity: for mutually unbiased bases the direct information
    about one basis plus the leaked information about the other cannot
    exceed one bit;
  * purity proxy: the quadratic measure (1/2) Tr[ T(sigma_W)^2 ] shares the
    qualitative flow pattern and has simple initial slopes, handy as a
    cheap cross-check.

Reports are evaluated on the whole time grid at once: one PTM stack, one
stacked Choi eigh for the environment outputs, one stacked eigvalsh for
every entropy.  The one-time functions are thin wrappers over the same
kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import complementary_outputs
from .families import FORWARD, check_forward_condition, exact_direction, flow_unit_vectors
from .histories import (
    CONSISTENCY_TOL,
    Decomposition,
    HistoryFamily,
    checked_weights,
    decoherence_entries,
    decoherence_functional,
    projector_pairs,
)
from .ptm import ModelParams, apply_ptm, propagator_closed_form

_LN2 = math.log(2.0)
_EIG_FLOOR = -1e-8


class ForwardConditionError(ValueError):
    """Supplied target basis is not the forward flow image of the source basis."""


def binary_entropy(p: float) -> float:
    """h2(p) in bits."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability out of range")
    if p in (0.0, 1.0):
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def _entropies(states: np.ndarray, base: float = 2.0) -> np.ndarray:
    """S of every state in a stack (..., d, d), from one eigvalsh.

    Eigenvalues are clipped against roundoff, never against real negativity:
    one below -1e-8 anywhere in the stack raises ValueError.
    """
    evals = np.linalg.eigvalsh(np.asarray(states, dtype=complex))
    if evals.size and evals.min() < _EIG_FLOOR:
        raise ValueError(f"state has negative eigenvalue {evals.min():.3e}")
    evals = np.clip(evals, 0.0, None)
    return -(evals * np.log(np.where(evals > 0.0, evals, 1.0))).sum(axis=-1) / math.log(base)


def von_neumann_entropy(rho: np.ndarray, base: float = 2.0) -> float:
    """S(rho); eigenvalues are clipped against roundoff, never against real negativity."""
    return float(_entropies(rho, base))


@dataclass(frozen=True)
class InputEnsemble:
    """Equal-prior preparations to be sent through a channel."""

    priors: tuple
    states: tuple

    def __post_init__(self):
        if len(self.priors) != len(self.states):
            raise ValueError("one prior per state")
        if abs(sum(self.priors) - 1.0) > 1e-10:
            raise ValueError("priors must sum to one")

    @classmethod
    def from_decomposition(cls, decomposition: Decomposition) -> "InputEnsemble":
        return cls(priors=(0.5, 0.5), states=tuple(decomposition.projectors))


def _holevo(priors, outputs: np.ndarray) -> np.ndarray:
    """holevo_chi over a stack of ensembles: outputs (..., m, d, d) -> (...), one entropy pass."""
    p = np.asarray(priors, dtype=float)
    avg = np.einsum("j,...jab->...ab", p, outputs)
    S = _entropies(np.concatenate([outputs, avg[..., None, :, :]], axis=-3))
    return S[..., -1] - S[..., :-1] @ p


def holevo_chi(priors, states) -> float:
    """S(sum_j p_j rho_j) - sum_j p_j S(rho_j), in bits."""
    return float(_holevo(priors, np.asarray(states, dtype=complex)))


def _half_trace_square(ops: np.ndarray) -> np.ndarray:
    """(1/2) Tr[A^2] for a stack of Hermitian operators (..., d, d)."""
    return 0.5 * np.einsum("...kl,...lk->...", ops, ops).real


def _coerce_decomposition(basis) -> Decomposition:
    if isinstance(basis, Decomposition):
        return basis
    if isinstance(basis, str):
        try:
            return {"x": Decomposition.x_basis, "y": Decomposition.y_basis, "z": Decomposition.z_basis}[basis]()
        except KeyError:
            raise ValueError(f"unknown basis name {basis!r}") from None
    return Decomposition.from_direction(basis)


def holevo_direct(basis, params: ModelParams, t: float) -> float:
    """Information about the basis record still held by the molecule after t."""
    ens = InputEnsemble.from_decomposition(_coerce_decomposition(basis))
    return float(_holevo(ens.priors, apply_ptm(propagator_closed_form(params, t), np.array(ens.states))))


def holevo_complementary(basis, params: ModelParams, t: float) -> float:
    """Information about the basis record carried off by the collisions up to t."""
    ens = InputEnsemble.from_decomposition(_coerce_decomposition(basis))
    return float(_holevo(ens.priors, complementary_outputs(propagator_closed_form(params, t), np.array(ens.states))))


def entropy_exchange(params: ModelParams, t: float, initial=None) -> float:
    """Entropy picked up by a fresh environment over [0, t], in bits.

    Equals the von Neumann entropy of the complementary channel's output for
    the given initial state (maximally mixed by default).
    """
    if initial is None:
        initial = np.eye(2, dtype=complex) / 2.0
    out = complementary_outputs(propagator_closed_form(params, t), np.asarray(initial, dtype=complex)[None])
    return float(_entropies(out[0]))


def _record_information(entries: np.ndarray, tol: float) -> np.ndarray:
    """Mutual information between the two records of consistent two-time families.

    entries is one or a stack of (4, 4) decoherence matrices; any family of
    the stack that fails the consistency check raises ValueError.
    """
    w, max_offdiag = checked_weights(entries)
    if np.any(max_offdiag >= tol):
        raise ValueError(
            f"family is not consistent (max off-diagonal {np.max(max_offdiag):.3e}); "
            "its weights are not a joint distribution"
        )
    # [second outcome, first outcome]; the information is symmetric in the two
    joint = (np.clip(w, 0.0, None) / w.sum(axis=-1, keepdims=True)).reshape(w.shape[:-1] + (2, 2))
    indep = joint.sum(axis=-1, keepdims=True) * joint.sum(axis=-2, keepdims=True)
    seen = joint > 0.0
    ratio = np.where(seen, joint, 1.0) / np.where(seen, indep, 1.0)
    return (joint * np.log2(ratio)).sum(axis=(-2, -1))


def mutual_information_family(family: HistoryFamily, initial=None, tol: float = 1e-8) -> float:
    """Classical mutual information between the two records of a two-time family.

    Requires f = 2 and a consistent family; the weights then form a genuine
    joint distribution over the four outcome pairs.
    """
    if family.f != 2:
        raise ValueError("mutual information needs exactly two history times")
    return float(_record_information(decoherence_functional(family, initial).entries, tol))


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

    The second-time basis defaults to the forward flow image of the first;
    a caller-supplied target is accepted only after passing the forward span
    condition, otherwise ForwardConditionError is raised.  The residual is
    |I(record_1 : record_2) - holevo_direct| and should sit at roundoff.
    """
    d0 = _coerce_decomposition(basis)
    if t <= 0:
        raise ValueError("need a positive time separation")
    if target is None:
        moved = exact_direction(d0.bloch_direction, params, FORWARD, t)
        d1 = Decomposition.from_direction(moved)
    else:
        d1 = _coerce_decomposition(target)
        cond = check_forward_condition([d0, d1], params, np.array([0.0, t]))
        if not cond.passed:
            raise ForwardConditionError(
                f"target basis misses the forward flow image by {cond.max_residual:.3e}"
            )
    family = HistoryFamily(params=params, times=np.array([0.0, t]), decompositions=(d0, d1))
    mi = mutual_information_family(family)
    hol = holevo_direct(d0, params, t)
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
    d1 = _coerce_decomposition(basis)
    d2 = _coerce_decomposition(conjugate_basis)
    for P in d1.projectors:
        for Q in d2.projectors:
            if abs(np.trace(P @ Q).real - 0.5) > 1e-10:
                raise ValueError("bases are not mutually unbiased")
    direct = holevo_direct(d1, params, t)
    leaked = holevo_complementary(d2, params, t)
    slack = 1.0 - direct - leaked
    return MubBoundReport(
        holevo_direct=direct,
        holevo_complementary=leaked,
        slack=slack,
        passed=slack > -1e-9,
    )


def quadratic_information(basis, params: ModelParams, t: float, which: str = "direct"):
    """Purity-based proxy (1/2) Tr[ channel(sigma_W)^2 ] and its initial slope.

    sigma_W = n . sigma = P0 - P1 for the basis direction n.  Returns (value
    at t, slope at t = 0); the slope uses a second order one-sided
    difference so no negative times are ever required.  All four times go
    through the channel in one stack.
    """
    P = np.array(_coerce_decomposition(basis).projectors)
    if which not in ("direct", "complementary"):
        raise ValueError("which must be 'direct' or 'complementary'")
    h = 1e-6
    T = propagator_closed_form(params, np.array([float(t), 0.0, h, 2.0 * h]))
    outs = apply_ptm(T[:, None], P) if which == "direct" else complementary_outputs(T, P)
    q = _half_trace_square(outs[:, 0] - outs[:, 1])
    return float(q[0]), float((-3.0 * q[1] + 4.0 * q[2] - q[3]) / (2.0 * h))


def short_time_leak_model(params: ModelParams, t: float) -> float:
    """Leading small-time behavior of the leaked information, in bits.

    The environment picks up g t ln(1/(g t)) + g t nats (g the collision
    rate) before oscillation corrections kick in.
    """
    x = params.gamma * t
    if x <= 0:
        return 0.0
    return (x * math.log(1.0 / x) + x) / _LN2


@dataclass(frozen=True)
class InfoReport:
    """Named information curves on a common time grid."""

    params: ModelParams
    times: np.ndarray
    curves: dict

    def cross_equality_residual(self) -> float:
        """Largest gap between the two direct-plus-leaked pairings of x and z."""
        return float(np.abs(self.curves["sum_zx"] - self.curves["sum_xz"]).max())

    def to_csv(self) -> str:
        keys = list(self.curves)
        lines = ["t," + ",".join(keys)]
        for k, t in enumerate(self.times):
            row = ",".join(f"{self.curves[key][k]:.17g}" for key in keys)
            lines.append(f"{t:.17g},{row}")
        return "\n".join(lines) + "\n"


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
    if np.any(times < 0):
        raise ValueError("times must be non-negative")
    T = propagator_closed_form(params, times)
    ens = [InputEnsemble.from_decomposition(_coerce_decomposition(b)) for b in "xz"]
    P = np.array([e.states for e in ens])  # [basis, arm, 2, 2]
    env = complementary_outputs(T, P.reshape(4, 2, 2)).reshape(T.shape[:-2] + (2, 2, 4, 4))
    direct = np.zeros_like(env)  # 2x2 outputs padded with zeros, which add no entropy
    direct[..., :2, :2] = apply_ptm(T[..., None, None, :, :], P)
    chi = _holevo(ens[0].priors, np.stack([direct, env], axis=-5))  # [time, channel, basis]
    xd, zd, xc, zc = chi[..., 0, 0], chi[..., 0, 1], chi[..., 1, 0], chi[..., 1, 1]
    cols = {
        "chi_x_direct": xd,
        "chi_z_direct": zd,
        "chi_x_comp": xc,
        "chi_z_comp": zc,
        "sum_zx": zd + xc,
        "sum_xz": xd + zc,
        "quad_z_direct": _half_trace_square(direct[..., 1, 0, :, :] - direct[..., 1, 1, :, :]),
        "quad_x_comp": _half_trace_square(env[..., 0, 0, :, :] - env[..., 0, 1, :, :]),
    }
    if family_basis is not None:
        first = _coerce_decomposition(family_basis)
        second = projector_pairs(flow_unit_vectors(first.bloch_direction, params, FORWARD, times))
        entries = decoherence_entries([T], [np.array(first.projectors), second])
        cols["mutual_info"] = _record_information(entries, CONSISTENCY_TOL)
    return InfoReport(params=params, times=times, curves=cols)


def unital_holevo_closed_form(transported_length: float) -> float:
    """1 - h2((1 + r)/2) for a unital qubit channel with output radius r."""
    if not 0.0 <= transported_length <= 1.0 + 1e-12:
        raise ValueError("transported Bloch length out of range")
    r = min(transported_length, 1.0)
    return 1.0 - binary_entropy(0.5 * (1.0 + r))
