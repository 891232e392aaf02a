"""Independent routes that the tests hold the library against.

tunnelmol computes each quantity by one production route.  The definitions
here compute the same quantities another way, or build the fixtures those
checks need, and only the tests import them:

  * propagator_numeric integrates dT/dt = S T from the identity with scipy's
    DOP853; it cross-checks ptm.propagator_closed_form.
  * state_from_bloch and bloch_from_state turn Bloch vectors into density
    operators and back, the test fixtures for every state-based check.
  * family_ode_step integrates the family angle ODEs adaptively, and
    family_closed_form evaluates them in the tangent variables
    mu = tan phi, nu = tan theta; both cross-check the closed-form flow
    behind families.exact_direction and FamilyTrajectory.
  * check_backward_condition applies T3^T to each later diameter; it checks
    that the backward flow satisfies the adjoint span condition, and that
    the forward flow does not.
  * bloch_block is the 3x3 block S3 of the generator, for expm references of
    the family flows.
  * The one-map channel route, choi_to_kraus, stinespring_isometry,
    complementary_channel and complementary_apply, builds the literal
    Stinespring dilation of one PTM and traces the system out of it; it
    cross-checks the stacked channels.complementary_outputs.  choi_to_ptm,
    kraus_to_ptm and bit_flip_kraus close the PTM -> Choi -> Kraus -> PTM
    loop and give the analytic omega = 0 channel.
  * entropy_exchange is the entropy of the complementary output, checked
    against explicit Kraus overlaps.
  * unital_holevo_closed_form is 1 - h2((1 + r)/2), the closed form that
    info_flow.holevo_direct and the record mutual information must reach.
  * classical_collision_average averages collision-count-conditioned
    transition matrices, which the tests hold against the telegraph flip
    probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from tunnelmol.channels import _NONCP_THRESHOLD, SIGNIFICANT_EIGENVALUE, NonCPError, complementary_outputs, ptm_to_choi
from tunnelmol.families import BACKWARD, FORWARD, BlochDirection, ConditionReport, _as_direction
from tunnelmol.info_flow import binary_entropy, von_neumann_entropy
from tunnelmol.ptm import PAULIS, ModelParams, generator, operator_from_pauli, pauli_coefficients, propagator_closed_form

# tangent values beyond this mean the closed form left its branch
_TANGENT_LIMIT = 1e12
# exponents beyond this overflow the tangent form's cosh / sinh / exp kernels
_KERNEL_LIMIT = 700.0


class IntegrationError(RuntimeError):
    """Adaptive integration failed (step-size underflow or solver breakdown)."""


class TangentBranchError(ValueError):
    """The tangent-space closed form hit a pole; integrate the ODE instead."""


# -- propagator and states ----------------------------------------------------


def propagator_numeric(params: ModelParams, t: float, rtol: float = 1e-12, atol: float = 1e-12) -> np.ndarray:
    """T(t) by adaptive integration of dT/dt = S T from the identity.

    Entirely independent of the closed form.  Raises IntegrationError if the
    adaptive solver gives up.
    """
    if t < 0:
        raise ValueError("propagator is defined for t >= 0")
    if t == 0.0:
        return np.eye(4)
    S = generator(params)

    def rhs(_t, y):
        return (S @ y.reshape(4, 4)).ravel()

    sol = solve_ivp(rhs, (0.0, t), np.eye(4).ravel(), method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise IntegrationError(f"propagator integration failed: {sol.message}")
    return sol.y[:, -1].reshape(4, 4)


def state_from_bloch(r: np.ndarray) -> np.ndarray:
    """Density operator (I + r . sigma)/2 from a Bloch vector with |r| <= 1."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValueError("Bloch vector must have three components")
    if np.linalg.norm(r) > 1.0 + 1e-9:
        raise ValueError("Bloch vector lies outside the unit ball")
    return operator_from_pauli(np.array([1.0, *r]) / 2.0)


def bloch_from_state(rho: np.ndarray) -> np.ndarray:
    """Bloch vector of a density operator (real part of the X,Y,Z coefficients)."""
    c = pauli_coefficients(rho)
    return 2.0 * c[1:].real


# -- family flows -------------------------------------------------------------


def bloch_block(params: ModelParams) -> np.ndarray:
    """Lower-right 3x3 block S3 of the generator (the traceless-sector flow)."""
    return generator(params)[1:, 1:]


def _ode_rhs(direction: str):
    s = +1.0 if direction == FORWARD else -1.0

    def rhs(_t, y, om, g):
        th, ph = y
        return (s * g * math.sin(2.0 * th) * math.cos(ph) ** 2, om - s * g * math.sin(2.0 * ph))

    return rhs


def family_ode_step(state: BlochDirection, params: ModelParams, direction: str, dt: float) -> BlochDirection:
    """Advance (theta, phi) by dt with adaptive integration (local error <= 1e-10)."""
    if dt == 0.0:
        return state
    sol = solve_ivp(
        _ode_rhs(direction),
        (0.0, dt),
        (state.theta, state.phi),
        args=(params.omega, params.gamma),
        method="DOP853",
        rtol=1e-12,
        atol=1e-12,
    )
    if not sol.success:
        raise IntegrationError(f"family ODE step failed: {sol.message}")
    return BlochDirection(theta=float(sol.y[0, -1]), phi=float(sol.y[1, -1]))


def _pole_time(params: ModelParams, q: float) -> float:
    """First t > 0 where the tangent closed form's denominator vanishes (inf if none)."""
    g, om = params.gamma, params.omega
    if g > om:
        xi = params.discriminant
        if q < -xi:
            return math.atanh(xi / (-q)) / xi
        return math.inf
    if g == om:
        return -1.0 / q if q < 0 else math.inf
    eta = params.discriminant
    return (math.atan(q / eta) + math.pi / 2.0) / eta


def family_closed_form(initial: BlochDirection, params: ModelParams, direction: str, t: float) -> BlochDirection:
    """Closed-form family direction in tangent variables mu = tan phi, nu = tan theta.

    Valid while phi stays on its branch (no crossing of +-pi/2 mod pi); at or
    past the pole, if a tangent magnitude exceeds 1e12, or where its cosh,
    sinh or exp kernels would overflow (xi t or gamma t beyond 700),
    TangentBranchError is raised and the caller should integrate the ODE
    instead.
    """
    th0, ph0 = initial.theta, initial.phi
    if abs(math.cos(ph0)) < 1e-12 or abs(math.cos(th0)) < 1e-12:
        raise TangentBranchError("initial angles sit on a tangent branch boundary")
    s = +1.0 if direction == FORWARD else -1.0
    om, g = params.omega, params.gamma
    mu0 = math.tan(ph0)
    nu0 = math.tan(th0)

    q = s * g - om * mu0
    tp = _pole_time(params, q)
    if t >= tp * (1.0 - 1e-12):
        raise TangentBranchError(f"closed form leaves its branch at t = {tp:.6g} <= requested t = {t:.6g}")

    # shared kernels C = cosh(xi t), Sh = sinh(xi t)/xi (trig branch for omega > gamma)
    u = (g * g - om * om) * t * t
    if u > _KERNEL_LIMIT**2 or s * g * t > _KERNEL_LIMIT:
        raise TangentBranchError("tangent closed form kernels overflow beyond xi t or gamma t = 700")
    if abs(u) < 1e-8:
        C = 1.0 + u / 2.0 + u * u / 24.0
        Sh = (1.0 + u / 6.0 + u * u / 120.0) * t
    elif u > 0:
        x = math.sqrt(u)
        C = math.cosh(x)
        Sh = math.sinh(x) / x * t
    else:
        x = math.sqrt(-u)
        C = math.cos(x)
        Sh = math.sin(x) / x * t

    mu = mu0 + (om - s * 2.0 * g * mu0 + om * mu0 * mu0) * Sh / (C + q * Sh)
    w = 1.0 + mu0 * mu0
    radicand = 1.0 + s * 2.0 * g * ((1.0 - mu0 * mu0) / w) * Sh * C + 2.0 * g * (g - s * 2.0 * om * mu0 / w) * Sh * Sh
    if radicand < 0.0:
        raise TangentBranchError("tangent closed form left its branch (negative radicand)")
    nu = nu0 * math.exp(s * g * t) * math.sqrt(radicand)
    if not (math.isfinite(mu) and math.isfinite(nu)) or max(abs(mu), abs(nu)) > _TANGENT_LIMIT:
        raise TangentBranchError("tangent magnitude exceeded 1e12; use the ODE route")

    # invert the tangents on the branch the initial angles live on
    phi = math.atan(mu) + math.pi * round((ph0 - math.atan(mu0)) / math.pi)
    theta = math.atan(nu) + math.pi * round((th0 - math.atan(nu0)) / math.pi)
    return BlochDirection(theta=theta, phi=phi)


def check_backward_condition(decomp_sequence, params: ModelParams, times, tol: float = 1e-8) -> ConditionReport:
    """Adjoint-map span condition: T^dag must pull each span back into the previous one.

    The adjoint superoperator of a PTM with respect to the Frobenius inner
    product is the transposed matrix in the Pauli basis, so the check applies
    T3^T to the later diameter; the residual is the component of that image
    orthogonal to the earlier diameter.
    """
    units = np.array([_as_direction(d).unit_vector for d in decomp_sequence]).reshape(-1, 3)
    T3 = propagator_closed_form(params, np.diff(np.asarray(times, dtype=float)))[:, 1:, 1:]
    w = (np.swapaxes(T3, -1, -2) @ units[1:, :, None])[..., 0]
    target = units[:-1] / np.linalg.norm(units[:-1], axis=-1, keepdims=True)
    resids = np.linalg.norm(w - np.sum(w * target, axis=-1, keepdims=True) * target, axis=-1)
    mx = float(np.max(resids, initial=0.0))
    return ConditionReport(passed=mx < tol, max_residual=mx, residuals=tuple(resids.tolist()), direction=BACKWARD)


# -- one-map channel route ----------------------------------------------------


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
        """Channel action sum_k K_k rho K_k^dag, independent of apply_ptm."""
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
    """PTM of a Kraus set."""
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


# -- information and classical averages ---------------------------------------


def entropy_exchange(params: ModelParams, t: float, initial=None) -> float:
    """Entropy picked up by a fresh environment over [0, t], in bits.

    Equals the von Neumann entropy of the complementary channel's output for
    the given initial state (maximally mixed by default).
    """
    if initial is None:
        initial = np.eye(2, dtype=complex) / 2.0
    out = complementary_outputs(propagator_closed_form(params, t), np.asarray(initial, dtype=complex)[None])
    return von_neumann_entropy(out[0])


def unital_holevo_closed_form(transported_length: float) -> float:
    """1 - h2((1 + r)/2) for a unital qubit channel with output radius r."""
    r = min(transported_length, 1.0)
    return 1.0 - binary_entropy(0.5 * (1.0 + r))


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
    for M in Ms:
        if np.any(M < -1e-12) or not np.allclose(M.sum(axis=0), 1.0, atol=1e-9):
            raise ValueError("matrices must be column-stochastic")
    out = np.zeros_like(Ms[0])
    for p, M in zip(pr, Ms):
        out += p * M
    return out
