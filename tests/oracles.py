"""Independent routes that the tests hold the library against.

tunnelmol computes each quantity by one production route.  The definitions
here compute the same quantities another way, or build the fixtures those
checks need, and only the tests import them:

  * propagator_numeric integrates dT/dt = S T from the identity with scipy's
    DOP853; it cross-checks ptm.propagator_closed_form.  eigen_system gives
    the generator's eigenvalues and left/right eigenvectors in closed form,
    for the spectral relations and the spectral rebuild of the propagator.
  * state_from_bloch and bloch_from_state turn Bloch vectors into density
    operators and back, the test fixtures for every state-based check.
  * apply_ptm acts with a PTM on any 2x2 operator through its Pauli
    coefficients, the transfer-matrix route that Kraus sums and chain
    operators are held against.
  * exact_direction is the closed-form family flow at one time, the 0-d case
    of FamilyTrajectory.direction_at, for placing single bases on a family.
    family_ode_step integrates the family angle ODEs adaptively, and
    family_closed_form evaluates them in the tangent variables
    mu = tan phi, nu = tan theta; both cross-check that closed-form flow.
  * check_forward_condition applies T3 to each earlier diameter, and
    check_backward_condition applies T3^T to each later one; they check that
    each flow satisfies its own span condition and not the other one.
  * bloch_block is the 3x3 block S3 of the generator, for expm references of
    the family flows.
  * The Choi route: ptm_to_choi builds the Choi matrix of a PTM stack by
    one contraction with a constant tensor, choi_eigenvalues takes its
    spectrum from one stacked eigvalsh, and leaked_square_choi and
    quadratic_slopes_choi contract it with (n.sigma)^T (x) I.  Over the
    rate pairs of RATE_GRID they check the closed forms of
    channels.choi_spectrum and of the quadratic proxies and their initial
    slopes in info_flow.
  * The one-map channel route, choi_to_kraus, stinespring_isometry,
    complementary_channel and complementary_apply, builds the literal
    Stinespring dilation of one PTM and traces the system out of it.
    complementary_outputs takes the same route for a stack of PTMs: one
    stacked Choi eigh gives the Kraus operators of every map, and the
    environment outputs are their overlaps; the two cross-check each other.
    choi_to_ptm, kraus_to_ptm and bit_flip_kraus close the PTM -> Choi ->
    Kraus -> PTM loop and give the analytic omega = 0 channel.
  * The definition route of the information curves: binary_entropy,
    von_neumann_entropy (eigenvalues of the state), holevo_chi and
    InputEnsemble.  Fed with the explicit outputs of the dilation, they
    check the closed forms of info_flow.
  * entropy_exchange is the entropy of the complementary output, checked
    against explicit Kraus overlaps.
  * unital_holevo_closed_form is 1 - h2((1 + r)/2), the closed form that
    the direct information of info_flow and the record mutual information
    must reach.  short_time_leak_model is the leading small-time law of the
    leaked x information.
  * leaked_information_mp is the leaked Holevo information at 60 digits
    with mpmath: the propagator from its 2x2 block exponential, the Choi
    matrix term by term, and its spectrum from mpmath's Hermitian solver.
    quadratic_slopes_mp takes the initial slopes of the quadratic proxies
    as a 50-digit one-sided difference of the same propagator and Choi
    matrix.
  * decoherence_entries_mp is the decoherence functional by brute force at
    40 digits with mpmath: every branch operator as a 2x2 matrix, the PTM
    applied to its Pauli coefficients.  It checks the pair chain of
    histories.decoherence_entries.
  * The functional-fitted Markov route: fitted_markov_chain takes the
    marginals and pair conditionals of a family's normalized weights (with
    0.5 in a column the chain cannot reach) and the defect of their product;
    record_information_from_entries is the mutual information of a two-time
    family read off its validated 4x4 decoherence functional.  They check histories.chain_kernel,
    markov_from_family and the record information of info_flow.
  * classical_collision_average averages collision-count-conditioned
    transition matrices, which the tests hold against the telegraph flip
    probability.
  * The row-major telegraph route: row_major_draw draws the sampler's
    streams a trajectory per row, from the Philox array kernel alone, and
    searchsorted_bins bins an ensemble's flips by np.searchsorted on the
    query Lambdas.  They check the (words, live) pass layout of
    trajectories._draw and its table-lookup binning bit for bit.  arm_at
    reads one trajectory's arm at each query time from its flip times by
    np.searchsorted, the per-trajectory count that ensemble_average is held
    against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from tunnelmol.channels import _NONCP_THRESHOLD, NonCPError
from tunnelmol.families import BACKWARD, FORWARD, BlochDirection, _as_direction, _as_unit_vector, _flow
from tunnelmol.histories import Decomposition, chain_kernel, checked_weights
from tunnelmol.ptm import (
    PAULIS,
    UNDERDAMPED,
    ModelParams,
    _damping,
    generator,
    operator_from_pauli,
    pauli_coefficients,
    propagator_closed_form,
)
from tunnelmol.trajectories import _philox4x64

# tangent values beyond this mean the closed form left its branch
_TANGENT_LIMIT = 1e12
# exponents beyond this overflow the tangent form's cosh / sinh / exp kernels
_KERNEL_LIMIT = 700.0
# Choi eigenvalues at or below this count as numerically zero and give no Kraus operator
SIGNIFICANT_EIGENVALUE = 1e-10
# state eigenvalues below this are a genuine negativity, not roundoff
_EIG_FLOOR = -1e-8


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


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Spectral data of the generator S.

    eigenvalues   (lambda_1, lambda_2, lambda_3, lambda_4) =
                  (0, -gamma + xi, -gamma - xi, -2 gamma), with xi -> i eta
                  in the underdamped regime.
    left, right   unnormalized row/column eigenvectors, one row per eigenvalue,
                  ordered like the eigenvalues.  They are biorthogonal except
                  exactly at criticality, where the middle pair coalesces
                  (the generator becomes a Jordan block and loses a proper
                  eigenbasis).
    """

    params: ModelParams
    eigenvalues: np.ndarray
    left: np.ndarray
    right: np.ndarray
    regime: str = ""


def eigen_system(params: ModelParams) -> EigenSystem:
    """Eigenvalues and left/right eigenvectors of the generator S.

    lambda_2 is evaluated as -omega^2/(gamma + xi), algebraically identical to
    -gamma + xi but free of cancellation when gamma >> omega (the slow rate
    can be fifteen orders of magnitude below gamma for realistic molecules).
    Consequently -lambda_2/2 reproduces the slow equatorial decay rate exactly
    in floating point.
    """
    om, g = params.omega, params.gamma
    _, root, slow, fast = _damping(g, om)
    if params.regime == UNDERDAMPED:
        disc = 1j * root
        lam2, lam3 = -g + disc, -g - disc
    else:
        disc = complex(root)
        lam2, lam3 = -slow, -fast
    lams = np.array([0.0, lam2, lam3, -2.0 * g], dtype=complex)
    # middle pair: for lambda = -gamma +/- xi the left row vector is
    # (0, -(gamma +/- xi), omega, 0) and the right one (0, gamma +/- xi, omega, 0)
    left = np.zeros((4, 4), dtype=complex)
    right = np.zeros((4, 4), dtype=complex)
    left[0] = right[0] = np.array([1, 0, 0, 0])
    left[3] = right[3] = np.array([0, 0, 0, 1])
    left[1] = np.array([0, -(g + disc), om, 0])
    right[1] = np.array([0, g + disc, om, 0])
    left[2] = np.array([0, disc - g, om, 0])
    right[2] = np.array([0, g - disc, om, 0])
    return EigenSystem(params=params, eigenvalues=lams, left=left, right=right, regime=params.regime)


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


def apply_ptm(ptm: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Apply a PTM to an arbitrary 2x2 complex operator.

    Decomposes op over the Pauli basis, multiplies the (complex) coefficient
    vector by the real 4x4 matrix, and reassembles.  Linear in op, so it acts
    correctly on the non-Hermitian chain operators that show up inside the
    decoherence functional.  PTM stacks (..., 4, 4) and operator stacks
    (..., 2, 2) broadcast against each other.
    """
    coeffs = pauli_coefficients(op)[..., None]
    return operator_from_pauli((np.asarray(ptm) @ coeffs)[..., 0])


def bloch_block(params: ModelParams) -> np.ndarray:
    """Lower-right 3x3 block S3 of the generator (the traceless-sector flow)."""
    return generator(params)[1:, 1:]


def exact_direction(initial, params: ModelParams, direction: str, t: float) -> BlochDirection:
    """Family direction at one time t >= 0, by the closed-form flow of the families module.

    forward:  n(t) prop exp(t S3) n(0);  backward:  n(t) prop exp(-t S3^T) n(0).
    The angles are the continuous ones the ODEs integrate to: phi unwrapped
    from the initial azimuth, theta on the branch of the initial polar angle.
    """
    theta, phi, _, _ = _flow(_as_direction(initial), params, direction, np.asarray(t, dtype=float))
    return BlochDirection(theta=float(theta), phi=float(phi))


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


@dataclass(frozen=True)
class ConditionReport:
    """Result of a span-condition check along a decomposition sequence."""

    passed: bool
    max_residual: float
    residuals: tuple
    direction: str


def check_forward_condition(decomp_sequence, params: ModelParams, times, tol: float = 1e-8) -> ConditionReport:
    """Does T map each basis span into the next one?

    For consecutive instants the image of the earlier diameter under the
    3x3 Bloch block must be parallel to the later diameter; the residual is
    the Euclidean norm of the orthogonal component of that image, the gap
    residual of histories.chain_kernel.  One propagator stack covers all gaps.
    """
    units = np.array([_as_unit_vector(d) for d in decomp_sequence]).reshape(-1, 3)
    times = np.asarray(times, dtype=float)
    if len(units) != len(times) or not len(times):
        raise ValueError("need at least one time, and one decomposition per time")
    T3 = propagator_closed_form(params, np.diff(times))[:, 1:, 1:]
    resids = chain_kernel(units, T3, np.zeros(3))[2][1:]
    mx = float(np.max(resids, initial=0.0))
    return ConditionReport(passed=mx < tol, max_residual=mx, residuals=tuple(resids.tolist()), direction=FORWARD)


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


# -- the Choi route -------------------------------------------------------------

# rate pairs (omega, gamma) across the model: gamma/omega from 0.1 to 5e7 at
# omega = 1 with the critical point and just above it, D2S2 itself, and the
# two pure limits gamma = 0 and omega = 0
RATE_GRID = (
    *((1.0, r) for r in (0.1, 0.5, 1.0, 1.0 + 1e-9, 1.0 + 1e-6, 2.0, 10.0, 1e3, 1e5, 9e9 / 176.0, 5e7)),
    (176.0, 9e9),
    (1.0, 0.0),
    (0.0, 1.0),
)

# Choi matrix of the map with PTM e_k e_l^T: block (i, j) is sigma_k c_l(|i><j|),
# c_l(|i><j|) = (sigma_l)_{ji} / 2; rows are (i, a), columns (j, b)
_CHOI_BASIS = (np.einsum("kab,lji->kliajb", PAULIS, PAULIS) / 2.0).reshape(4, 4, 4, 4)


def ptm_to_choi(ptm: np.ndarray) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) T(|i><j|) of a PTM, or of a stack (..., 4, 4); trace = 2 * ptm[0,0]."""
    return np.einsum("...kl,klrc->...rc", np.asarray(ptm, dtype=float), _CHOI_BASIS)


def choi_eigenvalues(choi: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Choi stack (..., 4, 4), ascending, from one stacked eigvalsh.

    Roundoff below zero is clipped to 0; an eigenvalue below -1e-6 anywhere
    in the stack raises NonCPError.
    """
    w = np.linalg.eigvalsh(choi)
    if w.size and w.min() < _NONCP_THRESHOLD:
        raise NonCPError(f"Choi matrix has eigenvalue {w.min():.3e}; map is not completely positive")
    return np.clip(w, 0.0, None)


def _parity_operator(n) -> np.ndarray:
    """M = (n.sigma)^T (x) I, which acts on the input factor of a Choi matrix."""
    return np.kron(np.einsum("i,iab->ba", np.asarray(n, dtype=float), PAULIS[1:]), np.eye(2))


def leaked_square_choi(choi: np.ndarray, n) -> np.ndarray:
    """(1/2) Tr[T^c(n.sigma)^2] = (1/2) Tr[(M C)^2] for a Choi stack (..., 4, 4).

    With rows of C indexed (i, a), T^c(A) has the Gram entries Tr(K_k A K_l^dag)
    of any Kraus set, and sum_kl |Tr(K_k A K_l^dag)|^2 = Tr[((A^T (x) I) C)^2].
    """
    MC = _parity_operator(n) @ choi
    return 0.5 * np.einsum("...ij,...ji->...", MC, MC).real


def quadratic_slopes_choi(S: np.ndarray, n) -> tuple[float, float]:
    """Initial slopes (direct, complementary) of the quadratic proxies, from the Choi matrix C(S) of the generator.

    T(0) = I, T'(0) = S and the Choi map is linear, so with A = n.sigma and
    M = A^T (x) I: d/dt (1/2) Tr[T(A)^2] = Tr[A S(A)] with S(A) =
    Tr_in[C(S) M], and d/dt (1/2) Tr[(M C(T))^2] = Tr[M C(I) M C(S)].
    """
    M = _parity_operator(n)
    CS = ptm_to_choi(S)
    A = np.einsum("i,iab->ab", np.asarray(n, dtype=float), PAULIS[1:])
    SA = np.einsum("iaib->ab", (CS @ M).reshape(2, 2, 2, 2))
    return float(np.trace(A @ SA).real), float(np.trace(M @ ptm_to_choi(np.eye(4)) @ M @ CS).real)


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


# -- information and classical averages ---------------------------------------


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


def short_time_leak_model(params: ModelParams, t: float) -> float:
    """Leading small-time behavior of the leaked x information, in bits.

    The environment picks up g t ln(1/(g t)) + g t nats (g the collision
    rate) before oscillation corrections kick in.
    """
    x = params.gamma * t
    if x <= 0:
        return 0.0
    return (x * math.log(1.0 / x) + x) / math.log(2.0)


def _propagator_mp(mp, omega, gamma, t):
    """T(t) as a 4x4 mpmath matrix at the working precision, from the 2x2 block exponential.

    The x-y block of the propagator is e^{-gamma t} [cosh(xi t) I +
    sinh(xi t)/xi N] with N = [[gamma, -omega], [omega, -gamma]], N^2 = xi^2 I.
    """
    om, g, t = mp.mpf(omega), mp.mpf(gamma), mp.mpf(t)
    xi = mp.sqrt(mp.mpc(g * g - om * om))
    damp = mp.exp(-g * t)
    c = damp * mp.cosh(xi * t)
    s = damp * (mp.sinh(xi * t) / xi if xi != 0 else t)
    T = mp.zeros(4, 4)
    T[0, 0] = 1
    for (i, j), v in {(0, 0): c + s * g, (0, 1): -s * om, (1, 0): s * om, (1, 1): c - s * g}.items():
        T[1 + i, 1 + j] = mp.re(v)
    T[3, 3] = mp.exp(-2 * g * t)
    return T


def _choi_mp(mp, T):
    """The Choi matrix of an mpmath PTM, term by term, laid out as in ptm_to_choi."""
    paulis = [mp.matrix(P.tolist()) for P in PAULIS]
    # rows (i, a), columns (j, b): C = (1/2) sum_kl T_kl (sigma_l)_ji (sigma_k)_ab
    C = mp.zeros(4, 4)
    for k in range(4):
        for l in range(4):
            for i, j, a, b in np.ndindex(2, 2, 2, 2):
                C[2 * i + a, 2 * j + b] += T[k, l] * paulis[l][j, i] * paulis[k][a, b] / 2
    return C


def leaked_information_mp(omega: float, gamma: float, t: float, n) -> float:
    """H(lambda/2) - (1/2) sum_+- S(t +- T3 n) in bits, evaluated with mpmath at 60 digits.

    The arguments are taken at their exact binary values.
    """
    import mpmath as mp

    with mp.workdps(60):
        T = _propagator_mp(mp, omega, gamma, t)
        C = _choi_mp(mp, T)

        def shannon(ps):
            return -sum(p * mp.log(p, 2) for p in ps if p > 0)

        exchange = shannon([mp.re(lam) / 2 for lam in mp.eighe(C, eigvals_only=True)])
        arms = 0
        for sign in (1, -1):
            b = [T[1 + i, 0] + sign * sum(T[1 + i, 1 + j] * mp.mpf(n[j]) for j in range(3)) for i in range(3)]
            r = mp.sqrt(sum(x * x for x in b))
            arms += shannon([(1 + r) / 2, (1 - r) / 2]) / 2
        return float(exchange - arms)


def quadratic_slopes_mp(omega: float, gamma: float, n) -> tuple[float, float]:
    """Initial slopes (direct, complementary) of the quadratic proxies as a 50-digit difference.

    The proxies |T3 n|^2 and (1/2) Tr[(M C)^2], M = (n.sigma)^T (x) I, are
    evaluated with mpmath at t = 0, h and 2h, h = 1e-15 / max(1, omega,
    gamma), and differenced to second order, (-3 q0 + 4 q1 - q2)/(2h): the
    truncation error is about (gamma h)^2, far below double precision.
    """
    import mpmath as mp

    with mp.workdps(50):
        h = mp.mpf(1e-15) / max(1.0, omega, gamma)
        v = [mp.mpf(x) for x in n]
        A = sum(x * mp.matrix(P.tolist()) for x, P in zip(v, PAULIS[1:]))
        M = mp.zeros(4, 4)
        for i, j, a in np.ndindex(2, 2, 2):
            M[2 * i + a, 2 * j + a] = A[j, i]
        direct, comp = [], []
        for t in (0, h, 2 * h):
            T = _propagator_mp(mp, omega, gamma, t)
            direct.append(sum(sum(T[1 + i, 1 + j] * v[j] for j in range(3)) ** 2 for i in range(3)))
            MC = M * _choi_mp(mp, T)
            comp.append(mp.re(sum((MC * MC)[k, k] for k in range(4))) / 2)
        return tuple(float((-3 * q[0] + 4 * q[1] - q[2]) / (2 * h)) for q in (direct, comp))


def decoherence_entries_mp(transfers, units, initial) -> np.ndarray:
    """D(alpha, beta) by brute force at 40 digits, as decoherence_entries lays it out.

    transfers (f - 1, 4, 4), units (f, 3) and the initial Bloch vector are
    taken at their exact binary values, and each n is normalised at 40
    digits.  Every branch operator P_{a_k} T(...) P_{b_k} is a 2x2 mpmath
    matrix; each PTM acts on its Pauli coefficients Tr(sigma_j X)/2, and
    D is the trace of the last branch.  The result is rounded to complex128.
    """
    import mpmath as mp

    with mp.workdps(40):
        paulis = [mp.matrix(P.tolist()) for P in PAULIS]

        def transfer(T, X):
            c = [sum(P[j, i] * X[i, j] for i in range(2) for j in range(2)) / 2 for P in paulis]
            out = mp.zeros(2, 2)
            for k in range(4):
                out += sum(mp.mpf(T[k, l]) * c[l] for l in range(4)) * paulis[k]
            return out

        def bloch_operator(r):
            return (paulis[0] + sum(mp.mpf(x) * P for x, P in zip(r, paulis[1:]))) / 2

        branches = {((), ()): bloch_operator(initial)}
        for m, n in enumerate(units):
            if m:
                branches = {key: transfer(transfers[m - 1], X) for key, X in branches.items()}
            v = [mp.mpf(x) for x in n]
            norm = mp.sqrt(sum(x * x for x in v))
            P = (bloch_operator([x / norm for x in v]), bloch_operator([-x / norm for x in v]))
            branches = {
                (alpha + (a,), beta + (b,)): P[a] * X * P[b]
                for (alpha, beta), X in branches.items()
                for a in range(2)
                for b in range(2)
            }
        D = np.empty((2 ** len(units),) * 2, dtype=complex)
        for (alpha, beta), X in branches.items():
            i, j = (sum(a << k for k, a in enumerate(bits)) for bits in (alpha, beta))
            D[i, j] = complex(X[0, 0] + X[1, 1])
        return D


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


# -- the functional-fitted Markov route ---------------------------------------


def fitted_markov_chain(weights, f: int) -> tuple[np.ndarray, tuple, float]:
    """(p1, transitions, factorization error) fitted to a family's normalized weights (2^f, little-endian).

    p1 is the first-time marginal; each transition is the pair marginal of
    neighboring times over the marginal of the earlier one, column-stochastic
    [next, now], with 0.5 in a column whose state has no weight; the error is
    the largest deviation of their product from the weights.
    """
    W = np.asarray(weights, dtype=float).reshape((2,) * f, order="F")
    p1 = W.reshape(2, -1).sum(axis=1)
    transitions = []
    for m in range(f - 1):
        pair = W.sum(axis=tuple(a for a in range(f) if a not in (m, m + 1)))  # [now, next]
        now = pair.sum(axis=1)
        M = np.full((2, 2), 0.5)
        for j in range(2):
            if now[j] > 1e-15:
                M[:, j] = pair[j, :] / now[j]
        transitions.append(M)
    # p1[a_1] M_1[a_2, a_1] ... over every history, first time on the first axis
    product = p1
    for m, M in enumerate(transitions):
        product = product[..., None] * M.T.reshape((1,) * m + (2, 2))
    return p1, tuple(transitions), float(np.abs(product - W).max())


def record_information_from_entries(entries: np.ndarray, tol: float) -> np.ndarray:
    """Mutual information between the two records of consistent two-time families, from their functionals.

    entries is one or a stack of (4, 4) decoherence matrices; any family of
    the stack that fails the consistency check raises ValueError.
    """
    w, max_offdiag = checked_weights(entries)
    if np.any(max_offdiag >= tol):
        raise ValueError(f"family is not consistent (max off-diagonal {np.max(max_offdiag):.3e})")
    # [second outcome, first outcome]; the information is symmetric in the two
    joint = (np.clip(w, 0.0, None) / w.sum(axis=-1, keepdims=True)).reshape(w.shape[:-1] + (2, 2))
    indep = joint.sum(axis=-1, keepdims=True) * joint.sum(axis=-2, keepdims=True)
    seen = joint > 0.0
    ratio = np.where(seen, joint, 1.0) / np.where(seen, indep, 1.0)
    return (joint * np.log2(ratio)).sum(axis=(-2, -1))


# -- the row-major telegraph route ----------------------------------------------


def row_major_draw(family, config, indices):
    """(initial-arm uniforms, flat running sums below Lambda(t_end), offsets), a trajectory per row.

    The same streams as trajectories._draw: block b of trajectory i is
    Philox4x64-10 at counter (i, b, 0, 0), word 0 of block 0 sets the arm and
    every later word u gives the unit exponential -log1p(-u).  Each pass
    lays the next run of blocks of every live trajectory out as a row, sums
    along it and scatters the rows' pieces by repeat.
    """
    total = float(family.rate_integral[-1])
    if family.params.gamma == 0.0 or not total > 0.0:
        total = 0.0
    key = (int(config.seed) % 2**64, int(config.seed) >> 64)
    index = np.asarray(indices, dtype=np.uint64)
    n = len(index)
    live, carry = np.arange(n), np.zeros(n)
    counts = np.zeros(n, dtype=np.int64)
    passes = []
    block, run = 0, 1
    while live.size:
        blocks = np.arange(block, block + run, dtype=np.uint64)
        words = np.stack(_philox4x64((index[live][:, None], blocks, 0, 0), key), axis=-1).reshape(live.size, -1)
        u = (words >> np.uint64(11)) * 2.0**-53
        if block == 0:
            arm_u = u[:, 0].copy()
            u = u[:, 1:]
        sums = -np.log1p(-u)
        sums[:, 0] += carry[live]
        sums = np.cumsum(sums, axis=1)
        below = sums < total
        found = np.count_nonzero(below, axis=1)
        passes.append((live, counts[live], found, sums[below]))
        counts[live] += found
        carry[live] = sums[:, -1]
        live = live[below[:, -1]]
        block += run
        run *= 2
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    flat = np.empty(offsets[-1])
    for rows, before, found, piece in passes:
        first = offsets[rows] + before - (np.cumsum(found) - found)
        flat[np.repeat(first, found) + np.arange(len(piece))] = piece
    return arm_u, flat, offsets


def searchsorted_bins(ens, sorted_times: np.ndarray) -> np.ndarray:
    """For each flip of ens, how many of the sorted query times come strictly before it.

    Flips at sums farther than tol from every query's Lambda are binned by
    np.searchsorted on those Lambdas; the rest by their inverted clock times.
    """
    family, s = ens.family, ens.flip_sums
    lam = np.maximum.accumulate(family.rate_integral_at(sorted_times))
    bins = np.searchsorted(lam, s, side="left")
    params = family.params
    tol = 1e-9 * (1.0 + (params.gamma + params.omega) * float(family.times[-1]))
    padded = np.concatenate(([-np.inf], lam, [np.inf]))
    near = np.flatnonzero((padded[bins + 1] - s <= tol) | (s - padded[bins] <= tol))
    bins[near] = np.searchsorted(sorted_times, ens.flip_times(near), side="left")
    return bins


def arm_at(initial_arm: int, flip_times: np.ndarray, times) -> np.ndarray:
    """Arm (0 or 1) of one trajectory at each query time; a flip instant already shows the new arm."""
    return (initial_arm + np.searchsorted(flip_times, np.asarray(times, dtype=float), side="right")) % 2
