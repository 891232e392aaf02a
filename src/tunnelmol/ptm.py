"""Pauli transfer matrices for a tunneling two-level system with collisional dephasing.

The model is a molecule whose two lowest states |R>, |L> (right/left well, the
sigma_x eigenstates) are connected by tunneling at angular frequency omega,
while environmental collisions monitor the x coordinate at rate gamma.  With
hbar = 1 the density operator obeys

    d rho / dt = -i (omega/2) [sigma_z, rho] + gamma (sigma_x rho sigma_x - rho).

Writing rho = (1/2) sum_j r_j sigma_j over the basis (I, X, Y, Z), the
coefficient vector evolves linearly, dr/dt = S r, with the real generator

    S = [[0,  0,    0,    0   ],
         [0,  0,   -omega, 0  ],
         [0,  omega, -2 gamma, 0],
         [0,  0,    0,   -2 gamma]].

The finite-time map T(t) = exp(t S) is a 4x4 real Pauli transfer matrix (PTM):
first row (1,0,0,0), because the map is trace preserving, and first column
(1,0,0,0)^T, because it is unital.  A closed form exists in every damping
regime.  Let xi = sqrt(gamma^2 - omega^2) (overdamped, gamma > omega),
eta = sqrt(omega^2 - gamma^2) (underdamped), and

    a(t) = cosh xi t + (gamma/xi) sinh xi t
    b(t) = (omega/xi) sinh xi t
    c(t) = cosh xi t - (gamma/xi) sinh xi t

(with cosh -> cos, sinh -> sin, xi -> eta when gamma < omega, and
a = 1 + gamma t, b = gamma t, c = 1 - gamma t at gamma = omega).  Then

    T(t) = [[1, 0, 0, 0],
            [0,  e^{-gamma t} a, -e^{-gamma t} b, 0],
            [0,  e^{-gamma t} b,  e^{-gamma t} c, 0],
            [0, 0, 0, e^{-2 gamma t}]].

The spectrum of S is {0, -gamma + xi, -gamma - xi, -2 gamma}; the middle pair
becomes complex conjugate -gamma +/- i eta for weak damping, which is the
underdamped / overdamped transition at gamma = omega that organizes the whole
phenomenology of this package.

All numerics in this module are plain numpy; the adaptive integrator used as a
cross-check is scipy's.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = np.array([SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z])

# below this value of |xi*t| the hyperbolic/trigonometric kernels switch to a
# Taylor series, which keeps the critical point gamma = omega exact
_SERIES_CUTOFF = 1e-4

_IDENTITY = np.eye(4)

OVERDAMPED = "overdamped"
CRITICAL = "critical"
UNDERDAMPED = "underdamped"


class IntegrationError(RuntimeError):
    """Adaptive integration failed (step-size underflow or solver breakdown)."""


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the tunneling-plus-collisions model.

    omega   tunneling angular frequency (rad per unit time)
    gamma   collisional decoherence rate (events per unit time)
    tau_c   collision correlation time; the coarse-graining below which the
            Markovian description stops being meaningful.  Metadata only: the
            propagator is defined for every t >= 0, but history gaps shorter
            than tau_c trigger a warning downstream.
    """

    omega: float
    gamma: float
    tau_c: float = 0.0

    def __post_init__(self):
        if self.omega < 0 or self.gamma < 0 or self.tau_c < 0:
            raise ValueError("omega, gamma and tau_c must all be non-negative")

    @property
    def regime(self) -> str:
        if self.gamma > self.omega:
            return OVERDAMPED
        if self.gamma < self.omega:
            return UNDERDAMPED
        return CRITICAL

    @property
    def discriminant(self) -> float:
        """xi = sqrt(gamma^2 - omega^2) when overdamped, eta = sqrt(omega^2 - gamma^2) otherwise."""
        return math.sqrt(abs(self.gamma**2 - self.omega**2))


@dataclass(frozen=True)
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
    regime: str = field(default="")


def generator(params: ModelParams) -> np.ndarray:
    """Return the 4x4 real generator S of the Bloch-coefficient flow."""
    om, g = params.omega, params.gamma
    return np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, -om, 0.0],
            [0.0, om, -2.0 * g, 0.0],
            [0.0, 0.0, 0.0, -2.0 * g],
        ]
    )


def _scaled_block_scalar(g: float, om: float, t: float) -> tuple[float, float, float, float]:
    G = abs(g)
    d2 = (G - om) * (G + om)
    u = d2 * t * t
    if abs(u) < _SERIES_CUTOFF**2:
        C = 1.0 + u / 2.0 + u * u / 24.0 + u**3 / 720.0
        Sh = (1.0 + u / 6.0 + u * u / 120.0 + u**3 / 5040.0) * t
        return -g * t, C + g * Sh, om * Sh, C - g * Sh
    if d2 < 0.0:
        eta = math.sqrt(-d2)
        C = math.cos(eta * t)
        Sh = math.sin(eta * t) / eta
        return -g * t, C + g * Sh, om * Sh, C - g * Sh
    xi = math.sqrt(d2)
    k1 = om * om / (G + xi)
    k2 = G + xi
    h = -math.expm1(-2.0 * xi * t) / (2.0 * xi)
    D = math.exp(-2.0 * xi * t)
    p = 1.0 + k1 * h
    r = 1.0 - k2 * h if D * k2 > 2.0 * xi else (D * k2 - k1) / (2.0 * xi)
    if g >= 0.0:
        return -k1 * t, p, om * h, r
    return k2 * t, r, om * h, p


def _scaled_block_array(g: float, om: float, t: np.ndarray) -> tuple:
    G = abs(g)
    d2 = (G - om) * (G + om)
    if d2 < 0.0:
        eta = math.sqrt(-d2)
        C = np.cos(eta * t)
        Sh = np.sin(eta * t) / eta
        L, a, b, c = -g * t, C + g * Sh, om * Sh, C - g * Sh
    elif d2 > 0.0:
        xi = math.sqrt(d2)
        k1 = om * om / (G + xi)
        k2 = G + xi
        h = -np.expm1(-2.0 * xi * t) / (2.0 * xi)
        D = np.exp(-2.0 * xi * t)
        p = 1.0 + k1 * h
        r = np.where(D * k2 > 2.0 * xi, 1.0 - k2 * h, (D * k2 - k1) / (2.0 * xi))
        L, a, b, c = (-k1 * t, p, om * h, r) if g >= 0.0 else (k2 * t, r, om * h, p)
    else:
        L = a = b = c = np.zeros_like(t)
    u = d2 * t * t
    series = np.abs(u) < _SERIES_CUTOFF**2
    if series.any():
        L, a, b, c = (np.array(x, dtype=float, copy=True) for x in (L, a, b, c))
        us, ts = u[series], t[series]
        C = 1.0 + us / 2.0 + us * us / 24.0 + us**3 / 720.0
        Sh = (1.0 + us / 6.0 + us * us / 120.0 + us**3 / 5040.0) * ts
        L[series], a[series], b[series], c[series] = -g * ts, C + g * Sh, om * Sh, C - g * Sh
    return L, a, b, c


def scaled_block(gamma: float, omega: float, t):
    """The tunneling block of exp(t S) as (log_scale, a, b, c), overflow-free.

    exp(t S2) = e^{log_scale} [[a, -b], [b, c]] for S2 = [[0, -omega],
    [omega, -2 gamma]], the x-y block of the generator.  gamma may be negative:
    gamma -> -gamma turns exp(t S2) into exp(-t S2^T), the backward flow.

    Overdamped, the block is a sum of the decaying (or, for negative gamma,
    growing) exponentials exp(-(gamma -+ xi) t).  Writing the slow rate as
    k1 = gamma - xi = omega^2/(gamma + xi) and factoring out the dominant
    exponential leaves a, b, c of order one, so no term overflows or cancels
    for any gamma t (Moler & Van Loan, SIAM Rev. 45, 3 (2003)).  The
    underdamped branch factors out exp(-gamma t), and below |xi t| = 1e-4 a
    Taylor series keeps the critical point exact.

    A float t is evaluated with the math module, an array t elementwise with
    numpy; the two agree to rounding.
    """
    if isinstance(t, (float, int)):
        return _scaled_block_scalar(gamma, omega, float(t))
    return _scaled_block_array(gamma, omega, np.asarray(t, dtype=float))


def propagator_closed_form(params: ModelParams, t) -> np.ndarray:
    """Analytic T(t) = exp(t S) as a 4x4 real PTM, or a stack (..., 4, 4) for an array t.

    Built from scaled_block, so every entry stays finite and accurate for any
    gamma t in the overdamped, underdamped and critical regimes; agreement
    with a brute-force matrix exponential is at machine precision.
    """
    if isinstance(t, (float, int)):
        if t < 0:
            raise ValueError("propagator is defined for t >= 0")
        L, a, b, c = _scaled_block_scalar(params.gamma, params.omega, float(t))
        s = math.exp(L)
        T = _IDENTITY.copy()
        T[1, 1] = s * a
        T[1, 2] = -s * b
        T[2, 1] = s * b
        T[2, 2] = s * c
        T[3, 3] = math.exp(-2.0 * params.gamma * t)
        return T
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("propagator is defined for t >= 0")
    L, a, b, c = _scaled_block_array(params.gamma, params.omega, t)
    s = np.exp(L)
    T = np.zeros(t.shape + (4, 4))
    T[..., 0, 0] = 1.0
    T[..., 1, 1] = s * a
    T[..., 1, 2] = -s * b
    T[..., 2, 1] = s * b
    T[..., 2, 2] = s * c
    T[..., 3, 3] = np.exp(-2.0 * params.gamma * t)
    return T


def propagator_numeric(params: ModelParams, t: float, rtol: float = 1e-12, atol: float = 1e-12) -> np.ndarray:
    """T(t) by adaptive integration of dT/dt = S T from the identity.

    Entirely independent of the closed form; exists as a cross-check route.
    Raises IntegrationError if the adaptive solver gives up.
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


def eigen_system(params: ModelParams) -> EigenSystem:
    """Eigenvalues and left/right eigenvectors of the generator S.

    lambda_2 is evaluated as -omega^2/(gamma + xi), algebraically identical to
    -gamma + xi but free of cancellation when gamma >> omega (the slow rate
    can be fifteen orders of magnitude below gamma for realistic molecules).
    Consequently -lambda_2/2 reproduces the slow equatorial decay rate exactly
    in floating point.
    """
    om, g = params.omega, params.gamma
    if params.regime == UNDERDAMPED:
        eta = params.discriminant
        disc = 1j * eta
        lam2 = -g + 1j * eta
        lam3 = -g - 1j * eta
    else:
        xi = params.discriminant
        disc = complex(xi)
        lam2 = -(om * om) / (g + xi) if (g + xi) > 0 else 0.0
        lam3 = -g - xi
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


def pauli_coefficients(op: np.ndarray) -> np.ndarray:
    """Coefficients c_j with op = sum_j c_j sigma_j (complex for general ops).

    Accepts one 2x2 operator or a stack (..., 2, 2) and returns (..., 4).
    """
    return np.einsum("kij,...ji->...k", PAULIS, np.asarray(op, dtype=complex)) / 2.0


def operator_from_pauli(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of pauli_coefficients: (..., 4) coefficients to (..., 2, 2) operators."""
    return np.einsum("...k,kij->...ij", np.asarray(coeffs), PAULIS)


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


def is_trace_preserving(ptm: np.ndarray, tol: float = 1e-12) -> bool:
    return bool(np.allclose(np.asarray(ptm)[0], [1.0, 0.0, 0.0, 0.0], atol=tol))


def ptm_to_csv(ptm: np.ndarray) -> str:
    """Row-major CSV text of a 4x4 matrix (17 significant digits)."""
    buf = io.StringIO()
    for row in np.asarray(ptm):
        buf.write(",".join(format(float(x), ".17g") for x in row))
        buf.write("\n")
    return buf.getvalue()


def ptm_from_csv(text: str) -> np.ndarray:
    rows = [[float(x) for x in line.split(",")] for line in text.strip().splitlines()]
    M = np.array(rows)
    if M.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {M.shape}")
    return M
