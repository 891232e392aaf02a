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

All numerics in this module are plain numpy, and importing it loads no scipy.
The closed form evaluates a whole time grid at once; a single time is the 0-d
case of the same route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = np.array([SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z])

OVERDAMPED = "overdamped"
CRITICAL = "critical"
UNDERDAMPED = "underdamped"


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
        if not all(math.isfinite(v) and v >= 0 for v in (self.omega, self.gamma, self.tau_c)):
            raise ValueError("omega, gamma and tau_c must all be finite and non-negative")

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
        return float(_damping(self.gamma, self.omega)[1])


def _damping(gamma, omega):
    """The regime numbers (d2, root, slow, fast) of the rates, elementwise.

    d2 = gamma^2 - omega^2, evaluated as (|gamma| - omega)(|gamma| + omega);
    root = sqrt|d2| is xi where |gamma| >= omega and eta below.  There the
    equatorial decay rates are fast = |gamma| + xi and slow = omega^2/fast,
    which equals |gamma| - xi without its cancellation at gamma >> omega
    (slow = 0 at gamma = omega = 0); both are NaN where |gamma| < omega, also
    where d2 underflows to 0.  Floats go through as 0-d arrays.
    """
    G = np.abs(gamma)
    d2 = (G - omega) * (G + omega)
    root = np.sqrt(np.abs(d2))
    fast = np.where(G < omega, np.nan, G + root)
    return d2, root, np.divide(omega * omega, fast, out=np.zeros_like(fast), where=fast != 0.0), fast


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


def scaled_block(gamma: float, omega: float, t):
    """The tunneling block of exp(t S) as (log_scale, a, b, c), overflow-free.

    exp(t S2) = e^{log_scale} [[a, -b], [b, c]] for S2 = [[0, -omega],
    [omega, -2 gamma]], the x-y block of the generator.  gamma may be negative:
    gamma -> -gamma turns exp(t S2) into exp(-t S2^T), the backward flow.

    Underdamped (d2 < 0), the block factors out exp(-gamma t) and rotates at
    eta; critical (d2 = 0), it is exactly a = 1 + gamma t, b = omega t,
    c = 1 - gamma t.  Overdamped, it is a sum of the decaying (or, for
    negative gamma, growing) exponentials exp(-(gamma -+ xi) t).  Writing the
    slow rate as k1 = gamma - xi = omega^2/(gamma + xi) and factoring out the
    dominant exponential leaves a, b, c of order one, so no term overflows or
    cancels for any gamma t (Moler & Van Loan, SIAM Rev. 45, 3 (2003)).

    t is any array of times, evaluated elementwise; a float t is a 0-d array.
    """
    g, om = gamma, omega
    t = np.asarray(t, dtype=float)
    d2, root, k1, k2 = _damping(g, om)
    if d2 < 0.0:
        C = np.cos(root * t)
        Sh = np.sin(root * t) / root
        return -g * t, C + g * Sh, om * Sh, C - g * Sh
    if d2 > 0.0:
        xi = root
        h = -np.expm1(-2.0 * xi * t) / (2.0 * xi)
        D = np.exp(-2.0 * xi * t)
        p = 1.0 + k1 * h
        r = np.where(D * k2 > 2.0 * xi, 1.0 - k2 * h, (D * k2 - k1) / (2.0 * xi))
        return (-k1 * t, p, om * h, r) if g >= 0.0 else (k2 * t, r, om * h, p)
    return -g * t, 1.0 + g * t, om * t, 1.0 - g * t


def propagator_closed_form(params: ModelParams, t) -> np.ndarray:
    """Analytic T(t) = exp(t S): one real 4x4 PTM per entry of t, stacked (..., 4, 4).

    A float t is a 0-d array and gives a single 4x4 matrix.  Built from
    scaled_block, so every entry stays finite and accurate for any gamma t in
    the overdamped, underdamped and critical regimes; agreement with a
    brute-force matrix exponential is at machine precision.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("propagator is defined for t >= 0")
    L, a, b, c = scaled_block(params.gamma, params.omega, t)
    s = np.exp(L)
    T = np.zeros(t.shape + (4, 4))
    T[..., 0, 0] = 1.0
    T[..., 1, 1] = s * a
    T[..., 1, 2] = -s * b
    T[..., 2, 1] = s * b
    T[..., 2, 2] = s * c
    T[..., 3, 3] = np.exp(-2.0 * params.gamma * t)
    return T


def pauli_coefficients(op: np.ndarray) -> np.ndarray:
    """Coefficients c_j with op = sum_j c_j sigma_j (complex for general ops).

    Accepts one 2x2 operator or a stack (..., 2, 2) and returns (..., 4).
    """
    return np.einsum("kij,...ji->...k", PAULIS, np.asarray(op, dtype=complex)) / 2.0


def operator_from_pauli(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of pauli_coefficients: (..., 4) coefficients to (..., 2, 2) operators."""
    return np.einsum("...k,kij->...ij", np.asarray(coeffs), PAULIS)
