"""Moving measurement bases compatible with the collisional dynamics.

A projective decomposition of the qubit is a diameter of the Bloch ball,
parameterized by polar angles (theta, phi).  Two one-parameter flows of
diameters matter here:

  forward   d phi/dt = omega - gamma sin 2 phi,   d theta/dt = + gamma sin 2 theta cos^2 phi
  backward  d phi/dt = omega + gamma sin 2 phi,   d theta/dt = - gamma sin 2 theta cos^2 phi

The forward flow is the direction of the linearly evolved Bloch vector,
n(t) = exp(t S3) n0 / |exp(t S3) n0| with S3 the lower-right 3x3 block of the
generator; a basis dragged along it satisfies the span condition
T(span{P}) inside span{P'} between any two of its instants, which is what
makes the associated history family consistent.  The backward flow is the same
construction for the adjoint map run against time, n(t) prop exp(-t S3^T) n0,
equivalent to flipping the sign of gamma.

The production route is that closed form: _flow evaluates the linear flow
with ptm.scaled_block on a whole time grid, finite and cancellation-free at
any gamma t, so a family at gamma/omega = 5e7 costs the same as one at
gamma = omega.  FamilyTrajectory and flow_unit_vectors both go through it
and report the same continuous angles.  Importing this module loads no scipy.

Along a family the local basis-flip rate is

    kappa = gamma (1 - n_x^2) = -(1/2) n . S3 n,

which interpolates between kappa = gamma for the z family (parity) and the
two constant rates of the equatorial stationary families that exist for
gamma >= omega:

    sin 2 phi = +- omega/gamma,  theta = pi/2,
    kappa_x = (gamma - xi)/2 = omega^2 / (2 (gamma + xi)),
    kappa_y = (gamma + xi)/2.

stationary_roots evaluates these on whole arrays of rates, so a phase
diagram over gamma/omega is one call; stationary_families is its 0-d case,
listed family by family.  The four equatorial roots merge in pairs at
gamma = omega and disappear below it; in the weak-decoherence regime every
family rotates, advancing phi by pi each stroboscopic period pi/eta, with
eta = ModelParams.discriminant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ptm import CRITICAL, ModelParams, UNDERDAMPED, _damping, scaled_block

FORWARD = "forward"
BACKWARD = "backward"


@dataclass(frozen=True)
class BlochDirection:
    """A Bloch-ball diameter by polar angles; phi is kept unwrapped."""

    theta: float
    phi: float

    @property
    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array([st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)])

    @classmethod
    def from_vector(cls, n) -> "BlochDirection":
        n = _normalized(n)
        return cls(theta=math.acos(np.clip(n[2], -1.0, 1.0)), phi=math.atan2(n[1], n[0]))


X_DIRECTION = BlochDirection(theta=math.pi / 2.0, phi=0.0)
Y_DIRECTION = BlochDirection(theta=math.pi / 2.0, phi=math.pi / 2.0)
Z_DIRECTION = BlochDirection(theta=0.0, phi=0.0)


def _normalized(n) -> np.ndarray:
    """n / |n| for Bloch 3-vectors (..., 3), ValueError unless each is nonzero and finite.

    A vector within 4 ulps of unit length (flow_unit_vectors rows are within
    1) is kept bit for bit: a division would only move its last bits.
    """
    n = np.asarray(n, dtype=float)
    norm = np.linalg.norm(n, axis=-1, keepdims=True)
    if n.shape[-1:] != (3,) or not np.all((0.0 < norm) & (norm < math.inf)):
        raise ValueError("a Bloch direction needs a nonzero, finite 3-vector")
    return np.where(np.abs(norm - 1.0) <= 4.0 * np.finfo(float).eps, n, n / norm)


def _as_unit_vector(obj) -> np.ndarray:
    """Unit Bloch vector of a BlochDirection, a histories.Decomposition (its n) or a 3-vector."""
    return obj.unit_vector if isinstance(obj, BlochDirection) else _normalized(getattr(obj, "n", obj))


def _as_direction(obj) -> BlochDirection:
    return obj if isinstance(obj, BlochDirection) else BlochDirection.from_vector(getattr(obj, "n", obj))


def transition_rate(direction: BlochDirection, params: ModelParams) -> float:
    """Local flip rate kappa = gamma (1 - n_x^2) of the telegraph process.

    Evaluated as gamma (n_y^2 + n_z^2), which does not cancel to zero near the
    pointer axis, where a family at large gamma/omega spends its time.
    """
    _, ny, nz = _as_unit_vector(direction)
    return float(params.gamma * (ny * ny + nz * nz))


def __getattr__(name: str):
    # PEP 562 hook: families.solve_ivp resolves to scipy's on access, so
    # importing this module loads no scipy.  No code here calls it; it stays
    # only because the benchmark tracer patches the name, until that hook
    # becomes optional in perfbench/tracer.py.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _signed_gamma(params: ModelParams, direction: str) -> float:
    """The backward flow is the forward one with gamma -> -gamma."""
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"direction must be '{FORWARD}' or '{BACKWARD}'")
    return params.gamma if direction == FORWARD else -params.gamma


def _flow(initial: BlochDirection, params: ModelParams, direction: str, tau: np.ndarray, angles: bool = True):
    """Closed-form family at elapsed times tau: (theta, phi, kappa, rate_integral).

    The x-y part of the flow acts on u0 = (cos phi0, sin phi0) alone, and the
    z part is exp(-2 g tau) cos theta0, so

        v(tau) = (sin theta0 * T2(tau) u0, cos theta0 * exp(-2 g tau)).

    phi is the angle of T2 u0, which is exactly the solution of the phi ODE
    (also on the poles, where the ODE still moves phi); theta stays in the
    quadrant of theta0, as the theta ODE keeps it.  Both parts are handled in
    logarithms, so nothing overflows.  The radius identity
    d ln|v| / dt = -+2 kappa gives the integrated flip rate from ln|v| in
    closed form.  kappa = gamma (n_y^2 + n_z^2) is gamma (1 - n_x^2) without
    the cancellation near the pointer axis.  With angles=False theta and phi
    are None.  Before the family's start (tau < 0) every quantity is its
    value at the start, and Lambda is exactly 0: the one rule for such
    times.  The start's own log-radius ln|n0|, a few ulps off 0, heads the
    grid, so it is evaluated with the same arithmetic, and is subtracted.
    """
    shape = np.shape(tau)
    tau = np.concatenate(([0.0], np.maximum(tau, 0.0).ravel()))
    g = _signed_gamma(params, direction)
    L, a, b, c = scaled_block(g, params.omega, tau)
    c0, s0 = math.cos(initial.phi), math.sin(initial.phi)
    ux, uy = a * c0 - b * s0, b * c0 + c * s0
    rho = np.hypot(ux, uy)
    st, ct = math.sin(initial.theta), math.cos(initial.theta)
    lxy = L + np.log(rho) + (math.log(abs(st)) if st != 0.0 else -math.inf)
    lz = -2.0 * g * tau + (math.log(abs(ct)) if ct != 0.0 else -math.inf)
    xy_larger = lxy >= lz
    e = np.exp(-np.abs(lxy - lz))  # the smaller part relative to the larger one
    wxy = np.where(xy_larger, 1.0, e)
    wz = np.where(xy_larger, e, 1.0)
    norm2 = 1.0 + e * e
    log_radius = np.maximum(lxy, lz) + 0.5 * np.log1p(e * e)
    # Lambda = -+ (ln|v| - ln|n0|) / 2, written so that it is +0.0, not -0.0, at the start
    if g == 0.0:  # kappa is identically 0, so Lambda is +0.0 exactly, though ln|v| wanders by ulps
        lam = np.zeros(len(tau) - 1)
    else:
        lam = log_radius[0] - log_radius[1:] if g > 0.0 else log_radius[1:] - log_radius[0]
    rate_integral = 0.5 * lam.reshape(shape)
    tau, ux, uy, rho, wxy, wz, norm2 = (v[1:].reshape(shape) for v in (tau, ux, uy, rho, wxy, wz, norm2))
    sy = uy / rho
    kappa = params.gamma * (wxy * wxy * sy * sy + wz * wz) / norm2
    if not angles:
        return None, None, kappa, rate_integral
    branch = round((initial.theta - math.atan2(st, ct)) / (2.0 * math.pi))
    theta = np.arctan2(math.copysign(1.0, st) * wxy, math.copysign(1.0, ct) * wz) + 2.0 * math.pi * branch
    turn = np.arctan2(uy, ux) - initial.phi
    if params.regime == UNDERDAMPED:
        # phi advances monotonically, by exactly pi per half period pi/eta
        half_turns = np.floor(params.discriminant * tau / math.pi) * math.pi
        turn = half_turns + np.mod(turn - half_turns + math.pi / 2.0, 2.0 * math.pi) - math.pi / 2.0
    else:
        # phi moves toward a stationary root and never passes one: |turn| < pi
        turn = np.mod(turn + math.pi, 2.0 * math.pi) - math.pi
    return theta, initial.phi + turn, kappa, rate_integral


def flow_unit_vectors(initial, params: ModelParams, direction: str, times) -> np.ndarray:
    """Unit vectors n(t) of the family through `initial`, one row per elapsed time t.

    The normalized linear flow on a whole grid at once:
    forward n(t) = T3(t) n0 / |T3(t) n0|, finite for any gamma t.  A time
    below 0, before the family starts, gives n0.
    """
    theta, phi, _, _ = _flow(_as_direction(initial), params, direction, np.asarray(times, dtype=float))
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


@dataclass(frozen=True, eq=False)
class FamilyTrajectory:
    """A family on a time grid, evaluated in closed form from the initial direction.

    theta/phi are the continuous angles the flow ODEs integrate to (phi
    unwrapped, theta on the branch of the initial polar angle).
    rate_integral is the integrated flip rate Lambda(t), the integral of
    kappa from times[0] to t.  The *_at methods evaluate the same closed form
    at any time, not by interpolation; at a time before times[0] they give
    the family's values at times[0].
    """

    params: ModelParams
    direction: str
    times: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    kappa: np.ndarray
    rate_integral: np.ndarray
    initial: BlochDirection

    @classmethod
    def integrate(cls, initial, params: ModelParams, direction: str, times) -> "FamilyTrajectory":
        """Evaluate the family across a (sorted, t[0] >= 0) time grid, starting at t[0]."""
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or len(times) < 2 or np.any(np.diff(times) <= 0):
            raise ValueError("times must be a strictly increasing 1-D grid")
        init = _as_direction(initial)
        th, ph, kap, lam = _flow(init, params, direction, times - times[0])
        return cls(params=params, direction=direction, times=times, theta=th, phi=ph, kappa=kap,
                   rate_integral=lam, initial=init)

    def _at(self, t, angles: bool = True):
        return _flow(self.initial, self.params, self.direction, np.asarray(t, dtype=float) - self.times[0], angles)

    def direction_at(self, t: float) -> BlochDirection:
        theta, phi, _, _ = self._at(t)
        return BlochDirection(theta=float(theta), phi=float(phi))

    def unit_vectors_at(self, times) -> np.ndarray:
        """Unit vectors n(t), one row per time."""
        return flow_unit_vectors(self.initial, self.params, self.direction, np.asarray(times) - self.times[0])

    def kappa_at(self, t) -> np.ndarray | float:
        return self._at(t, angles=False)[2]

    def rate_integral_at(self, t) -> np.ndarray | float:
        return self._at(t, angles=False)[3]


@dataclass(frozen=True)
class StationaryFamily:
    """One stationary diameter with its constant flip rate."""

    label: str  # 'z', 'dressed_x', 'dressed_y' or 'merged'
    condition: str  # 'forward', 'backward' or 'both'
    direction: BlochDirection
    kappa: float


@dataclass(frozen=True)
class StationarySet:
    """All stationary families at the given parameters.

    equatorial holds 4 entries for gamma > omega (forward dressed-x and
    dressed-y, then backward dressed-y and dressed-x), the 2 merged ones at
    gamma = omega, and none below; its first two entries carry kappa_x and
    kappa_y, which are NaN below, as in stationary_roots.
    """

    params: ModelParams
    z_family: StationaryFamily
    equatorial: tuple = ()

    @property
    def kappa_z(self) -> float:
        return self.z_family.kappa

    @property
    def kappa_x(self) -> float:
        return self.equatorial[0].kappa if self.equatorial else math.nan

    @property
    def kappa_y(self) -> float:
        return self.equatorial[1].kappa if self.equatorial else math.nan


# math.asin elementwise: np.arcsin differs from it by an ulp on about one
# input in twelve, and is then almost always the farther from the exact value
_asin = np.vectorize(math.asin, otypes=[float])


def stationary_roots(gamma, omega):
    """Forward equatorial stationary roots and their flip rates, elementwise: (phi_x, phi_y, kappa_x, kappa_y).

    gamma and omega broadcast against each other.  At theta = pi/2 the
    forward flow stands still where sin 2 phi = omega/gamma: the dressed-x
    root phi_x = asin(omega/gamma)/2 and the dressed-y root
    phi_y = pi/2 - phi_x.  The backward roots are their mirror images
    pi - phi_x and pi/2 + phi_x.  The flip rates along them are half the
    generator's equatorial decay rates, with kappa_x in its cancellation-free
    form:

        kappa_x = omega^2 / (2 (gamma + xi)),   kappa_y = (gamma + xi) / 2.

    The roots exist for gamma >= omega, gamma > 0; below, all four outputs
    are NaN.  At gamma = omega the x and y roots merge at phi = pi/4.
    """
    gamma, omega = np.broadcast_arrays(np.asarray(gamma, dtype=float), np.asarray(omega, dtype=float))
    _, _, slow, fast = _damping(gamma, omega)
    found = (gamma >= omega) & (gamma > 0.0)
    phi_x = _asin(np.divide(omega, gamma, out=np.full(gamma.shape, np.nan), where=found)) / 2.0
    return phi_x, math.pi / 2.0 - phi_x, np.where(found, slow / 2.0, np.nan), np.where(found, fast / 2.0, np.nan)


def stationary_families(params: ModelParams) -> StationarySet:
    """Fixed points of the family flows at one parameter point.

    The z diameter (theta = 0) is stationary for every parameter choice, with
    kappa_z = gamma.  The equatorial ones are the 0-d case of
    stationary_roots, listed with their backward mirror images.
    """
    phi_x, phi_y, kx, ky = (float(v) for v in stationary_roots(params.gamma, params.omega))
    z = StationaryFamily("z", "both", Z_DIRECTION, params.gamma)
    half = math.pi / 2.0
    if math.isnan(kx):
        return StationarySet(params, z)
    if params.regime == CRITICAL:
        # saddle-node point: the two forward roots coalesce at phi = pi/4 and
        # the two backward roots at 3 pi/4; each merged root keeps its sense
        return StationarySet(params, z, (
            StationaryFamily("merged", FORWARD, BlochDirection(half, phi_x), kx),
            StationaryFamily("merged", BACKWARD, BlochDirection(half, half + phi_x), ky),
        ))
    return StationarySet(params, z, (
        StationaryFamily("dressed_x", FORWARD, BlochDirection(half, phi_x), kx),
        StationaryFamily("dressed_y", FORWARD, BlochDirection(half, phi_y), ky),
        StationaryFamily("dressed_y", BACKWARD, BlochDirection(half, half + phi_x), ky),
        StationaryFamily("dressed_x", BACKWARD, BlochDirection(half, math.pi - phi_x), kx),
    ))
