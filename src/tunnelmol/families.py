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
gamma = omega.  FamilyTrajectory, flow_unit_vectors and exact_direction (the
0-d case of a grid) all go through it and report the same continuous angles.
Importing this module loads no scipy.

Along a family the local basis-flip rate is

    kappa = gamma (1 - n_x^2) = -(1/2) n . S3 n,

which interpolates between kappa = gamma for the z family (parity) and the
two constant rates of the equatorial stationary families that exist for
gamma >= omega:

    sin 2 phi = +- omega/gamma,  theta = pi/2,
    kappa_x = (gamma - xi)/2 = omega^2 / (2 (gamma + xi)),
    kappa_y = (gamma + xi)/2.

The four equatorial roots merge in pairs at gamma = omega and disappear below
it; in the weak-decoherence regime every family rotates, advancing phi by pi
each stroboscopic period pi/eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ptm import CRITICAL, ModelParams, UNDERDAMPED, propagator_closed_form, scaled_block

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

    @property
    def phi_wrapped(self) -> float:
        """phi reduced to [0, 2 pi)."""
        return self.phi % (2.0 * math.pi)

    def canonical(self) -> "BlochDirection":
        """Antipodal representative with theta in [0, pi/2] and phi in [0, 2 pi).

        theta is first reduced to [0, pi] (the polar angle of the actual unit
        vector); if it still exceeds pi/2 the antipodal point is returned.
        Diameters are unordered pairs {n, -n}, so this is a relabeling only.
        """
        n = self.unit_vector
        if n[2] < 0 or (n[2] == 0 and (n[1] < 0 or (n[1] == 0 and n[0] < 0))):
            n = -n
        theta = math.acos(np.clip(n[2], -1.0, 1.0))
        phi = math.atan2(n[1], n[0]) % (2.0 * math.pi)
        return BlochDirection(theta=theta, phi=phi)

    @classmethod
    def from_vector(cls, n) -> "BlochDirection":
        n = np.asarray(n, dtype=float)
        n = n / np.linalg.norm(n)
        return cls(theta=math.acos(np.clip(n[2], -1.0, 1.0)), phi=math.atan2(n[1], n[0]))


X_DIRECTION = BlochDirection(theta=math.pi / 2.0, phi=0.0)
Y_DIRECTION = BlochDirection(theta=math.pi / 2.0, phi=math.pi / 2.0)
Z_DIRECTION = BlochDirection(theta=0.0, phi=0.0)


def _as_direction(obj) -> BlochDirection:
    if isinstance(obj, BlochDirection):
        return obj
    if hasattr(obj, "bloch_direction"):
        return obj.bloch_direction
    return BlochDirection.from_vector(obj)


def transition_rate(direction: BlochDirection, params: ModelParams) -> float:
    """Local flip rate kappa = gamma (1 - n_x^2) of the telegraph process.

    Evaluated as gamma (n_y^2 + n_z^2), which does not cancel to zero near the
    pointer axis, where a family at large gamma/omega spends its time.
    """
    d = _as_direction(direction)
    ny, nz = math.sin(d.theta) * math.sin(d.phi), math.cos(d.theta)
    return params.gamma * (ny * ny + nz * nz)


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


def exact_direction(initial: BlochDirection, params: ModelParams, direction: str, t: float) -> BlochDirection:
    """Family direction at one time t: the 0-d case of the closed-form flow.

    forward:  n(t) prop exp(t S3) n(0);  backward:  n(t) prop exp(-t S3^T) n(0).
    Identical to integrating the angle ODEs (the ODEs are the projective form
    of the linear flow), but exact to machine precision and finite for any
    gamma t.  The angles are the continuous ones the ODEs integrate to, as in
    FamilyTrajectory.direction_at: phi unwrapped from the initial azimuth,
    theta on the branch of the initial polar angle.
    """
    theta, phi, _, _ = _flow(_as_direction(initial), params, direction, np.asarray(t, dtype=float))
    return BlochDirection(theta=float(theta), phi=float(phi))


def _flow(initial: BlochDirection, params: ModelParams, direction: str, tau: np.ndarray, angles: bool = True):
    """Closed-form family at elapsed times tau >= 0: (theta, phi, kappa, rate_integral).

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
    are None.
    """
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
    sy = uy / rho
    kappa = params.gamma * (wxy * wxy * sy * sy + wz * wz) / norm2
    rate_integral = -0.5 * log_radius if g >= 0.0 else 0.5 * log_radius
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
    """Unit vectors n(t) of the family through `initial`, one row per elapsed time t >= 0.

    The normalized linear flow on a whole grid at once:
    forward n(t) = T3(t) n0 / |T3(t) n0|, finite for any gamma t.
    """
    theta, phi, _, _ = _flow(_as_direction(initial), params, direction, np.asarray(times, dtype=float))
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


@dataclass(frozen=True)
class FamilyTrajectory:
    """A family on a time grid, evaluated in closed form from the initial direction.

    theta/phi are the continuous angles the flow ODEs integrate to (phi
    unwrapped, theta on the branch of the initial polar angle); canonical
    representatives are available per sample via direction_at().
    rate_integral is the integrated flip rate Lambda(t), the integral of
    kappa from times[0] to t.  The *_at methods evaluate the same closed form
    at any time, not by interpolation.
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

    def to_csv(self) -> str:
        lines = ["t,theta,phi,kappa"]
        for t, th, ph, k in zip(self.times, self.theta, self.phi, self.kappa):
            lines.append(f"{t:.17g},{th:.17g},{ph:.17g},{k:.17g}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class StationaryFamily:
    """One stationary diameter with its constant flip rate."""

    label: str  # 'z', 'dressed_x' or 'dressed_y'
    condition: str  # 'forward', 'backward' or 'both'
    direction: BlochDirection
    kappa: float


@dataclass(frozen=True)
class StationarySet:
    """All stationary families at the given parameters.

    equatorial holds 4 entries for gamma > omega (two dressed-x, two
    dressed-y), the 2 merged ones at gamma = omega, and none below.
    """

    params: ModelParams
    z_family: StationaryFamily
    equatorial: tuple = field(default_factory=tuple)

    @property
    def kappa_z(self) -> float:
        return self.z_family.kappa

    @property
    def kappa_x(self) -> float | None:
        # at the critical point the merged roots carry kx == ky == gamma/2
        for fam in self.equatorial:
            if fam.label in ("dressed_x", "merged"):
                return fam.kappa
        return None

    @property
    def kappa_y(self) -> float | None:
        for fam in self.equatorial:
            if fam.label in ("dressed_y", "merged"):
                return fam.kappa
        return None


def stationary_families(params: ModelParams) -> StationarySet:
    """Fixed points of the family flows.

    The z diameter (theta = 0) is stationary for every parameter choice, with
    kappa_z = gamma.  Equatorial fixed points solve sin 2 phi = +omega/gamma
    (forward) or -omega/gamma (backward) at theta = pi/2 and exist only for
    gamma >= omega.  kappa_x uses the cancellation-free form
    omega^2/(2 (gamma + xi)).
    """
    g, om = params.gamma, params.omega
    z = StationaryFamily(label="z", condition="both", direction=Z_DIRECTION, kappa=g)
    if g < om or g == 0.0:
        return StationarySet(params=params, z_family=z)
    xi = params.discriminant
    alpha = math.asin(om / g) if om < g else math.pi / 2.0
    kx = om * om / (2.0 * (g + xi))
    ky = (g + xi) / 2.0
    half = math.pi / 2.0
    entries = [
        StationaryFamily("dressed_x", FORWARD, BlochDirection(half, alpha / 2.0), kx),
        StationaryFamily("dressed_y", FORWARD, BlochDirection(half, half - alpha / 2.0), ky),
        StationaryFamily("dressed_y", BACKWARD, BlochDirection(half, half + alpha / 2.0), ky),
        StationaryFamily("dressed_x", BACKWARD, BlochDirection(half, math.pi - alpha / 2.0), kx),
    ]
    if params.regime == CRITICAL:
        # saddle-node point: the two forward roots coalesce at phi = pi/4 and
        # the two backward roots at 3 pi/4; each merged root keeps its sense
        entries = [
            StationaryFamily("merged", FORWARD, BlochDirection(half, math.pi / 4.0), kx),
            StationaryFamily("merged", BACKWARD, BlochDirection(half, 3.0 * math.pi / 4.0), ky),
        ]
    return StationarySet(params=params, z_family=z, equatorial=tuple(entries))


@dataclass(frozen=True)
class RegimeReport:
    """Qualitative character of the family flow at given parameters."""

    params: ModelParams
    regime: str
    gamma_over_omega: float
    rotation_frequency: float | None = None  # eta, underdamped only
    stroboscopic_period: float | None = None  # pi / eta
    decay_rates: tuple | None = None  # (gamma - xi, gamma + xi), overdamped only


def classify_regime(params: ModelParams) -> RegimeReport:
    ratio = params.gamma / params.omega if params.omega > 0 else math.inf
    if params.regime == UNDERDAMPED:
        eta = params.discriminant
        return RegimeReport(
            params=params,
            regime=params.regime,
            gamma_over_omega=ratio,
            rotation_frequency=eta,
            stroboscopic_period=math.pi / eta,
        )
    xi = params.discriminant
    slow = params.omega**2 / (params.gamma + xi) if (params.gamma + xi) > 0 else 0.0
    return RegimeReport(
        params=params,
        regime=params.regime,
        gamma_over_omega=ratio,
        decay_rates=(slow, params.gamma + xi),
    )


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
    the Euclidean norm of the orthogonal component of that image.  One
    propagator stack covers all gaps.
    """
    units = np.array([_as_direction(d).unit_vector for d in decomp_sequence]).reshape(-1, 3)
    times = np.asarray(times, dtype=float)
    if len(units) != len(times):
        raise ValueError("need one decomposition per time")
    T3 = propagator_closed_form(params, np.diff(times))[:, 1:, 1:]
    w = (T3 @ units[:-1, :, None])[..., 0]
    target = units[1:] / np.linalg.norm(units[1:], axis=-1, keepdims=True)
    resids = np.linalg.norm(w - np.sum(w * target, axis=-1, keepdims=True) * target, axis=-1)
    mx = float(np.max(resids, initial=0.0))
    return ConditionReport(passed=mx < tol, max_residual=mx, residuals=tuple(resids.tolist()), direction=FORWARD)
