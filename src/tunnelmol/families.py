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

The production route is that closed form: FamilyTrajectory.integrate and
exact_direction evaluate the linear flow with ptm.scaled_block, which stays
finite and cancellation-free at any gamma t, so a family at gamma/omega = 5e7
costs the same as one at gamma = omega.  Importing this module loads no scipy.
Two independent routes remain as cross-checks: adaptive integration of the
angle ODEs (family_ode_step, which loads scipy's solve_ivp on its first call)
and the tangent-variable closed form

    mu = tan phi,  nu = tan theta

valid on any branch where phi stays clear of +-pi/2 (the closed form has a
pole there; callers get TangentBranchError and should fall back to the ODE).

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

from .ptm import CRITICAL, IntegrationError, ModelParams, UNDERDAMPED, generator, propagator_closed_form, scaled_block

FORWARD = "forward"
BACKWARD = "backward"

# tangent values beyond this mean the closed form left its branch
_TANGENT_LIMIT = 1e12
# exponents beyond this overflow the tangent form's cosh / sinh / exp kernels
_KERNEL_LIMIT = 700.0


class TangentBranchError(ValueError):
    """The tangent-space closed form hit a pole; integrate the ODE instead."""


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


def bloch_block(params: ModelParams) -> np.ndarray:
    """Lower-right 3x3 block S3 of the generator (the traceless-sector flow)."""
    return generator(params)[1:, 1:]


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
    # importing this module loads no scipy while the benchmark tracer can still
    # wrap the name.  It goes away with ROADMAP item 6, once the tracer no
    # longer needs it and family_ode_step moves into the test tree.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _ode_rhs(direction: str):
    s = +1.0 if direction == FORWARD else -1.0

    def rhs(_t, y, om, g):
        th, ph = y
        return (s * g * math.sin(2.0 * th) * math.cos(ph) ** 2, om - s * g * math.sin(2.0 * ph))

    return rhs


def family_ode_step(state: BlochDirection, params: ModelParams, direction: str, dt: float) -> BlochDirection:
    """Advance (theta, phi) by dt with adaptive integration (local error <= 1e-10)."""
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"direction must be '{FORWARD}' or '{BACKWARD}'")
    if dt == 0.0:
        return state
    # the module attribute, so a wrapper set on families.solve_ivp sees the call
    solve_ivp = globals().get("solve_ivp") or __getattr__("solve_ivp")
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


def _signed_gamma(params: ModelParams, direction: str) -> float:
    """The backward flow is the forward one with gamma -> -gamma."""
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"direction must be '{FORWARD}' or '{BACKWARD}'")
    return params.gamma if direction == FORWARD else -params.gamma


def exact_direction(initial: BlochDirection, params: ModelParams, direction: str, t: float) -> BlochDirection:
    """Family direction at time t through the normalized linear flow.

    forward:  n(t) prop exp(t S3) n(0);  backward:  n(t) prop exp(-t S3^T) n(0).
    Identical to integrating the angle ODEs (the ODEs are the projective form
    of the linear flow), but exact to machine precision and finite for any
    gamma t.  The returned angles are one valid representative of the
    diameter, theta in [0, pi] and phi within pi of the initial azimuth; they
    are not guaranteed to be the unwrapped continuation (FamilyTrajectory
    provides that).
    """
    g = _signed_gamma(params, direction)
    t = float(t)
    L, a, b, c = scaled_block(g, params.omega, t)
    x0, y0, z0 = _as_direction(initial).unit_vector
    vx, vy = a * x0 - b * y0, b * x0 + c * y0
    # the x-y part carries exp(L), the z part exp(-2 g t): rescale both by the
    # larger of the two magnitudes, in logarithms, so neither overflows
    rxy = math.hypot(vx, vy)
    lxy = L + math.log(rxy) if rxy > 0.0 else -math.inf
    lz = -2.0 * g * t + math.log(abs(z0)) if z0 != 0.0 else -math.inf
    top = max(lxy, lz)
    if rxy > 0.0:
        vx, vy = vx * math.exp(L - top), vy * math.exp(L - top)
    vz = z0 * math.exp(-2.0 * g * t - top) if z0 != 0.0 else 0.0
    nrm = math.sqrt(vx * vx + vy * vy + vz * vz)
    if nrm == 0.0:
        raise IntegrationError("linear flow collapsed to zero vector")
    theta = math.acos(min(1.0, max(-1.0, vz / nrm)))
    phi = math.atan2(vy, vx)
    # unwrap phi against the initial value so callers see a continuous angle
    k = round((initial.phi - phi) / (2.0 * math.pi))
    return BlochDirection(theta=theta, phi=phi + 2.0 * math.pi * k)


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

    The normalized linear flow of exact_direction on a whole grid at once:
    forward n(t) = T3(t) n0 / |T3(t) n0|, finite for any gamma t.
    """
    theta, phi, _, _ = _flow(_as_direction(initial), params, direction, np.asarray(times, dtype=float))
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


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
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"direction must be '{FORWARD}' or '{BACKWARD}'")
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


def _span_residual(w: np.ndarray, target: np.ndarray) -> float:
    """Euclidean norm of the part of w orthogonal to the target diameter."""
    t = target / np.linalg.norm(target)
    return float(np.linalg.norm(w - (w @ t) * t))


def check_forward_condition(decomp_sequence, params: ModelParams, times, tol: float = 1e-8) -> ConditionReport:
    """Does T map each basis span into the next one?

    For consecutive instants the image of the earlier diameter under the
    3x3 Bloch block must be parallel to the later diameter; the residual is
    the Euclidean norm of the orthogonal component of that image.
    """
    dirs = [_as_direction(d) for d in decomp_sequence]
    times = np.asarray(times, dtype=float)
    if len(dirs) != len(times):
        raise ValueError("need one decomposition per time")
    resids = []
    for m in range(len(dirs) - 1):
        T3 = propagator_closed_form(params, float(times[m + 1] - times[m]))[1:, 1:]
        w = T3 @ dirs[m].unit_vector
        resids.append(_span_residual(w, dirs[m + 1].unit_vector))
    mx = max(resids) if resids else 0.0
    return ConditionReport(passed=mx < tol, max_residual=mx, residuals=tuple(resids), direction=FORWARD)


def check_backward_condition(decomp_sequence, params: ModelParams, times, tol: float = 1e-8) -> ConditionReport:
    """Adjoint-map variant: T^dag must pull each span back into the previous one.

    The adjoint superoperator of a PTM with respect to the Frobenius inner
    product is the transposed matrix in the Pauli basis, so the check applies
    T3^T to the later diameter and compares against the earlier one.
    """
    dirs = [_as_direction(d) for d in decomp_sequence]
    times = np.asarray(times, dtype=float)
    if len(dirs) != len(times):
        raise ValueError("need one decomposition per time")
    resids = []
    for m in range(len(dirs) - 1):
        T3 = propagator_closed_form(params, float(times[m + 1] - times[m]))[1:, 1:]
        w = T3.T @ dirs[m + 1].unit_vector
        resids.append(_span_residual(w, dirs[m].unit_vector))
    mx = max(resids) if resids else 0.0
    return ConditionReport(passed=mx < tol, max_residual=mx, residuals=tuple(resids), direction=BACKWARD)
