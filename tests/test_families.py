"""Moving decompositions: flows, stationary sets, rates, span conditions."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, quad
from scipy.linalg import expm

from oracles import (
    TangentBranchError,
    bloch_block,
    check_backward_condition,
    check_forward_condition,
    eigen_system,
    exact_direction,
    family_closed_form,
    family_ode_step,
)
from tunnelmol.families import (
    BACKWARD,
    BlochDirection,
    FORWARD,
    FamilyTrajectory,
    X_DIRECTION,
    Z_DIRECTION,
    stationary_families,
    stationary_roots,
    transition_rate,
)
from tunnelmol.histories import Decomposition
from tunnelmol.ptm import OVERDAMPED, UNDERDAMPED, ModelParams


# gamma/omega over the paper's range, holding the critical ratio exactly and
# three ratios just above it, where gamma^2 - omega^2 cancels
RATIOS = np.sort(np.append(np.geomspace(0.1, 5e7, 200), [1.0, 1.0 + 1e-9, 1.0 + 1e-6, 1.0 + 1e-3]))


def random_direction(rng):
    return BlochDirection(theta=math.acos(float(rng.uniform(-1, 1))), phi=float(rng.uniform(0, 2 * math.pi)))


def angle_between(d1, d2):
    # atan2 form stays accurate for nearly parallel vectors, acos does not
    n1, n2 = d1.unit_vector, d2.unit_vector
    return math.atan2(float(np.linalg.norm(np.cross(n1, n2))), float(np.dot(n1, n2)))


def test_direction_basics():
    n = BlochDirection(theta=0.7, phi=-0.3).unit_vector
    assert np.linalg.norm(n) == pytest.approx(1.0)
    back = BlochDirection.from_vector(n)
    assert angle_between(back, BlochDirection(0.7, -0.3)) < 1e-12


def test_ode_step_agrees_with_linear_flow():
    rng = np.random.default_rng(61)
    for _ in range(25):
        p = ModelParams(omega=float(rng.uniform(0.2, 3.0)), gamma=float(rng.uniform(0.2, 3.0)))
        d0 = random_direction(rng)
        t = float(rng.uniform(0.05, 2.0))
        for sense in (FORWARD, BACKWARD):
            ode = family_ode_step(d0, p, sense, t)
            lin = exact_direction(d0, p, sense, t)
            assert angle_between(ode, lin) < 1e-8


def test_exact_direction_is_normalized_linear_flow():
    p = ModelParams(omega=1.1, gamma=0.6)
    d0 = BlochDirection(theta=0.9, phi=0.4)
    t = 1.7
    S3 = bloch_block(p)
    fwd = expm(t * S3) @ d0.unit_vector
    fwd /= np.linalg.norm(fwd)
    assert np.abs(exact_direction(d0, p, FORWARD, t).unit_vector - fwd).max() < 1e-12
    bwd = expm(-t * S3.T) @ d0.unit_vector
    bwd /= np.linalg.norm(bwd)
    assert np.abs(exact_direction(d0, p, BACKWARD, t).unit_vector - bwd).max() < 1e-12


def test_closed_form_angles_match_linear_flow():
    rng = np.random.default_rng(71)
    checked = 0
    while checked < 30:
        p = ModelParams(omega=float(rng.uniform(0.2, 2.5)), gamma=float(rng.uniform(0.2, 2.5)))
        d0 = random_direction(rng)
        t = float(rng.uniform(0.05, 1.5))
        sense = FORWARD if checked % 2 == 0 else BACKWARD
        try:
            cf = family_closed_form(d0, p, sense, t)
        except TangentBranchError:
            continue
        assert angle_between(cf, exact_direction(d0, p, sense, t)) < 1e-9
        checked += 1


def test_closed_form_raises_at_tangent_pole():
    # steep azimuth start in the overdamped regime runs into the pole
    p = ModelParams(omega=0.5, gamma=2.0)
    d0 = BlochDirection(theta=1.2, phi=1.5)  # tan(phi) ~ 14, q strongly negative
    with pytest.raises(TangentBranchError):
        for t in np.linspace(0.05, 8.0, 60):
            family_closed_form(d0, p, FORWARD, float(t))


def test_closed_form_raises_branch_error_before_its_kernels_overflow():
    # xi t ~ 1e4: cosh(xi t) would overflow; the linear flow stays finite
    p = ModelParams(omega=1.0, gamma=1e4)
    d0 = BlochDirection(theta=0.4, phi=0.3)
    with pytest.raises(TangentBranchError):
        family_closed_form(d0, p, FORWARD, 1.0)
    moved = exact_direction(d0, p, FORWARD, 1.0)
    assert math.isfinite(moved.theta) and math.isfinite(moved.phi)


def test_transition_rate_formulas():
    rng = np.random.default_rng(19)
    p = ModelParams(omega=1.3, gamma=0.8)
    assert transition_rate(Z_DIRECTION, p) == pytest.approx(p.gamma)
    assert transition_rate(X_DIRECTION, p) == pytest.approx(0.0, abs=1e-15)
    S3 = bloch_block(p)
    for _ in range(20):
        d = random_direction(rng)
        n = d.unit_vector
        # the local rate is the shrink rate of the linear flow
        assert transition_rate(d, p) == pytest.approx(-0.5 * n @ (S3 @ n), abs=1e-12)


def test_transition_rate_near_the_pointer_axis_does_not_cancel():
    # at gamma/omega = 1e9 a forward family sits 5e-10 rad from the x axis,
    # where 1 - n_x^2 rounds to exactly 0.0
    p = ModelParams(omega=1.0, gamma=1e9)
    start = BlochDirection(0.2, 0.0)
    d = exact_direction(start, p, FORWARD, 1.0)
    fam = FamilyTrajectory.integrate(start, p, FORWARD, np.linspace(0.0, 1.0, 11))
    assert fam.kappa_at(1.0) == pytest.approx(2.5e-10, rel=1e-9)
    assert transition_rate(d, p) == pytest.approx(fam.kappa_at(1.0), rel=1e-12)


def test_radius_equals_integrated_rate():
    p = ModelParams(omega=1.0, gamma=0.4)
    times = np.linspace(0.0, 8.0, 4001)
    traj = FamilyTrajectory.integrate(X_DIRECTION, p, FORWARD, times)
    integral = cumulative_trapezoid(traj.kappa, times, initial=0.0)
    S3 = bloch_block(p)
    n0 = X_DIRECTION.unit_vector
    for idx in range(0, len(times), 500):
        r_lin = np.linalg.norm(expm(times[idx] * S3) @ n0)
        assert abs(r_lin - math.exp(-2.0 * integral[idx])) < 1e-6


def test_reflected_time_reversal_partnership():
    # run forward, reflect the azimuth, run backward, reflect again: back home
    rng = np.random.default_rng(83)
    for _ in range(12):
        p = ModelParams(omega=float(rng.uniform(0.3, 2.0)), gamma=float(rng.uniform(0.3, 2.0)))
        d0 = random_direction(rng)
        t = float(rng.uniform(0.2, 2.0))
        fwd = exact_direction(d0, p, FORWARD, t)
        mirrored = BlochDirection(theta=fwd.theta, phi=-fwd.phi)
        back = exact_direction(mirrored, p, BACKWARD, t)
        unmirrored = BlochDirection(theta=back.theta, phi=-back.phi)
        assert angle_between(unmirrored, d0) < 1e-8


def test_stationary_counts_per_regime():
    over = stationary_families(ModelParams(omega=1.0, gamma=4.0))
    assert len(over.equatorial) == 4
    assert over.z_family.kappa == pytest.approx(4.0)
    crit = stationary_families(ModelParams(omega=1.0, gamma=1.0))
    assert len(crit.equatorial) == 2
    under = stationary_families(ModelParams(omega=2.0, gamma=1.0))
    assert len(under.equatorial) == 0
    none = stationary_families(ModelParams(omega=1.0, gamma=0.0))
    assert len(none.equatorial) == 0
    # the stacked kernel and its 0-d view on the ratio grid, against the sign
    # of gamma^2 - omega^2 at 50 digits: four roots, two merged ones, or none
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    for omega in (1.0, 176.0):
        gammas = RATIOS * omega
        phi_x, phi_y, kx, _ = stationary_roots(gammas, omega)
        counts = []
        for g, px, py, k in zip(gammas, phi_x, phi_y, kx):
            want = {1: 4, 0: 2, -1: 0}[int(mpmath.sign(mpmath.mpf(g) ** 2 - mpmath.mpf(omega) ** 2))]
            counts.append(0 if math.isnan(k) else 2 if px == py else 4)
            assert counts[-1] == want == len(stationary_families(ModelParams(omega=omega, gamma=float(g))).equatorial)
        assert sorted(set(counts)) == [0, 2, 4]
    # no RuntimeWarning at gamma = 0, at omega = 0, or below the critical ratio
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = np.array(stationary_roots([0.0, 0.0, 0.5, 2.0], [0.0, 1.0, 1.0, 0.0]))
    assert np.isnan(roots[:, :3]).all()
    assert roots[:, 3].tolist() == [0.0, math.pi / 2.0, 0.0, 2.0]


def test_stationary_rates_are_nan_without_equatorial_roots_and_the_kernel_with_them():
    # one convention for "no equatorial root", the NaN of stationary_roots and scan.csv
    under = stationary_families(ModelParams(omega=2.0, gamma=1.0))
    assert math.isnan(under.kappa_x) and math.isnan(under.kappa_y)
    d2s2 = stationary_families(ModelParams(omega=176.0, gamma=9e9))
    _, _, kx, ky = stationary_roots(9e9, 176.0)
    assert d2s2.kappa_x == kx and d2s2.kappa_y == ky


def test_stationary_directions_are_flow_fixed_points():
    p = ModelParams(omega=1.0, gamma=2.5)
    stat = stationary_families(p)
    for fam in (stat.z_family, *stat.equatorial):
        senses = [fam.condition] if fam.condition in (FORWARD, BACKWARD) else [FORWARD, BACKWARD]
        for sense in senses:
            moved = exact_direction(fam.direction, p, sense, 0.8)
            assert angle_between(moved, fam.direction) < 1e-10


def test_stationary_rates_match_spectrum():
    rng = np.random.default_rng(37)
    for _ in range(10):
        g = float(rng.uniform(1.01, 5.0))
        p = ModelParams(omega=1.0, gamma=g)
        stat = stationary_families(p)
        lam = eigen_system(p).eigenvalues
        assert stat.kappa_x == pytest.approx(-lam[1].real / 2.0, abs=1e-12)
        assert stat.kappa_y == pytest.approx(-lam[2].real / 2.0, abs=1e-12)
        assert stat.kappa_z == pytest.approx(g)
    # the stacked kernel on the ratio grid against the rates at 50 digits
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    for omega in (1.0, 176.0):
        gammas = RATIOS[RATIOS >= 1.0] * omega
        _, _, kx, ky = stationary_roots(gammas, omega)
        for g, got_x, got_y in zip(gammas, kx, ky):
            G, W = mpmath.mpf(g), mpmath.mpf(omega)
            xi = mpmath.sqrt(G * G - W * W)
            assert abs(got_x / (W * W / (2 * (G + xi))) - 1) < 1e-15
            assert abs(got_y / ((G + xi) / 2) - 1) < 1e-15


def test_stationary_azimuths_solve_the_root_equation():
    p = ModelParams(omega=1.0, gamma=2.5)
    stat = stationary_families(p)
    phi_values = {f"{fam.label}:{fam.condition}": fam.direction.phi for fam in stat.equatorial}
    assert phi_values["dressed_x:forward"] == pytest.approx(math.asin(0.4) / 2.0, abs=1e-14)
    for fam in stat.equatorial:
        sign = 1.0 if fam.condition == FORWARD else -1.0
        assert math.sin(2.0 * fam.direction.phi) == pytest.approx(sign * 0.4, abs=1e-14)
    # both forward roots of the stacked kernel on the ratio grid, at 50 digits;
    # at the critical ratio they are the one merged root pi/4
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    for omega in (1.0, 176.0):
        gammas = RATIOS[RATIOS >= 1.0] * omega
        phi_x, phi_y, _, _ = stationary_roots(gammas, omega)
        assert phi_x[0] == phi_y[0] == math.pi / 4.0
        for g, px, py in zip(gammas, phi_x, phi_y):
            want = mpmath.mpf(omega) / mpmath.mpf(g)
            assert abs(mpmath.sin(2 * mpmath.mpf(px)) - want) < 1e-15
            assert abs(mpmath.sin(2 * mpmath.mpf(py)) - want) < 1e-15


def test_regime_numbers():
    # underdamped: families rotate at eta, advancing phi by pi per
    # stroboscopic period pi/eta, and no stationary rates exist
    under = ModelParams(omega=20.0, gamma=1.0)
    eta = math.sqrt(400.0 - 1.0)
    assert under.regime == UNDERDAMPED
    assert under.discriminant == pytest.approx(eta)
    assert exact_direction(X_DIRECTION, under, FORWARD, math.pi / eta).phi == pytest.approx(math.pi, abs=1e-12)
    assert np.isnan(stationary_roots(under.gamma, under.omega)).all()
    # overdamped: the equatorial decay rates 2 kappa_x = omega^2/(gamma + xi)
    # and 2 kappa_y = gamma + xi
    over = ModelParams(omega=1.0, gamma=3.0)
    xi = math.sqrt(8.0)
    assert over.regime == OVERDAMPED
    assert over.discriminant == pytest.approx(xi)
    _, _, kx, ky = stationary_roots(over.gamma, over.omega)
    assert 2.0 * kx == pytest.approx(1.0 / (3.0 + xi))
    assert 2.0 * ky == pytest.approx(3.0 + xi)


def test_family_trajectory_grid_and_interpolation():
    p = ModelParams(omega=1.0, gamma=0.5)
    times = np.linspace(0.0, 5.0, 501)
    traj = FamilyTrajectory.integrate(BlochDirection(0.2, 0.0), p, FORWARD, times)
    assert traj.kappa.min() >= -1e-12 and traj.kappa.max() <= p.gamma + 1e-12
    mid = traj.direction_at(2.345)
    assert angle_between(mid, exact_direction(BlochDirection(0.2, 0.0), p, FORWARD, 2.345)) < 1e-4
    with pytest.raises(ValueError):
        FamilyTrajectory.integrate(BlochDirection(0.2, 0.0), p, FORWARD, np.array([0.0, 0.0, 1.0]))


@pytest.mark.parametrize(
    "params, start, sense",
    [
        (ModelParams(omega=1.0, gamma=0.3), BlochDirection(0.7, 0.4), FORWARD),  # underdamped: phi winds
        (ModelParams(omega=1.0, gamma=0.3), BlochDirection(2.5, -1.0), BACKWARD),
        (ModelParams(omega=1.0, gamma=2.5), BlochDirection(-0.4, 2.0), FORWARD),  # sin theta < 0
        (ModelParams(omega=1.0, gamma=2.5), BlochDirection(4.0, 0.3), BACKWARD),  # theta beyond pi
        (ModelParams(omega=1.0, gamma=1.0), BlochDirection(1.2, 1.0), FORWARD),  # critical
        (ModelParams(omega=1.3, gamma=0.6), Z_DIRECTION, FORWARD),  # on the pole only phi moves
    ],
)
def test_closed_form_family_reproduces_the_raw_ode_angles(params, start, sense):
    # not just the same diameter: the same continuous (theta, phi) the angle
    # ODEs integrate to, with phi unwrapped across windings
    grid = np.linspace(0.0, 12.0, 61)
    fam = FamilyTrajectory.integrate(start, params, sense, grid)
    state = start
    for k in range(1, len(grid)):
        state = family_ode_step(state, params, sense, float(grid[k] - grid[k - 1]))
        assert abs(fam.theta[k] - state.theta) < 1e-8
        assert abs(fam.phi[k] - state.phi) < 1e-8
    # off-grid evaluation is the same closed form, not an interpolation
    t = 3.21
    assert angle_between(fam.direction_at(t), exact_direction(start, params, sense, t)) < 1e-12
    want = transition_rate(exact_direction(start, params, sense, t), params)
    assert fam.kappa_at(t) == pytest.approx(want, abs=1e-12)
    integral = quad(lambda s: fam.kappa_at(s), 0.0, t, epsabs=1e-13, epsrel=1e-13)[0]
    assert fam.rate_integral_at(t) == pytest.approx(integral, abs=1e-11)


def test_backward_family_far_beyond_the_overflow_point():
    # D2S2 backward: the flow grows like exp(2 gamma t) = exp(18000) at the end
    mpmath = pytest.importorskip("mpmath")
    p = ModelParams(omega=176.0, gamma=9e9)
    start = BlochDirection(0.9, 0.2)
    grid = np.linspace(0.0, 1e-6, 101)
    fam = FamilyTrajectory.integrate(start, p, BACKWARD, grid)
    for column in (fam.theta, fam.phi, fam.kappa, fam.rate_integral):
        assert np.all(np.isfinite(column))
    for k in (1, 50, 100):
        with mpmath.workdps(40):
            A = mpmath.matrix((-bloch_block(p).T).tolist())
            v = mpmath.expm(A * mpmath.mpf(grid[k])) * mpmath.matrix(start.unit_vector.tolist())
            nrm = mpmath.norm(v)
            want = BlochDirection.from_vector([float(x / nrm) for x in v])
            log_radius = float(mpmath.log(nrm))
        assert angle_between(fam.direction_at(grid[k]), want) < 1e-12
        assert angle_between(exact_direction(start, p, BACKWARD, float(grid[k])), want) < 1e-12
        assert fam.rate_integral[k] == pytest.approx(0.5 * log_radius, rel=1e-12)


def test_exact_direction_keeps_the_pole_far_beyond_the_overflow_point():
    # the z diameter is invariant; at gamma t = 9e6 its exp(-2 gamma t) weight
    # underflows, which must not read as a collapsed flow
    p = ModelParams(omega=176.0, gamma=9e9)
    for sense in (FORWARD, BACKWARD):
        assert exact_direction(Z_DIRECTION, p, sense, 1e-3).theta == 0.0
        fam = FamilyTrajectory.integrate(Z_DIRECTION, p, sense, np.array([0.0, 1e-3]))
        assert fam.theta[-1] == 0.0
        assert fam.rate_integral[-1] == pytest.approx(9e6, rel=1e-15)


def test_span_conditions_accept_true_sequences_and_reject_perturbed():
    p = ModelParams(omega=0.9, gamma=1.4)
    d0 = BlochDirection(theta=1.1, phi=0.5)
    times = np.array([0.0, 0.7, 1.4, 2.1])
    fwd = [Decomposition.from_direction(exact_direction(d0, p, FORWARD, float(t))) for t in times]
    rep = check_forward_condition(fwd, p, times)
    assert rep.passed and rep.max_residual < 1e-10
    # same sequence read against the backward condition must fail
    assert not check_backward_condition(fwd, p, times).passed

    bwd = [Decomposition.from_direction(exact_direction(d0, p, BACKWARD, float(t))) for t in times]
    assert check_backward_condition(bwd, p, times).passed
    assert not check_forward_condition(bwd, p, times).passed

    broken = list(fwd)
    broken[2] = Decomposition.from_direction(BlochDirection(theta=1.3, phi=2.2))
    assert not check_forward_condition(broken, p, times).passed
    with pytest.raises(ValueError, match="at least one time"):
        check_forward_condition([], p, np.array([]))
