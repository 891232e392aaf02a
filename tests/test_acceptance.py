"""End-to-end acceptance checks.

Each test pins one delivered guarantee at its stated tolerance, so the
verbose test report reads as a pass/fail line per guarantee.  Tolerances
and runtime budgets are part of the contract; do not loosen them here.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from oracles import (
    eigen_system,
    exact_direction,
    propagator_numeric,
    record_information_from_entries,
    unital_holevo_closed_form,
)
from tunnelmol import (
    BACKWARD,
    BlochDirection,
    Decomposition,
    FORWARD,
    FamilyTrajectory,
    HistoryFamily,
    ModelParams,
    SamplerConfig,
    X_DIRECTION,
    Z_DIRECTION,
    build_info_report,
    decoherence_functional,
    ensemble_average,
    gap_statistics,
    generator,
    propagator_closed_form,
    quadratic_information,
    sample_ensemble,
    stationary_families,
)
from tunnelmol.histories import CONSISTENCY_TOL

PANEL_A = ModelParams(omega=0.8, gamma=2.0)
PANEL_B = ModelParams(omega=20.0, gamma=1.0)


def test_01_closed_form_propagator_matches_both_oracles():
    rng = np.random.default_rng(42)
    start = time.monotonic()
    worst_expm = worst_ode = 0.0
    regimes = set()
    near_critical = 0
    for k in range(50):
        g = rng.uniform(0.05, 4.0)
        om = rng.uniform(0.05, 4.0)
        if k % 5 == 0:
            om = abs(g + rng.uniform(-1e-6, 1e-6))
        t = rng.uniform(0.0, 5.0)
        params = ModelParams(omega=om, gamma=g)
        regimes.add(params.regime)
        if abs(g - om) < 1e-6:
            near_critical += 1
        T = propagator_closed_form(params, t)
        worst_expm = max(worst_expm, float(np.abs(T - expm(t * generator(params))).max()))
        worst_ode = max(worst_ode, float(np.abs(T - propagator_numeric(params, t)).max()))
    elapsed = time.monotonic() - start
    assert near_critical >= 10
    assert {"overdamped", "underdamped"} <= regimes
    assert worst_expm < 1e-9
    assert worst_ode < 1e-9
    assert elapsed < 1.0


def test_02_generator_eigenstructure_relations():
    rng = np.random.default_rng(5)
    draws = [(rng.uniform(0.1, 4.0), rng.uniform(0.1, 4.0)) for _ in range(30)]
    draws += [(2.0, 0.8), (0.3, 3.0)]
    for g, om in draws:
        params = ModelParams(omega=om, gamma=g)
        if params.regime == "critical":
            continue  # defective point, eigenbasis does not exist
        eig = eigen_system(params)
        ev = eig.eigenvalues
        assert abs(ev[0]) < 1e-12
        assert abs(ev[3] + 2.0 * g) < 1e-12
        assert abs(ev[1] + ev[2] + 2.0 * g) < 1e-12
        assert abs(ev[1] * ev[2] - om**2) < 1e-12
        S = generator(params)
        for k in range(4):
            assert np.abs(S @ eig.right[k] - ev[k] * eig.right[k]).max() < 1e-10
            assert np.abs(eig.left[k] @ S - ev[k] * eig.left[k]).max() < 1e-10
    slow = eigen_system(PANEL_A).eigenvalues[1]
    assert abs(slow - (-0.166970)) < 1e-6


def _azimuth_drift(direction, params, sense, dt=1e-3):
    moved = exact_direction(direction, params, sense, dt)
    dphi = (moved.phi - direction.phi + math.pi) % (2.0 * math.pi) - math.pi
    return abs(dphi) / dt


def test_03_stationary_families_counts_roots_and_rates():
    rng = np.random.default_rng(11)
    for _ in range(15):
        om = rng.uniform(0.2, 2.0)
        g = om * rng.uniform(1.05, 8.0)
        params = ModelParams(omega=om, gamma=g)
        stat = stationary_families(params)
        assert len(stat.equatorial) == 4
        for fam in stat.equatorial:
            want = om / g if fam.condition == FORWARD else -om / g
            assert abs(math.sin(2.0 * fam.direction.phi) - want) < 1e-12
            assert _azimuth_drift(fam.direction, params, fam.condition) < 1e-10
        eig = eigen_system(params)
        assert abs(stat.kappa_x + eig.eigenvalues[1].real / 2.0) < 1e-12
        assert abs(stat.kappa_y + eig.eigenvalues[2].real / 2.0) < 1e-12
    for _ in range(10):
        om = rng.uniform(0.5, 3.0)
        params = ModelParams(omega=om, gamma=om * rng.uniform(0.05, 0.95))
        assert len(stationary_families(params).equatorial) == 0
    merged = stationary_families(ModelParams(omega=1.3, gamma=1.3))
    assert len(merged.equatorial) == 2
    assert sorted(f.condition for f in merged.equatorial) == [BACKWARD, FORWARD]
    for fam in merged.equatorial:
        assert _azimuth_drift(fam.direction, ModelParams(omega=1.3, gamma=1.3), fam.condition) < 1e-10


def test_04_random_families_consistent_generic_bases_not():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst_family = 0.0
    for k in range(200):
        g = rng.uniform(0.2, 3.0)
        om = rng.uniform(0.2, 3.0)
        params = ModelParams(omega=om, gamma=g)
        f = int(rng.integers(2, 5))
        times = np.sort(rng.uniform(0.05, 3.0, size=f))
        while np.any(np.diff(times) < 0.05):
            times = np.sort(rng.uniform(0.05, 3.0, size=f))
        d0 = BlochDirection(theta=rng.uniform(0.1, math.pi - 0.1), phi=rng.uniform(0, 2 * math.pi))
        sense = FORWARD if k % 2 == 0 else BACKWARD
        decomps = tuple(
            Decomposition.from_direction(exact_direction(d0, params, sense, t - times[0]))
            for t in times
        )
        family = HistoryFamily(params=params, times=times, decompositions=decomps)
        initial = None if sense == FORWARD else np.array([0.0, 0.0, 1.0])
        worst_family = max(worst_family, decoherence_functional(family, initial).max_offdiag)
    assert worst_family < 1e-8

    # bases rejected unless every step stays 0.2 rad away from both exact
    # transports of its predecessor; such bases must visibly interfere
    def far_from_transports(prev, cur, params, dt):
        for sense in (FORWARD, BACKWARD):
            image = exact_direction(prev, params, sense, dt).unit_vector
            cosine = abs(float(np.dot(image, cur.unit_vector)))
            if math.acos(min(1.0, cosine)) < 0.2:
                return False
        return True

    smallest_offdiag = 1.0
    count = 0
    while count < 50:
        g = rng.uniform(0.2, 0.9)
        om = rng.uniform(1.2, 3.0)
        params = ModelParams(omega=om, gamma=g)
        times = np.array([0.0, *np.sort(rng.uniform(0.4, 2.5, size=2))])
        if np.any(np.diff(times) < 0.3):
            continue
        dirs = [
            BlochDirection(theta=math.acos(rng.uniform(-1, 1)), phi=rng.uniform(0, 2 * math.pi))
            for _ in range(3)
        ]
        if not all(
            far_from_transports(dirs[m - 1], dirs[m], params, times[m] - times[m - 1])
            for m in range(1, 3)
        ):
            continue
        family = HistoryFamily(
            params=params, times=times, decompositions=tuple(Decomposition.from_direction(d) for d in dirs)
        )
        offdiag = decoherence_functional(family, np.array([0.0, 0.0, 1.0])).max_offdiag
        smallest_offdiag = min(smallest_offdiag, offdiag)
        count += 1
    assert smallest_offdiag > 1e-3
    assert time.monotonic() - start < 30.0


def test_05_flow_winding_saturation_and_polar_limits():
    start = BlochDirection(theta=0.2, phi=0.0)
    grid = np.linspace(0.0, 20.0, 2001)

    # slow damping: the azimuth winds at the beat frequency
    slow = ModelParams(omega=1.0, gamma=0.5)
    wind = FamilyTrajectory.integrate(start, slow, FORWARD, np.linspace(0.0, 25.0, 2501))
    speed = (wind.phi[-1] - wind.phi[0]) / 25.0
    assert abs(speed - math.sqrt(0.75)) / math.sqrt(0.75) < 0.02

    # strong damping: the azimuth locks onto the stationary root
    fast = ModelParams(omega=1.0, gamma=4.0)
    locked = FamilyTrajectory.integrate(start, fast, FORWARD, grid)
    k10 = int(np.searchsorted(grid, 10.0))
    assert abs(locked.phi[k10] - math.asin(0.25) / 2.0) < 1e-4

    for g in (0.5, 1.2, 4.0):
        params = ModelParams(omega=1.0, gamma=g)
        fwd = FamilyTrajectory.integrate(start, params, FORWARD, grid)
        assert np.diff(fwd.theta).min() > -1e-9  # monotone rise
        assert abs(fwd.theta[-1] - math.pi / 2.0) < 1e-3
        bwd = FamilyTrajectory.integrate(start, params, BACKWARD, grid)
        assert np.diff(bwd.theta).max() < 1e-9  # monotone fall
        assert bwd.theta[-1] < 0.01
    upper = FamilyTrajectory.integrate(
        BlochDirection(theta=math.pi - 0.2, phi=0.0), ModelParams(omega=1.0, gamma=0.5), BACKWARD, grid
    )
    assert upper.theta[-1] > math.pi - 0.01


def test_06_telegraph_gap_law_and_ensemble_relaxation():
    start = time.monotonic()
    params = ModelParams(omega=1.0, gamma=1.0)

    family = FamilyTrajectory.integrate(Z_DIRECTION, params, FORWARD, np.linspace(0.0, 50.0, 501))
    ensemble = sample_ensemble(family, SamplerConfig(seed=20260823, n_trajectories=5000, initial=0))
    stats = gap_statistics(ensemble, rate=params.gamma, max_gaps=20)
    assert stats.n == 100_000
    assert stats.ks_statistic < stats.ks_critical(0.01)

    short = FamilyTrajectory.integrate(Z_DIRECTION, params, FORWARD, np.linspace(0.0, 2.0, 201))
    big = sample_ensemble(short, SamplerConfig(seed=77, n_trajectories=50_000, initial=0))
    grid = np.linspace(0.0, 2.0, 41)
    series = ensemble_average(big, grid)
    deviation = np.abs(series.occupation_difference - np.exp(-2.0 * params.gamma * grid)).max()
    assert deviation < 0.02
    assert time.monotonic() - start < 10.0


def test_07_history_information_equals_holevo_information():
    # pointer family: the report's record column against the closed form
    for g, t in ((0.7, 0.9), (2.0, 0.4), (1.3, 2.2)):
        params = ModelParams(omega=1.1, gamma=g)
        curves = build_info_report(params, np.array([0.0, t]), family_basis="z").curves
        mi = curves["mutual_info"][1]
        assert abs(mi - unital_holevo_closed_form(math.exp(-2.0 * g * t))) < 1e-9
        assert abs(mi - curves["chi_z_direct"][1]) < 1e-9

    rng = np.random.default_rng(7)
    worst = 0.0
    for k in range(50):
        g = rng.uniform(0.2, 3.0)
        om = rng.uniform(0.2, 3.0)
        params = ModelParams(omega=om, gamma=g)
        d0 = BlochDirection(theta=math.acos(rng.uniform(-1, 1)), phi=rng.uniform(0, 2 * math.pi))
        t = rng.uniform(0.1, 2.5)
        # any direction: the forward family's functional against the transported length
        d1 = exact_direction(d0, params, FORWARD, t)
        family = HistoryFamily(
            params=params,
            times=np.array([0.0, t]),
            decompositions=(Decomposition.from_direction(d0), Decomposition.from_direction(d1)),
        )
        mi = float(record_information_from_entries(decoherence_functional(family).entries, CONSISTENCY_TOL))
        r = float(np.linalg.norm(propagator_closed_form(params, t)[1:, 1:] @ d0.unit_vector))
        worst = max(worst, abs(mi - unital_holevo_closed_form(r)))
        # the named bases: the report's identity on its whole grid
        basis = "xyz"[k % 3]
        curves = build_info_report(params, np.linspace(0.0, t, 11), family_basis=basis).curves
        worst = max(worst, float(np.abs(curves["mutual_info"] - curves[f"chi_{basis}_direct"]).max()))
    assert worst < 1e-9


def test_08_information_bounds_and_initial_rates():
    for params, tmax in ((PANEL_A, 3.0), (PANEL_B, 3.0 * 2.0 * math.pi / PANEL_B.discriminant)):
        curves = build_info_report(params, np.linspace(0.0, tmax, 121)).curves
        slack_zx = 1.0 - curves["sum_zx"]
        slack_xz = 1.0 - curves["sum_xz"]
        assert slack_zx.min() >= -1e-9
        assert slack_xz.min() >= -1e-9
        assert np.abs(slack_zx - slack_xz).max() < 1e-8  # cross pairing equality

    g = PANEL_A.gamma
    _, comp_slope = quadratic_information(PANEL_A, X_DIRECTION)
    assert abs(comp_slope - 8.0) / 8.0 < 1e-3
    direct_slope, _ = quadratic_information(PANEL_A, Z_DIRECTION)
    assert abs(direct_slope - (-4.0 * g)) / (4.0 * g) < 1e-3
    tilted = BlochDirection(theta=math.pi / 2.0, phi=0.7)
    nx2 = math.cos(0.7) ** 2
    direct_slope, comp_slope = quadratic_information(PANEL_A, tilted)
    assert abs(comp_slope - 4.0 * g * nx2) / (4.0 * g * nx2) < 1e-3
    assert abs(direct_slope + 4.0 * g * (1.0 - nx2)) / (4.0 * g * (1.0 - nx2)) < 1e-3


def test_09_information_curve_shapes():
    # strong-damping panel: endpoints, launch slopes, monotone tails
    h = 1e-4
    launch = build_info_report(PANEL_A, np.array([0.0, h])).curves
    assert abs(launch["chi_x_direct"][0] - 1.0) < 1e-9
    assert abs(launch["chi_z_direct"][0] - 1.0) < 1e-9
    assert abs(launch["chi_x_comp"][0]) < 1e-9
    assert abs(launch["chi_z_comp"][0]) < 1e-9
    slopes = {name: (col[1] - col[0]) / h for name, col in launch.items()}
    assert abs(slopes["chi_x_direct"]) < 1.0  # flat launch
    assert abs(slopes["chi_z_comp"]) < 1.0
    assert slopes["chi_z_direct"] < -20.0  # steep launch, loss side
    assert slopes["chi_x_comp"] > 20.0  # steep launch, gain side
    sampled = build_info_report(PANEL_A, np.linspace(0.0, 3.0, 301)).curves
    for name, sign in (("chi_x_direct", -1), ("chi_z_direct", -1), ("chi_x_comp", +1), ("chi_z_comp", +1)):
        tail = np.diff(sampled[name][5:]) * sign
        assert tail.min() > -1e-10

    # fast-tunneling panel: staircase of plateaus and rises
    period = 2.0 * math.pi / PANEL_B.discriminant
    tb = np.linspace(1e-6, 3.0 * period, 1200)
    curve = build_info_report(PANEL_B, tb).curves["chi_x_direct"]
    slope = np.gradient(curve, tb)
    plateau = np.abs(slope) < 0.2 * np.median(np.abs(slope))
    runs = int(np.sum(plateau[1:] & ~plateau[:-1]) + plateau[0])
    assert runs >= 3


def test_10_physical_preset_scale_separation():
    params = ModelParams(omega=176.0, gamma=9.0e9)
    ratio = params.gamma / params.omega
    assert f"{ratio:.0e}" == "5e+07"
    assert params.regime == "overdamped"
    stat = stationary_families(params)
    assert abs(stat.kappa_x - params.omega**2 / (4.0 * params.gamma)) < 1e-6 * stat.kappa_x
