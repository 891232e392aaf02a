"""Telegraph sampling: streams, time change, ensemble against the master equation."""

import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import expm

from tunnelmol.families import BACKWARD, FORWARD, BlochDirection, FamilyTrajectory, X_DIRECTION, Z_DIRECTION, bloch_block
from tunnelmol.ptm import ModelParams
from tunnelmol.trajectories import (
    SamplerConfig,
    Trajectory,
    deterministic_occupation,
    ensemble_average,
    gap_statistics,
    sample_ensemble,
    sample_trajectory,
)


def z_traj_family(gamma, t_end, points=501):
    p = ModelParams(omega=1.0, gamma=gamma)
    return FamilyTrajectory.integrate(Z_DIRECTION, p, FORWARD, np.linspace(0.0, t_end, points))


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(seed=1, n_trajectories=0)
    with pytest.raises(ValueError):
        SamplerConfig(seed=1, initial=1.5)


def test_streams_are_reproducible_and_index_keyed():
    fam = z_traj_family(0.8, 30.0)
    cfg = SamplerConfig(seed=42, n_trajectories=5, initial=0)
    a = sample_trajectory(fam, cfg, index=3)
    b = sample_trajectory(fam, cfg, index=3)
    assert np.array_equal(a.flip_times, b.flip_times)
    ens = sample_ensemble(fam, cfg)
    assert np.array_equal(ens[3].flip_times, a.flip_times)
    # different index, different stream
    c = sample_trajectory(fam, cfg, index=4)
    assert not np.array_equal(a.flip_times, c.flip_times)


def test_ensemble_members_are_bitwise_single_trajectories_across_solver_blocks():
    # a moving family with several solver blocks of flips: trajectory i must
    # depend on (seed, i) alone, not on the ensemble size or its block
    p = ModelParams(omega=1.0, gamma=0.5)
    fam = FamilyTrajectory.integrate(BlochDirection(0.9, 0.3), p, FORWARD, np.linspace(0.0, 40.0, 401))
    cfg = SamplerConfig(seed=4, n_trajectories=1000, initial=0)
    big = sample_ensemble(fam, cfg)
    assert sum(t.n_flips for t in big) > 2 * 4096
    small = sample_ensemble(fam, SamplerConfig(seed=4, n_trajectories=3, initial=0))
    for i in range(3):
        assert np.array_equal(small[i].flip_times, big[i].flip_times)
    for i in (0, 1, 2, 411, 999):
        single = sample_trajectory(fam, cfg, index=i)
        assert np.array_equal(big[i].flip_times, single.flip_times)
        assert big[i].initial_arm == single.initial_arm


def test_initial_arm_modes():
    fam = z_traj_family(0.5, 5.0)
    pinned = sample_ensemble(fam, SamplerConfig(seed=7, n_trajectories=50, initial=1))
    assert all(t.initial_arm == 1 for t in pinned)
    biased = sample_ensemble(fam, SamplerConfig(seed=7, n_trajectories=4000, initial=0.7))
    frac0 = np.mean([t.initial_arm == 0 for t in biased])
    assert abs(frac0 - 0.7) < 4.0 * math.sqrt(0.21 / 4000)
    fair = sample_ensemble(fam, SamplerConfig(seed=7, n_trajectories=4000))
    frac0 = np.mean([t.initial_arm == 0 for t in fair])
    assert abs(frac0 - 0.5) < 4.0 * math.sqrt(0.25 / 4000)


def test_arm_at_parity_and_events():
    traj = Trajectory(t_start=0.0, t_end=4.0, initial_arm=0, flip_times=np.array([1.0, 2.0, 3.0]))
    assert traj.n_flips == 3
    assert list(traj.arm_at([0.5, 1.5, 2.5, 3.5])) == [0, 1, 0, 1]
    assert traj.events() == [(1.0, 1), (2.0, 0), (3.0, 1)]
    lines = traj.to_csv().splitlines()
    assert lines[0] == "time,arm"
    assert lines[1] == "0,0"


def test_no_collisions_no_flips():
    p = ModelParams(omega=1.0, gamma=0.0)
    fam = FamilyTrajectory.integrate(Z_DIRECTION, p, FORWARD, np.linspace(0.0, 5.0, 101))
    traj = sample_trajectory(fam, SamplerConfig(seed=3, initial=0))
    assert traj.n_flips == 0


def test_x_family_never_flips():
    # kappa vanishes identically on the collision-pointer diameter
    p = ModelParams(omega=0.0, gamma=2.0)
    fam = FamilyTrajectory.integrate(X_DIRECTION, p, FORWARD, np.linspace(0.0, 10.0, 201))
    assert fam.kappa.max() < 1e-12
    traj = sample_trajectory(fam, SamplerConfig(seed=5, initial=0))
    assert traj.n_flips == 0


def test_z_family_flip_count_is_poisson_like():
    gamma, t_end = 0.8, 25.0
    fam = z_traj_family(gamma, t_end)
    ens = sample_ensemble(fam, SamplerConfig(seed=19, n_trajectories=2000, initial=0))
    counts = np.array([t.n_flips for t in ens])
    mean = gamma * t_end
    assert abs(counts.mean() - mean) < 4.0 * math.sqrt(mean / 2000)
    assert abs(counts.var() / mean - 1.0) < 0.1


def test_z_family_gaps_are_exponential():
    gamma = 0.5
    fam = z_traj_family(gamma, 60.0 / gamma)
    ens = sample_ensemble(fam, SamplerConfig(seed=11, n_trajectories=400, initial=0))
    stats = gap_statistics(ens, rate=gamma, max_gaps=15)
    assert stats.n == 6000
    assert stats.mean_gap == pytest.approx(1.0 / gamma, rel=0.05)
    assert stats.ks_statistic < stats.ks_critical(0.01)


def test_moving_family_flips_follow_the_local_rate():
    # time-rescaling: mapping flip times through the integrated rate turns an
    # inhomogeneous stream into a unit-rate one
    p = ModelParams(omega=1.0, gamma=0.4)
    grid = np.linspace(0.0, 80.0, 4001)
    fam = FamilyTrajectory.integrate(X_DIRECTION, p, FORWARD, grid)
    ens = sample_ensemble(fam, SamplerConfig(seed=5, n_trajectories=300, initial=0))
    integral = cumulative_trapezoid(fam.kappa, fam.times, initial=0.0)
    pooled = []
    for t in ens:
        if t.n_flips >= 2:
            tau = np.interp(t.flip_times, fam.times, integral)
            pooled.append(np.diff(tau)[:10])
    g = np.sort(np.concatenate(pooled))
    n = len(g)
    cdf = 1.0 - np.exp(-g)
    ks = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(0, n) / n).max())
    assert ks < 1.628 / math.sqrt(n)


def test_ensemble_average_matches_master_equation_moving_family():
    p = ModelParams(omega=1.0, gamma=0.4)
    grid = np.linspace(0.0, 6.0, 1201)
    fam = FamilyTrajectory.integrate(BlochDirection(0.9, 0.3), p, FORWARD, grid)
    n_traj = 3000
    ens = sample_ensemble(fam, SamplerConfig(seed=99, n_trajectories=n_traj, initial=0))
    query = np.linspace(0.0, 6.0, 25)
    series = ensemble_average(ens, fam, query)
    master = deterministic_occupation(fam, query, p0_initial=1.0)
    sigma = np.sqrt(np.maximum(master * (1.0 - master), 0.01) / n_traj)
    assert np.max(np.abs(series.p0 - master) / sigma) < 6.0


def test_ensemble_bloch_vector_tracks_linear_flow():
    # the reconstructed Bloch path must agree with the operator flow applied
    # to the initial direction
    p = ModelParams(omega=1.0, gamma=0.4)
    d0 = BlochDirection(0.9, 0.3)
    grid = np.linspace(0.0, 6.0, 1201)
    fam = FamilyTrajectory.integrate(d0, p, FORWARD, grid)
    ens = sample_ensemble(fam, SamplerConfig(seed=99, n_trajectories=3000, initial=0))
    query = np.linspace(0.0, 6.0, 13)
    series = ensemble_average(ens, fam, query)
    S3 = bloch_block(p)
    for k, t in enumerate(query):
        want = expm(t * S3) @ d0.unit_vector
        assert np.abs(series.bloch[k] - want).max() < 0.06


def test_deterministic_occupation_closed_form_for_z_family():
    gamma = 0.7
    fam = z_traj_family(gamma, 5.0, points=2001)
    times = np.linspace(0.0, 5.0, 11)
    got = deterministic_occupation(fam, times, p0_initial=1.0)
    want = 0.5 * (1.0 + np.exp(-2.0 * gamma * times))
    assert np.abs(got - want).max() < 1e-7


def test_deterministic_occupation_is_exact_off_the_grid():
    # forward: (1 + delta0 |expm(t S3) n0|)/2, also at D2S2; backward:
    # (1 + delta0 / |expm(-t S3^T) n0|)/2
    d0 = BlochDirection(0.9, 0.2)
    for p, sense, t_end in (
        (ModelParams(omega=176.0, gamma=9e9), FORWARD, 1e-6),
        (ModelParams(omega=1.0, gamma=0.6), FORWARD, 5.0),
        (ModelParams(omega=1.0, gamma=0.6), BACKWARD, 5.0),
    ):
        fam = FamilyTrajectory.integrate(d0, p, sense, np.linspace(0.0, t_end, 11))
        times = np.linspace(0.0, t_end, 7) + t_end / 13.0
        S3 = bloch_block(p)
        if sense == FORWARD:
            radius = np.array([np.linalg.norm(expm(t * S3) @ d0.unit_vector) for t in times])
        else:
            radius = 1.0 / np.array([np.linalg.norm(expm(-t * S3.T) @ d0.unit_vector) for t in times])
        got = deterministic_occupation(fam, times, p0_initial=0.0)
        assert np.abs(got - 0.5 * (1.0 - radius)).max() < 1e-12


def test_ensemble_series_csv_and_errors():
    fam = z_traj_family(0.5, 5.0)
    ens = sample_ensemble(fam, SamplerConfig(seed=2, n_trajectories=10, initial=0))
    series = ensemble_average(ens, fam, np.linspace(0.0, 5.0, 6))
    header = series.to_csv().splitlines()[0]
    assert header == "t,p0,delta_p,bloch_x,bloch_y,bloch_z"
    assert series.stderr().shape == (6,)
    with pytest.raises(ValueError):
        gap_statistics([], rate=0.5)


def test_backward_family_sampling_runs():
    p = ModelParams(omega=1.0, gamma=0.6)
    fam = FamilyTrajectory.integrate(BlochDirection(0.5, 0.2), p, BACKWARD, np.linspace(0.0, 4.0, 801))
    ens = sample_ensemble(fam, SamplerConfig(seed=13, n_trajectories=200, initial=0))
    series = ensemble_average(ens, fam, np.linspace(0.0, 4.0, 9))
    master = deterministic_occupation(fam, np.linspace(0.0, 4.0, 9), p0_initial=1.0)
    assert np.abs(series.p0 - master).max() < 0.12
