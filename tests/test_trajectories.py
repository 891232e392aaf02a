"""Telegraph sampling: streams, time change, ensemble against the master equation."""

import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import expm

from oracles import bloch_block
from tunnelmol.families import BACKWARD, FORWARD, BlochDirection, FamilyTrajectory, X_DIRECTION, Z_DIRECTION
from tunnelmol.ptm import ModelParams
from tunnelmol import trajectories
from tunnelmol.trajectories import (
    Ensemble,
    SamplerConfig,
    Trajectory,
    _draw,
    _invert,
    _philox4x64,
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
    # the seed is the 128-bit Philox key
    for bad in (-1, 2**128, 1.5):
        with pytest.raises(ValueError, match="seed"):
            SamplerConfig(seed=bad)
    SamplerConfig(seed=2**128 - 1)
    SamplerConfig(seed=np.uint64(2**64 - 1))


def numpy_philox_words(key, counter, n_words):
    """Raw output of numpy's Philox4x64-10, which steps the counter before each block."""
    gen = np.random.Philox(key=np.array(key, dtype=np.uint64), counter=np.array(counter, dtype=np.uint64))
    return gen.random_raw(n_words)


def test_philox_kernel_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(2024)
    draw = lambda n: tuple(int(w) for w in rng.integers(0, 2**64, n, dtype=np.uint64))  # noqa: E731
    keys = [(0, 0), (2**64 - 1, 2**64 - 1)] + [draw(2) for _ in range(6)]
    counters = [(0, 0, 0, 0), (2**64 - 1, 5, 0, 0), (2**64 - 1, 2**64 - 1, 7, 0)]
    counters += [draw(4) for _ in range(6)]
    for key in keys:
        for counter in counters:
            want = numpy_philox_words(key, counter, 8)
            value = sum(c << (64 * k) for k, c in enumerate(counter))
            for block in range(2):
                stepped = (value + 1 + block) % 2**256
                words = [np.array([(stepped >> (64 * k)) & (2**64 - 1)], dtype=np.uint64) for k in range(4)]
                got = np.concatenate(_philox4x64(words, key))
                assert np.array_equal(got, want[4 * block : 4 * block + 4]), (key, counter, block)
    # one broadcast call over a (block, index) grid is the same as one call per counter
    blocks = np.arange(3, dtype=np.uint64)
    index = np.array([[0], [9], [2**40]], dtype=np.uint64)
    grid = np.stack(_philox4x64((blocks, index, 0, 0), keys[2]), axis=-1)
    for r, i in enumerate(index[:, 0]):
        for b in blocks:
            one = np.concatenate(_philox4x64(([b], [i], [0], [0]), keys[2]))
            assert np.array_equal(grid[r, int(b)], one)


def below_counter(i, b):
    """The counter one below (i, b, 0, 0), from which numpy's Philox emits block b of trajectory i."""
    value = (i + (b << 64) - 1) % 2**256
    return tuple((value >> (64 * k)) & (2**64 - 1) for k in range(4))


def test_stream_of_trajectory_i_is_philox_keyed_by_the_seed_at_counter_i_block():
    # block b of trajectory i is numpy's Philox block at counter (i, b, 0, 0):
    # word 0 of block 0 sets the arm, every later word is one unit
    # exponential -log1p(-u)
    fam = z_traj_family(1.3, 40.0)
    total = float(fam.rate_integral[-1])
    for seed in (0, 5, 2**64 + 3, 2**128 - 1):
        cfg = SamplerConfig(seed=seed, n_trajectories=4)
        arm_u, sums, offsets = _draw(fam, cfg, np.array([0, 1, 3]))
        for row, i in enumerate((0, 1, 3)):
            key = (seed % 2**64, seed >> 64)
            raw = np.concatenate([numpy_philox_words(key, below_counter(i, b), 4) for b in range(100)])
            u = (raw >> np.uint64(11)) * 2.0**-53
            running = np.cumsum(-np.log1p(-u[1:]))
            assert running[-1] > total
            assert arm_u[row] == u[0]
            assert np.array_equal(sums[offsets[row] : offsets[row + 1]], running[running < total])


@pytest.mark.parametrize(
    "indices",
    [np.arange(300), np.arange(40, 340), np.array([2, 5, 6, 11, 97, 98, 250, 4000, 4001]),
     np.array([7, 3, 5, 4, 6])],
    ids=["from-0", "from-40", "sparse", "unordered"],
)
def test_dense_and_sparse_producers_give_the_same_draw(monkeypatch, indices):
    # a long horizon, so later passes run several blocks on a thinned live set
    fam = z_traj_family(1.1, 60.0)
    cfg = SamplerConfig(seed=2**64 + 9, n_trajectories=5000)
    draws = []
    for dense in (True, False):
        monkeypatch.setattr(trajectories, "_prefer_dense", lambda span, live, run, dense=dense: dense)
        draws.append(_draw(fam, cfg, indices))
    for got, want in zip(*draws):
        assert np.array_equal(got, want)
    # and the internal choice gives the same draw again
    monkeypatch.undo()
    for got, want in zip(_draw(fam, cfg, indices), draws[0]):
        assert np.array_equal(got, want)


def test_flip_times_do_not_depend_on_the_initial_mode():
    p = ModelParams(omega=1.0, gamma=0.5)
    fam = FamilyTrajectory.integrate(BlochDirection(0.9, 0.3), p, FORWARD, np.linspace(0.0, 12.0, 241))
    runs = [sample_ensemble(fam, SamplerConfig(seed=31, n_trajectories=400, initial=mode)) for mode in (None, 0, 0.3)]
    for ens in runs[1:]:
        assert np.array_equal(ens.offsets, runs[0].offsets)
        assert np.array_equal(ens.flip_times, runs[0].flip_times)
    assert np.all(runs[1].initial_arms == 0)
    assert 0 < np.count_nonzero(runs[0].initial_arms) < 400


def test_ensemble_is_flat_with_trajectory_views():
    fam = z_traj_family(0.8, 10.0)
    ens = sample_ensemble(fam, SamplerConfig(seed=8, n_trajectories=30))
    assert isinstance(ens, Ensemble) and len(ens) == 30
    assert ens.offsets[0] == 0 and ens.offsets[-1] == len(ens.flip_times)
    trajs = list(ens)
    assert len(trajs) == 30
    for i, t in enumerate(trajs):
        assert isinstance(t, Trajectory) and (t.t_start, t.t_end) == (0.0, 10.0)
        assert t.initial_arm == ens.initial_arms[i] and t.n_flips == ens.n_flips[i]
        assert np.all(np.diff(t.flip_times) >= 0.0)
        assert t.flip_times.base is not None  # a view, not a copy
    assert np.array_equal(ens[-1].flip_times, trajs[29].flip_times)
    with pytest.raises(IndexError):
        ens[30]


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


def test_vectorized_ensemble_average_is_bitwise_the_per_trajectory_count():
    p = ModelParams(omega=1.0, gamma=0.7)
    fam = FamilyTrajectory.integrate(BlochDirection(0.8, 0.2), p, FORWARD, np.linspace(0.0, 6.0, 301))
    for initial in (None, 1, 0.25):
        ens = sample_ensemble(fam, SamplerConfig(seed=12, n_trajectories=700, initial=initial))
        flips = ens.flip_times
        # on a flip, before every flip, past t_end, unsorted and repeated
        query = np.concatenate(([-1.0, 0.0, flips.min()], flips[::97], [3.0, 1.0, 3.0, 6.0, 7.5]))
        series = ensemble_average(ens, fam, query)
        counts = np.zeros(len(query))
        for traj in ens:
            counts += traj.arm_at(query) == 0
        assert np.array_equal(series.p0, counts / len(ens))
        assert series.n_trajectories == 700
        # a plain list of trajectories gives the same series
        assert np.array_equal(ensemble_average(list(ens), fam, query).p0, series.p0)


def test_vectorized_gap_statistics_pools_like_the_per_trajectory_loop():
    fam = z_traj_family(0.9, 3.0)
    ens = sample_ensemble(fam, SamplerConfig(seed=21, n_trajectories=300, initial=0))
    # trajectories without a gap are skipped; some have more gaps than the cap
    assert np.count_nonzero(ens.n_flips < 2) > 0 and np.count_nonzero(ens.n_flips > 5) > 0
    for cap in (None, 1, 4):
        pooled = [np.diff(t.flip_times)[:cap] for t in ens if t.n_flips >= 2]
        want = np.sort(np.concatenate(pooled))
        stats = gap_statistics(ens, rate=0.9, max_gaps=cap)
        assert np.array_equal(stats.gaps, want)
        assert stats.ks_statistic == gap_statistics(list(ens), rate=0.9, max_gaps=cap).ks_statistic


def test_flip_times_are_inverted_once_on_first_access_and_sliced_into_views():
    p = ModelParams(omega=1.0, gamma=0.5)
    fam = FamilyTrajectory.integrate(BlochDirection(0.9, 0.3), p, FORWARD, np.linspace(0.0, 40.0, 401))
    ens = sample_ensemble(fam, SamplerConfig(seed=4, n_trajectories=300))
    # counts, ranks and averages do not need clock times
    assert ens.flip_rank.shape == (ens.offsets[-1],) and ens.n_flips.sum() == ens.offsets[-1]
    ensemble_average(ens, fam, np.linspace(0.0, 40.0, 41))
    assert "flip_times" not in vars(ens)
    some = np.arange(0, ens.offsets[-1], 7)
    partial = ens._flip_times_at(some)
    members = [ens.member(i) for i in (0, 17, -1)]
    assert "flip_times" not in vars(ens)
    eager = _invert(fam, ens.flip_sums)
    for member, i in zip(members, (0, 17, 299)):
        assert member.initial_arm == ens.initial_arms[i]
        assert np.array_equal(member.flip_times, eager[ens.offsets[i] : ens.offsets[i + 1]])
    assert np.array_equal(ens.flip_times, eager)
    assert ens.flip_times is ens.flip_times
    assert np.array_equal(partial, eager[some])
    for i in (0, 17, 299):
        flips = ens[i].flip_times
        assert np.shares_memory(flips, ens.flip_times)
        assert np.array_equal(flips, eager[ens.offsets[i] : ens.offsets[i + 1]])


@pytest.mark.parametrize(
    "params, start, sense, t_end, before",
    [
        (ModelParams(omega=176.0, gamma=9e9), BlochDirection(0.9, 0.2), FORWARD, 1e-6, [-1e-7]),
        (ModelParams(omega=0.86, gamma=0.41), BlochDirection(1.17, 0.52), BACKWARD, 5.8, [-5.8]),
    ],
    ids=["d2s2", "underdamped-backward"],
)
def test_rate_binned_average_is_bitwise_the_time_count(params, start, sense, t_end, before):
    fam = FamilyTrajectory.integrate(start, params, sense, np.linspace(0.0, t_end, 1001))
    cfg = SamplerConfig(seed=23, n_trajectories=300)
    flips = sample_ensemble(fam, cfg).flip_times
    # on flips, one ulp either side of flips, past the span, unsorted and repeated
    on = flips[:: max(1, len(flips) // 40)]
    query = np.concatenate((
        before, np.linspace(0.0, t_end, 41), on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf),
        on[::-1], [t_end / 3.0, t_end / 3.0, t_end, 2.0 * t_end],
    ))
    ens = sample_ensemble(fam, cfg)
    series = ensemble_average(ens, fam, query)
    assert "flip_times" not in vars(ens)  # binned in Lambda, without the full inversion
    counts = np.zeros(len(query))
    for traj in ens:
        counts += traj.arm_at(query) == 0
    assert np.array_equal(series.p0, counts / len(ens))
    assert np.isfinite(series.bloch).all()
    assert np.array_equal(ensemble_average(list(ens), fam, query).p0, series.p0)


def test_inversion_stops_at_the_rounding_floor_of_lambda(monkeypatch):
    # backward underdamped family: at the parent rule some flips crawled a few
    # ulps per Newton step on a residual at Lambda's rounding floor, and
    # others bisected toward a bracket end their Newton step had already hit
    p = ModelParams(omega=0.86, gamma=0.41)
    fam = FamilyTrajectory.integrate(BlochDirection(1.17, 0.52), p, BACKWARD, np.linspace(0.0, 5.0 / 0.86, 1001))
    calls = []
    at = FamilyTrajectory._at
    monkeypatch.setattr(FamilyTrajectory, "_at", lambda self, t, angles=True: calls.append(1) or at(self, t, angles))
    for seed in (1, 3, 4):
        _, sums, _ = _draw(fam, SamplerConfig(seed=seed, n_trajectories=15000), np.arange(15000))
        assert len(sums) > 6 * 4096
        for start in range(0, len(sums), 4096):
            s = sums[start : start + 4096]
            calls.clear()
            t = trajectories._invert_block(fam, s)
            assert len(calls) <= 12
            residual = np.abs(at(fam, t, angles=False)[3] - s)
            assert np.all(residual <= 4.0 * np.spacing(np.maximum(1.0, s)))
