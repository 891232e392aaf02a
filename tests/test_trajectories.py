"""Telegraph sampling: streams, time change, ensemble against the master equation."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import expm

from oracles import arm_at, bloch_block, row_major_draw, searchsorted_bins
from tunnelmol.families import BACKWARD, FORWARD, BlochDirection, FamilyTrajectory, X_DIRECTION, Z_DIRECTION
from tunnelmol.ptm import ModelParams
from tunnelmol import trajectories
from tunnelmol.trajectories import (
    Ensemble,
    SamplerConfig,
    _draw,
    _invert,
    _locate,
    _philox4x64,
    _queries_before,
    deterministic_occupation,
    ensemble_average,
    gap_statistics,
    sample_ensemble,
)


def members(ens):
    """(initial arm, flip times) of each trajectory, sliced from one inversion of every flip."""
    flips, offsets = ens.flip_times(), ens.offsets
    return [(int(ens.initial_arms[i]), flips[offsets[i] : offsets[i + 1]]) for i in range(len(ens))]


def invert_spy(monkeypatch):
    """A list that collects the number of targets of each trajectories._invert call."""
    inverted = []
    invert = trajectories._invert
    monkeypatch.setattr(trajectories, "_invert", lambda f, s: inverted.append(len(s)) or invert(f, s))
    return inverted


def near_flips(ens, times) -> int:
    """How many flips lie within the binning tolerance of some query time's Lambda.

    These are the flips that the Lambda binning of ensemble_average cannot
    place by their sums alone, and the only ones it may invert.
    """
    family, params = ens.family, ens.family.params
    tol = 1e-9 * (1.0 + (params.gamma + params.omega) * float(family.times[-1]))
    lam = np.sort(family.rate_integral_at(np.asarray(times, dtype=float)))
    k = np.clip(np.searchsorted(lam, ens.flip_sums), 1, len(lam) - 1)
    gap = np.minimum(np.abs(ens.flip_sums - lam[k - 1]), np.abs(ens.flip_sums - lam[k]))
    return int(np.count_nonzero(gap <= tol))


def z_traj_family(gamma, t_end, points=501):
    p = ModelParams(omega=1.0, gamma=gamma)
    return FamilyTrajectory.integrate(Z_DIRECTION, p, FORWARD, np.linspace(0.0, t_end, points))


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(seed=1, n_trajectories=0)
    # the starting arm is set by the probability p0 alone
    with pytest.raises(TypeError):
        SamplerConfig(seed=1, initial=0)
    # the seed is the 128-bit Philox key
    for bad in (-1, 2**128, 1.5):
        with pytest.raises(ValueError, match="seed"):
            SamplerConfig(seed=bad)
    SamplerConfig(seed=2**128 - 1)
    SamplerConfig(seed=np.uint64(2**64 - 1))


def test_ensemble_size_must_be_a_whole_count():
    # a fractional or NaN size once passed the check and drew ceil(n) members or failed inside np.arange
    for bad in (0, -3, 2.5, 1.0, float("nan"), "4", None):
        with pytest.raises(ValueError, match="n_trajectories"):
            SamplerConfig(seed=1, n_trajectories=bad)
    fam = FamilyTrajectory.integrate(Z_DIRECTION, ModelParams(omega=1.0, gamma=0.5), FORWARD, np.linspace(0.0, 1.0, 5))
    for size in (1, np.int64(3), np.uint32(7)):
        assert len(sample_ensemble(fam, SamplerConfig(seed=1, n_trajectories=size))) == size


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
    runs = [sample_ensemble(fam, SamplerConfig(seed=31, n_trajectories=400, p0=p0)) for p0 in (0.5, 1.0, 0.3)]
    for ens in runs[1:]:
        assert np.array_equal(ens.offsets, runs[0].offsets)
        assert np.array_equal(ens.flip_times(), runs[0].flip_times())
    assert np.all(runs[1].initial_arms == 0)
    assert 0 < np.count_nonzero(runs[0].initial_arms) < 400


def test_ensemble_is_flat():
    fam = z_traj_family(0.8, 10.0)
    ens = sample_ensemble(fam, SamplerConfig(seed=8, n_trajectories=30))
    assert isinstance(ens, Ensemble) and len(ens) == 30
    flips = ens.flip_times()
    assert ens.offsets.shape == (31,) and ens.offsets[0] == 0 and ens.offsets[-1] == len(flips)
    assert np.array_equal(ens.n_flips, np.diff(ens.offsets)) and set(ens.initial_arms) <= {0, 1}
    for i in range(30):
        member = flips[ens.offsets[i] : ens.offsets[i + 1]]
        assert np.all(np.diff(member) >= 0.0) and np.all((member >= 0.0) & (member <= 10.0))


def test_streams_are_reproducible_and_index_keyed():
    fam = z_traj_family(0.8, 30.0)
    cfg = SamplerConfig(seed=42, n_trajectories=5, p0=1.0)
    a, b = _draw(fam, cfg, [3]), _draw(fam, cfg, [3])
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    ens = sample_ensemble(fam, cfg)
    assert np.array_equal(ens.flip_sums[ens.offsets[3] : ens.offsets[4]], a[1])
    # different index, different stream
    c = _draw(fam, cfg, [4])
    assert c[0] != a[0] and not np.array_equal(a[1], c[1])


def test_ensemble_members_are_bitwise_single_trajectories_across_solver_blocks():
    # a moving family with several solver blocks of flips: trajectory i must
    # depend on (seed, i) alone, not on the ensemble size or its block
    p = ModelParams(omega=1.0, gamma=0.5)
    fam = FamilyTrajectory.integrate(BlochDirection(0.9, 0.3), p, FORWARD, np.linspace(0.0, 40.0, 401))
    cfg = SamplerConfig(seed=4, n_trajectories=1000)
    big = sample_ensemble(fam, cfg)
    assert big.offsets[-1] > 2 * 4096
    flips = big.flip_times()
    small = sample_ensemble(fam, SamplerConfig(seed=4, n_trajectories=3))
    assert np.array_equal(small.initial_arms, big.initial_arms[:3])
    assert np.array_equal(small.offsets, big.offsets[:4])
    assert np.array_equal(small.flip_times(), flips[: big.offsets[3]])
    for i in (0, 1, 2, 411, 999):
        arm_u, sums, _ = _draw(fam, cfg, [i])
        assert np.array_equal(flips[big.offsets[i] : big.offsets[i + 1]], _invert(fam, sums))
        assert big.initial_arms[i] == (arm_u[0] >= cfg.p0)


def test_initial_arms_are_the_arm_uniforms_at_or_above_p0():
    fam = z_traj_family(0.5, 5.0)
    for p0 in (0.0, 0.3, 0.5, 1.0):
        cfg = SamplerConfig(seed=7, n_trajectories=4000, p0=p0)
        arm_u, _, _ = _draw(fam, cfg, np.arange(4000))
        arms = sample_ensemble(fam, cfg).initial_arms
        assert arms.dtype == np.int64 and np.array_equal(arms, arm_u >= p0)
        # 1 pins arm 0, 0 pins arm 1, and in between p0 is the arm-0 fraction
        assert abs(np.mean(arms == 0) - p0) <= 4.0 * math.sqrt(p0 * (1.0 - p0) / 4000)
    for bad in (math.nan, 1.5, -0.1):
        with pytest.raises(ValueError, match="p0"):
            SamplerConfig(seed=7, p0=bad)


def test_arm_at_parity_and_events():
    flips = np.array([1.0, 2.0, 3.0])
    assert list(arm_at(0, flips, [0.5, 1.5, 2.5, 3.5])) == [0, 1, 0, 1]
    assert list(arm_at(1, flips, [0.5, 3.5])) == [1, 0]
    # each flip instant already shows the new arm
    assert list(arm_at(0, flips, flips)) == [1, 0, 1]


def test_no_collisions_no_flips():
    p = ModelParams(omega=1.0, gamma=0.0)
    fam = FamilyTrajectory.integrate(Z_DIRECTION, p, FORWARD, np.linspace(0.0, 5.0, 101))
    assert sample_ensemble(fam, SamplerConfig(seed=3, p0=1.0)).offsets[-1] == 0


def test_x_family_never_flips():
    # kappa vanishes identically on the collision-pointer diameter
    p = ModelParams(omega=0.0, gamma=2.0)
    fam = FamilyTrajectory.integrate(X_DIRECTION, p, FORWARD, np.linspace(0.0, 10.0, 201))
    assert fam.kappa.max() < 1e-12
    assert sample_ensemble(fam, SamplerConfig(seed=5, p0=1.0)).offsets[-1] == 0


def test_z_family_flip_count_is_poisson_like():
    gamma, t_end = 0.8, 25.0
    fam = z_traj_family(gamma, t_end)
    ens = sample_ensemble(fam, SamplerConfig(seed=19, n_trajectories=2000, p0=1.0))
    counts = ens.n_flips
    mean = gamma * t_end
    assert abs(counts.mean() - mean) < 4.0 * math.sqrt(mean / 2000)
    assert abs(counts.var() / mean - 1.0) < 0.1


def test_z_family_gaps_are_exponential():
    gamma = 0.5
    fam = z_traj_family(gamma, 60.0 / gamma)
    ens = sample_ensemble(fam, SamplerConfig(seed=11, n_trajectories=400, p0=1.0))
    stats = gap_statistics(ens, rate=gamma, max_gaps=15)
    assert stats.n == 6000
    assert stats.mean_gap == pytest.approx(1.0 / gamma, rel=0.05)
    assert stats.ks_statistic < stats.ks_critical


def test_moving_family_flips_follow_the_local_rate():
    # time-rescaling: mapping flip times through the integrated rate turns an
    # inhomogeneous stream into a unit-rate one
    p = ModelParams(omega=1.0, gamma=0.4)
    grid = np.linspace(0.0, 80.0, 4001)
    fam = FamilyTrajectory.integrate(X_DIRECTION, p, FORWARD, grid)
    ens = sample_ensemble(fam, SamplerConfig(seed=5, n_trajectories=300, p0=1.0))
    integral = cumulative_trapezoid(fam.kappa, fam.times, initial=0.0)
    pooled = []
    for _, flips in members(ens):
        if len(flips) >= 2:
            tau = np.interp(flips, fam.times, integral)
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
    ens = sample_ensemble(fam, SamplerConfig(seed=99, n_trajectories=n_traj, p0=1.0))
    query = np.linspace(0.0, 6.0, 25)
    series = ensemble_average(ens, query)
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
    ens = sample_ensemble(fam, SamplerConfig(seed=99, n_trajectories=3000, p0=1.0))
    query = np.linspace(0.0, 6.0, 13)
    series = ensemble_average(ens, query)
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


def test_a_family_reads_its_start_values_before_its_start():
    # one rule for times before a family's start: every quantity is its
    # value at the start, so Lambda is 0 and the occupation is p0_initial
    d2s2 = ModelParams(omega=176.0, gamma=9e9)
    cases = (
        (z_traj_family(1.0, 5.0, points=11), np.array([-1.0, -1e-9])),
        (FamilyTrajectory.integrate(BlochDirection(0.9, 0.2), d2s2, FORWARD, np.linspace(1e-7, 1e-6, 10)),
         np.array([-1.0, 0.0, 5e-8, 1e-7 - 1e-16])),
    )
    for fam, before in cases:
        start = fam.times[:1]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            lam = fam.rate_integral_at(before)
            assert np.array_equal(lam, np.repeat(fam.rate_integral_at(start), len(before)))
            assert np.abs(lam).max() <= 1e-16
            assert np.array_equal(fam.kappa_at(before), np.repeat(fam.kappa_at(start), len(before)))
            assert np.array_equal(fam.unit_vectors_at(before), np.repeat(fam.unit_vectors_at(start), len(before), axis=0))
            for p0 in (1.0, 0.3):
                assert np.array_equal(deterministic_occupation(fam, before, p0_initial=p0), np.full(len(before), p0))


def test_ensemble_series_stderr_and_errors():
    fam = z_traj_family(0.5, 5.0)
    ens = sample_ensemble(fam, SamplerConfig(seed=2, n_trajectories=10, p0=1.0))
    series = ensemble_average(ens, np.linspace(0.0, 5.0, 6))
    assert series.stderr().shape == (6,)
    # no collisions, no flips: an ensemble without a single gap
    still = sample_ensemble(z_traj_family(0.0, 5.0), SamplerConfig(seed=2, n_trajectories=10))
    assert still.offsets[-1] == 0
    with pytest.raises(ValueError):
        gap_statistics(still, rate=0.5)


def test_backward_family_sampling_runs():
    p = ModelParams(omega=1.0, gamma=0.6)
    fam = FamilyTrajectory.integrate(BlochDirection(0.5, 0.2), p, BACKWARD, np.linspace(0.0, 4.0, 801))
    ens = sample_ensemble(fam, SamplerConfig(seed=13, n_trajectories=200, p0=1.0))
    series = ensemble_average(ens, np.linspace(0.0, 4.0, 9))
    master = deterministic_occupation(fam, np.linspace(0.0, 4.0, 9), p0_initial=1.0)
    assert np.abs(series.p0 - master).max() < 0.12


def test_vectorized_ensemble_average_is_bitwise_the_per_trajectory_count():
    p = ModelParams(omega=1.0, gamma=0.7)
    fam = FamilyTrajectory.integrate(BlochDirection(0.8, 0.2), p, FORWARD, np.linspace(0.0, 6.0, 301))
    for p0 in (0.5, 0.0, 0.25):
        ens = sample_ensemble(fam, SamplerConfig(seed=12, n_trajectories=700, p0=p0))
        flips = ens.flip_times()
        # on a flip, before every flip, past t_end, unsorted and repeated
        query = np.concatenate(([-1.0, 0.0, flips.min()], flips[::97], [3.0, 1.0, 3.0, 6.0, 7.5]))
        series = ensemble_average(ens, query)
        counts = np.zeros(len(query))
        for arm, member in members(ens):
            counts += arm_at(arm, member, query) == 0
        assert np.array_equal(series.p0, counts / len(ens))
        assert series.n_trajectories == 700


def test_capped_gap_statistics_invert_only_the_flips_they_read(monkeypatch):
    fam = z_traj_family(0.9, 12.0)
    ens = sample_ensemble(fam, SamplerConfig(seed=21, n_trajectories=300, p0=1.0))
    inverted = invert_spy(monkeypatch)
    stats = gap_statistics(ens, rate=0.9, max_gaps=4)
    assert sum(inverted) == np.count_nonzero(ens.flip_rank <= 4) < ens.offsets[-1]
    inverted.clear()
    full = gap_statistics(ens, rate=0.9)  # inverts every flip
    assert sum(inverted) == ens.offsets[-1]
    assert np.array_equal(gap_statistics(ens, rate=0.9, max_gaps=4).gaps, stats.gaps)
    assert full.n > stats.n


def test_vectorized_gap_statistics_pools_like_the_per_trajectory_loop():
    fam = z_traj_family(0.9, 3.0)
    ens = sample_ensemble(fam, SamplerConfig(seed=21, n_trajectories=300, p0=1.0))
    # trajectories without a gap are skipped; some have more gaps than the cap
    assert np.count_nonzero(ens.n_flips < 2) > 0 and np.count_nonzero(ens.n_flips > 5) > 0
    for cap in (None, 1, 4):
        pooled = [np.diff(flips)[:cap] for _, flips in members(ens) if len(flips) >= 2]
        want = np.sort(np.concatenate(pooled))
        stats = gap_statistics(ens, rate=0.9, max_gaps=cap)
        assert np.array_equal(stats.gaps, want)


def test_flip_times_invert_only_the_flips_at_their_index(monkeypatch):
    p = ModelParams(omega=1.0, gamma=0.5)
    fam = FamilyTrajectory.integrate(BlochDirection(0.9, 0.3), p, FORWARD, np.linspace(0.0, 40.0, 401))
    ens = sample_ensemble(fam, SamplerConfig(seed=4, n_trajectories=300))
    inverted = invert_spy(monkeypatch)
    # counts, ranks and averages do not need clock times
    assert ens.flip_rank.shape == (ens.offsets[-1],) and ens.n_flips.sum() == ens.offsets[-1]
    ensemble_average(ens, np.linspace(0.0, 40.0, 41))
    assert sum(inverted) < ens.offsets[-1]
    eager = _invert(fam, ens.flip_sums)
    some = np.arange(0, ens.offsets[-1], 7)
    inverted.clear()
    assert np.array_equal(ens.flip_times(some), eager[some])
    assert inverted == [len(some)]
    for i in (0, 17, 299):
        inverted.clear()
        member = slice(ens.offsets[i], ens.offsets[i + 1])
        assert np.array_equal(ens.flip_times(member), eager[member])
        assert inverted == [ens.n_flips[i]]
    assert np.array_equal(ens.flip_times(), eager)


@pytest.mark.parametrize(
    "params, start, sense, t_end, before",
    [
        (ModelParams(omega=176.0, gamma=9e9), BlochDirection(0.9, 0.2), FORWARD, 1e-6, [-1e-7]),
        (ModelParams(omega=0.86, gamma=0.41), BlochDirection(1.17, 0.52), BACKWARD, 5.8, [-5.8]),
    ],
    ids=["d2s2", "underdamped-backward"],
)
def test_rate_binned_average_is_bitwise_the_time_count(monkeypatch, params, start, sense, t_end, before):
    fam = FamilyTrajectory.integrate(start, params, sense, np.linspace(0.0, t_end, 1001))
    ens = sample_ensemble(fam, SamplerConfig(seed=23, n_trajectories=300))
    flips = ens.flip_times()
    # on flips, one ulp either side of flips, past the span, unsorted and repeated
    on = flips[:: max(1, len(flips) // 40)]
    query = np.concatenate((
        before, np.linspace(0.0, t_end, 41), on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf),
        on[::-1], [t_end / 3.0, t_end / 3.0, t_end, 2.0 * t_end],
    ))
    inverted = invert_spy(monkeypatch)
    series = ensemble_average(ens, query)
    # binned in Lambda: only the flips within rounding of a query's Lambda are inverted
    assert sum(inverted) <= near_flips(ens, query)
    counts = np.zeros(len(query))
    for arm, member in members(ens):
        counts += arm_at(arm, member, query) == 0
    assert np.array_equal(series.p0, counts / len(ens))
    assert np.isfinite(series.bloch).all()


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


# the sampler's paths: constant rate, moving overdamped, backward
# underdamped, the stiff D2S2 range and both degenerate rates
DRAW_FAMILIES = {
    "static-z": (ModelParams(omega=1.0, gamma=1.0), BlochDirection(0.0, 0.0), FORWARD, 5.0),
    "moving-over": (ModelParams(omega=1.13, gamma=3.83), BlochDirection(0.69, 0.41), FORWARD, 1.3),
    "backward-under": (ModelParams(omega=0.86, gamma=0.41), BlochDirection(1.17, 0.52), BACKWARD, 5.8),
    "d2s2": (ModelParams(omega=176.0, gamma=9e9), BlochDirection(0.9, 0.2), FORWARD, 1e-6),
    "gamma-0": (ModelParams(omega=1.0, gamma=0.0), BlochDirection(0.9, 0.3), FORWARD, 5.0),
    "omega-0": (ModelParams(omega=0.0, gamma=1.2), BlochDirection(0.9, 0.3), FORWARD, 5.0),
}
# a dense run of indices; a dense bulk whose tail passes run on a few
# indices scattered over a span no C call could cover; one index
DRAW_INDICES = {
    "dense": np.arange(2000),
    "scattered-tail": np.concatenate((np.arange(1500), [4000, 9001, 123456, 2**40 + 5])),
    "single": np.array([777]),
}


def draw_family(name, points=1001):
    params, start, sense, t_end = DRAW_FAMILIES[name]
    return FamilyTrajectory.integrate(start, params, sense, np.linspace(0.0, t_end, points))


@pytest.mark.parametrize("family", DRAW_FAMILIES)
def test_lambda_is_exactly_zero_at_and_before_a_family_start(family):
    # ln|n0| at the start reads a few ulps off 0 (1.4e-17 for d2s2 and
    # backward-under); Lambda subtracts it, so it is +0.0 there, not -0.0
    params, start, sense, t_end = DRAW_FAMILIES[family]
    for t0 in (0.0, 0.37 * t_end):
        fam = FamilyTrajectory.integrate(start, params, sense, t0 + np.linspace(0.0, t_end, 101))
        before = t0 - t_end * np.array([[2.0, 1e-3], [1e-9, 0.0]])
        for lam in (fam.rate_integral[0], fam.rate_integral_at(t0), *fam.rate_integral_at(before).ravel()):
            assert lam == 0.0 and not np.signbit(lam)
        assert fam.rate_integral_at(before).shape == (2, 2)
        assert np.all(fam.rate_integral[1:] >= 0.0)
    if params.gamma == 0.0:
        # kappa is identically 0, so Lambda is +0.0 throughout, in either
        # sense, though ln|v| wanders by ulps
        for s in (FORWARD, BACKWARD):
            fam = FamilyTrajectory.integrate(start, params, s, np.linspace(0.0, t_end, 1001))
            lam = np.concatenate((fam.rate_integral, fam.rate_integral_at(np.linspace(-t_end, 3.0 * t_end, 37))))
            assert np.all(lam == 0.0) and not np.signbit(lam).any()


@pytest.mark.parametrize("indices", DRAW_INDICES.values(), ids=DRAW_INDICES.keys())
@pytest.mark.parametrize("family", DRAW_FAMILIES)
def test_pass_layout_draws_bitwise_the_row_major_draw(family, indices):
    fam = draw_family(family)
    cfg = SamplerConfig(seed=2**64 + 2101, n_trajectories=1)
    got, want = _draw(fam, cfg, indices), row_major_draw(fam, cfg, indices)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    if len(indices) > 1:
        assert (want[2][-1] > 0) == (DRAW_FAMILIES[family][0].gamma > 0.0)


@pytest.mark.parametrize("family", DRAW_FAMILIES)
def test_table_lookup_bins_bitwise_as_searchsorted(monkeypatch, family):
    fam = draw_family(family)
    t_end = float(fam.times[-1])
    ens = sample_ensemble(fam, SamplerConfig(seed=5, n_trajectories=2000))
    on = np.sort(ens.flip_times(np.arange(0, ens.offsets[-1], 97)))
    query = np.sort(np.concatenate((
        [-t_end, 0.0], np.linspace(0.0, t_end, 41), on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf),
        [t_end, 2.0 * t_end],
    )))
    inverted = invert_spy(monkeypatch)
    for times in (query, np.linspace(0.0, t_end, 41), np.linspace(0.0, t_end / 3.0, 7), [t_end / 2.0] * 3):
        times = np.asarray(times)
        inverted.clear()
        bins = _queries_before(ens, times)
        # only the flips within rounding of a query's Lambda are inverted
        assert sum(inverted) <= near_flips(ens, times)
        assert np.array_equal(bins, searchsorted_bins(ens, times))


@pytest.mark.parametrize(
    "edges",
    [
        np.linspace(0.0, 5.0, 41),
        np.array([0.0, 1e-9, 2e-9, 3e-9, 1.0, 1.0, 1.0, 2.0, 2.0 + 1e-12, 7.0]),  # clusters, repeats
        np.array([2.5]),  # one edge
        np.zeros(9),  # gamma = 0: no span
        np.array([1.0, 1.0 + 2e-16, 1.0 + 4e-16]),  # cells narrower than an ulp of x
        np.array([0.0, 3e-308, 1e-307]),  # a span with subnormal cells
        np.array([0.0, 1e300, 1.7e308]),  # a span near the float limit
    ],
    ids=["uniform", "clustered", "one", "flat", "ulp-span", "subnormal-span", "huge-span"],
)
def test_locate_is_bitwise_searchsorted_with_its_neighbours(edges):
    rng = np.random.default_rng(3)
    lo, hi = edges[0], edges[-1]
    x = np.concatenate((
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), [lo - 1.0, 0.0, hi + 1.0],
        lo + (hi - lo) * rng.random(5000), rng.choice(edges, 500),
    ))
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        bins, below, above = _locate(edges, x)
    assert np.array_equal(bins, np.searchsorted(edges, x, side="left"))
    padded = np.concatenate(([-np.inf], edges, [np.inf]))
    assert np.array_equal(below, padded[bins]) and np.array_equal(above, padded[bins + 1])
    assert np.all((below < x) & (x <= above))


def test_ensemble_average_reads_the_family_of_its_ensemble():
    fam = z_traj_family(0.6, 4.0, points=81)
    ens = sample_ensemble(fam, SamplerConfig(seed=3, n_trajectories=200))
    series = ensemble_average(ens)
    assert np.array_equal(series.times, fam.times)
    assert np.array_equal(series.p0, ensemble_average(ens, fam.times).p0)
    assert np.array_equal(series.bloch, (2.0 * series.p0 - 1.0)[:, None] * fam.unit_vectors_at(fam.times))
