"""Stochastic telegraph trajectories along a moving decomposition.

Within a consistent family the system behaves like a classical two-state
telegraph: it sits in one arm of the decomposition and flips to the other
with the instantaneous rate kappa(t) = gamma (1 - n_x(t)^2) of the family
direction.  For the static z family kappa = gamma and the flips form a plain
Poisson process; for moving families the process is an inhomogeneous Poisson
flip stream.

Sampling is exact, by time change.  Write Lambda(t) for the integral of
kappa from the family's first instant to t.  The flips happen where Lambda
crosses the cumulative sums of unit-rate exponential variables, so each
trajectory draws unit exponentials until their running sum passes
Lambda(t_end), then maps each sum s back to its flip time t = Lambda^{-1}(s).
Lambda is known in closed form along a family (the radius identity, see
families), and its derivative is kappa, so the inversion is a safeguarded
Newton iteration bracketed on the family grid; it stops at a bracket or a
step of a few ulps.  Every trajectory gets its own counter-based generator
keyed by (seed, trajectory index), and the inversion is elementwise, so
results are bit-reproducible and independent of how many trajectories are
requested or in which order they are produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .families import FamilyTrajectory

_CHUNK = 64  # unit exponentials drawn per block; fixed so streams stay reproducible
_BLOCK = 4096  # flip times inverted together; bounds the solver's scratch memory
_MAX_ITER = 100


@dataclass(frozen=True)
class SamplerConfig:
    """Reproducible sampling setup.

    seed          master seed; trajectory i uses the stream (seed, i)
    n_trajectories  ensemble size
    initial       None draws the starting arm fairly (maximally mixed start);
                  the ints 0 or 1 pin that arm; a float in [0, 1] is the
                  probability of starting in arm 0
    """

    seed: int
    n_trajectories: int = 1
    initial: float | int | None = None

    def __post_init__(self):
        if self.n_trajectories < 1:
            raise ValueError("need at least one trajectory")
        if self.initial is not None and not 0 <= float(self.initial) <= 1:
            raise ValueError("initial must be None, an arm index, or a probability")

    def rng(self, index: int) -> np.random.Generator:
        """Counter-based stream for one trajectory; splittable and stable."""
        return np.random.Generator(np.random.Philox(np.random.SeedSequence((self.seed, index))))


@dataclass(frozen=True)
class Trajectory:
    """One telegraph realization: a starting arm and its flip instants."""

    t_start: float
    t_end: float
    initial_arm: int
    flip_times: np.ndarray

    @property
    def n_flips(self) -> int:
        return len(self.flip_times)

    def arm_at(self, times) -> np.ndarray:
        """Occupied arm (0 or 1) at each query time."""
        times = np.asarray(times, dtype=float)
        flips_before = np.searchsorted(self.flip_times, times, side="right")
        return (self.initial_arm + flips_before) % 2

    def events(self):
        """(time, new arm) pairs, one per flip."""
        arms = (self.initial_arm + 1 + np.arange(self.n_flips)) % 2
        return list(zip(self.flip_times.tolist(), arms.tolist()))

    def to_csv(self) -> str:
        lines = ["time,arm", f"{self.t_start:.17g},{self.initial_arm}"]
        for t, a in self.events():
            lines.append(f"{t:.17g},{a}")
        return "\n".join(lines) + "\n"


def _draw_initial_arm(config: SamplerConfig, rng: np.random.Generator) -> int:
    if config.initial is None:
        return int(rng.random() >= 0.5)
    if isinstance(config.initial, (int, np.integer)):
        return int(config.initial)
    return int(rng.random() >= float(config.initial))


def _draw(family: FamilyTrajectory, config: SamplerConfig, index: int) -> tuple[int, np.ndarray]:
    """Starting arm and the running sums of unit exponentials below Lambda(t_end)."""
    rng = config.rng(index)
    arm = _draw_initial_arm(config, rng)
    total = float(family.rate_integral[-1])
    if family.params.gamma == 0.0 or not total > 0.0:
        return arm, np.empty(0)
    sums = []
    carry = 0.0
    while True:
        block = carry + np.cumsum(rng.standard_exponential(_CHUNK))
        if block[-1] >= total:
            sums.append(block[block < total])
            return arm, np.concatenate(sums) if len(sums) > 1 else sums[0]
        sums.append(block)
        carry = block[-1]


def _invert(family: FamilyTrajectory, targets: np.ndarray) -> np.ndarray:
    """Times t with Lambda(t) = target, solved elementwise in blocks."""
    out = np.empty_like(targets)
    for start in range(0, len(targets), _BLOCK):
        out[start : start + _BLOCK] = _invert_block(family, targets[start : start + _BLOCK])
    return out


def _invert_block(family: FamilyTrajectory, s: np.ndarray) -> np.ndarray:
    # Lambda is nondecreasing; the running maximum only irons out rounding
    grid = family.times
    lam = np.maximum.accumulate(family.rate_integral)
    k = np.clip(np.searchsorted(lam, s, side="right") - 1, 0, len(grid) - 2)
    lo, hi = grid[k], grid[k + 1]
    rise = lam[k + 1] - lam[k]
    frac = np.divide(s - lam[k], rise, out=np.full_like(s, 0.5), where=rise > 0)
    t = lo + np.clip(frac, 0.0, 1.0) * (hi - lo)
    out = t.copy()
    active = np.arange(len(s))
    for _ in range(_MAX_ITER):
        if len(active) == 0:
            break
        _, _, slope, value = family._at(t, angles=False)
        f = value - s
        lo = np.where(f < 0.0, t, lo)
        hi = np.where(f > 0.0, t, hi)
        step = np.divide(f, slope, out=np.full_like(f, np.inf), where=slope > 0.0)
        nxt = t - step
        nxt = np.where((nxt > lo) & (nxt < hi), nxt, 0.5 * (lo + hi))
        nxt = np.where(f == 0.0, t, nxt)
        done = (np.abs(nxt - t) <= 4.0 * np.spacing(nxt)) | (hi - lo <= 4.0 * np.spacing(hi))
        out[active] = nxt
        keep = ~done
        active, t, s, lo, hi = active[keep], nxt[keep], s[keep], lo[keep], hi[keep]
    return out


def sample_trajectory(family: FamilyTrajectory, config: SamplerConfig, index: int = 0) -> Trajectory:
    """Draw one trajectory over the family's time span by time change."""
    arm, targets = _draw(family, config, index)
    t0, t_end = float(family.times[0]), float(family.times[-1])
    return Trajectory(t_start=t0, t_end=t_end, initial_arm=arm, flip_times=_invert(family, targets))


def sample_ensemble(family: FamilyTrajectory, config: SamplerConfig) -> list:
    """Independent trajectories, one per stream index, inverted in shared blocks.

    Trajectory i is bit for bit sample_trajectory(family, config, index=i).
    """
    arms, targets = zip(*(_draw(family, config, i) for i in range(config.n_trajectories)))
    ends = np.cumsum([len(x) for x in targets])
    targets = np.concatenate(targets)  # drops the per-trajectory arrays before the solve
    flips = np.split(_invert(family, targets), ends[:-1])
    t0, t_end = float(family.times[0]), float(family.times[-1])
    return [Trajectory(t_start=t0, t_end=t_end, initial_arm=arm, flip_times=f) for arm, f in zip(arms, flips)]


@dataclass(frozen=True)
class EnsembleSeries:
    """Empirical arm-0 occupation on a grid, with the Bloch reconstruction."""

    times: np.ndarray
    p0: np.ndarray
    bloch: np.ndarray
    n_trajectories: int

    @property
    def occupation_difference(self) -> np.ndarray:
        return 2.0 * self.p0 - 1.0

    def stderr(self) -> np.ndarray:
        """Binomial standard error of p0 on each grid point."""
        return np.sqrt(np.clip(self.p0 * (1.0 - self.p0), 0.0, None) / self.n_trajectories)

    def to_csv(self) -> str:
        lines = ["t,p0,delta_p,bloch_x,bloch_y,bloch_z"]
        for k, t in enumerate(self.times):
            bx, by, bz = self.bloch[k]
            lines.append(
                f"{t:.17g},{self.p0[k]:.17g},{2.0 * self.p0[k] - 1.0:.17g},"
                f"{bx:.17g},{by:.17g},{bz:.17g}"
            )
        return "\n".join(lines) + "\n"


def ensemble_average(trajectories, family: FamilyTrajectory, times=None) -> EnsembleSeries:
    """Average arm occupation over an ensemble and rebuild the Bloch path.

    The ensemble Bloch vector is (2 p0(t) - 1) n(t): the trajectories only
    ever occupy the two arms of the moving decomposition, so the off-axis
    components vanish identically.
    """
    if times is None:
        times = family.times
    times = np.asarray(times, dtype=float)
    counts = np.zeros(len(times))
    for traj in trajectories:
        counts += traj.arm_at(times) == 0
    p0 = counts / len(trajectories)
    bloch = (2.0 * p0 - 1.0)[:, None] * family.unit_vectors_at(times)
    return EnsembleSeries(times=times, p0=p0, bloch=bloch, n_trajectories=len(trajectories))


def deterministic_occupation(family: FamilyTrajectory, times=None, p0_initial: float = 1.0) -> np.ndarray:
    """Master-equation arm-0 occupation: delta_p(t) = delta_p(0) e^{-2 Lambda(t)}.

    Lambda, the integral of kappa along the family, is exact at every query
    time (the radius identity), so no quadrature or interpolation enters.
    """
    if times is None:
        times = family.times
    delta0 = 2.0 * p0_initial - 1.0
    return 0.5 * (1.0 + delta0 * np.exp(-2.0 * family.rate_integral_at(np.asarray(times, dtype=float))))


@dataclass(frozen=True)
class GapStatistics:
    """Pooled waiting-gap summary for comparison with the exponential law."""

    gaps: np.ndarray
    rate: float
    ks_statistic: float
    n: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", len(self.gaps))

    def ks_critical(self, alpha: float = 0.01) -> float:
        # asymptotic Kolmogorov quantile; 1.628 is the 1% point
        coeff = {0.10: 1.224, 0.05: 1.358, 0.01: 1.628}[alpha]
        return coeff / np.sqrt(self.n)

    @property
    def mean_gap(self) -> float:
        return float(self.gaps.mean())


def gap_statistics(trajectories, rate: float, max_gaps: int | None = None) -> GapStatistics:
    """Pool inter-flip gaps and measure the KS distance to Exp(rate).

    Gaps fully inside a fixed observation window are biased short, because a
    long gap is the one most likely to straddle the end of the window.  For
    an unbiased sample cap the gaps per trajectory with max_gaps and keep the
    horizon long enough that max_gaps + 1 flips almost surely occur; the
    leftover bias is then the tail probability of that event.
    """
    pooled = []
    for t in trajectories:
        if t.n_flips >= 2:
            d = np.diff(t.flip_times)
            pooled.append(d[:max_gaps] if max_gaps is not None else d)
    gaps = np.sort(np.concatenate(pooled)) if pooled else np.empty(0)
    if len(gaps) == 0:
        raise ValueError("no complete gaps in the ensemble")
    cdf = 1.0 - np.exp(-rate * gaps)
    n = len(gaps)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    ks = float(max(upper.max(), lower.max()))
    return GapStatistics(gaps=gaps, rate=rate, ks_statistic=ks)
