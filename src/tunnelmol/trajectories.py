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
Lambda(t_end).  An ensemble keeps those sums; a flip's clock time
t = Lambda^{-1}(s) is derived on demand.  Lambda is known in closed form
along a family (the radius identity, see families), and its derivative is
kappa, so the inversion is a safeguarded Newton iteration bracketed on the
family grid; it stops at a bracket or a step of a few ulps, or once the
residual sits at the rounding floor of Lambda and no longer falls.  Because
Lambda is nondecreasing, ensemble averages bin the flips in Lambda and
invert only the few that lie within rounding of a query.

The random stream of trajectory i is Philox4x64-10 (Salmon et al., SC'11,
the generator behind numpy.random.Philox) with the 128-bit key
(seed mod 2^64, seed >> 64) and the counter (i, block, 0, 0), block = 0, 1,
2, ...; each block gives four 64-bit words x, read in order as uniforms
u = (x >> 11) 2^-53.  Word 0 of block 0 sets the initial arm (used or not),
and every later word gives one unit exponential -log1p(-u), so the flips do
not depend on the initial mode.  The kernel draws the next blocks of every
trajectory whose running sum is still below Lambda(t_end) in one vectorized
pass.  With the trajectory index in the low counter word, one block of a run
of indices is one contiguous run of counters, which numpy's C Philox
produces in a single call; a pass over few live trajectories, scattered
across a wide index span, runs the same rounds in numpy array arithmetic on
those trajectories alone.  The two producers agree bit for bit and the
inversion is elementwise, so trajectory i depends on (seed, i) alone, bit
for bit, however many trajectories are requested, and inverting some flips
gives the same times as inverting all.  An ensemble is stored flat (struct
of arrays), so averages and gap statistics are single vectorized passes
over all flips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .families import FamilyTrajectory

_PASS_BLOCKS = 1 << 14  # Philox blocks drawn in one pass; bounds the sampler's scratch memory
_BLOCK = 4096  # flip times inverted together; bounds the solver's scratch memory
_MAX_ITER = 100
_CELLS_PER_EDGE = 64  # lookup cells per query time when flips are binned in Lambda

_MASK64 = (1 << 64) - 1
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)


@dataclass(frozen=True)
class SamplerConfig:
    """Reproducible sampling setup.

    seed          master seed in [0, 2^128), the Philox key; trajectory i
                  uses the stream (seed, i)
    n_trajectories  ensemble size
    initial       None draws the starting arm fairly (maximally mixed start);
                  the ints 0 or 1 pin that arm; a float in [0, 1] is the
                  probability of starting in arm 0
    """

    seed: int
    n_trajectories: int = 1
    initial: float | int | None = None

    def __post_init__(self):
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= int(self.seed) < 1 << 128:
            raise ValueError(f"seed must be an integer in [0, 2**128), got {self.seed!r}")
        if self.n_trajectories < 1:
            raise ValueError("need at least one trajectory")
        if self.initial is not None and not 0 <= float(self.initial) <= 1:
            raise ValueError("initial must be None, an arm index, or a probability")


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Telegraph trajectories along a family, stored flat.

    Trajectory i starts in initial_arms[i]; its flips are the unit-rate sums
    flip_sums[offsets[i]:offsets[i + 1]] (sorted) in the integrated-rate time
    Lambda of family.  flip_times, their clock times Lambda^{-1}(s), are
    inverted all at once on first access and kept; indexing and iteration
    give Trajectory views of slices of that array.
    """

    family: FamilyTrajectory
    initial_arms: np.ndarray
    flip_sums: np.ndarray
    offsets: np.ndarray

    @property
    def t_start(self) -> float:
        return float(self.family.times[0])

    @property
    def t_end(self) -> float:
        return float(self.family.times[-1])

    @cached_property
    def flip_times(self) -> np.ndarray:
        return _invert(self.family, self.flip_sums)

    def _flip_times_at(self, index) -> np.ndarray:
        """Clock times of the flips at index, bitwise those entries of flip_times."""
        if "flip_times" in vars(self):
            return self.flip_times[index]
        return _invert(self.family, self.flip_sums[index])

    def __len__(self) -> int:
        return len(self.initial_arms)

    def __getitem__(self, i) -> Trajectory:
        self.flip_times  # all inverted on first access, so members are views of it
        return self.member(i)

    def member(self, i) -> Trajectory:
        """Trajectory i, inverting only its own flips until flip_times is known; bitwise self[i]."""
        i = range(len(self))[i]  # negative indices and IndexError as for a list
        flips = self._flip_times_at(slice(self.offsets[i], self.offsets[i + 1]))
        return Trajectory(self.t_start, self.t_end, int(self.initial_arms[i]), flips)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @property
    def n_flips(self) -> np.ndarray:
        """Flip count of each trajectory."""
        return np.diff(self.offsets)

    @property
    def flip_rank(self) -> np.ndarray:
        """Position of each flip within its own trajectory, 0 for the first."""
        return np.arange(self.offsets[-1]) - np.repeat(self.offsets[:-1], self.n_flips)


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x, from 32-bit halves."""
    m_lo, m_hi = m & _LOW32, m >> _SHIFT32
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    t = m_hi * x_lo + ((m_lo * x_lo) >> _SHIFT32)
    w = (t & _LOW32) + m_lo * x_hi
    return m_hi * x_hi + (t >> _SHIFT32) + (w >> _SHIFT32), m * x


def _philox4x64(counter, key) -> tuple[np.ndarray, ...]:
    """Philox4x64-10 blocks for broadcast uint64 counter arrays (c0, c1, c2, c3) under key (k0, k1)."""
    x0, x1, x2, x3 = np.broadcast_arrays(*(np.asarray(c, dtype=np.uint64) for c in counter))
    for r in range(10):
        k0 = np.uint64((key[0] + r * _PHILOX_W[0]) & _MASK64)
        k1 = np.uint64((key[1] + r * _PHILOX_W[1]) & _MASK64)
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    return x0, x1, x2, x3


def _prefer_dense(span: int, live: int, run: int) -> bool:
    """Whether numpy's C Philox over the whole index span beats the array kernel on the live rows.

    Costs in ns, as measured on a 2-vCPU x86 VM with numpy 2.4: per block
    index the C generator takes about 5 us a call, 45 per counter of the
    span and 70 per live row it gathers; the array kernel takes about 0.45 ms
    a pass and 230 per live block.
    """
    return run * (5e3 + 45.0 * span + 70.0 * live) < 4.5e5 + 230.0 * live * run


def _dense_words(key, index: np.ndarray, block: int, run: int) -> np.ndarray:
    """Words of blocks block .. block + run - 1 of the trajectories index, one C call per block.

    Row 4 b + k holds word k of block block + b, one column per trajectory.
    Counters (lo, b, 0, 0) .. (hi, b, 0, 0) are one contiguous run, and
    numpy's Philox steps its counter before each block: it starts one below
    (lo, b, 0, 0), borrowing from the higher words at lo = 0, and is advanced
    to one below (lo, b + 1, 0, 0) after each block index.
    """
    lo = int(index.min())
    span = int(index.max()) - lo + 1
    start = (lo - 1 + (block << 64)) & ((1 << 256) - 1)
    gen = np.random.Philox(
        key=np.array(key, dtype=np.uint64),
        counter=np.array([(start >> (64 * k)) & _MASK64 for k in range(4)], dtype=np.uint64),
    )
    rows = (index - np.uint64(lo)).astype(np.intp)
    every = np.array_equal(rows, np.arange(span))
    out = np.empty((run, 4, len(index)), dtype=np.uint64)
    for b in range(run):
        words = gen.random_raw(4 * span).reshape(span, 4).T
        if every:
            out[b] = words
        else:  # rows are in range; mode "clip" lets take write into out unbuffered
            np.take(np.ascontiguousarray(words), rows, axis=1, out=out[b], mode="clip")
        gen.advance((1 << 64) - span)
    return out.reshape(4 * run, len(index))


def _sparse_words(key, index: np.ndarray, block: int, run: int) -> np.ndarray:
    """The same words as _dense_words, from the array kernel on the given trajectories only."""
    blocks = np.arange(block, block + run, dtype=np.uint64)
    return np.stack(_philox4x64((index, blocks[:, None], 0, 0), key), axis=1).reshape(4 * run, len(index))


def _running_sums(x: np.ndarray) -> None:
    """np.cumsum(x, axis=0) in place, bit for bit: a row at a time where rows are long."""
    if x.shape[1] < 256:
        np.cumsum(x, axis=0, out=x)
        return
    for w in range(1, len(x)):
        np.add(x[w - 1], x[w], out=x[w])


def _draw(family: FamilyTrajectory, config: SamplerConfig, indices: np.ndarray):
    """Initial-arm uniforms, flat running sums of unit exponentials below Lambda(t_end), offsets.

    Each pass draws the next run of blocks for every live trajectory; the run
    doubles from one pass to the next within the pass budget.  Sums run on
    from the carry in stream order, so they do not depend on the runs.  A
    pass takes its words from whichever producer is cheaper for its shape:
    numpy's C Philox over the span of live indices, or the array kernel on
    the live indices alone; both give the same words, bit for bit.  A pass is
    laid out as (words, live), so the running sums, counts and carries run
    along rows; its sums below Lambda(t_end) are kept with their mask and
    scattered straight to their place in the flat array.

    Bounds: the first pass draws one block per trajectory, and every later
    one at most max(live, _PASS_BLOCKS) blocks of four words, which bounds
    the scratch memory of a pass.  The number of passes is not bounded in
    advance: it grows with the largest flip count of the ensemble, so
    callers bound the expected flips instead (the command line refuses runs
    above cli.MAX_EXPECTED_FLIPS).
    """
    total = float(family.rate_integral[-1])
    if family.params.gamma == 0.0 or not total > 0.0:
        total = 0.0
    key = (int(config.seed) & _MASK64, int(config.seed) >> 64)
    index = np.asarray(indices, dtype=np.uint64)
    n = len(index)
    live, carry = np.arange(n), np.zeros(n)
    counts = np.zeros(n, dtype=np.int64)
    passes = []
    block, run = 0, 1
    while live.size:
        live_index = index[live]
        span = int(live_index.max()) - int(live_index.min()) + 1
        produce = _dense_words if _prefer_dense(span, live.size, run) else _sparse_words
        words = produce(key, live_index, block, run)
        u = np.right_shift(words, np.uint64(11), out=words) * 2.0**-53
        if block == 0:
            arm_u = u[0].copy()
        # unit exponentials -log1p(-u) in place (contiguous, so the arm word too),
        # then their running sums from the carry
        sums = np.negative(np.log1p(np.negative(u, out=u), out=u), out=u)
        if block == 0:
            sums = sums[1:]
        sums[0] += carry[live]
        _running_sums(sums)
        below = sums < total
        passes.append((live, counts[live], below, sums[below]))
        counts[live] += np.count_nonzero(below, axis=0)
        carry[live] = sums[-1]
        live = live[below[-1]]
        block += run
        run = min(2 * run, max(1, _PASS_BLOCKS // max(live.size, 1)))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    flat = np.empty(offsets[-1])
    for rows, before, below, piece in passes:
        # the sum in row w of a column follows that trajectory's earlier ones
        first = offsets[rows] + before
        flat[(first + np.arange(len(below))[:, None])[below]] = piece
    return arm_u, flat, offsets


def _initial_arms(config: SamplerConfig, u: np.ndarray) -> np.ndarray:
    if config.initial is None:
        return (u >= 0.5).astype(np.int64)
    if isinstance(config.initial, (int, np.integer)):
        return np.full(len(u), int(config.initial), dtype=np.int64)
    return (u >= float(config.initial)).astype(np.int64)


def _invert(family: FamilyTrajectory, targets: np.ndarray) -> np.ndarray:
    """Times t with Lambda(t) = target, solved elementwise in blocks.

    Bounds: a block holds at most _BLOCK targets, which bounds the solver's
    scratch memory, and runs at most _MAX_ITER safeguarded Newton steps, each
    one closed-form evaluation of Lambda and kappa; a target still open after
    the last step keeps its last bracketed iterate.
    """
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
    # the closed form knows Lambda to a few ulps of max(1, Lambda); a residual
    # at that floor that no longer falls is noise, and Newton steps on it
    # only crawl a few ulps at a time
    floor = 4.0 * np.spacing(np.maximum(1.0, np.abs(s)))
    f_prev = np.full_like(s, np.inf)
    active = np.arange(len(s))
    for _ in range(_MAX_ITER):
        if len(active) == 0:
            break
        _, _, slope, value = family._at(t, angles=False)
        f = value - s
        lo = np.where(f < 0.0, t, lo)
        hi = np.where(f > 0.0, t, hi)
        step = np.divide(f, slope, out=np.where(f == 0.0, 0.0, np.inf), where=slope > 0.0)
        newton = t - step
        nxt = np.where((newton > lo) & (newton < hi), newton, 0.5 * (lo + hi))
        # a Newton step of a few ulps ends the solve even where rounding puts
        # it on or just past the bracket, which would otherwise fall back to
        # bisection and crawl toward that end of the bracket
        converged = np.abs(newton - t) <= 4.0 * np.spacing(newton)
        stalled = (np.abs(f) >= f_prev) & (np.abs(f) <= floor)
        out[active] = np.where(converged, newton, np.where(stalled, t, nxt))
        keep = ~(converged | stalled | (hi - lo <= 4.0 * np.spacing(hi)))
        active, t, s, lo, hi = active[keep], nxt[keep], s[keep], lo[keep], hi[keep]
        floor, f_prev = floor[keep], np.abs(f)[keep]
    return out


def _sample(family: FamilyTrajectory, config: SamplerConfig, indices) -> Ensemble:
    arm_u, sums, offsets = _draw(family, config, indices)
    return Ensemble(family, _initial_arms(config, arm_u), sums, offsets)


def sample_trajectory(family: FamilyTrajectory, config: SamplerConfig, index: int = 0) -> Trajectory:
    """Draw trajectory `index` of the ensemble over the family's time span by time change."""
    return _sample(family, config, [index])[0]


def sample_ensemble(family: FamilyTrajectory, config: SamplerConfig) -> Ensemble:
    """Independent trajectories, one per stream index, drawn together.

    Trajectory i is bit for bit sample_trajectory(family, config, index=i).
    """
    return _sample(family, config, np.arange(config.n_trajectories))


@dataclass(frozen=True, eq=False)
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


def ensemble_average(ens: Ensemble, times=None) -> EnsembleSeries:
    """Average arm occupation over an ensemble and rebuild the Bloch path.

    The series is taken on times (default: the grid of the ensemble's
    family).  The ensemble Bloch vector is (2 p0(t) - 1) n(t): the
    trajectories only ever occupy the two arms of the moving decomposition,
    so the off-axis components vanish identically.
    """
    family = ens.family
    if times is None:
        times = family.times
    times = np.asarray(times, dtype=float)
    # a flip lands in arm (initial + rank + 1) % 2 and changes the arm-0
    # count at every query time from its own on (arm_at counts flips <= t);
    # rank = flat index - offset, so (initial + rank) & 1 = (initial ^ offset ^ index) & 1
    order = np.argsort(times, kind="stable")
    bins = _queries_before(ens, times[order])
    into_0 = (np.arange(len(bins)) ^ np.repeat(ens.initial_arms ^ ens.offsets[:-1], ens.n_flips)) & 1
    m = len(times)
    moves = np.bincount(2 * bins + into_0, minlength=2 * m + 2).reshape(m + 1, 2)
    p0 = np.empty(m)
    p0[order] = (np.count_nonzero(ens.initial_arms == 0) + np.cumsum(moves[:m, 1] - moves[:m, 0])) / len(ens)
    # before the family's start the ensemble sits in the arms at times[0],
    # and the family reads its start values there
    bloch = (2.0 * p0 - 1.0)[:, None] * family.unit_vectors_at(times)
    return EnsembleSeries(times=times, p0=p0, bloch=bloch, n_trajectories=len(ens))


def _queries_before(ens: Ensemble, sorted_times: np.ndarray) -> np.ndarray:
    """For each flip, how many of the sorted query times come strictly before its clock time.

    Lambda is nondecreasing, so a flip at sum s is at or before a query time
    tau exactly when s <= Lambda(tau).  That test decides every flip whose s
    is farther than tol from each Lambda(tau); the others are inverted and
    binned by their clock times, as arm_at counts.
    """
    family, s = ens.family, ens.flip_sums
    lam = np.maximum.accumulate(family.rate_integral_at(sorted_times))
    bins, below, above = _locate(lam, s)
    # the sum of a flip and the Lambda of its inverted time differ by the
    # Newton residual: a few ulps of max(1, Lambda), or kappa <= gamma times
    # a few ulps of t; Lambda itself is rounded to a few ulps of its
    # log-radius terms, which are at most of order 1 + (gamma + omega) t_end.
    # tol leaves some seven orders of magnitude above both
    params = family.params
    tol = 1e-9 * (1.0 + (params.gamma + params.omega) * float(family.times[-1]))
    near = np.flatnonzero((above - s <= tol) | (s - below <= tol))
    bins[near] = np.searchsorted(sorted_times, ens._flip_times_at(near), side="left")
    return bins


def _locate(edges: np.ndarray, x: np.ndarray):
    """bins = np.searchsorted(edges, x, side="left"), bit for bit, and the edges on either side.

    edges[bins - 1] < x <= edges[bins], read as -inf and inf past the ends.
    A table over [edges[0], edges[-1]] in _CELLS_PER_EDGE * len(edges) cells
    of equal width holds the bin of each cell's left end, which is the bin of
    every x in a cell that holds no edge.  Each guess is checked against the
    edges on both sides, and the few x outside their guessed bin (those in a
    cell that holds an edge, or rounded across a cell end) go to
    searchsorted.  A span without a normal, finite cell width (one edge, or
    gamma = 0, where every Lambda is 0) goes to searchsorted whole.
    """
    padded = np.concatenate(([-np.inf], edges, [np.inf]))
    cells = _CELLS_PER_EDGE * len(edges)
    width = (edges[-1] - edges[0]) / cells
    if np.finfo(float).tiny <= width < np.inf:
        # a normal width rounds by under an ulp, so no cell index passes cells
        table = np.searchsorted(edges, edges[0] + width * np.arange(cells + 1), side="left")
        cell = np.clip(x, edges[0], edges[-1])
        cell -= edges[0]
        cell /= width
        bins = np.take(table, cell.astype(np.intp))
    else:
        bins = np.searchsorted(edges, x, side="left")
    below, above = np.take(padded, bins), np.take(padded[1:], bins)
    miss = np.flatnonzero((x <= below) | (x > above))
    if miss.size:
        bins[miss] = np.searchsorted(edges, x[miss], side="left")
        below[miss], above[miss] = padded[bins[miss]], padded[bins[miss] + 1]
    return bins, below, above


def deterministic_occupation(family: FamilyTrajectory, times=None, p0_initial: float = 1.0) -> np.ndarray:
    """Master-equation arm-0 occupation: delta_p(t) = delta_p(0) e^{-2 Lambda(t)}.

    Lambda, the integral of kappa along the family, is exact at every query
    time (the radius identity), so no quadrature or interpolation enters.
    Before the family's start Lambda is 0, so the occupation is p0_initial.
    """
    if times is None:
        times = family.times
    delta0 = 2.0 * p0_initial - 1.0
    return 0.5 * (1.0 + delta0 * np.exp(-2.0 * family.rate_integral_at(np.asarray(times, dtype=float))))


@dataclass(frozen=True, eq=False)
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


def gap_statistics(ens: Ensemble, rate: float, max_gaps: int | None = None) -> GapStatistics:
    """Pool inter-flip gaps and measure the KS distance to Exp(rate).

    Gaps fully inside a fixed observation window are biased short, because a
    long gap is the one most likely to straddle the end of the window.  For
    an unbiased sample cap the gaps per trajectory with max_gaps and keep the
    horizon long enough that max_gaps + 1 flips almost surely occur; the
    leftover bias is then the tail probability of that event.
    """
    # gap k ends at flip k + 1, inside one trajectory if that flip is not a
    # first; a cap needs the clock times of flips of rank <= max_gaps only
    rank = ens.flip_rank
    if max_gaps is None:
        flips = ens.flip_times
    else:
        pick = rank <= max_gaps
        flips, rank = ens._flip_times_at(pick), rank[pick]
    gaps = np.sort(np.diff(flips)[rank[1:] >= 1])
    if len(gaps) == 0:
        raise ValueError("no complete gaps in the ensemble")
    cdf = 1.0 - np.exp(-rate * gaps)
    n = len(gaps)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    ks = float(max(upper.max(), lower.max()))
    return GapStatistics(gaps=gaps, rate=rate, ks_statistic=ks)
