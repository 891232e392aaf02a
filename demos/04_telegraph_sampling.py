"""Sample single-molecule telegraph records and check them against the master curve.

Along a consistent family the quantum dynamics looks like a two-state
telegraph with a (generally time-dependent) flip rate kappa(t).  The sampler
inverts the integrated flip rate at the running sums of unit exponentials, so
no discretization enters: each record is a list of exact flip times.  The
ensemble is held flat, record k being the slice offsets[k]:offsets[k + 1]
of its flips, whose clock times flip_times inverts on demand.
"""

import numpy as np

from tunnelmol import (
    FORWARD,
    FamilyTrajectory,
    ModelParams,
    SamplerConfig,
    Z_DIRECTION,
    deterministic_occupation,
    ensemble_average,
    gap_statistics,
    sample_ensemble,
)


def arms_of(ensemble, k: int, times) -> np.ndarray:
    """Arm of record k at each time: its initial arm, flipped once per flip at or before the time."""
    offsets = ensemble.offsets
    flips = ensemble.flip_times(slice(offsets[k], offsets[k + 1]))
    return (ensemble.initial_arms[k] + np.searchsorted(flips, times, side="right")) % 2


def main() -> None:
    params = ModelParams(omega=1.0, gamma=0.8)
    grid = np.linspace(0.0, 40.0, 2001)
    family = FamilyTrajectory.integrate(Z_DIRECTION, params, FORWARD, grid)

    # every record starts in arm 0 (p0 is the probability of that arm)
    config = SamplerConfig(seed=11, n_trajectories=4000, p0=1.0)
    ensemble = sample_ensemble(family, config)

    first = ensemble.flip_times(slice(0, ensemble.offsets[1]))
    print(f"first record: starts in arm {ensemble.initial_arms[0]}, {len(first)} flips over [0, 40]")
    print(f"  first few flip times: {np.array2string(first[:5], precision=3)}")
    print(f"  arm at t = 5: {arms_of(ensemble, 0, 5.0)}")

    # the pointer family has a constant rate, so gaps must be exponential;
    # pooling only the first gaps per record avoids window bias at the edge
    stats = gap_statistics(ensemble, rate=params.gamma, max_gaps=8)
    print(f"\ngap law: n = {stats.n}, mean {stats.mean_gap:.4f} "
          f"(1/gamma = {1 / params.gamma:.4f})")
    print(f"  KS statistic {stats.ks_statistic:.4f} vs 1% critical {stats.ks_critical:.4f}")

    out = np.linspace(0.0, 5.0, 51)
    series = ensemble_average(ensemble, out)
    master = deterministic_occupation(family, out, p0_initial=1.0)
    gap = np.abs(series.p0 - master).max()
    print(f"\nensemble of {config.n_trajectories} vs deterministic occupation: "
          f"max gap {gap:.4f}")
    print(f"  standard error at t = 5: {series.stderr()[-1]:.4f}")

    decay = np.abs(series.occupation_difference - np.exp(-2.0 * params.gamma * out)).max()
    print(f"  polarization vs exp(-2 gamma t): max gap {decay:.4f}")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("\nmatplotlib not installed; skipping the telegraph plot")
        return

    fig, (ax1, ax2) = plt.subplots(2, 1, figsize=(7, 5), sharex=True)
    steps = np.linspace(0.0, 5.0, 1001)
    for k in range(3):
        ax1.step(steps, arms_of(ensemble, k, steps) + 2.2 * k, where="post", lw=0.8)
    ax1.set_ylabel("records (offset)")
    ax1.set_yticks([])
    ax2.plot(out, series.p0, "o", ms=3, label="sampled")
    ax2.plot(out, master, "-", label="master curve")
    ax2.set_xlabel("t")
    ax2.set_ylabel("occupation of arm 0")
    ax2.legend()
    fig.tight_layout()
    fig.savefig("demo04_telegraph.png", dpi=150)
    print("\nwrote demo04_telegraph.png")


if __name__ == "__main__":
    main()
