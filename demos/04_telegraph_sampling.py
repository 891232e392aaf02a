"""Sample single-molecule telegraph records and check them against the master curve.

Along a consistent family the quantum dynamics looks like a two-state
telegraph with a (generally time-dependent) flip rate kappa(t).  The sampler
inverts the integrated flip rate at the running sums of unit exponentials, so
no discretization enters: each record is a list of exact flip times.
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


def main() -> None:
    params = ModelParams(omega=1.0, gamma=0.8)
    grid = np.linspace(0.0, 40.0, 2001)
    family = FamilyTrajectory.integrate(Z_DIRECTION, params, FORWARD, grid)

    config = SamplerConfig(seed=11, n_trajectories=4000, initial=0)
    ensemble = sample_ensemble(family, config)

    one = ensemble[0]
    print(f"first record: starts in arm {one.initial_arm}, {one.n_flips} flips over [0, 40]")
    print(f"  first few flip times: {np.array2string(one.flip_times[:5], precision=3)}")
    print(f"  arm at t = 5: {one.arm_at(5.0)}")

    # the pointer family has a constant rate, so gaps must be exponential;
    # pooling only the first gaps per record avoids window bias at the edge
    stats = gap_statistics(ensemble, rate=params.gamma, max_gaps=8)
    print(f"\ngap law: n = {stats.n}, mean {stats.mean_gap:.4f} "
          f"(1/gamma = {1 / params.gamma:.4f})")
    print(f"  KS statistic {stats.ks_statistic:.4f} vs 1% critical {stats.ks_critical(0.01):.4f}")

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
        arms = [ensemble[k].arm_at(t) for t in steps]
        ax1.step(steps, np.array(arms) + 2.2 * k, where="post", lw=0.8)
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
