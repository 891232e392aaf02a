"""Sweep gamma/omega and watch the stationary structure appear at the critical point.

Below the critical ratio no equatorial basis can keep still; at the ratio
itself two merged roots appear; above it they split into four, and the
slowest flip rate falls like omega^2/4gamma.  The deep strong-damping end is
where a real molecule lives: the chirality bit flips sixteen orders slower
than the pointer bit, which is why one can speak of a frozen handedness.
"""

import numpy as np

from tunnelmol import ModelParams, stationary_families, stationary_roots

D2S2 = ModelParams(omega=176.0, gamma=9.0e9)


def main() -> None:
    print("ratio scan at omega = 1:")
    print(f"{'gamma/omega':>12} {'regime':>12} {'roots':>6} {'phi_x':>9} "
          f"{'kappa_x':>10} {'kappa_y':>10}")
    ratios = np.array([0.3, 0.7, 1.0, 1.5, 3.0, 10.0, 100.0])
    for ratio, phi_x, phi_y, kx, ky in zip(ratios, *stationary_roots(ratios, 1.0)):
        regime = ModelParams(omega=1.0, gamma=ratio).regime
        if np.isnan(kx):
            print(f"{ratio:>12.1f} {regime:>12} {0:>6} {'-':>9} {'-':>10} {'-':>10}")
        else:
            n = 2 if phi_x == phi_y else 4  # the x and y roots merge at the critical ratio
            print(f"{ratio:>12.1f} {regime:>12} {n:>6} {phi_x:>9.4f} {kx:>10.2e} {ky:>10.2e}")

    print("\nthe asymptotic rate law above the transition:")
    ratios = np.array([2.0, 10.0, 100.0])
    for ratio, kx in zip(ratios, stationary_roots(ratios, 1.0)[2]):
        print(f"  gamma = {ratio:>5.1f}: kappa_x = {kx:.6e}, "
              f"omega^2/4gamma = {1.0 / (4.0 * ratio):.6e}")

    print("\ndeuterated disulfane numbers:")
    stat = stationary_families(D2S2)
    ratio = D2S2.gamma / D2S2.omega
    print(f"  gamma/omega = {ratio:.3e} ({D2S2.regime})")
    print(f"  pointer flip rate  kappa_z = {stat.kappa_z:.3e} per second")
    print(f"  chirality flip rate kappa_x = {stat.kappa_x:.3e} per second")
    print(f"  separation kappa_x/kappa_z = {stat.kappa_x / stat.kappa_z:.3e}")
    days = 1.0 / stat.kappa_x / (3600 * 24)
    bare = 2.0 * np.pi / D2S2.omega
    print(f"  mean time between chirality flips: about {days:.0f} days, "
          f"versus a bare tunneling period of {bare * 1e3:.1f} ms")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("\nmatplotlib not installed; skipping the diagram")
        return

    ratios = np.geomspace(1.001, 200.0, 400)
    _, _, kx, ky = stationary_roots(ratios, 1.0)
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.loglog(ratios, kx, label="kappa_x")
    ax.loglog(ratios, ky, label="kappa_y")
    ax.loglog(ratios, 1.0 / (4.0 * ratios), "k--", lw=0.8, label="omega^2/4gamma")
    ax.axvline(1.0, color="gray", lw=0.5)
    ax.set_xlabel("gamma/omega")
    ax.set_ylabel("stationary flip rates")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo06_diagram.png", dpi=150)
    print("\nwrote demo06_diagram.png")


if __name__ == "__main__":
    main()
