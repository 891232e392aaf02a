"""Where does the which-path information go, and how fast?

Encode one bit in a basis, send it through the collisional channel, and ask
two questions: how much is still readable at the output (direct Holevo
quantity) and how much has leaked to the colliders (complementary channel).
The two answers obey a tight complementarity bound when the two encodings
are mutually unbiased, and the leak obeys a universal short-time law.
"""

import math

import numpy as np

from tunnelmol import (
    BlochDirection,
    ModelParams,
    X_DIRECTION,
    Z_DIRECTION,
    build_info_report,
    quadratic_information,
)


def main() -> None:
    params = ModelParams(omega=0.8, gamma=2.0)
    times = np.linspace(0.0, 3.0, 121)
    report = build_info_report(params, times, family_basis="z")

    k1 = int(np.searchsorted(times, 1.0))
    print("strong damping (gamma = 2, omega = 0.8), values at t = 1:")
    for name in ("chi_z_direct", "chi_x_direct", "chi_z_comp", "chi_x_comp"):
        print(f"  {name:<13} {report.curves[name][k1]:.6f} bits")
    print(f"  pointer bit kept + transverse bit leaked = "
          f"{report.curves['sum_zx'][k1]:.6f} <= 1")
    print(f"  cross pairing equality residual over the grid: "
          f"{report.cross_equality_residual():.2e}")

    slack = 1.0 - report.curves["sum_zx"][k1]
    print(f"  bound slack at t = 1: {slack:.6f} (holds: {slack > -1e-9})")

    residual = np.abs(report.curves["mutual_info"] - report.curves["chi_z_direct"]).max()
    print(f"\nhistory mutual information vs output Holevo quantity over the grid: "
          f"residual {residual:.2e}")

    # the colliders couple through the transverse axis, so the universal
    # short-time law describes the leak of the x encoding
    print("\nshort-time leak law gamma t (ln(1/gamma t) + 1)/ln 2:")
    short = np.array([1e-4, 1e-3, 1e-2])
    leaked = build_info_report(params, short).curves["chi_x_comp"]
    law = params.gamma * short * (np.log(1.0 / (params.gamma * short)) + 1.0) / math.log(2.0)
    for t, got, model in zip(short, leaked, law):
        print(f"  t = {t:.0e}: leaked {got:.6e}, law {model:.6e}, "
              f"ratio {got / model:.3f}")

    print("\npurity-based rates stay finite at t = 0:")
    _, x_leak = quadratic_information(params, X_DIRECTION)
    z_decay, _ = quadratic_information(params, Z_DIRECTION)
    for which, basis, slope, target in (
        ("complementary", "x", x_leak, 4.0 * params.gamma),
        ("direct", "z", z_decay, -4.0 * params.gamma),
    ):
        print(f"  {basis} {which:<13} initial slope {slope:+.4f} (target {target:+.1f})")
    tilted = BlochDirection(theta=math.pi / 2.0, phi=0.6)
    _, slope = quadratic_information(params, tilted)
    print(f"  tilted complementary slope {slope:+.4f} "
          f"(4 gamma nx^2 = {4.0 * params.gamma * math.cos(0.6) ** 2:+.4f})")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("\nmatplotlib not installed; skipping the information plot")
        return

    fast = ModelParams(omega=20.0, gamma=1.0)
    period = 2.0 * math.pi / fast.discriminant
    tb = np.linspace(1e-6, 3.0 * period, 600)
    staircase = build_info_report(fast, tb).curves["chi_x_direct"]

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4))
    for name in ("chi_z_direct", "chi_x_direct", "chi_z_comp", "chi_x_comp"):
        ax1.plot(times, report.curves[name], label=name)
    ax1.set_xlabel("t")
    ax1.set_ylabel("bits")
    ax1.set_title("strong damping")
    ax1.legend(fontsize=8)
    ax2.plot(tb / period, staircase)
    ax2.set_xlabel("t in rotation periods")
    ax2.set_title("fast tunneling: plateaus and rises")
    fig.tight_layout()
    fig.savefig("demo05_information.png", dpi=150)
    print("\nwrote demo05_information.png")


if __name__ == "__main__":
    main()
