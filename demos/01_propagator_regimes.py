"""Walk through the transfer-matrix propagator in all three damping regimes.

The model has two knobs: a tunneling angular frequency omega and a collision
rate gamma.  Their ratio decides whether the coherence plane spirals
(underdamped), creeps (overdamped), or sits exactly at the exceptional point
(critical).  The closed-form propagator is compared against a matrix
exponential on the fly, so running this file doubles as a smoke test.
"""

import numpy as np
from scipy.linalg import expm

from tunnelmol import (
    ModelParams,
    UNDERDAMPED,
    generator,
    propagator_closed_form,
    stationary_roots,
)


def describe(params: ModelParams) -> None:
    print(f"\ngamma = {params.gamma}, omega = {params.omega}  ->  {params.regime}")
    if params.regime == UNDERDAMPED:
        eta = params.discriminant
        print(f"  beat frequency eta = {eta:.6f}")
        print(f"  stroboscopic period pi/eta = {np.pi / eta:.6f}")
        middle = (-params.gamma + 1j * eta, -params.gamma - 1j * eta)
    else:
        # the equatorial decay rates are twice the stationary flip rates
        _, _, kappa_x, kappa_y = stationary_roots(params.gamma, params.omega)
        print(f"  decay rates: slow {2.0 * kappa_x:.6f}, fast {2.0 * kappa_y:.6f}")
        middle = (-2.0 * kappa_x, -2.0 * kappa_y)

    worst = 0.0
    for t in (0.1, 0.7, 2.5):
        T = propagator_closed_form(params, t)
        worst = max(worst, float(np.abs(T - expm(t * generator(params))).max()))
    print(f"  closed form vs matrix exponential, worst entry gap: {worst:.2e}")

    if params.regime != "critical":
        # the spectrum of the generator: 0, the middle pair, -2 gamma
        ev = np.array([0.0, *middle, -2.0 * params.gamma], dtype=complex)
        print(f"  eigenvalues: {np.array2string(ev, precision=6)}")
        print(f"  checks: sum of middle pair = {-(ev[1] + ev[2]).real:.6f} (2 gamma)"
              f", product = {(ev[1] * ev[2]).real:.6f} (omega^2)")
    else:
        print("  eigenvalue pair has collided; no diagonalization at this point")


def main() -> None:
    for gamma in (0.3, 1.0, 4.0):
        describe(ModelParams(omega=1.0, gamma=gamma))

    # the slow pole survives even when the rates differ by 7+ orders
    stiff = ModelParams(omega=176.0, gamma=9.0e9)
    lam = -2.0 * float(stationary_roots(stiff.gamma, stiff.omega)[2])
    print(f"\nstiff case gamma/omega = {stiff.gamma / stiff.omega:.3e}")
    print(f"  slow eigenvalue {lam:.6e} vs asymptote -omega^2/2gamma = "
          f"{-stiff.omega**2 / (2 * stiff.gamma):.6e}")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("\nmatplotlib not installed; skipping the relaxation plot")
        return

    ts = np.linspace(0.0, 6.0, 301)
    fig, ax = plt.subplots(figsize=(6, 4))
    for gamma in (0.3, 1.0, 4.0):
        p = ModelParams(omega=1.0, gamma=gamma)
        xs = [propagator_closed_form(p, t)[1, 1] for t in ts]
        ax.plot(ts, xs, label=f"gamma = {gamma}")
    ax.set_xlabel("t")
    ax.set_ylabel("x -> x transfer entry")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo01_regimes.png", dpi=150)
    print("\nwrote demo01_regimes.png")


if __name__ == "__main__":
    main()
