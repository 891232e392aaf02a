"""Decoherence matrices: when does a sequence of measurements tell a story?

A multi-time family of projective decompositions earns classical
probabilities only if its decoherence matrix is diagonal.  Three cases below:

* the pointer basis (z) is consistent at any set of times,
* a static transverse basis is not, unless the initial state is maximally
  mixed or the times are chosen stroboscopically,
* a transported basis that rides the family flow is consistent by design.

The weights of any family factor into a classical Markov chain; the forward
residual of that chain bounds the off-diagonals, and the consistency verdict
reads their exact maximum, a max-product path over pairs of outcomes.  The
last part reads the chain off one propagator stack, prints the bound next to
the exact maximum, and checks the chain against the full matrix.
"""

import math

import numpy as np

from tunnelmol import (
    BACKWARD,
    Decomposition,
    FORWARD,
    HistoryFamily,
    ModelParams,
    chain_kernel,
    consistency_check,
    decoherence_functional,
    flow_unit_vectors,
    markov_from_family,
    propagator_closed_form,
    telegraph_flip_probability,
)

UP = np.array([0.0, 0.0, 1.0])


def verdict(family: HistoryFamily, initial=None, note: str = "") -> None:
    report = consistency_check(decoherence_functional(family, initial))
    tag = "consistent" if report.passed else "NOT consistent"
    print(f"  {note:<38} max off-diagonal {report.max_offdiag:.3e}  -> {tag}")


def main() -> None:
    params = ModelParams(omega=1.0, gamma=0.5)
    times = np.array([0.0, 0.8, 1.6])

    print("static bases, pure 'up' start:")
    for basis, maker in (("z", Decomposition.z_basis), ("x", Decomposition.x_basis)):
        family = HistoryFamily(
            params=params, times=times, decompositions=tuple(maker() for _ in times)
        )
        verdict(family, UP, f"{basis} basis at t = 0, 0.8, 1.6")

    # below critical damping the coherent beat has a hidden clock: sampling
    # the x basis at multiples of pi/eta removes the interference exactly
    eta = params.discriminant
    strobe = np.array([0.0, math.pi / eta, 2.0 * math.pi / eta])
    family = HistoryFamily(
        params=params, times=strobe, decompositions=tuple(Decomposition.x_basis() for _ in strobe)
    )
    verdict(family, UP, f"x basis at multiples of pi/eta = {math.pi / eta:.3f}")

    print("\ntransported bases (family flow images of a tilted start):")
    start = Decomposition.x_basis().n
    for sense, initial, note in (
        (FORWARD, None, "forward transport, mixed start"),
        (BACKWARD, UP, "backward transport, pure start"),
    ):
        units = flow_unit_vectors(start, params, sense, times)
        family = HistoryFamily(params=params, times=times, decompositions=tuple(Decomposition(n) for n in units))
        verdict(family, initial, note)

    print("\nclassical readout: the chain from one propagator stack, checked against the full matrix:")
    z_times = np.array([0.0, 0.6, 1.2, 1.8])
    q = telegraph_flip_probability(params, 0.6)
    print(f"  flip probability per 0.6 step: {q:.6f} (telegraph value)")
    pointer = tuple(Decomposition.z_basis() for _ in z_times)
    moving = tuple(Decomposition(n) for n in flow_unit_vectors(start, params, FORWARD, z_times))
    for decomps, initial, note in ((pointer, UP, "pointer family, pure start"), (moving, None, "forward transport, mixed start")):
        family = HistoryFamily(params=params, times=z_times, decompositions=decomps)
        T3 = propagator_closed_form(params, np.diff(z_times))[:, 1:, 1:]
        residual = chain_kernel(family.units, T3, np.zeros(3) if initial is None else initial)[2].max()
        chain = markov_from_family(family, initial)
        D = decoherence_functional(family, initial)
        print(f"  {note}: residual {residual:.1e}, so every off-diagonal is at most {residual / 2:.1e};")
        print(f"    the exact largest, which markov_from_family reads from the pair chain: {D.max_offdiag:.1e}")
        print(f"    initial distribution: {np.array2string(chain.initial_distribution, precision=4)}")
        for k, M in enumerate(chain.transitions):
            print(f"    step {k}: flip probability {M[1, 0]:.6f}")
        # the chain's product against the diagonal of the full functional
        product = [
            chain.initial_distribution[bits[0]] * math.prod(M[b, a] for M, a, b in zip(chain.transitions, bits, bits[1:]))
            for bits in map(D.label, range(2**D.f))
        ]
        print(f"    chain product vs the functional's diagonal: max deviation {np.abs(product - D.weights).max():.1e}")

if __name__ == "__main__":
    main()
