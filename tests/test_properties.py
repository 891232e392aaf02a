"""Property-based checks, reproducible: derandomized, no example database, a fixed example count."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tunnelmol.families import BlochDirection
from tunnelmol.histories import Decomposition, HistoryFamily, _format17g, chain_kernel, decoherence_functional
from tunnelmol.ptm import ModelParams, propagator_closed_form

REPRODUCIBLE = settings(derandomize=True, database=None, deadline=None, max_examples=400)


@REPRODUCIBLE
@given(st.one_of(st.floats(), st.lists(st.floats(), min_size=1, max_size=16)))
def test_format17g_text_is_percent_17g(value):
    values = np.array(value, dtype=np.float64).reshape(-1)
    assert _format17g(values).tolist() == [b"%.17g" % v for v in values.tolist()]


# (omega, gamma, gap scale): slow and fast pairs near gamma ~ omega, and the D2S2 pair over gaps near 1/gamma
RATES = st.one_of(
    st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0), st.just(1.0)),
    st.just((176.0, 9e9, 1e-9)),
)
ANGLES = st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2.0 * np.pi))


@REPRODUCIBLE
@given(
    RATES,
    st.lists(st.tuples(ANGLES, st.floats(0.1, 10.0), st.floats(0.05, 2.0)), min_size=1, max_size=6),
    ANGLES,
    st.floats(0.0, 1.0),
)
def test_a_history_family_is_its_unit_vectors_and_its_weights_are_the_chain(rates, per_time, start, r):
    omega, gamma, scale = rates
    params = ModelParams(omega=omega, gamma=gamma)
    times = scale * np.cumsum([gap for _, _, gap in per_time])
    vectors = [length * BlochDirection(*angles).unit_vector for angles, length, _ in per_time]
    built = [
        HistoryFamily(params=params, times=times, decompositions=directions)
        for directions in (tuple(map(Decomposition, vectors)), np.array(vectors), vectors)
    ]
    assert all(np.array_equal(b.units, built[0].units) for b in built[1:])
    r0 = r * BlochDirection(*start).unit_vector
    D = decoherence_functional(built[0], r0).entries
    assert np.array_equal(D, D.conj().T)
    # the weight of each history, the chain's product along its bits, t_1 the low bit
    p1, transitions, _ = chain_kernel(built[0].units, propagator_closed_form(params, np.diff(times))[:, 1:, 1:], r0)
    bits = (np.arange(2 ** len(times))[:, None] >> np.arange(len(times))) & 1
    steps = np.arange(len(times) - 1)
    weights = p1[bits[:, 0]] * np.prod(transitions[steps, bits[:, 1:], bits[:, :-1]], axis=1)
    assert np.abs(np.diag(D).real - weights).max() <= 1e-14
