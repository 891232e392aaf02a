"""Decoherence functional, consistency, Markov extraction, collision averaging."""

import dataclasses
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import (
    apply_ptm,
    classical_collision_average,
    decoherence_entries_mp,
    exact_direction,
    fitted_markov_chain,
    state_from_bloch,
)
from tunnelmol import histories
from tunnelmol.families import (
    BACKWARD,
    FORWARD,
    X_DIRECTION,
    Y_DIRECTION,
    Z_DIRECTION,
    BlochDirection,
    FamilyTrajectory,
    flow_unit_vectors,
)
from tunnelmol.histories import (
    DecoherenceMatrix,
    Decomposition,
    HistoryFamily,
    NotConsistentError,
    _coerce_initial,
    _digits17,
    _format17g,
    chain_kernel,
    checked_weights,
    consistency_check,
    decoherence_entries,
    decoherence_functional,
    markov_from_family,
    projector_pairs,
    telegraph_flip_probability,
)
from tunnelmol.ptm import PAULIS, ModelParams, pauli_coefficients, propagator_closed_form

P05 = ModelParams(omega=1.0, gamma=0.5)

# frozen: x-basis two-time family, gamma=0.5 omega=1, dt=0.7, started in the
# upper well superposition |0><0|
X_TWO_TIME_OFFDIAG = 0.11590462525011158


def z_family(params, times):
    return HistoryFamily(
        params=params,
        times=np.asarray(times, dtype=float),
        decompositions=tuple(Decomposition.z_basis() for _ in times),
    )


def test_decomposition_validation_and_roundtrip():
    d = Decomposition.from_direction(BlochDirection(theta=0.8, phi=1.1))
    P0, P1 = d.projectors
    assert np.abs(P0 + P1 - np.eye(2)).max() < 1e-14
    assert np.abs(P0 @ P1).max() < 1e-14
    back = BlochDirection.from_vector(d.n)
    assert abs(back.theta - 0.8) < 1e-12
    # the vector is normalised once, on construction
    assert np.array_equal(Decomposition(np.array([0.0, 3.0, 4.0])).n, [0.0, 0.6, 0.8])
    with pytest.raises(ValueError):
        Decomposition(np.zeros(3))


def test_from_direction_projectors_are_hermitian_idempotent_and_complete():
    # what a decomposition's projector pair must be, for the vectors it is built from
    rng = np.random.default_rng(2012)
    directions = [X_DIRECTION, Y_DIRECTION, Z_DIRECTION, *rng.standard_normal((20, 3))]
    for direction in directions:
        P = Decomposition.from_direction(direction).projectors
        assert np.abs(P - np.swapaxes(P, -1, -2).conj()).max() <= 1e-15
        assert np.abs(P @ P - P).max() <= 1e-15
        assert np.abs(P[0] + P[1] - np.eye(2)).max() <= 1e-15
        assert np.abs(P[0] @ P[1]).max() <= 1e-15


@pytest.mark.parametrize("vector", [np.zeros(3), np.array([0.0, np.nan, 1.0]), np.array([np.inf, 0.0, 0.0])])
def test_a_zero_or_non_finite_direction_is_rejected(vector):
    # a zero vector was the trivial decomposition (I, 0): the chain read it
    # as (0.5, 0.5) while the functional put all weight on arm 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (Decomposition, Decomposition.from_direction, BlochDirection.from_vector):
            with pytest.raises(ValueError, match="nonzero, finite"):
                build(vector)
    with pytest.raises(ValueError):
        Decomposition((np.eye(2), np.zeros((2, 2))))


def test_family_validation():
    with pytest.raises(ValueError):
        z_family(P05, [0.0, 0.5, 0.5])
    with pytest.raises(ValueError):
        HistoryFamily(params=P05, times=np.array([0.0, 1.0]), decompositions=(Decomposition.z_basis(),))
    with pytest.raises(ValueError):
        decoherence_functional(z_family(P05, np.linspace(0, 11, 11)))  # f = 11 over the cap


def test_short_gap_warns_when_below_correlation_time():
    p = ModelParams(omega=1.0, gamma=0.5, tau_c=0.5)
    with pytest.warns(UserWarning):
        z_family(p, [0.0, 0.3])
    z_family(p, [0.0, 0.8])  # no warning expected: gap above tau_c


def test_z_family_weights_are_exact_telegraph_products():
    times = np.array([0.0, 0.7, 1.4, 2.0])
    fam = z_family(P05, times)
    D = decoherence_functional(fam)
    rep = consistency_check(D)
    assert rep.passed and rep.max_offdiag < 1e-14
    qs = [telegraph_flip_probability(P05, float(dt)) for dt in np.diff(times)]
    for idx in range(2 ** len(times)):
        bits = D.label(idx)
        w = 0.5
        for m, q in enumerate(qs):
            w *= q if bits[m] != bits[m + 1] else 1.0 - q
        assert D.weights[idx] == pytest.approx(w, abs=1e-14)


def test_little_endian_labels():
    fam = z_family(P05, [0.0, 0.5, 1.0])
    D = decoherence_functional(fam)
    assert D.label(1) == (1, 0, 0)
    assert D.label(4) == (0, 0, 1)
    assert D.f == 3


def test_first_outcome_marginal_follows_initial_state():
    # starting in the upper z eigenstate pins the first z record
    fam = z_family(P05, [0.0, 0.9])
    D = decoherence_functional(fam, np.array([0.0, 0.0, 1.0]))
    w = D.weights.reshape(2, 2, order="F")
    assert w[1, :].sum() == pytest.approx(0.0, abs=1e-14)
    assert w[0, :].sum() == pytest.approx(1.0, abs=1e-12)


def test_any_two_time_family_is_consistent_for_maximally_mixed_start():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = ModelParams(omega=float(rng.uniform(0.3, 2.5)), gamma=float(rng.uniform(0.3, 2.5)))
        ds = tuple(
            Decomposition.from_direction(
                BlochDirection(theta=math.acos(float(rng.uniform(-1, 1))), phi=float(rng.uniform(0, 2 * math.pi)))
            )
            for _ in range(2)
        )
        fam = HistoryFamily(params=p, times=np.array([0.0, float(rng.uniform(0.2, 2.0))]), decompositions=ds)
        assert decoherence_functional(fam).max_offdiag < 1e-14


def test_x_basis_two_time_fails_for_pure_start():
    fam = HistoryFamily(
        params=P05,
        times=np.array([0.0, 0.7]),
        decompositions=(Decomposition.x_basis(), Decomposition.x_basis()),
    )
    D = decoherence_functional(fam, np.array([0.0, 0.0, 1.0]))
    assert D.max_offdiag == pytest.approx(X_TWO_TIME_OFFDIAG, abs=1e-12)
    assert not consistency_check(D).passed


def test_x_basis_recovers_consistency_at_stroboscopic_gap():
    eta = P05.discriminant
    fam = HistoryFamily(
        params=P05,
        times=np.array([0.0, math.pi / eta]),
        decompositions=(Decomposition.x_basis(), Decomposition.x_basis()),
    )
    D = decoherence_functional(fam, np.array([0.0, 0.0, 1.0]))
    assert D.max_offdiag < 1e-12


def test_forward_families_consistent_for_mixed_start():
    rng = np.random.default_rng(23)
    for _ in range(10):
        p = ModelParams(omega=float(rng.uniform(0.3, 2.0)), gamma=float(rng.uniform(0.3, 2.0)))
        d0 = BlochDirection(theta=math.acos(float(rng.uniform(-1, 1))), phi=float(rng.uniform(0, 2 * math.pi)))
        times = np.array([0.0, 0.6, 1.3, 1.9])
        ds = tuple(Decomposition.from_direction(exact_direction(d0, p, FORWARD, float(t))) for t in times)
        fam = HistoryFamily(params=p, times=times, decompositions=ds)
        assert decoherence_functional(fam).max_offdiag < 1e-12


def test_backward_families_consistent_for_any_start():
    rng = np.random.default_rng(29)
    for _ in range(10):
        p = ModelParams(omega=float(rng.uniform(0.3, 2.0)), gamma=float(rng.uniform(0.3, 2.0)))
        d0 = BlochDirection(theta=math.acos(float(rng.uniform(-1, 1))), phi=float(rng.uniform(0, 2 * math.pi)))
        times = np.array([0.0, 0.8, 1.5])
        ds = tuple(Decomposition.from_direction(exact_direction(d0, p, BACKWARD, float(t))) for t in times)
        fam = HistoryFamily(params=p, times=times, decompositions=ds)
        r = rng.normal(size=3)
        r /= np.linalg.norm(r)  # pure state
        assert decoherence_functional(fam, r).max_offdiag < 1e-12


def test_functional_respects_initial_state_formats():
    fam = z_family(P05, [0.0, 0.5])
    r = np.array([0.2, -0.3, 0.4])
    a = decoherence_functional(fam, r).entries
    b = decoherence_functional(fam, state_from_bloch(r)).entries
    assert np.abs(a - b).max() < 1e-15
    with pytest.raises(ValueError):
        decoherence_functional(fam, np.zeros(5))


def test_diagonal_reproduces_born_probabilities():
    # one-time family: weights are plain projector expectations after no evolution
    d = Decomposition.from_direction(BlochDirection(theta=1.0, phi=0.2))
    fam = HistoryFamily(params=P05, times=np.array([0.0]), decompositions=(d,))
    r = np.array([0.1, 0.5, -0.2])
    D = decoherence_functional(fam, r)
    rho = state_from_bloch(r)
    for j in (0, 1):
        assert D.weights[j] == pytest.approx(float(np.trace(d.projectors[j] @ rho).real), abs=1e-14)


def test_markov_extraction_from_z_family():
    times = np.array([0.0, 0.6, 1.5])
    chain = markov_from_family(z_family(P05, times))
    assert np.allclose(chain.initial_distribution, [0.5, 0.5])
    for m, dt in enumerate(np.diff(times)):
        q = telegraph_flip_probability(P05, float(dt))
        M = chain.transitions[m]
        assert np.allclose(M.sum(axis=0), 1.0)
        assert M[1, 0] == pytest.approx(q, abs=1e-12)
        assert M[0, 1] == pytest.approx(q, abs=1e-12)
    assert chain.factorization_error < 1e-12


def test_markov_single_time_has_no_transitions():
    fam = HistoryFamily(params=P05, times=np.array([0.0]), decompositions=(Decomposition.z_basis(),))
    chain = markov_from_family(fam)
    assert chain.transitions.shape == (0, 2, 2)
    assert np.allclose(chain.initial_distribution, [0.5, 0.5])


def test_markov_refuses_inconsistent_family():
    fam = HistoryFamily(
        params=P05,
        times=np.array([0.0, 0.7]),
        decompositions=(Decomposition.x_basis(), Decomposition.x_basis()),
    )
    with pytest.raises(NotConsistentError):
        markov_from_family(fam, np.array([0.0, 0.0, 1.0]))


def _poisson_weights(lam, nmax):
    w = np.array([math.exp(-lam) * lam**n / math.factorial(n) for n in range(nmax)])
    return w / w.sum()


def test_collision_count_average_reproduces_telegraph_matrix():
    # each collision flips the classical record; averaging the parity over a
    # Poisson number of collisions gives the telegraph transition matrix
    lam = 1.3  # gamma * dt
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    stay = np.eye(2)
    mats = [stay if n % 2 == 0 else flip for n in range(80)]
    M = classical_collision_average(mats, _poisson_weights(lam, 80))
    q = 0.5 * (1.0 - math.exp(-2.0 * lam))
    assert M[1, 0] == pytest.approx(q, abs=1e-12)
    assert M[0, 0] == pytest.approx(1.0 - q, abs=1e-12)


def test_collision_count_average_commutes_with_chaining():
    # independent counts on disjoint intervals: averaging then chaining equals
    # chaining count-conditioned matrices under the convolved distribution
    lam1, lam2 = 0.8, 1.7
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    mats = [np.eye(2) if n % 2 == 0 else flip for n in range(120)]
    M1 = classical_collision_average(mats[:60], _poisson_weights(lam1, 60))
    M2 = classical_collision_average(mats[:60], _poisson_weights(lam2, 60))
    w1, w2 = _poisson_weights(lam1, 60), _poisson_weights(lam2, 60)
    wsum = np.convolve(w1, w2)  # length 119: counts 0..118
    wsum = wsum / wsum.sum()
    chained = classical_collision_average(mats[: len(wsum)], wsum)
    assert np.abs(M2 @ M1 - chained).max() < 1e-12


def test_collision_average_validation():
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        classical_collision_average([np.eye(2), flip], [0.7, 0.7])
    with pytest.raises(ValueError):
        classical_collision_average([np.eye(2)], [0.5, 0.5])
    with pytest.raises(ValueError):
        classical_collision_average([np.array([[0.9, 0.0], [0.0, 0.9]])], [1.0])


def test_family_from_trajectory_matches_pointwise_directions():
    p = ModelParams(omega=1.0, gamma=0.7)
    grid = np.linspace(0.0, 3.0, 601)
    traj = FamilyTrajectory.integrate(BlochDirection(0.4, 0.1), p, FORWARD, grid)
    times = np.array([0.0, 1.0, 2.5])
    fam = HistoryFamily.from_trajectory(traj, times)
    assert fam.f == 3
    for t, got in zip(times, fam.units):
        want = traj.direction_at(float(t)).unit_vector
        assert np.abs(got - want).max() < 1e-9
    # sampled finely enough, the trajectory family is consistent up to the
    # grid interpolation error of the basis directions
    assert decoherence_functional(fam).max_offdiag < 1e-4


def _entries_by_brute_force(transfers, projectors, rho0):
    # reference: every branch operator built by explicit 2x2 matrix products
    f = len(projectors)
    D = np.empty((2**f, 2**f), dtype=complex)
    for i in range(2**f):
        for j in range(2**f):
            M = rho0
            for m in range(f):
                if m > 0:
                    M = apply_ptm(transfers[m - 1], M)
                M = projectors[m][(i >> m) & 1] @ M @ projectors[m][(j >> m) & 1]
            D[i, j] = np.trace(M)
    return D


def _random_decomposition(rng):
    theta, phi = math.acos(float(rng.uniform(-1, 1))), float(rng.uniform(0, 2 * math.pi))
    return Decomposition.from_direction(BlochDirection(theta=theta, phi=phi))


def test_chain_operator_route_matches_brute_force():
    # f = 1..6 puts the split between the prefix and the suffix at every
    # point, after an odd and after an even number of times
    p = ModelParams(omega=0.9, gamma=1.1)
    rng = np.random.default_rng(47)
    for f in range(1, 7):
        times = np.cumsum(rng.uniform(0.2, 0.8, f))
        ds = tuple(_random_decomposition(rng) for _ in range(f))
        fam = HistoryFamily(params=p, times=times, decompositions=ds)
        bloch = rng.standard_normal(3)
        rho0 = state_from_bloch(bloch * rng.uniform(0.0, 1.0) / np.linalg.norm(bloch))
        D = decoherence_functional(fam, rho0).entries
        transfers = [propagator_closed_form(p, float(dt)) for dt in np.diff(times)]
        want = _entries_by_brute_force(transfers, [np.array(d.projectors) for d in ds], rho0)
        assert np.abs(D - want).max() < 1e-12
    # stacks: one gap and one basis per stacked family, checked entry by entry
    for f in (2, 3):
        gaps = rng.uniform(0.1, 1.5, (5, f - 1))
        bases = [[_random_decomposition(rng) for _ in range(f)] for _ in range(5)]
        transfers = [propagator_closed_form(p, gaps[:, m]) for m in range(f - 1)]
        units = [np.array([b[m].n for b in bases]) for m in range(f)]
        rho0 = state_from_bloch(np.array([0.3, 0.1, -0.4]))
        stacked = decoherence_entries(transfers, units, rho0)
        assert stacked.shape == (5, 2**f, 2**f)
        for k in range(5):
            want = _entries_by_brute_force([T[k] for T in transfers], [projector_pairs(n[k]) for n in units], rho0)
            assert np.abs(stacked[k] - want).max() < 1e-12


def test_stacked_functional_matches_one_family_at_a_time():
    # three-time families sharing the first two bases, last basis moving
    p = ModelParams(omega=1.1, gamma=0.6)
    d0, d1 = Decomposition.from_direction(BlochDirection(1.0, 0.3)), Decomposition.x_basis()
    gaps = np.array([0.2, 0.5, 1.3, 2.0])
    lasts = [Decomposition.from_direction(BlochDirection(0.5 + g, 2.0 * g)) for g in gaps]
    stacked = decoherence_entries(
        [propagator_closed_form(p, 0.4), propagator_closed_form(p, gaps)],
        [d0.n, d1.n, np.array([d.n for d in lasts])],
        np.array([0.2, -0.1, 0.5]),
    )
    assert stacked.shape == (len(gaps), 8, 8)
    for k, g in enumerate(gaps):
        fam = HistoryFamily(params=p, times=np.array([0.0, 0.4, 0.4 + g]), decompositions=(d0, d1, lasts[k]))
        one = decoherence_functional(fam, np.array([0.2, -0.1, 0.5])).entries
        assert np.abs(stacked[k] - one).max() < 1e-15


def test_checked_weights_validates_every_matrix_of_a_stack():
    good = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    w, off = checked_weights(np.array([good, good]))
    assert w.shape == (2, 4) and np.all(off == 0.0)
    skew = good.copy()
    skew[0, 1] = 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        checked_weights(np.array([good, skew]))
    negative = np.diag([0.5, -1e-9, 0.0, 0.5]).astype(complex)
    with pytest.raises(ValueError, match="negative history weight"):
        checked_weights(np.array([negative, good]))


def _csv_by_loop(entries):
    # reference: one f-string per entry
    lines = ["row,col,real,imag"]
    n = entries.shape[0]
    for i in range(n):
        for j in range(n):
            z = entries[i, j]
            lines.append(f"{i},{j},{z.real:.17g},{z.imag:.17g}")
    return "\n".join(lines) + "\n"


def _assert_same_text(got, want):
    # a failure names the first differing line, without a diff of megabytes
    if got != want:
        k = next((k for k, (a, b) in enumerate(zip(got.splitlines(), want.splitlines())) if a != b), None)
        raise AssertionError(f"texts differ first at line {k} (lengths {len(got)}, {len(want)})")


def _csv_text(D):
    buf = io.StringIO()
    D.write_csv(buf)
    return buf.getvalue()


def test_decoherence_csv_is_byte_identical_to_the_entrywise_loop():
    # up to f = 9 the CSV spans several blocks of written rows
    p = ModelParams(omega=1.0, gamma=0.9)
    flow = FamilyTrajectory.integrate(BlochDirection(1.2, 0.4), p, FORWARD, np.linspace(0.0, 3.0, 61))
    for f in range(1, 10):
        times = 0.35 * np.arange(f)
        for fam in (z_family(p, times), HistoryFamily.from_trajectory(flow, times)):
            D = decoherence_functional(fam, np.array([0.1, -0.2, 0.3]))
            _assert_same_text(_csv_text(D), _csv_by_loop(D.entries))
    # signed zeros compare equal but print apart; extremes keep all 17 digits;
    # the rest sit on the fixed/scientific switch, just below a new decade, on
    # exact halves, and among the values formatted by Python
    special = np.array(
        [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308, 1.0 / 3.0,
         np.nan, -np.nan, np.inf, -np.inf, 1e16, 9999999999999998.0, 1e17, 1e-4, 1e-5, 0.5, 123.5]
    )
    rng = np.random.default_rng(3)
    # every value appears, as a real and as an imaginary part
    entries = rng.permutation(np.resize(special, 2 * 64)).view(np.complex128).reshape(8, 8)
    entries[0, 0] = complex(-0.0, 0.0)
    entries[0, 1] = complex(0.0, -0.0)
    D = DecoherenceMatrix(family=z_family(p, [0.0, 0.3, 0.6]), entries=entries)
    text = _csv_text(D)
    assert text == _csv_by_loop(entries)
    assert text.splitlines()[1:3] == ["0,0,-0,0", "0,1,0,-0"]


def test_entries_of_a_class_share_their_bits():
    # the writer formats one entry per class, so every entry must carry the
    # bits of its class's representative, and each representative lie in its class
    p = ModelParams(omega=1.0, gamma=0.9)
    d2s2 = ModelParams(omega=176.0, gamma=9e9)
    for f in range(1, 11):
        times = 0.35 * np.arange(f)
        stiff = 1e-7 * np.arange(f)
        families = [
            z_family(p, times),
            _family(p, times, flow_unit_vectors(np.array([1.0, 0.0, 0.0]), p, FORWARD, times)),
            _family(p, times, flow_unit_vectors(np.array([0.0, 1.0, 0.0]), p, BACKWARD, times)),
            _family(d2s2, stiff, flow_unit_vectors(np.array([0.6, 0.0, 0.8]), d2s2, FORWARD, stiff)),
        ]
        for fam in families:
            for initial in (None, np.array([0.1, -0.2, 0.3]), np.array([0.0, 0.0, 1.0]), np.array([0.48, 0.6, 0.64])):
                D = decoherence_functional(fam, initial)
                classes, rep = D._classes()
                assert classes.shape == D.entries.shape and classes.dtype == np.int32
                assert np.array_equal(classes.flat[rep], np.arange(len(rep)))
                bits = D.entries.view(np.uint64)
                assert np.array_equal(bits.reshape(-1, 2)[rep][classes].reshape(bits.shape), bits)


def test_format17g_is_byte_identical_to_percent_formatting():
    rng = np.random.default_rng(17)
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    neighbours = np.concatenate((powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)))
    halfway = ((np.arange(200) + 0.5)[:, None] * 10.0 ** np.arange(-30, 31)).ravel()
    # exact ties at the 17th digit: odd multiples of 2^-j with 18 significant digits
    ties = []
    for j in range(2, 25):
        lo, hi = math.ceil(10.0 ** (17 - j) * 2**j), int(min(10.0 ** (18 - j) * 2**j, 2.0**53))
        ties.append(np.ldexp(rng.integers(lo // 2, hi // 2, 200) * 2 + 1, -j))
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64)
    values = np.concatenate((neighbours, -neighbours, halfway, *ties, bits.view(np.float64)))
    assert _format17g(values).tolist() == [b"%.17g" % v for v in values.tolist()]
    assert not _digits17(np.concatenate(ties))[2].any()
    # on the entries of a moving x family only exact zeros, outside the
    # kernel's range, are formatted by Python
    p = ModelParams(omega=1.1, gamma=0.9)
    times = 0.4 * np.arange(10)
    units = flow_unit_vectors(np.array([1.0, 0.0, 0.0]), p, FORWARD, times)
    fam = HistoryFamily(params=p, times=times, decompositions=tuple(Decomposition.from_direction(n) for n in units))
    entries = decoherence_functional(fam, np.array([0.1, -0.2, 0.3])).entries
    distinct = np.unique(entries.view(np.uint64).ravel()).view(np.float64)
    assert len(distinct) > 100_000
    assert np.array_equal(distinct[~_digits17(distinct)[2]], distinct[distinct == 0.0])


def test_histories_command_writes_the_echo_then_the_entrywise_csv(tmp_path):
    from tunnelmol.cli import main

    assert main(["histories", "--steps", "9", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "dmatrix.csv").read_text()
    body = text.index("row,col,real,imag\n")
    echo = text[:body].splitlines()
    assert echo[0] == "# command=histories" and "# steps=9" in echo
    assert all(line.startswith("# ") for line in echo)
    z = Decomposition.from_direction(BlochDirection(0.0, 0.0))
    fam = HistoryFamily(params=ModelParams(omega=1.0, gamma=1.0), times=0.5 * np.arange(9), decompositions=(z,) * 9)
    _assert_same_text(text[body:], _csv_by_loop(decoherence_functional(fam).entries))


def _entries_level_loop(transfers, projectors, initial=None, last_components=4):
    # reference: each level is one unblocked tensor; the last one keeps all four
    # coefficient components, or only the trace with last_components=1.  The
    # sandwich M -> P_a M P_b is read off the 2x2 projector pairs (..., 2, 2, 2):
    # Tr(sigma_k P_a sigma_j P_b) / 2 at [a, b, j, k], as it acts on row vectors
    A = pauli_coefficients(_coerce_initial(initial)).reshape(1, 1, 4)
    for m, P in enumerate(projectors):
        if m > 0:
            A = A @ np.swapaxes(transfers[m - 1], -1, -2)[..., None, :, :]
        S = np.einsum("kxy,...ayz,jzw,...bwx->...abjk", PAULIS, P, PAULIS, P)[..., None, :, :] / 2.0
        if m == len(projectors) - 1:
            S = S[..., :last_components]
        K = A.shape[-2]
        nxt = np.empty(np.broadcast_shapes(A.shape[:-3], S.shape[:-5]) + (2 * K, 2 * K, S.shape[-1]), dtype=complex)
        for a in range(2):
            for b in range(2):
                nxt[..., a * K : (a + 1) * K, b * K : (b + 1) * K, :] = A @ S[..., a, b, :, :, :]
        A = nxt
    return 2.0 * A[..., 0]


def _family_inputs(fam):
    return propagator_closed_form(fam.params, np.diff(fam.times)), fam.units


def test_last_level_trace_matches_the_full_tensor_loop():
    p = ModelParams(omega=1.0, gamma=0.9)
    rho0 = np.array([0.1, -0.2, 0.3])
    flows = [
        FamilyTrajectory.integrate(BlochDirection(1.2, 0.4), p, sense, np.linspace(0.0, 2.5, 51))
        for sense in (FORWARD, BACKWARD)
    ]
    for f in range(1, 11):
        times = 0.35 * np.arange(f)
        for initial in (None, rho0):
            transfers, units = _family_inputs(z_family(p, times))
            got = decoherence_entries(transfers, units, initial)
            assert np.abs(got - _entries_level_loop(transfers, projector_pairs(units), initial)).max() <= 1e-15
            for flow in flows:
                transfers, units = _family_inputs(HistoryFamily.from_trajectory(flow, times))
                got = decoherence_entries(transfers, units, initial)
                assert np.abs(got - _entries_level_loop(transfers, projector_pairs(units), initial)).max() <= 1e-15
    # the two-time stack of build_info_report's mutual_info column
    times = np.linspace(0.0, 3.0, 31)
    first = Decomposition.x_basis()
    T = propagator_closed_form(p, times)
    units = [first.n, flow_unit_vectors(first.n, p, FORWARD, times)]
    got = decoherence_entries([T], units)
    assert got.shape == (len(times), 4, 4)
    assert np.abs(got - _entries_level_loop([T], [projector_pairs(n) for n in units])).max() <= 1e-15


def test_split_trees_match_the_trace_only_level_loop():
    # f = 8 and 9 join a prefix over 4 and 5 times to a suffix over 5 times,
    # which starts at the prefix's last time
    p = ModelParams(omega=1.0, gamma=0.9)
    flow = FamilyTrajectory.integrate(BlochDirection(1.2, 0.4), p, FORWARD, np.linspace(0.0, 3.0, 61))
    for f in (8, 9):
        times = 0.35 * np.arange(f)
        for fam in (z_family(p, times), HistoryFamily.from_trajectory(flow, times)):
            transfers, units = _family_inputs(fam)
            for initial in (None, np.array([0.1, -0.2, 0.3])):
                got = decoherence_entries(transfers, units, initial)
                want = _entries_level_loop(transfers, projector_pairs(units), initial, last_components=1)
                assert np.abs(got - want).max() <= 1e-15
        # z projectors and a z-diagonal start keep every coherence an exact zero
        transfers, units = _family_inputs(z_family(p, times))
        got = decoherence_entries(transfers, units, np.array([0.0, 0.0, 0.3]))
        assert np.all(got[~np.eye(2**f, dtype=bool)] == 0.0)


def test_decoherence_entries_match_a_40_digit_brute_force():
    # random bases and gaps, from a mixed and from a pure state off every axis
    p = ModelParams(omega=1.0, gamma=0.7)
    rng = np.random.default_rng(2206)
    for f in range(1, 6):
        transfers = propagator_closed_form(p, rng.uniform(0.1, 1.2, f - 1))
        units = _random_units(rng, (f,))
        direction = _random_units(rng, ())
        for initial in (0.6 * direction, direction):
            got = decoherence_entries(transfers, units, initial)
            assert np.abs(got - decoherence_entries_mp(transfers, units, initial)).max() <= 1e-15


def test_pair_factors_hold_the_chain_and_its_residuals():
    # the real diagonal block of G_k is chain_kernel's transition matrix, and
    # twice |G_k(a' != b' | a = b)| is the residual of gap k, as twice
    # |<0|rho_0|1>| is the first one
    p = ModelParams(omega=1.0, gamma=1.3)
    rng = np.random.default_rng(2205)
    times = np.cumsum(rng.uniform(0.2, 0.7, size=6))
    transfers = propagator_closed_form(p, np.diff(times))
    cases = [
        (transfers, flow_unit_vectors(_random_units(rng, ()), p, sense, times - times[0]), 0.7 * _random_units(rng, ()))
        for sense in (FORWARD, BACKWARD)
    ]
    # a stack of 7 four-time families, time first as decoherence_entries takes it
    cases.append((propagator_closed_form(p, rng.uniform(0.1, 1.5, (3, 7))), _random_units(rng, (4, 7)),
                  0.8 * _random_units(rng, ())))
    for transfers, units, r0 in cases:
        w, G = histories._pair_factors(transfers, units, r0)
        G = np.stack(G, axis=-3)
        G = G.reshape(G.shape[:-2] + (2, 2, 2, 2))  # [a', a, b', b]
        _, transitions, residuals = chain_kernel(
            np.moveaxis(units, 0, -2), np.moveaxis(transfers, 0, -3)[..., 1:, 1:], r0
        )
        diagonal = np.einsum("...iaia->...ia", G)
        assert np.abs(diagonal - transitions).max() <= 1e-15
        off = np.diagonal(G[..., 0, :, 1, :], axis1=-2, axis2=-1)
        assert np.abs(2.0 * np.abs(off) - residuals[..., 1:, None]).max() <= 1e-15
        assert np.abs(2.0 * np.abs(w[..., 0, 1]) - residuals[..., 0]).max() <= 1e-15


def _checked_weights_verdict(entries):
    try:
        return checked_weights(entries)
    except ValueError as exc:
        assert "not Hermitian" in str(exc)
        return None


def test_blocked_hermiticity_check_matches_allclose():
    n = 512
    rng = np.random.default_rng(5)
    half = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * 1e-3
    good = half + half.conj().T + np.diag(np.full(n, 1.0))
    corner = good.copy()
    corner[0, n - 1] += 1e-6  # only this entry breaks the symmetry, across row blocks
    nan = good.copy()
    nan[300, 7] = complex(np.nan, 0.0)
    small = rng.standard_normal((101, 4, 4)) + 1j * rng.standard_normal((101, 4, 4))
    stack = small + np.swapaxes(small, -1, -2).conj() + 10.0 * np.eye(4)
    skewed_stack = stack.copy()
    skewed_stack[57, 3, 1] += 1e-3  # beyond rtol 1e-5 of entries of order 1
    for E, hermitian in ((good, True), (corner, False), (nan, False), (stack, True), (skewed_stack, False)):
        assert np.allclose(E, np.swapaxes(E, -1, -2).conj(), atol=1e-10) == hermitian
        verdict = _checked_weights_verdict(E)
        assert (verdict is not None) == hermitian
        if hermitian:
            w, off = verdict
            assert np.array_equal(w, np.real(np.diagonal(E, axis1=-2, axis2=-1)))
            assert np.array_equal(off, (np.abs(E) * (1.0 - np.eye(E.shape[-1]))).max(axis=(-2, -1)))


def test_infinite_entries_get_the_isclose_verdict_without_a_warning():
    good = np.diag([0.5, 0.25, 0.25]).astype(complex)
    cases = []
    for upper, lower in ((np.inf, np.inf), (complex(1.0, np.inf), complex(1.0, -np.inf)), (np.inf, -np.inf),
                         (np.inf, 1.0), (complex(np.inf, np.inf), complex(np.inf, np.inf))):
        E = good.copy()
        E[0, 2], E[2, 0] = upper, lower
        cases.append(E)
    for E in cases + [np.array(cases)]:
        hermitian = bool(np.isclose(E, np.swapaxes(E, -1, -2).conj(), atol=1e-10).all())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = _checked_weights_verdict(E)
        assert (verdict is not None) == hermitian
        if hermitian:
            assert np.all(verdict[1] == np.inf)


@pytest.mark.parametrize("diagonal", [[np.inf, 0.5], [0.25, np.inf, 0.5]], ids=["first", "middle"])
def test_an_infinite_diagonal_entry_gives_a_nan_off_diagonal_magnitude_without_a_warning(diagonal):
    E = np.diag(diagonal).astype(complex)
    with np.errstate(invalid="ignore"):
        assert np.isnan((np.abs(E) * (1.0 - np.eye(len(E)))).max())  # inf * 0, as in |E| (1 - I)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, off = checked_weights(E)
    assert np.array_equal(w, np.real(np.diagonal(E))) and np.isnan(off)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, off = checked_weights(np.array([E, np.diag(np.full(len(E), 0.5)).astype(complex)]))
    assert np.isnan(off[0]) and off[1] == 0.0


def test_max_offdiag_reads_what_checked_weights_reads_and_validates_nothing():
    p = ModelParams(omega=1.0, gamma=0.9)
    flow = FamilyTrajectory.integrate(BlochDirection(1.2, 0.4), p, FORWARD, np.linspace(0.0, 3.0, 61))
    # f = 9 spans several row blocks
    D = decoherence_functional(HistoryFamily.from_trajectory(flow, 0.35 * np.arange(9)), np.array([0.1, -0.2, 0.3]))
    assert D.max_offdiag == checked_weights(D.entries)[1] > 0.0
    assert D.max_offdiag == (np.abs(D.entries) * (1.0 - np.eye(512))).max()
    fam = z_family(p, [0.0, 0.5])
    skew = np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex)
    skew[3, 0] = 0.125j  # not Hermitian: checked_weights raises, the property does not
    with pytest.raises(ValueError, match="not Hermitian"):
        checked_weights(skew)
    assert DecoherenceMatrix(family=fam, entries=skew).max_offdiag == 0.125
    infinite = DecoherenceMatrix(family=fam, entries=np.diag([0.5, np.inf, 0.5, 0.0]).astype(complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(infinite.max_offdiag)


class _NullSink:
    def write(self, text):
        pass


@pytest.mark.parametrize("moving, budget", [(False, 7.3e6), (True, 34.4e6)])
def test_csv_writer_at_f10_stays_within_its_memory_budget(moving, budget):
    # 2^20 entries: the static z family has 98 classes and 23 distinct floats,
    # the moving x one 172,548 classes and 62,530 distinct floats
    p = ModelParams(omega=1.0, gamma=1.0)
    times = 0.5 * np.arange(10)
    if moving:
        units = flow_unit_vectors(np.array([1.0, 0.0, 0.0]), p, FORWARD, times)
        fam = HistoryFamily(params=p, times=times, decompositions=tuple(Decomposition.from_direction(n) for n in units))
    else:
        fam = z_family(p, times)
    D = decoherence_functional(fam)
    tracemalloc.start()
    try:
        D.write_csv(_NullSink())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget


def test_consistency_check_at_f10_stays_within_its_memory_budget():
    # the 2^10 x 2^10 entries alone take 16.8 MB
    fam = z_family(ModelParams(omega=1.0, gamma=0.9), 0.35 * np.arange(10))
    tracemalloc.start()
    try:
        consistency_check(decoherence_functional(fam))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 26e6


def test_decoherence_functional_at_f10_allocates_little_beside_its_entries():
    # the 16.8 MB of entries plus less than 1.2 MB
    p = ModelParams(omega=1.0, gamma=1.0)
    times = 0.5 * np.arange(10)
    units = flow_unit_vectors(np.array([1.0, 0.0, 0.0]), p, FORWARD, times)
    fam = HistoryFamily(params=p, times=times, decompositions=tuple(Decomposition.from_direction(n) for n in units))
    tracemalloc.start()
    try:
        decoherence_functional(fam, np.array([0.1, -0.2, 0.3]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 18e6


def _product_by_loop(p1, transitions, f):
    # reference: one left-to-right product p_1 * prod_m M_m per history, little-endian
    product = np.zeros(2**f)
    for index in range(2**f):
        bits = [(index >> m) & 1 for m in range(f)]
        q = p1[bits[0]]
        for m in range(f - 1):
            q *= transitions[m][bits[m + 1], bits[m]]
        product[index] = q
    return product


def _family(params, times, units):
    return HistoryFamily(params=params, times=times, decompositions=tuple(Decomposition.from_direction(n) for n in units))


def _random_units(rng, shape):
    v = rng.standard_normal(shape + (3,))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _kernel_of(family, r0):
    T3 = propagator_closed_form(family.params, np.diff(family.times))[:, 1:, 1:]
    return chain_kernel(family.units, T3, r0)


def test_markov_product_matches_the_functional_and_the_fitted_chain():
    # z and forward flow families start diagonal in their first basis, random
    # families anywhere in the Bloch ball: the product is the functional's
    # diagonal either way, and a consistent family's chain is the fitted one
    rng = np.random.default_rng(1701)
    p = ModelParams(omega=1.0, gamma=1.7)
    for f in range(1, 11):
        times = np.cumsum(rng.uniform(0.2, 0.7, size=f))
        flow = flow_unit_vectors(_random_units(rng, ()), p, FORWARD, times - times[0])
        families = (
            (z_family(p, times), rng.uniform(-1.0, 1.0) * np.array([0.0, 0.0, 1.0])),
            (_family(p, times, flow), rng.uniform(-1.0, 1.0) * flow[0]),
            (_family(p, times, _random_units(rng, (f,))), rng.uniform(0.0, 1.0) * _random_units(rng, ())),
        )
        for k, (fam, r0) in enumerate(families):
            weights = np.real(np.diag(decoherence_functional(fam, r0).entries))
            p1, transitions, residuals = _kernel_of(fam, r0)
            assert np.abs(_product_by_loop(p1, transitions, f) - weights).max() <= 1e-15
            if k == 2:
                continue
            assert residuals.max() < 1e-14
            chain = markov_from_family(fam, r0)
            fitted_p1, fitted, fitted_error = fitted_markov_chain(weights, f)
            assert chain.factorization_error == 0.0 and fitted_error <= 1e-15
            assert np.abs(chain.initial_distribution - fitted_p1).max() <= 1e-15
            for M, N in zip(chain.transitions, fitted):
                assert np.abs(M - N).max() <= 1e-15


def test_offdiagonal_entries_are_bounded_by_half_the_largest_residual_before_the_last():
    rng = np.random.default_rng(1702)
    for draw in range(60):
        p = ModelParams(omega=float(rng.uniform(0.3, 2.0)), gamma=float(rng.uniform(0.2, 4.0)))
        f = int(rng.integers(2, 8))
        times = np.cumsum(rng.uniform(0.1, 0.8, size=f))
        if draw % 2:
            # a forward flow family, each axis and the start pushed off by 1e-10 .. 1e-5
            units = flow_unit_vectors(_random_units(rng, ()), p, FORWARD, times - times[0])
            units = units + 10.0 ** rng.uniform(-10.0, -5.0, size=(f, 1)) * _random_units(rng, (f,))
            units /= np.linalg.norm(units, axis=-1, keepdims=True)
            r0 = rng.uniform(-1.0, 1.0) * units[0] + 10.0 ** rng.uniform(-10.0, -5.0) * _random_units(rng, ())
        else:
            units = _random_units(rng, (f,))
            r0 = rng.uniform(0.0, 1.0) * _random_units(rng, ())
        fam = _family(p, times, units)
        # the last time's residual does not enter: the trace closes its cross terms
        bound = _kernel_of(fam, r0)[2][:-1].max() / 2.0
        if draw % 2:
            assert 1e-11 < bound < 1e-5
        assert decoherence_functional(fam, r0).max_offdiag <= bound + 1e-15


def test_markov_verdict_matches_the_functional_across_the_tolerance():
    # a forward flow family whose middle axis is tilted off the flow: the
    # functional's off-diagonals straddle 1e-8
    p = ModelParams(omega=1.0, gamma=0.8)
    times = np.array([0.0, 0.6, 1.1, 1.9])
    flow = flow_unit_vectors(np.array([0.6, 0.0, 0.8]), p, FORWARD, times)
    side = np.cross(flow[1], [0.0, 1.0, 0.0])
    side /= np.linalg.norm(side)
    verdicts = []
    for tilt in (3e-9, 1e-8, 2e-8, 4e-8, 1e-7, 1e-6):
        units = flow.copy()
        units[1] = flow[1] + tilt * side
        units[1] /= np.linalg.norm(units[1])
        fam = _family(p, times, units)
        try:
            markov_from_family(fam)
            consistent = True
        except NotConsistentError:
            consistent = False
        assert consistent == consistency_check(decoherence_functional(fam)).passed
        verdicts.append(consistent)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("params", [ModelParams(omega=1.0, gamma=0.6), ModelParams(omega=176.0, gamma=9e9)])
def test_flow_families_at_f10_build_no_functional(monkeypatch, params):
    def refuse(*args, **kwargs):
        raise AssertionError("decoherence_entries called")

    monkeypatch.setattr(histories, "decoherence_entries", refuse)
    times = np.linspace(0.0, 4.0 / params.gamma, 10)
    for d0 in (X_DIRECTION, BlochDirection(1.1, 0.3)):
        units = flow_unit_vectors(d0, params, FORWARD, times)
        for initial in (None, 0.7 * units[0]):
            chain = markov_from_family(_family(params, times, units), initial)
            assert len(chain.transitions) == 9 and chain.factorization_error == 0.0


def test_largest_offdiag_is_the_functional_maximum_at_f_up_to_10():
    # random, forward, backward and D2S2 forward families from a mixed start,
    # a pure one on the first axis and pure and mixed ones off it, against the
    # maximum over all 4^f entries; where that is an exact zero, so must the scan's be
    rng = np.random.default_rng(2807)
    d2s2 = ModelParams(omega=176.0, gamma=9e9)
    for f in range(1, 11):
        p = ModelParams(omega=float(rng.uniform(0.3, 2.0)), gamma=float(rng.uniform(0.2, 4.0)))
        times = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 0.8, f - 1))))
        stiff_times = np.concatenate(([0.0], np.cumsum(10.0 ** rng.uniform(-11.0, -9.0, f - 1))))
        d0 = _random_units(rng, ())
        families = (
            (p, times, _random_units(rng, (f,))),
            (p, times, flow_unit_vectors(d0, p, FORWARD, times)),
            (p, times, flow_unit_vectors(d0, p, BACKWARD, times)),
            (d2s2, stiff_times, flow_unit_vectors(d0, d2s2, FORWARD, stiff_times)),
        )
        for params, t, units in families:
            transfers = propagator_closed_form(params, np.diff(t))
            for initial in (None, units[0], _random_units(rng, ()), 0.6 * _random_units(rng, ())):
                want = float(histories._max_offdiag(decoherence_entries(transfers, units, initial)))
                assert abs(histories._largest_offdiag(transfers, units, initial) - want) <= 1e-14 * want


def test_largest_offdiag_matches_a_40_digit_functional():
    p = ModelParams(omega=1.0, gamma=0.7)
    rng = np.random.default_rng(2808)
    for f in range(1, 5):
        transfers = propagator_closed_form(p, rng.uniform(0.1, 1.2, f - 1))
        units = _random_units(rng, (f,))
        for initial in (None, _random_units(rng, ()), 0.6 * _random_units(rng, ())):
            exact = decoherence_entries_mp(transfers, units, np.zeros(3) if initial is None else initial)
            want = float(histories._max_offdiag(exact))
            # 40 digits leave about 1e-42 where the trace or I/2 closes every
            # cross term exactly, as at f = 1 and at f = 2 from I/2
            assert abs(histories._largest_offdiag(transfers, units, initial) - want) <= 1e-14 * want + 1e-35


def test_largest_offdiag_of_a_static_z_family_from_a_z_diagonal_state_is_exactly_zero():
    times = 0.3 * np.arange(12)
    transfers = propagator_closed_form(P05, np.diff(times))
    units = z_family(P05, times).units
    for initial in (None, np.array([0.0, 0.0, 0.4]), np.array([0.0, 0.0, -1.0])):
        assert histories._largest_offdiag(transfers, units, initial) == 0.0


def test_a_moving_d2s2_family_at_f2000_gets_a_chain():
    params = ModelParams(omega=176.0, gamma=9e9)
    times = 1e-10 * np.arange(2000)
    units = flow_unit_vectors(BlochDirection(1.2, 0.4), params, FORWARD, times)
    chain = markov_from_family(_family(params, times, units))
    assert len(chain.transitions) == 1999
    assert np.abs(np.sum(chain.transitions, axis=1) - 1.0).max() <= 1e-15
    # the exact maximum sits under chain_kernel's bound, half the largest residual before the last
    transfers = propagator_closed_form(params, np.diff(times))
    largest = histories._largest_offdiag(transfers, units, None)
    assert 0.0 < largest <= chain_kernel(units, transfers[:, 1:, 1:], np.zeros(3))[2][:-1].max() / 2.0


def test_a_family_holds_its_times_and_unit_vectors_and_no_per_time_object():
    params = ModelParams(omega=176.0, gamma=9e9)
    times = 1e-10 * np.arange(5)
    units = flow_unit_vectors(BlochDirection(1.2, 0.4), params, FORWARD, times)
    fam = HistoryFamily(params=params, times=times, decompositions=units)
    assert [f.name for f in dataclasses.fields(fam)] == ["params", "times", "units"]
    assert not hasattr(fam, "decompositions")
    # flow rows are unit to an ulp: kept bit for bit, the same from any input form
    assert np.array_equal(fam.units, units)
    for directions in (tuple(map(Decomposition, units)), list(units), [*units[:2], *map(Decomposition, units[2:])]):
        assert np.array_equal(HistoryFamily(params=params, times=times, decompositions=directions).units, units)
    assert np.array_equal(HistoryFamily(params=P05, times=[0.0, 1.0], decompositions=[[0, 3, 4], [2, 0, 0]]).units,
                          [[0.0, 0.6, 0.8], [1.0, 0.0, 0.0]])
    for bad in (units[:4], units[:, :2], np.vstack([units[:4], np.zeros(3)]), [[np.nan, 0.0, 1.0]] * 5):
        with pytest.raises(ValueError):
            HistoryFamily(params=params, times=times, decompositions=bad)


@pytest.mark.parametrize("block", [1, 7, 2000])
def test_the_verdict_over_blocks_of_gaps_is_bitwise_the_one_block_verdict(monkeypatch, block):
    params = ModelParams(omega=176.0, gamma=9e9)
    times = 1e-10 * np.arange(2000)
    units = flow_unit_vectors(BlochDirection(1.2, 0.4), params, FORWARD, times)
    transfers = propagator_closed_form(params, np.diff(times))
    for initial in (None, np.array([0.3, -0.2, 0.5])):
        monkeypatch.setattr(histories, "_VERDICT_BLOCK_GAPS", 10**6)
        whole = histories._largest_offdiag(transfers, units, initial)
        monkeypatch.setattr(histories, "_VERDICT_BLOCK_GAPS", block)
        assert histories._largest_offdiag(transfers, units, initial) == whole > 0.0
    monkeypatch.setattr(histories, "_VERDICT_BLOCK_GAPS", block)
    fam = HistoryFamily(params=P05, times=[0.0], decompositions=[X_DIRECTION.unit_vector])
    assert histories._largest_offdiag(np.empty((0, 4, 4)), fam.units, None) == 0.0


@pytest.mark.parametrize("x", [1e-12, 1e-8, 1.0, 30.0])
def test_telegraph_flip_probability_keeps_every_digit_at_small_gamma_dt(x):
    import mpmath as mp

    with mp.workdps(40):
        want = float((1 - mp.exp(-mp.mpf(x))) / 2)
    got = telegraph_flip_probability(ModelParams(omega=1.0, gamma=0.5), x)
    assert abs(got - want) <= 1e-15 * want


def test_long_families_get_a_chain_or_a_consistency_error():
    times = 0.1 * np.arange(40)
    chain = markov_from_family(z_family(P05, times))
    q = telegraph_flip_probability(P05, 0.1)
    assert len(chain.transitions) == 39
    assert all(abs(M[1, 0] - q) < 1e-15 and abs(M[0, 1] - q) < 1e-15 for M in chain.transitions)
    # x at every time from "up": inconsistent at f = 2 already, and past the
    # functional's cap of 10 times the exact maximum still says so
    fam = HistoryFamily(params=P05, times=0.7 * np.arange(12), decompositions=(Decomposition.x_basis(),) * 12)
    with pytest.raises(NotConsistentError):
        markov_from_family(fam, np.array([0.0, 0.0, 1.0]))


def test_a_state_the_chain_cannot_reach_gets_the_physical_conditional():
    # gamma = 0: the flow family from z carries "up" along with the state, so
    # "down" has no weight after the start; its column is the conditional
    # from P_down, the identity, where a fit to the weights has nothing to use
    p = ModelParams(omega=1.0, gamma=0.0)
    times = np.array([0.0, 0.4, 1.3])
    fam = _family(p, times, flow_unit_vectors(Z_DIRECTION, p, FORWARD, times))
    up = np.array([0.0, 0.0, 1.0])
    chain = markov_from_family(fam, up)
    assert np.abs(chain.initial_distribution - [1.0, 0.0]).max() < 1e-15
    for M in chain.transitions:
        assert np.abs(M - np.eye(2)).max() < 1e-15
    report = consistency_check(decoherence_functional(fam, up))
    _, fitted, _ = fitted_markov_chain(report.weights / report.total_weight, 3)
    assert np.abs(fitted[0] - [[1.0, 0.5], [0.0, 0.5]]).max() < 1e-15


@pytest.mark.parametrize(
    "params, times",
    [
        (ModelParams(omega=1.0, gamma=0.35), np.linspace(0.0, 6.0, 13)),  # underdamped
        (ModelParams(omega=1.1, gamma=1.1), np.linspace(0.0, 5.0, 11)),  # critical
        (ModelParams(omega=0.9, gamma=3.0), np.linspace(0.0, 4.0, 9)),  # overdamped
        (ModelParams(omega=176.0, gamma=9e9), np.array([0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-5, 1e-3])),  # D2S2
    ],
)
def test_flip_probability_of_a_flow_family_is_the_telegraph_one(params, times):
    # paper claim (a): over a gap, (1 - n_{k+1} . T3 n_k)/2 = (1 - exp(-2 dLambda))/2
    traj = FamilyTrajectory.integrate(BlochDirection(1.2, 0.4), params, FORWARD, times)
    T3 = propagator_closed_form(params, np.diff(times))[:, 1:, 1:]
    _, transitions, _ = chain_kernel(traj.unit_vectors_at(times), T3, np.zeros(3))
    flip = 0.5 * (1.0 - np.exp(-2.0 * np.diff(traj.rate_integral_at(times))))
    assert np.abs(transitions[:, 1, 0] - flip).max() <= 1e-15
    assert np.abs(transitions[:, 0, 1] - flip).max() <= 1e-15
