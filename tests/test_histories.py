"""Decoherence functional, consistency, Markov extraction, collision averaging."""

import math

import numpy as np
import pytest

from tunnelmol.families import BACKWARD, FORWARD, BlochDirection, FamilyTrajectory, exact_direction, flow_unit_vectors
from tunnelmol.histories import (
    DecoherenceMatrix,
    Decomposition,
    HistoryFamily,
    NotConsistentError,
    _coerce_initial,
    _sandwiches,
    checked_weights,
    classical_collision_average,
    consistency_check,
    decoherence_entries,
    decoherence_functional,
    markov_from_family,
    projector_pairs,
    telegraph_flip_probability,
)
from tunnelmol.ptm import ModelParams, apply_ptm, pauli_coefficients, propagator_closed_form, state_from_bloch

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
    back = d.bloch_direction
    assert abs(back.theta - 0.8) < 1e-12
    with pytest.raises(ValueError):
        Decomposition(projectors=(np.eye(2), np.eye(2)))


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
    assert chain.transitions == ()
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
    for t, d in zip(times, fam.decompositions):
        want = traj.direction_at(float(t)).unit_vector
        got = d.bloch_direction.unit_vector
        assert np.abs(got - want).max() < 1e-9
    # sampled finely enough, the trajectory family is consistent up to the
    # grid interpolation error of the basis directions
    assert decoherence_functional(fam).max_offdiag < 1e-4


def test_chain_operator_route_matches_brute_force():
    # brute force: build every branch operator by explicit matrix products
    p = ModelParams(omega=0.9, gamma=1.1)
    times = np.array([0.0, 0.4, 1.1])
    rng = np.random.default_rng(47)
    ds = tuple(
        Decomposition.from_direction(
            BlochDirection(theta=math.acos(float(rng.uniform(-1, 1))), phi=float(rng.uniform(0, 2 * math.pi)))
        )
        for _ in range(3)
    )
    fam = HistoryFamily(params=p, times=times, decompositions=ds)
    rho0 = state_from_bloch(np.array([0.3, 0.1, -0.4]))
    D = decoherence_functional(fam, rho0).entries
    T1 = propagator_closed_form(p, 0.4)
    T2 = propagator_closed_form(p, 0.7)
    for i in range(8):
        for j in range(8):
            a = [(i >> m) & 1 for m in range(3)]
            b = [(j >> m) & 1 for m in range(3)]
            M = ds[0].projectors[a[0]] @ rho0 @ ds[0].projectors[b[0]]
            M = apply_ptm(T1, M)
            M = ds[1].projectors[a[1]] @ M @ ds[1].projectors[b[1]]
            M = apply_ptm(T2, M)
            M = ds[2].projectors[a[2]] @ M @ ds[2].projectors[b[2]]
            assert abs(D[i, j] - np.trace(M)) < 1e-12


def test_stacked_functional_matches_one_family_at_a_time():
    # three-time families sharing the first two bases, last basis moving
    p = ModelParams(omega=1.1, gamma=0.6)
    d0, d1 = Decomposition.from_direction(BlochDirection(1.0, 0.3)), Decomposition.x_basis()
    gaps = np.array([0.2, 0.5, 1.3, 2.0])
    lasts = [Decomposition.from_direction(BlochDirection(0.5 + g, 2.0 * g)) for g in gaps]
    stacked = decoherence_entries(
        [propagator_closed_form(p, 0.4), propagator_closed_form(p, gaps)],
        [np.array(d0.projectors), np.array(d1.projectors), np.array([d.projectors for d in lasts])],
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


def test_decoherence_csv_is_byte_identical_to_the_entrywise_loop():
    p = ModelParams(omega=1.0, gamma=0.9)
    flow = FamilyTrajectory.integrate(BlochDirection(1.2, 0.4), p, FORWARD, np.linspace(0.0, 2.0, 41))
    for f in range(1, 7):
        times = 0.35 * np.arange(f)
        for fam in (z_family(p, times), HistoryFamily.from_trajectory(flow, times)):
            D = decoherence_functional(fam, np.array([0.1, -0.2, 0.3]))
            assert D.to_csv() == _csv_by_loop(D.entries)
    # signed zeros compare equal but print apart; extremes keep all 17 digits
    special = np.array(
        [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308, 1.0 / 3.0]
    )
    rng = np.random.default_rng(3)
    entries = rng.choice(special, size=(8, 8)) + 1j * rng.choice(special, size=(8, 8))
    entries[0, 0] = complex(-0.0, 0.0)
    entries[0, 1] = complex(0.0, -0.0)
    D = DecoherenceMatrix(family=z_family(p, [0.0, 0.3, 0.6]), entries=entries)
    text = D.to_csv()
    assert text == _csv_by_loop(entries)
    assert text.splitlines()[1:3] == ["0,0,-0,0", "0,1,0,-0"]


def _entries_full_tensor(transfers, projectors, initial=None):
    # reference: every level, the last one included, carries all four
    # coefficient components
    A = pauli_coefficients(_coerce_initial(initial)).reshape(1, 1, 4)
    for m, P in enumerate(projectors):
        if m > 0:
            A = A @ np.swapaxes(transfers[m - 1], -1, -2)[..., None, :, :]
        S = np.swapaxes(_sandwiches(P), -1, -2)[..., None, :, :]
        K = A.shape[-2]
        nxt = np.empty(np.broadcast_shapes(A.shape[:-3], S.shape[:-5]) + (2 * K, 2 * K, 4), dtype=complex)
        for a in range(2):
            for b in range(2):
                nxt[..., a * K : (a + 1) * K, b * K : (b + 1) * K, :] = A @ S[..., a, b, :, :, :]
        A = nxt
    return 2.0 * A[..., 0]


def _family_inputs(fam):
    transfers = [propagator_closed_form(fam.params, float(dt)) for dt in np.diff(fam.times)]
    return transfers, [np.array(d.projectors) for d in fam.decompositions]


def test_last_level_trace_matches_the_full_tensor_loop():
    p = ModelParams(omega=1.0, gamma=0.9)
    rho0 = np.array([0.1, -0.2, 0.3])
    flows = [
        FamilyTrajectory.integrate(BlochDirection(1.2, 0.4), p, sense, np.linspace(0.0, 2.5, 51))
        for sense in (FORWARD, BACKWARD)
    ]
    for f in range(1, 8):
        times = 0.35 * np.arange(f)
        for initial in (None, rho0):
            transfers, projectors = _family_inputs(z_family(p, times))
            got = decoherence_entries(transfers, projectors, initial)
            assert np.array_equal(got, _entries_full_tensor(transfers, projectors, initial))
            for flow in flows:
                transfers, projectors = _family_inputs(HistoryFamily.from_trajectory(flow, times))
                got = decoherence_entries(transfers, projectors, initial)
                assert np.abs(got - _entries_full_tensor(transfers, projectors, initial)).max() <= 1e-15
    # the two-time stack of build_info_report's mutual_info column
    times = np.linspace(0.0, 3.0, 31)
    first = Decomposition.x_basis()
    T = propagator_closed_form(p, times)
    second = projector_pairs(flow_unit_vectors(first.bloch_direction, p, FORWARD, times))
    projectors = [np.array(first.projectors), second]
    got = decoherence_entries([T], projectors)
    assert got.shape == (len(times), 4, 4)
    assert np.abs(got - _entries_full_tensor([T], projectors)).max() <= 1e-15


def _factorization_error_by_loop(chain, w, f):
    # reference: one left-to-right product p_1 * prod_m M_m per history
    W = w.reshape((2,) * f, order="F")
    rec = np.zeros(W.shape)
    for idx in np.ndindex(*W.shape):
        q = chain.initial_distribution[idx[0]]
        for m in range(f - 1):
            q *= chain.transitions[m][idx[m + 1], idx[m]]
        rec[idx] = q
    return float(np.abs(rec - W).max())


def test_markov_product_form_matches_the_index_loop():
    p = ModelParams(omega=1.0, gamma=1.7)
    flow = FamilyTrajectory.integrate(BlochDirection(0.7, 2.2), p, FORWARD, np.linspace(0.0, 4.5, 91))
    for f in range(1, 11):
        times = 0.45 * np.arange(f)
        for fam in (z_family(p, times), HistoryFamily.from_trajectory(flow, times)):
            chain = markov_from_family(fam)
            w = consistency_check(decoherence_functional(fam)).normalized_weights()
            assert chain.factorization_error == _factorization_error_by_loop(chain, w, f)
