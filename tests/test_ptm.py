"""Propagator closed form, generator spectrum, Pauli plumbing."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from oracles import (
    _propagator_mp,
    apply_ptm,
    bloch_from_state,
    eigen_system,
    exact_direction,
    propagator_numeric,
    state_from_bloch,
)
from tunnelmol.families import BACKWARD, FORWARD, BlochDirection, flow_unit_vectors
from tunnelmol.ptm import (
    CRITICAL,
    ModelParams,
    OVERDAMPED,
    PAULIS,
    SIGMA_X,
    SIGMA_Z,
    UNDERDAMPED,
    generator,
    operator_from_pauli,
    pauli_coefficients,
    propagator_closed_form,
    scaled_block,
)


def random_params(rng, near_critical=False):
    g = float(rng.uniform(0.05, 4.0))
    if near_critical:
        om = abs(g + float(rng.uniform(-1e-6, 1e-6)))
    else:
        om = float(rng.uniform(0.05, 4.0))
    return ModelParams(omega=om, gamma=g)


def test_params_validation_and_regime():
    with pytest.raises(ValueError):
        ModelParams(omega=-1.0, gamma=1.0)
    with pytest.raises(ValueError):
        ModelParams(omega=1.0, gamma=-0.1)
    for bad in (math.nan, math.inf):
        for name in ("omega", "gamma", "tau_c"):
            with pytest.raises(ValueError, match="finite"):
                ModelParams(**{"omega": 1.0, "gamma": 1.0, name: bad})
    assert ModelParams(omega=1.0, gamma=2.0).regime == OVERDAMPED
    assert ModelParams(omega=2.0, gamma=1.0).regime == UNDERDAMPED
    assert ModelParams(omega=1.5, gamma=1.5).regime == CRITICAL
    assert ModelParams(omega=3.0, gamma=5.0).discriminant == pytest.approx(4.0)


def test_closed_form_matches_matrix_exponential():
    rng = np.random.default_rng(101)
    worst = 0.0
    for k in range(200):
        p = random_params(rng, near_critical=(k % 7 == 0))
        t = float(rng.uniform(0.0, 6.0))
        gap = np.abs(propagator_closed_form(p, t) - expm(t * generator(p))).max()
        worst = max(worst, gap)
    assert worst < 1e-12


def test_a_float_time_is_the_0d_case_of_the_grid_route():
    # one route per kernel: a float t is a 0-d array, so it must give the
    # matching entry of the stack bit for bit, and so must exact_direction
    # against the flow_unit_vectors row
    rng = np.random.default_rng(23)
    for k in range(30):
        p = random_params(rng, near_critical=(k % 5 == 0))
        times = np.concatenate([[0.0], rng.uniform(0.0, 6.0, size=7), [1e-9]])
        stack = propagator_closed_form(p, times)
        assert stack.shape == (len(times), 4, 4)
        for t, T in zip(times, stack):
            single = propagator_closed_form(p, float(t))
            assert single.shape == (4, 4) and np.array_equal(single, T)
        d0 = BlochDirection(float(rng.uniform(0.0, math.pi)), float(rng.uniform(-math.pi, math.pi)))
        for sense in (FORWARD, BACKWARD):
            for t, n in zip(times, flow_unit_vectors(d0, p, sense, times)):
                assert np.array_equal(exact_direction(d0, p, sense, float(t)).unit_vector, n)
    assert propagator_closed_form(p, np.zeros((2, 3))).shape == (2, 3, 4, 4)


def _mpmath_propagator(mpmath, p, t):
    with mpmath.workdps(50):
        E = mpmath.expm(mpmath.matrix(generator(p).tolist()) * mpmath.mpf(t))
        return np.array([[float(E[i, j]) for j in range(4)] for i in range(4)])


def test_closed_form_matches_50_digit_expm_to_gamma_t_1e12():
    mpmath = pytest.importorskip("mpmath")
    cases = [(1.0, 3.0), (176.0, 9e9), (3.0, 1.0), (1.0, 1e-3), (1.0, 1.0), (1.0, 1.0 + 1e-9)]
    # near the critical point, on both sides: the overdamped and underdamped
    # closed forms at tiny |xi t|
    cases += [(1.0, 1.0 + sign * d) for d in (1e-12, 1e-6, 1e-4) for sign in (1.0, -1.0)]
    for omega, gamma in cases:
        p = ModelParams(omega=omega, gamma=gamma)
        for gamma_t in (1e-9, 1e-3, 1.0, 7e2, 1e4, 1e12):
            t = gamma_t / gamma
            want = _mpmath_propagator(mpmath, p, t)
            # the phase omega t of an underdamped rotation carries a rounding of a few ulps
            tol = 1e-15 * (1.0 + omega * t)
            for T in (propagator_closed_form(p, t), propagator_closed_form(p, np.array([t]))[0]):
                assert np.all(np.isfinite(T))
                assert np.abs(T - want).max() <= tol, (omega, gamma, gamma_t)
            if abs(gamma / omega - 1.0) <= 1e-4 and gamma_t <= 1e4:
                # the backward sense, gamma -> -gamma: a growing block, so the
                # scaled entries are compared relative to the largest of them
                L, a, b, c = scaled_block(-gamma, omega, t)
                with mpmath.workdps(50):
                    E = _propagator_mp(mpmath, omega, -gamma, t) * mpmath.exp(-mpmath.mpf(float(L)))
                    want = np.array([[float(E[i, j]) for j in (1, 2)] for i in (1, 2)])
                got = np.array([[a, -b], [b, c]], dtype=float)
                assert np.abs(got - want).max() <= tol * max(1.0, np.abs(want).max()), (omega, gamma, gamma_t)


def test_slow_decay_at_d2s2_out_to_the_slow_time():
    # the transverse component decays as exp(-2 kappa_x t), sixteen orders of
    # magnitude slower than the collisions; every x-y entry stays accurate to
    # the last digits, including the 1e-17 sized T22
    mpmath = pytest.importorskip("mpmath")
    p = ModelParams(omega=176.0, gamma=9e9)
    kappa_x = -eigen_system(p).eigenvalues[1].real / 2.0
    for t in (1e-6, 1.0, 1e3, 1e5, 1.0 / kappa_x):
        T = propagator_closed_form(p, t)
        assert T[1, 1] == pytest.approx(math.exp(-2.0 * kappa_x * t), rel=1e-13)
        want = _mpmath_propagator(mpmath, p, t)
        for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
            assert T[i, j] == pytest.approx(want[i, j], rel=1e-13)


def test_closed_form_matches_adaptive_ode():
    rng = np.random.default_rng(55)
    for _ in range(8):
        p = random_params(rng)
        t = float(rng.uniform(0.2, 4.0))
        assert np.abs(propagator_closed_form(p, t) - propagator_numeric(p, t)).max() < 1e-9


def test_propagator_structure():
    p = ModelParams(omega=0.8, gamma=2.0)
    T = propagator_closed_form(p, 0.0)
    assert np.allclose(T, np.eye(4))
    T = propagator_closed_form(p, 1.3)
    assert np.allclose(T[0], [1.0, 0.0, 0.0, 0.0], atol=1e-12)  # trace preserving
    assert np.allclose(T[:, 0], [1, 0, 0, 0])  # unital
    assert T[3, 3] == pytest.approx(math.exp(-2.0 * 2.0 * 1.3), abs=1e-15)
    with pytest.raises(ValueError):
        propagator_closed_form(p, -0.1)
    with pytest.raises(ValueError):
        propagator_closed_form(p, np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        propagator_numeric(p, -0.1)


def test_semigroup_property():
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = random_params(rng)
        s, t = rng.uniform(0.0, 2.0, size=2)
        lhs = propagator_closed_form(p, float(s + t))
        rhs = propagator_closed_form(p, float(t)) @ propagator_closed_form(p, float(s))
        assert np.abs(lhs - rhs).max() < 1e-12


def test_closed_form_is_exact_through_the_critical_point():
    # exactly critical, the kernel takes a = 1 + gamma t, b = omega t,
    # c = 1 - gamma t; just above, the overdamped form at tiny xi t: both
    # must agree with the brute-force exponential
    for p in (ModelParams(omega=1.0, gamma=1.0), ModelParams(omega=1.0, gamma=1.0 + 5e-9)):
        for t in (1e-7, 9e-5, 1.1e-4, 2e-4):
            gap = np.abs(propagator_closed_form(p, t) - expm(t * generator(p))).max()
            assert gap < 1e-14


def test_closed_form_matches_direct_lindblad_integration():
    # independent physics oracle: evolve the density operator itself
    p = ModelParams(omega=1.3, gamma=0.6)
    rho0 = state_from_bloch(np.array([0.3, -0.5, 0.6]))

    def rhs(_t, y):
        rho = y.reshape(2, 2)
        comm = SIGMA_Z @ rho - rho @ SIGMA_Z
        return (-1j * (p.omega / 2.0) * comm + p.gamma * (SIGMA_X @ rho @ SIGMA_X - rho)).ravel()

    t_end = 2.1
    sol = solve_ivp(rhs, (0.0, t_end), rho0.ravel(), method="DOP853", rtol=1e-12, atol=1e-12)
    rho_ode = sol.y[:, -1].reshape(2, 2)
    rho_ptm = apply_ptm(propagator_closed_form(p, t_end), rho0)
    assert np.abs(rho_ode - rho_ptm).max() < 1e-10


def test_eigenvalue_relations():
    rng = np.random.default_rng(31)
    for k in range(40):
        p = random_params(rng, near_critical=(k % 9 == 0))
        lam = eigen_system(p).eigenvalues
        assert abs(lam[0]) == 0.0
        assert abs(lam[3] + 2.0 * p.gamma) < 1e-12
        assert abs(lam[1] + lam[2] + 2.0 * p.gamma) < 1e-12
        assert abs(lam[1] * lam[2] - p.omega**2) < 1e-12


def test_eigenvectors_satisfy_both_eigen_equations():
    rng = np.random.default_rng(77)
    for _ in range(30):
        p = random_params(rng)
        es = eigen_system(p)
        S = generator(p).astype(complex)
        for i in range(4):
            lam = es.eigenvalues[i]
            v = es.right[i]
            w = es.left[i]
            assert np.abs(S @ v - lam * v).max() < 1e-10 * max(1.0, abs(lam))
            assert np.abs(w @ S - lam * w).max() < 1e-10 * max(1.0, abs(lam))


def test_biorthogonality_except_at_criticality():
    p = ModelParams(omega=0.7, gamma=2.2)
    es = eigen_system(p)
    G = es.left @ es.right.T
    off = G - np.diag(np.diag(G))
    assert np.abs(off).max() < 1e-10
    assert np.abs(np.diag(G)).min() > 1e-3

    crit = eigen_system(ModelParams(omega=1.0, gamma=1.0))
    # middle pair coalesces: one shared direction, diagonal pairing breaks down
    assert np.abs(crit.left[1] - crit.left[2]).max() < 1e-14
    assert abs(crit.left[1] @ crit.right[1]) < 1e-14


def test_spectral_decomposition_rebuilds_propagator():
    rng = np.random.default_rng(13)
    for _ in range(10):
        p = random_params(rng)
        if p.regime == CRITICAL:
            continue
        es = eigen_system(p)
        t = float(rng.uniform(0.0, 3.0))
        T = np.zeros((4, 4), dtype=complex)
        for i in range(4):
            v, w = es.right[i], es.left[i]
            T += np.exp(es.eigenvalues[i] * t) * np.outer(v, w) / (w @ v)
        assert np.abs(T - propagator_closed_form(p, t)).max() < 1e-10


def test_slow_eigenvalue_survives_extreme_stiffness():
    # gamma/omega ~ 5e7: the slow rate sits 15 orders below gamma and must
    # not be destroyed by cancellation
    p = ModelParams(omega=176.0, gamma=9.0e9)
    lam2 = eigen_system(p).eigenvalues[1].real
    expected = -(176.0**2) / (2.0 * 9.0e9)  # asymptotic -omega^2/2gamma
    assert lam2 == pytest.approx(expected, rel=1e-6)
    assert abs(lam2) > 0.0


def test_pauli_coefficient_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(20):
        op = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        c = pauli_coefficients(op)
        assert np.abs(operator_from_pauli(c) - op).max() < 1e-14
    for j, s in enumerate(PAULIS):
        c = pauli_coefficients(s)
        want = np.zeros(4)
        want[j] = 1.0
        assert np.allclose(c, want)


def test_bloch_state_roundtrip_and_validation():
    r = np.array([0.2, -0.4, 0.5])
    rho = state_from_bloch(r)
    assert np.trace(rho).real == pytest.approx(1.0)
    assert np.abs(bloch_from_state(rho) - r).max() < 1e-14
    with pytest.raises(ValueError):
        state_from_bloch(np.array([1.2, 0.0, 0.0]))
    with pytest.raises(ValueError):
        state_from_bloch(np.array([0.1, 0.2]))
