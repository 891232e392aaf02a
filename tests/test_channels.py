"""Channel dilations: Choi, Kraus, Stinespring, complementary output."""

import math

import numpy as np
import pytest
from scipy.linalg import sqrtm

from oracles import (
    KrausSet,
    bit_flip_kraus,
    choi_to_kraus,
    choi_to_ptm,
    complementary_apply,
    complementary_channel,
    kraus_to_ptm,
    state_from_bloch,
    stinespring_isometry,
)
from tunnelmol.channels import NonCPError, complementary_outputs, ptm_to_choi
from tunnelmol.ptm import ModelParams, apply_ptm, propagator_closed_form


def random_channel(rng):
    p = ModelParams(omega=float(rng.uniform(0.1, 3.0)), gamma=float(rng.uniform(0.1, 3.0)))
    t = float(rng.uniform(0.0, 3.0))
    return p, t, propagator_closed_form(p, t)


def test_choi_is_hermitian_psd_trace_two():
    rng = np.random.default_rng(21)
    for _ in range(25):
        _, _, T = random_channel(rng)
        M = ptm_to_choi(T)
        assert np.abs(M - M.conj().T).max() < 1e-14
        assert np.trace(M).real == pytest.approx(2.0, abs=1e-12)
        assert np.linalg.eigvalsh(M).min() > -1e-12


def test_choi_ptm_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(10):
        _, _, T = random_channel(rng)
        assert np.abs(choi_to_ptm(ptm_to_choi(T)) - T).max() < 1e-13


def test_kraus_complete_and_rebuild_ptm():
    rng = np.random.default_rng(17)
    for _ in range(15):
        _, _, T = random_channel(rng)
        ks = choi_to_kraus(ptm_to_choi(T))
        assert ks.completeness_defect() < 1e-10
        assert np.abs(kraus_to_ptm(ks) - T).max() < 1e-10


def test_kraus_apply_matches_ptm_route():
    # two fully independent application routes must coincide on random states
    rng = np.random.default_rng(29)
    for _ in range(15):
        _, _, T = random_channel(rng)
        ks = choi_to_kraus(ptm_to_choi(T))
        r = rng.normal(size=3)
        r *= rng.uniform(0.0, 1.0) / np.linalg.norm(r)
        rho = state_from_bloch(r)
        assert np.abs(ks.apply(rho) - apply_ptm(T, rho)).max() < 1e-10


def test_kraus_is_deterministic():
    T = propagator_closed_form(ModelParams(omega=0.8, gamma=2.0), 0.7)
    a = choi_to_kraus(ptm_to_choi(T))
    b = choi_to_kraus(ptm_to_choi(T))
    for ka, kb in zip(a.operators, b.operators):
        assert np.array_equal(ka, kb)


def test_significant_kraus_rank_grows_with_time():
    p = ModelParams(omega=0.8, gamma=2.0)
    for t, expected in ((0.0, 1), (1e-5, 2), (1e-4, 2), (0.7, 4), (3.0, 4)):
        ks = choi_to_kraus(ptm_to_choi(propagator_closed_form(p, t)))
        assert len(ks) == expected, f"t={t}"


def test_non_cp_map_is_rejected():
    transpose_ptm = np.diag([1.0, 1.0, -1.0, 1.0])  # the textbook non-CP positive map
    with pytest.raises(NonCPError):
        choi_to_kraus(ptm_to_choi(transpose_ptm))


def test_stinespring_isometry_and_complementary_trace():
    rng = np.random.default_rng(41)
    for _ in range(10):
        _, _, T = random_channel(rng)
        ks = choi_to_kraus(ptm_to_choi(T))
        V = stinespring_isometry(ks)
        assert V.shape == (2 * len(ks), 2)
        assert np.abs(V.conj().T @ V - np.eye(2)).max() < 1e-12
        comp = complementary_channel(T)
        rho = state_from_bloch(np.array([0.1, 0.4, -0.3]))
        out = complementary_apply(comp, rho)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(out).min() > -1e-10


def test_complementary_entries_are_kraus_overlaps():
    # T^c(rho)_{ij} = Tr(K_i rho K_j^dagger), directly from the dilation
    p = ModelParams(omega=1.1, gamma=0.7)
    T = propagator_closed_form(p, 0.9)
    ks = choi_to_kraus(ptm_to_choi(T))
    comp = complementary_channel(T)
    rho = state_from_bloch(np.array([0.2, -0.1, 0.5]))
    out = complementary_apply(comp, rho)
    d = len(ks)
    want = np.array(
        [[np.trace(ks.operators[i] @ rho @ ks.operators[j].conj().T) for j in range(d)] for i in range(d)]
    )
    assert np.abs(out - want).max() < 1e-12


def test_environment_learns_the_well_at_omega_zero():
    # without tunneling the collisions read out which well directly: the two
    # environment records separate with fidelity exactly e^{-2 gamma t}
    g = 2.0
    rho_r = state_from_bloch(np.array([1.0, 0.0, 0.0]))
    rho_l = state_from_bloch(np.array([-1.0, 0.0, 0.0]))
    for t in (0.1, 0.5, 1.2):
        comp = complementary_channel(propagator_closed_form(ModelParams(omega=0.0, gamma=g), t))
        e_r = complementary_apply(comp, rho_r)
        e_l = complementary_apply(comp, rho_l)
        s = sqrtm(e_r)
        fid = np.trace(sqrtm(s @ e_l @ s)).real
        assert fid == pytest.approx(math.exp(-2.0 * g * t), abs=1e-7)


def test_tunneling_scrambles_the_environment_record():
    # with omega > 0 the records stop separating: fidelity stays well above
    # the omega = 0 law at late times
    g, t = 2.0, 3.0
    comp = complementary_channel(propagator_closed_form(ModelParams(omega=0.8, gamma=g), t))
    e_r = complementary_apply(comp, state_from_bloch(np.array([1.0, 0.0, 0.0])))
    e_l = complementary_apply(comp, state_from_bloch(np.array([-1.0, 0.0, 0.0])))
    s = sqrtm(e_r)
    fid = np.trace(sqrtm(s @ e_l @ s)).real
    assert fid > 100.0 * math.exp(-2.0 * g * t)


def test_bit_flip_channel_equals_pure_collision_propagator():
    g, t = 1.4, 0.6
    p_flip = 0.5 * (1.0 - math.exp(-2.0 * g * t))
    ks = bit_flip_kraus(p_flip)
    T = propagator_closed_form(ModelParams(omega=0.0, gamma=g), t)
    assert np.abs(kraus_to_ptm(ks) - T).max() < 1e-12
    with pytest.raises(ValueError):
        bit_flip_kraus(1.2)


def test_stacked_complementary_outputs_match_the_dilation_spectra():
    p = ModelParams(omega=0.8, gamma=2.0)
    times = np.array([0.0, 1e-5, 0.3, 0.7, 3.0])
    rho = state_from_bloch(np.array([0.3, -0.2, 0.6]))
    outs = complementary_outputs(propagator_closed_form(p, times), np.array([rho, np.eye(2) / 2.0]))
    assert outs.shape == (len(times), 2, 4, 4)
    for k, t in enumerate(times):
        comp = complementary_channel(propagator_closed_form(p, float(t)))
        for j, state in enumerate((rho, np.eye(2) / 2.0)):
            want = np.linalg.eigvalsh(complementary_apply(comp, state))
            got = np.linalg.eigvalsh(outs[k, j])
            # zero-weight rows and columns only add zero eigenvalues
            assert np.abs(got[4 - len(want):] - want).max() < 1e-12
            assert np.abs(got[: 4 - len(want)]).max(initial=0.0) < 1e-12


def test_stacked_complementary_outputs_of_a_generic_channel():
    # a random four-Kraus channel has none of the model's symmetries
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2)))
    ks = KrausSet(operators=tuple(Q.reshape(4, 2, 2)), eigenvalues=(1.0,) * 4)
    rho = state_from_bloch(np.array([0.3, -0.2, 0.6]))
    got = complementary_outputs(np.array([kraus_to_ptm(ks)]), rho[None])[0, 0]
    want = np.array([[np.trace(Ki @ rho @ Kj.conj().T) for Kj in ks.operators] for Ki in ks.operators])
    assert np.abs(np.linalg.eigvalsh(got) - np.linalg.eigvalsh(want)).max() < 1e-12


def test_non_cp_map_anywhere_in_a_stack_is_rejected():
    stack = propagator_closed_form(ModelParams(omega=0.8, gamma=2.0), np.linspace(0.0, 2.0, 5))
    states = np.array([np.eye(2) / 2.0])
    assert complementary_outputs(stack, states).shape == (5, 1, 4, 4)
    stack[3] = np.diag([1.0, 1.0, -1.0, 1.0])  # transpose map
    with pytest.raises(NonCPError):
        complementary_outputs(stack, states)
