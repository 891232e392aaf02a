"""Entropies, Holevo quantities, identities and bounds on information flow."""

import math
import warnings

import numpy as np
import pytest

from oracles import (
    RATE_GRID,
    ComplementaryChannel,
    InputEnsemble,
    binary_entropy,
    check_forward_condition,
    choi_to_kraus,
    complementary_apply,
    entropy_exchange,
    exact_direction,
    holevo_chi,
    leaked_information_mp,
    leaked_square_choi,
    ptm_to_choi,
    quadratic_slopes_choi,
    quadratic_slopes_mp,
    record_information_from_entries,
    short_time_leak_model,
    state_from_bloch,
    stinespring_isometry,
    unital_holevo_closed_form,
    von_neumann_entropy,
)
from tunnelmol.families import BlochDirection, flow_unit_vectors, FORWARD
from tunnelmol.histories import CONSISTENCY_TOL, Decomposition, decoherence_entries
from tunnelmol.info_flow import build_info_report, quadratic_information
from tunnelmol.info_flow import (
    _exchange_entropy,
    _flow_record_information,
    _kept_square,
    _leaked_square,
    _output_and_arm_entropies,
    _qubit_entropy,
)
from tunnelmol.ptm import PAULIS, ModelParams, generator, propagator_closed_form

# frozen: one bit minus the binary entropy at (1 + 1/e)/2
CHI_Z_AT_UNIT_EXPONENT = 0.09995440847646475


def test_binary_entropy_basics():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0)
    assert binary_entropy(0.11) == pytest.approx(binary_entropy(0.89))
    with pytest.raises(ValueError):
        binary_entropy(1.2)


def test_von_neumann_entropy_basics():
    assert von_neumann_entropy(state_from_bloch(np.array([0.0, 0.0, 1.0]))) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(np.eye(2) / 2.0) == pytest.approx(1.0)
    assert von_neumann_entropy(np.eye(2) / 2.0, base=math.e) == pytest.approx(math.log(2.0))
    r = 0.6
    rho = state_from_bloch(np.array([0.0, r, 0.0]))
    assert von_neumann_entropy(rho) == pytest.approx(binary_entropy((1 + r) / 2))
    with pytest.raises(ValueError):
        von_neumann_entropy(np.diag([1.2, -0.2]))


def test_holevo_chi_of_orthogonal_pure_pair_is_one_bit():
    up = state_from_bloch(np.array([0.0, 0.0, 1.0]))
    dn = state_from_bloch(np.array([0.0, 0.0, -1.0]))
    assert holevo_chi((0.5, 0.5), (up, dn)) == pytest.approx(1.0)
    ens = InputEnsemble.from_decomposition(Decomposition.z_basis())
    assert ens.priors == (0.5, 0.5)
    with pytest.raises(ValueError):
        InputEnsemble(priors=(0.6, 0.6), states=(up, dn))


def _direct(T, n):
    """Direct Holevo information along a unit vector n, by the report's entropy kernel."""
    out, arms = _output_and_arm_entropies(T, np.atleast_2d(n))
    return out - arms[..., 0]


def _leaked(T, n):
    """Leaked Holevo information along a unit vector n, by the report's entropy kernels."""
    return _exchange_entropy(T) - _output_and_arm_entropies(T, np.atleast_2d(n))[1][..., 0]


def test_holevo_direct_frozen_value():
    # exponent -2 gamma t = -1
    p = ModelParams(omega=0.8, gamma=2.0)
    chi = build_info_report(p, np.array([0.0, 0.25])).curves["chi_z_direct"][1]
    assert chi == pytest.approx(CHI_Z_AT_UNIT_EXPONENT, abs=1e-14)


def test_holevo_direct_matches_unital_closed_form():
    rng = np.random.default_rng(301)
    for _ in range(20):
        p = ModelParams(omega=float(rng.uniform(0.2, 3.0)), gamma=float(rng.uniform(0.2, 3.0)))
        t = float(rng.uniform(0.0, 3.0))
        d = BlochDirection(theta=math.acos(float(rng.uniform(-1, 1))), phi=float(rng.uniform(0, 2 * math.pi)))
        T = propagator_closed_form(p, t)
        r = float(np.linalg.norm(T[1:, 1:] @ d.unit_vector))
        assert float(_direct(T, d.unit_vector)) == pytest.approx(unital_holevo_closed_form(r), abs=1e-12)


def test_complementary_channel_information_endpoints():
    p = ModelParams(omega=0.8, gamma=2.0)
    curves = build_info_report(p, np.array([0.0, 1.3, 6.0])).curves
    assert curves["chi_x_comp"][0] == pytest.approx(0.0, abs=1e-12)
    # long times: the environment has taken essentially everything about x
    assert curves["chi_x_comp"][2] > 0.95
    assert 0.0 <= curves["chi_z_comp"][1] <= 1.0


def test_short_time_leak_law():
    p = ModelParams(omega=0.8, gamma=2.0)
    times = np.array([2e-4, 1e-3])
    got = build_info_report(p, times).curves["chi_x_comp"]
    for k, t in enumerate(times):
        assert got[k] == pytest.approx(short_time_leak_model(p, t), rel=0.06)
    assert short_time_leak_model(p, 0.0) == 0.0


def test_entropy_exchange_matches_kraus_overlap_route():
    # independent construction: S(W) with W_ij = Tr(K_i rho K_j^dagger)
    rng = np.random.default_rng(17)
    for _ in range(10):
        p = ModelParams(omega=float(rng.uniform(0.3, 2.0)), gamma=float(rng.uniform(0.3, 2.0)))
        t = float(rng.uniform(0.1, 2.0))
        r = rng.normal(size=3)
        r *= rng.uniform(0.0, 0.95) / np.linalg.norm(r)
        rho = state_from_bloch(r)
        T = propagator_closed_form(p, t)
        ks = choi_to_kraus(ptm_to_choi(T))
        d = len(ks)
        W = np.array(
            [[np.trace(ks.operators[i] @ rho @ ks.operators[j].conj().T) for j in range(d)] for i in range(d)]
        )
        assert entropy_exchange(p, t, rho) == pytest.approx(von_neumann_entropy(W), abs=1e-10)


@pytest.mark.parametrize(
    "params, times",
    [
        (ModelParams(omega=1.0, gamma=0.4), np.linspace(0.0, 6.0, 31)),
        (ModelParams(omega=1.1, gamma=1.1), np.linspace(0.0, 5.0, 26)),
        (ModelParams(omega=0.9, gamma=3.0), np.linspace(0.0, 4.0, 21)),
        (ModelParams(omega=1.0, gamma=14.0), np.linspace(0.0, 5.0, 26)),
        (ModelParams(omega=176.0, gamma=9e9), np.array([0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-5, 1e6 / 9e9])),
    ],
)
def test_record_information_column_matches_the_functional_route(params, times):
    T = propagator_closed_form(params, times)
    for basis, n0 in (("x", np.array([1.0, 0.0, 0.0])), ("z", np.array([0.0, 0.0, 1.0]))):
        want = record_information_from_entries(
            decoherence_entries([T], [n0, flow_unit_vectors(n0, params, FORWARD, times)]), CONSISTENCY_TOL
        )
        got = build_info_report(params, times, family_basis=basis).curves["mutual_info"]
        assert np.abs(got - want).max() <= 4e-15


def test_mutual_information_z_family_equals_holevo():
    p = ModelParams(omega=1.0, gamma=0.5)
    times = np.array([0.0, 0.3, 1.0, 2.7])
    curves = build_info_report(p, times, family_basis="z").curves
    for k, t in enumerate(times):
        assert curves["mutual_info"][k] == pytest.approx(curves["chi_z_direct"][k], abs=1e-12)
        want = unital_holevo_closed_form(math.exp(-2.0 * p.gamma * t))
        assert curves["mutual_info"][k] == pytest.approx(want, abs=1e-12)


def test_record_identity_default_and_supplied_target():
    # any direction: the records of the forward family carry the direct information of its first basis
    p = ModelParams(omega=0.9, gamma=1.2)
    d0 = BlochDirection(theta=1.1, phi=0.4)
    n0 = d0.unit_vector
    times = np.linspace(0.0, 2.6, 9)
    T = propagator_closed_form(p, times)
    got = _flow_record_information(n0, T, flow_unit_vectors(d0, p, FORWARD, times))
    assert np.abs(got - _direct(T, n0)).max() < 1e-12
    # a supplied target on the flow passes the forward span condition and gives the same records
    T1 = propagator_closed_form(p, 1.3)
    target = exact_direction(d0, p, FORWARD, 1.3).unit_vector
    assert check_forward_condition([n0, target], p, np.array([0.0, 1.3])).passed
    assert abs(_flow_record_information(n0, T1, target) - _direct(T1, n0)) < 1e-12
    # one off the flow fails it, and its records fall short of the direct information
    z = np.array([0.0, 0.0, 1.0])
    assert not check_forward_condition([n0, z], p, np.array([0.0, 1.3])).passed
    assert _flow_record_information(n0, T1, z) < _direct(T1, n0) - 0.01


def test_mub_bound_holds_for_every_unbiased_pair():
    p = ModelParams(omega=0.8, gamma=2.0)
    times = np.linspace(0.0, 3.0, 16)
    curves = build_info_report(p, times).curves
    assert (1.0 - curves["sum_zx"]).min() > -1e-9
    assert (1.0 - curves["sum_xz"]).min() > -1e-9
    # y is also unbiased with respect to x and z
    T = propagator_closed_form(p, times)
    ex, ey, ez = np.eye(3)
    for n, m in ((ey, ex), (ey, ez), (ex, ey), (ez, ey)):
        assert (1.0 - _direct(T, n) - _leaked(T, m)).min() > -1e-9


def test_quadratic_information_values_and_slopes():
    g = 2.0
    p = ModelParams(omega=0.8, gamma=g)
    # value route: purity of the transported direction operator
    d = BlochDirection(theta=1.0, phi=0.4)
    nx = d.unit_vector[0]
    T = propagator_closed_form(p, 0.6)
    want = float(np.linalg.norm(T[1:, 1:] @ d.unit_vector) ** 2)
    assert _kept_square(T, d.unit_vector) == pytest.approx(want, abs=1e-12)
    slope, slope_c = quadratic_information(p, d)
    assert slope == pytest.approx(-4.0 * g * (1.0 - nx * nx), rel=1e-14)
    assert slope_c == pytest.approx(4.0 * g * nx * nx, rel=1e-14)
    # the x direction leaks at the full rate, z not at all, and vice versa
    assert quadratic_information(p, [1.0, 0.0, 0.0]) == (0.0, 4.0 * g)
    assert quadratic_information(p, [0.0, 0.0, 1.0]) == (-4.0 * g, 0.0)


def test_x_information_leaks_exactly_as_fast_as_z_information_decays():
    # claim (d) as an identity of rates: for the unbiased pair (x, z) the
    # environment gains x at 4 gamma, the rate at which the molecule loses z,
    # at every damping ratio and with no omega in it
    for omega, gamma in RATE_GRID:
        p = ModelParams(omega=omega, gamma=gamma)
        _, x_leak = quadratic_information(p, [1.0, 0.0, 0.0])
        z_decay, _ = quadratic_information(p, [0.0, 0.0, 1.0])
        assert x_leak == -z_decay == 4.0 * gamma


_DIRECTIONS = (
    np.array([1.0, 0.0, 0.0]),
    np.array([0.0, 0.0, 1.0]),
    BlochDirection(theta=1.0, phi=0.4).unit_vector,
    BlochDirection(theta=2.3, phi=-1.9).unit_vector,
)


@pytest.mark.parametrize("omega, gamma", RATE_GRID)
def test_initial_slopes_match_the_choi_contraction_and_a_50_digit_difference(omega, gamma):
    pytest.importorskip("mpmath")
    p = ModelParams(omega=omega, gamma=gamma)
    scale = 4.0 * max(gamma, 1.0)  # the slopes are 4 gamma times squares of n
    for n in _DIRECTIONS:
        got = quadratic_information(p, n)
        for want in (quadratic_slopes_choi(generator(p), n), quadratic_slopes_mp(omega, gamma, n)):
            assert np.abs(np.subtract(got, want)).max() < 1e-12 * scale, (n, got, want)


@pytest.mark.parametrize("omega, gamma", RATE_GRID)
def test_closed_form_leaked_square_matches_the_choi_contraction(omega, gamma):
    p = ModelParams(omega=omega, gamma=gamma)
    times = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 46) / max(omega, gamma), [1e-6, 0.5, 3.0]])
    T = propagator_closed_form(p, times)
    C = ptm_to_choi(T)
    for n in _DIRECTIONS:
        assert np.abs(_leaked_square(T, n) - leaked_square_choi(C, n)).max() < 1e-14


def test_leaked_square_holds_for_a_generic_channel():
    # random four-Kraus channels, neither unital nor of the model's form
    rng = np.random.default_rng(11)
    for _ in range(50):
        Q, _ = np.linalg.qr(rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2)))
        kraus = Q.reshape(4, 2, 2)
        T = np.array([[np.trace(Pk @ sum(K @ Pl @ K.conj().T for K in kraus)).real / 2.0 for Pl in PAULIS]
                      for Pk in PAULIS])
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        assert abs(_leaked_square(T, n) - leaked_square_choi(ptm_to_choi(T), n)) < 1e-14


def test_info_report_curves_and_errors():
    p = ModelParams(omega=0.8, gamma=2.0)
    times = np.linspace(0.0, 2.0, 9)
    rep = build_info_report(p, times, family_basis="z")
    assert rep.cross_equality_residual() < 1e-10
    assert np.abs(rep.curves["mutual_info"] - rep.curves["chi_z_direct"]).max() < 1e-10
    for key in ("chi_x_direct", "chi_z_direct", "chi_x_comp", "chi_z_comp"):
        assert rep.curves[key].min() > -1e-12
        assert rep.curves[key].max() < 1.0 + 1e-12
    # no family: no mutual information column
    bare = build_info_report(p, times)
    assert "mutual_info" not in bare.curves
    with pytest.raises(ValueError):
        build_info_report(p, np.array([-1.0, 0.0]))


def test_environment_gain_balances_system_loss_across_bases():
    # the two cross pairings agree at every time for any parameters
    rng = np.random.default_rng(53)
    for _ in range(10):
        p = ModelParams(omega=float(rng.uniform(0.3, 3.0)), gamma=float(rng.uniform(0.3, 3.0)))
        t = float(rng.uniform(0.05, 3.0))
        curves = build_info_report(p, np.array([t])).curves
        assert curves["sum_zx"][0] == pytest.approx(curves["sum_xz"][0], abs=1e-10)


def _definition_route_row(p, t, family_basis):
    """One report row, map by map: Choi -> Kraus -> dilation -> entropies, and closed forms.

    The dilation is exact: every positive Choi eigenvalue gives a Kraus
    operator, however small (at D2S2 the physical ones reach 1e-12).
    """
    T = propagator_closed_form(p, float(t))
    kraus = choi_to_kraus(ptm_to_choi(T), significance=0.0)
    comp = ComplementaryChannel(isometry=stinespring_isometry(kraus), kraus=kraus)
    x, z = Decomposition.x_basis(), Decomposition.z_basis()

    def leaked(basis):
        out0, out1 = (complementary_apply(comp, P) for P in basis.projectors)
        avg = von_neumann_entropy(0.5 * out0 + 0.5 * out1)
        return avg - 0.5 * (von_neumann_entropy(out0) + von_neumann_entropy(out1))

    def kept(n):
        return unital_holevo_closed_form(float(np.linalg.norm(T[1:, 1:] @ n)))

    ex, ez = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
    sigma_x = complementary_apply(comp, x.projectors[0] - x.projectors[1])
    row = {
        "chi_x_direct": kept(ex),
        "chi_z_direct": kept(ez),
        "chi_x_comp": leaked(x),
        "chi_z_comp": leaked(z),
        "sum_zx": kept(ez) + leaked(x),
        "sum_xz": kept(ex) + leaked(z),
        "quad_z_direct": float(np.linalg.norm(T[1:, 1:] @ ez) ** 2),
        "quad_x_comp": 0.5 * float(np.trace(sigma_x @ sigma_x).real),
    }
    if family_basis == "y":
        # the y arms through the Kraus operators of the dilation
        arms = [kraus.apply(P) for P in Decomposition(np.array([0.0, 1.0, 0.0])).projectors]
        row["chi_y_direct"] = holevo_chi((0.5, 0.5), arms)
    # records are faithful: the forward family's record information is
    # the Holevo information of its first basis
    row["mutual_info"] = row[f"chi_{family_basis}_direct"]
    return row


@pytest.mark.parametrize(
    "params, times, basis",
    [
        (ModelParams(omega=1.0, gamma=0.35), np.linspace(0.0, 6.0, 13), "z"),  # underdamped
        (ModelParams(omega=1.1, gamma=1.1), np.linspace(0.0, 5.0, 11), "x"),  # critical
        (ModelParams(omega=0.9, gamma=3.0), np.linspace(0.0, 4.0, 9), "z"),  # overdamped
        # D2S2, gamma t from 0 to 1e6
        (ModelParams(omega=176.0, gamma=9e9), np.array([0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-5, 1e6 / 9e9]), "x"),
        (ModelParams(omega=176.0, gamma=9e9), np.array([0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-5, 1e6 / 9e9]), "z"),
        # the y family basis adds its direct column
        (ModelParams(omega=1.0, gamma=0.35), np.linspace(0.0, 6.0, 13), "y"),
        (ModelParams(omega=176.0, gamma=9e9), np.array([0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-5, 1e6 / 9e9]), "y"),
    ],
)
def test_batched_report_matches_the_definition_route(params, times, basis):
    rep = build_info_report(params, times, family_basis=basis)
    assert list(rep.curves) == [
        "chi_x_direct", "chi_z_direct", "chi_x_comp", "chi_z_comp", "sum_zx", "sum_xz",
        "quad_z_direct", "quad_x_comp", *(["chi_y_direct"] if basis == "y" else []), "mutual_info",
    ]
    for k, t in enumerate(times):
        for key, want in _definition_route_row(params, t, basis).items():
            assert rep.curves[key][k] == pytest.approx(want, abs=1e-12), f"{key} at t = {t}"


def test_leaked_parity_information_at_d2s2_matches_mpmath():
    # the Choi eigenvalues kappa_x t = 8.6e-13 are physical: dropping them
    # reads the leaked z information as -2.2e-16 instead of 3.57e-11 bits
    pytest.importorskip("mpmath")
    p, t = ModelParams(omega=176.0, gamma=9e9), 1e-6
    exact = leaked_information_mp(p.omega, p.gamma, t, (0.0, 0.0, 1.0))
    assert exact == pytest.approx(3.5724125948e-11, rel=1e-10)
    assert build_info_report(p, np.array([0.0, t])).curves["chi_z_comp"][1] == pytest.approx(exact, abs=1e-13)


@pytest.mark.parametrize(
    "params, times, basis",
    [
        (ModelParams(omega=1.3, gamma=0.0), np.linspace(0.0, 5.0, 11), "x"),  # unitary: nothing leaks
        (ModelParams(omega=0.0, gamma=1.4), np.linspace(0.0, 3.0, 13), "z"),  # bit flip
        (ModelParams(omega=0.7, gamma=0.7), np.linspace(0.0, 9.0, 10), "z"),  # exact critical point
        (ModelParams(omega=1.0, gamma=1e4), np.array([0.0, 1e-6, 0.07, 1.0, 5.0]), "x"),  # gamma t to 5e4
        (ModelParams(omega=176.0, gamma=9e9), np.array([0.0, 1e-9, 1e-7, 1e-4, 1e-3]), "z"),  # gamma t to 9e6
    ],
)
def test_closed_form_report_at_the_edges_of_the_model(params, times, basis):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = build_info_report(params, times, family_basis=basis)
    for key, col in rep.curves.items():
        assert np.all(np.isfinite(col)), key
    for k, t in enumerate(times):
        for key, want in _definition_route_row(params, t, basis).items():
            assert rep.curves[key][k] == pytest.approx(want, abs=1e-12), f"{key} at t = {t}"
    if params.gamma == 0.0:
        assert np.abs(rep.curves["chi_x_comp"]).max() < 1e-12
        assert np.abs(rep.curves["chi_z_comp"]).max() < 1e-12
    if params.omega == 0.0:
        # Kraus set {sqrt(1-p) I, sqrt(p) X}: x passes untouched, z is flipped
        # with probability p, and the environment holds exactly h2(p) about x
        h = np.array([binary_entropy(0.5 * (1.0 - math.exp(-2.0 * params.gamma * t))) for t in times])
        assert rep.curves["chi_x_direct"] == pytest.approx(np.ones_like(times), abs=1e-12)
        assert rep.curves["chi_z_direct"] == pytest.approx(1.0 - h, abs=1e-12)
        assert rep.curves["chi_x_comp"] == pytest.approx(h, abs=1e-12)
        assert rep.curves["chi_z_comp"] == pytest.approx(np.zeros_like(times), abs=1e-12)


def test_one_time_quantities_agree_with_the_report_and_the_dilation_for_any_direction():
    p = ModelParams(omega=0.9, gamma=1.7)
    times = np.array([0.0, 0.2, 1.1, 3.0])
    rep = build_info_report(p, times)
    d = Decomposition.from_direction(BlochDirection(theta=0.7, phi=2.1))
    P0, P1 = d.projectors
    for k, t in enumerate(times):
        T = propagator_closed_form(p, float(t))
        assert float(_direct(T, [1.0, 0.0, 0.0])) == pytest.approx(rep.curves["chi_x_direct"][k], abs=1e-14)
        assert float(_leaked(T, [0.0, 0.0, 1.0])) == pytest.approx(rep.curves["chi_z_comp"][k], abs=1e-14)
        kraus = choi_to_kraus(ptm_to_choi(T), significance=0.0)
        comp = ComplementaryChannel(isometry=stinespring_isometry(kraus), kraus=kraus)
        leaked = holevo_chi((0.5, 0.5), (complementary_apply(comp, P0), complementary_apply(comp, P1)))
        assert float(_leaked(T, d.n)) == pytest.approx(leaked, abs=1e-12)
        sigma = complementary_apply(comp, P0 - P1)
        assert float(_leaked_square(T, d.n)) == pytest.approx(0.5 * float(np.trace(sigma @ sigma).real), abs=1e-12)


def test_bloch_lengths_beyond_one_are_clipped_as_roundoff_or_rejected_as_states():
    # the Bloch length r has eigenvalues (1 +- r)/2: r = 1 + 2e-8 is the -1e-8 floor
    assert _qubit_entropy(np.array([0.0, 0.0, 1.0 + 1e-8])) == 0.0
    assert _qubit_entropy(np.array([[0.6, 0.0, 0.0]])) == pytest.approx([binary_entropy(0.8)], abs=1e-15)
    with pytest.raises(ValueError):
        _qubit_entropy(np.array([[0.0, 0.0, 0.5], [0.0, 1.0 + 3e-8, 0.0]]))
