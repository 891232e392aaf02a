"""Entropies, Holevo quantities, identities and bounds on information flow."""

import math

import numpy as np
import pytest

from oracles import (
    ComplementaryChannel,
    choi_to_kraus,
    complementary_apply,
    entropy_exchange,
    state_from_bloch,
    stinespring_isometry,
    unital_holevo_closed_form,
)
from tunnelmol.families import BlochDirection, exact_direction, FORWARD
from tunnelmol.histories import Decomposition, HistoryFamily
from tunnelmol.info_flow import (
    ForwardConditionError,
    InputEnsemble,
    binary_entropy,
    build_info_report,
    holevo_chi,
    holevo_complementary,
    holevo_direct,
    mub_bound_check,
    mutual_information_family,
    quadratic_information,
    short_time_leak_model,
    verify_family_information_identity,
    von_neumann_entropy,
)
from tunnelmol.channels import ptm_to_choi
from tunnelmol.ptm import ModelParams, propagator_closed_form

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


def test_holevo_direct_frozen_value():
    # exponent -2 gamma t = -1
    p = ModelParams(omega=0.8, gamma=2.0)
    assert holevo_direct("z", p, 0.25) == pytest.approx(CHI_Z_AT_UNIT_EXPONENT, abs=1e-14)


def test_holevo_direct_matches_unital_closed_form():
    rng = np.random.default_rng(301)
    for _ in range(20):
        p = ModelParams(omega=float(rng.uniform(0.2, 3.0)), gamma=float(rng.uniform(0.2, 3.0)))
        t = float(rng.uniform(0.0, 3.0))
        d = BlochDirection(theta=math.acos(float(rng.uniform(-1, 1))), phi=float(rng.uniform(0, 2 * math.pi)))
        T = propagator_closed_form(p, t)
        r = float(np.linalg.norm(T[1:, 1:] @ d.unit_vector))
        assert holevo_direct(d, p, t) == pytest.approx(unital_holevo_closed_form(r), abs=1e-12)


def test_complementary_channel_information_endpoints():
    p = ModelParams(omega=0.8, gamma=2.0)
    assert holevo_complementary("x", p, 0.0) == pytest.approx(0.0, abs=1e-12)
    # long times: the environment has taken essentially everything about x
    assert holevo_complementary("x", p, 6.0) > 0.95
    assert 0.0 <= holevo_complementary("z", p, 1.3) <= 1.0


def test_short_time_leak_law():
    p = ModelParams(omega=0.8, gamma=2.0)
    for t in (2e-4, 1e-3):
        got = holevo_complementary("x", p, t)
        model = short_time_leak_model(p, t)
        assert got == pytest.approx(model, rel=0.06)
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


def test_mutual_information_z_family_equals_holevo():
    p = ModelParams(omega=1.0, gamma=0.5)
    for t in (0.3, 1.0, 2.7):
        fam = HistoryFamily(
            params=p,
            times=np.array([0.0, t]),
            decompositions=(Decomposition.z_basis(), Decomposition.z_basis()),
        )
        assert mutual_information_family(fam) == pytest.approx(holevo_direct("z", p, t), abs=1e-12)


def test_mutual_information_rejects_bad_input():
    p = ModelParams(omega=1.0, gamma=0.5)
    three = HistoryFamily(
        params=p,
        times=np.array([0.0, 0.5, 1.0]),
        decompositions=tuple(Decomposition.z_basis() for _ in range(3)),
    )
    with pytest.raises(ValueError):
        mutual_information_family(three)
    bad = HistoryFamily(
        params=p,
        times=np.array([0.0, 0.7]),
        decompositions=(Decomposition.x_basis(), Decomposition.x_basis()),
    )
    with pytest.raises(ValueError):
        mutual_information_family(bad, np.array([0.0, 0.0, 1.0]))


def test_record_identity_default_and_supplied_target():
    p = ModelParams(omega=0.9, gamma=1.2)
    d0 = BlochDirection(theta=1.1, phi=0.4)
    rep = verify_family_information_identity(d0, p, 1.3)
    assert rep.passed and rep.residual < 1e-12
    good_target = Decomposition.from_direction(exact_direction(d0, p, FORWARD, 1.3))
    rep2 = verify_family_information_identity(d0, p, 1.3, target=good_target)
    assert rep2.passed
    with pytest.raises(ForwardConditionError):
        verify_family_information_identity(d0, p, 1.3, target=Decomposition.z_basis())
    with pytest.raises(ValueError):
        verify_family_information_identity(d0, p, 0.0)


def test_mub_bound_holds_and_non_mub_rejected():
    p = ModelParams(omega=0.8, gamma=2.0)
    for t in np.linspace(0.0, 3.0, 16):
        rep = mub_bound_check("z", "x", p, float(t))
        assert rep.slack > -1e-9
        assert rep.passed
    # y is also unbiased with respect to x and z
    assert mub_bound_check("y", "x", p, 0.7).slack > -1e-9
    with pytest.raises(ValueError):
        mub_bound_check("z", Decomposition.from_direction(BlochDirection(0.3, 0.0)), p, 0.5)


def test_quadratic_information_values_and_slopes():
    g = 2.0
    p = ModelParams(omega=0.8, gamma=g)
    # value route: purity of the transported direction operator
    d = BlochDirection(theta=1.0, phi=0.4)
    nx = d.unit_vector[0]
    t = 0.6
    T = propagator_closed_form(p, t)
    val, slope = quadratic_information(d, p, t, "direct")
    assert val == pytest.approx(float(np.linalg.norm(T[1:, 1:] @ d.unit_vector) ** 2), abs=1e-12)
    assert slope == pytest.approx(-4.0 * g * (1.0 - nx * nx), rel=1e-3)
    _, slope_c = quadratic_information(d, p, t, "complementary")
    assert slope_c == pytest.approx(4.0 * g * nx * nx, rel=1e-3)
    # the x direction leaks at the full rate, z not at all, and vice versa
    _, sx = quadratic_information("x", p, 0.1, "complementary")
    assert sx == pytest.approx(4.0 * g, rel=1e-3)
    _, sz = quadratic_information("z", p, 0.1, "direct")
    assert sz == pytest.approx(-4.0 * g, rel=1e-3)
    with pytest.raises(ValueError):
        quadratic_information("z", p, 0.1, "sideways")


def test_info_report_curves_and_csv():
    p = ModelParams(omega=0.8, gamma=2.0)
    times = np.linspace(0.0, 2.0, 9)
    rep = build_info_report(p, times, family_basis="z")
    assert rep.cross_equality_residual() < 1e-10
    assert np.abs(rep.curves["mutual_info"] - rep.curves["chi_z_direct"]).max() < 1e-10
    for key in ("chi_x_direct", "chi_z_direct", "chi_x_comp", "chi_z_comp"):
        assert rep.curves[key].min() > -1e-12
        assert rep.curves[key].max() < 1.0 + 1e-12
    text = rep.to_csv()
    lines = text.strip().splitlines()
    assert lines[0].startswith("t,chi_x_direct,")
    assert len(lines) == 10
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
        lhs = holevo_direct("z", p, t) + holevo_complementary("x", p, t)
        rhs = holevo_direct("x", p, t) + holevo_complementary("z", p, t)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def _definition_route_row(p, t, family_basis):
    """One report row, map by map: Choi -> Kraus -> dilation -> entropies, and closed forms."""
    T = propagator_closed_form(p, float(t))
    kraus = choi_to_kraus(ptm_to_choi(T))
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
        # records are faithful: the forward family's record information is
        # the Holevo information of its first basis
        "mutual_info": kept({"x": ex, "z": ez}[family_basis]),
    }
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
    ],
)
def test_batched_report_matches_the_definition_route(params, times, basis):
    rep = build_info_report(params, times, family_basis=basis)
    assert list(rep.curves) == [
        "chi_x_direct", "chi_z_direct", "chi_x_comp", "chi_z_comp",
        "sum_zx", "sum_xz", "quad_z_direct", "quad_x_comp", "mutual_info",
    ]
    for k, t in enumerate(times):
        for key, want in _definition_route_row(params, t, basis).items():
            assert rep.curves[key][k] == pytest.approx(want, abs=1e-12), f"{key} at t = {t}"
