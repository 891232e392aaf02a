"""Command line behavior: subcommands, config layering, CSV output, exits."""

import argparse
import math
import re
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

import tunnelmol.cli
import tunnelmol.info_flow
from oracles import exact_direction
from tunnelmol import trajectories
from tunnelmol.channels import NonCPError
from tunnelmol.cli import _Checks, _rate_integral, main
from tunnelmol.families import BACKWARD, FORWARD, BlochDirection, FamilyTrajectory, transition_rate
from tunnelmol.ptm import ModelParams, generator, propagator_closed_form
from tunnelmol.trajectories import SamplerConfig, _draw, _invert

# deuterated disulfane: collisions outpace tunneling by 5e7
D2S2 = ("--gamma", "9e9", "--omega", "176")
MAX = sys.float_info.max
TINY = sys.float_info.min  # the smallest normal float


def run(tmp_path, *args):
    return main([*args, "--out", str(tmp_path)])


def read_csv_body(path):
    """Strip the '#' config echo, return (echo_lines, body_lines)."""
    echo, body = [], []
    for line in path.read_text().splitlines():
        (echo if line.startswith("#") else body).append(line)
    return echo, body


def test_every_subcommand_succeeds(tmp_path):
    assert run(tmp_path / "e", "evolve", "--points", "41") == 0
    assert run(tmp_path / "f", "families", "--points", "81", "--tmax", "4") == 0
    assert run(tmp_path / "h", "histories") == 0
    assert run(tmp_path / "s", "sample", "--ntraj", "300", "--points", "61") == 0
    assert run(tmp_path / "i", "info", "--points", "21", "--tmax", "2") == 0
    assert run(tmp_path / "p", "preset") == 0
    assert run(tmp_path / "c", "scan", "--points", "11") == 0
    _, body = read_csv_body(tmp_path / "f" / "families.csv")
    assert body[0] == "t," + ",".join(f"theta_g{g},phi_g{g},kappa_g{g}" for g in ("0.5", "1.2", "4"))
    assert len(body) == 82


def test_evolve_csv_layout(tmp_path):
    assert run(tmp_path, "evolve", "--points", "11", "--tmax", "1.0") == 0
    echo, body = read_csv_body(tmp_path / "evolve.csv")
    assert "# command=evolve" in echo
    assert any(line == "# gamma=1.0" for line in echo)
    header = body[0].split(",")
    assert header[0] == "t" and "T00" in header and "z_from_z" in header
    assert len(body) == 12  # one header plus 11 grid rows
    first = body[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[header.index("T00")]) == 1.0


def test_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(a, "sample", "--ntraj", "200", "--points", "31") == 0
    assert run(b, "sample", "--ntraj", "200", "--points", "31") == 0
    for name in ("ensemble.csv", "trajectory_000.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_config_file_layering(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = 2.5\npoints=11   # comment\n\n# full-line comment\n")
    out1 = tmp_path / "o1"
    assert main(["evolve", "--config", str(cfg), "--out", str(out1)]) == 0
    echo, _ = read_csv_body(out1 / "evolve.csv")
    assert "# gamma=2.5" in echo
    assert "# points=11" in echo
    # explicit flag beats the file
    out2 = tmp_path / "o2"
    assert main(["evolve", "--config", str(cfg), "--gamma", "3.5", "--out", str(out2)]) == 0
    echo, _ = read_csv_body(out2 / "evolve.csv")
    assert "# gamma=3.5" in echo


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key=1\n")
    assert main(["evolve", "--config", str(bad), "--out", str(tmp_path)]) == 2
    bad.write_text("gamma\n")
    assert main(["evolve", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert main(["evolve", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path)]) == 2


def test_outdir_env_var_is_default(tmp_path, monkeypatch):
    monkeypatch.setenv("TUNNELMOL_OUTDIR", str(tmp_path / "envout"))
    assert main(["evolve", "--points", "5"]) == 0
    assert (tmp_path / "envout" / "evolve.csv").exists()
    # explicit flag wins over the environment
    assert main(["evolve", "--points", "5", "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "evolve.csv").exists()


def test_bad_usage_exits_2(tmp_path):
    assert run(tmp_path, "preset", "no_such_preset") == 2
    assert run(tmp_path, "families", "--direction", "forward", "--gammas", "abc") == 2
    assert run(tmp_path, "scan", "--ratio-min", "5", "--ratio-max", "1") == 2
    assert run(tmp_path, "histories", "--steps", "40") == 2
    assert run(tmp_path, "scan", "--points", "0") == 2
    assert run(tmp_path, "scan", "--points", "-1") == 2
    assert run(tmp_path, "sample", "--save-trajectories", "-1") == 2
    with pytest.raises(SystemExit):
        main([])


def test_model_parameters_out_of_range_are_usage_errors(tmp_path, capsys):
    assert run(tmp_path, "evolve", "--gamma", "-1") == 2
    assert run(tmp_path, "families", "--gammas", "1,-2") == 2
    assert run(tmp_path, "scan", "--omega", "-1") == 2
    captured = capsys.readouterr()
    assert "non-negative" in captured.err
    assert "VALIDATION FAILED" not in captured.out


@pytest.mark.parametrize(
    "argv",
    [
        ("evolve", "--gamma", "nan", "--points", "3"),
        ("evolve", "--gamma", "inf"),
        ("evolve", "--omega=-inf"),
        ("histories", "--tau-c", "nan"),
        ("evolve", "--tmax", "inf"),
        ("scan", "--omega", "nan"),
        ("scan", "--ratio-max", "inf"),
        ("histories", "--dt", "nan"),
        ("families", "--gammas", "1,nan"),
        ("families", "--gammas", "inf"),
        ("families", "--theta0", "nan"),
        ("sample", "--phi0", "inf", "--ntraj", "20"),
    ],
)
def test_non_finite_numbers_are_usage_errors(tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "VALIDATION FAILED" not in captured.out
    assert "Traceback" not in captured.out + captured.err
    assert not any(tmp_path.glob("*.csv"))


def test_non_finite_config_values_are_usage_errors(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tmax = inf\n")
    assert run(tmp_path, "evolve", "--config", str(cfg)) == 2
    cfg.write_text("gamma = nan\n")
    assert run(tmp_path, "info", "--config", str(cfg)) == 2
    captured = capsys.readouterr()
    assert f"tmax must be in [{TINY!r}, {MAX!r}], got inf" in captured.err
    assert f"gamma must be in [0.0, {MAX!r}], got nan" in captured.err


def test_a_nan_deviation_fails_its_validation(tmp_path, capsys, monkeypatch):
    # worst cases are reduced with np.max: max(0.0, nan) would read 0.0 and pass
    exact = tunnelmol.cli.propagator_closed_form

    def one_nan(params, t):
        T = exact(params, t).copy()
        T[len(T) // 5, 1, 1] = math.nan
        return T

    monkeypatch.setattr(tunnelmol.cli, "propagator_closed_form", one_nan)
    assert run(tmp_path, "evolve", "--points", "11") == 1
    out = capsys.readouterr().out
    assert "validation passed: trace_preservation (worst 0, bound 1e-12)" in out
    assert "VALIDATION FAILED: closed_form_vs_expm (worst nan, bound 1e-09)" in out


@pytest.mark.parametrize("sense", [FORWARD, BACKWARD])
def test_gauss_legendre_rate_integral_matches_adaptive_quadrature(sense):
    # scipy's quad stays the oracle for the radius_vs_rate_integral check:
    # whole spans [0, t] in the paper's range at omega = 1 and underdamped
    # over tens of periods, then windows of RADIUS_WINDOW half periods far
    # past them, and at omega = 10 two whole spans beside two windows that overlap
    start = BlochDirection(theta=0.25, phi=0.1)
    spans = [(0.0, t) for t in (0.5, 1.0, 5.0)]
    cases = [(1.0, gamma, spans) for gamma in (0.3, 1.0, 3.0, 1e2, 1e4, 5e7)]
    cases += [(10.0, 0.05, [(0.0, 20.0)]), (10.0, 0.3, [(0.0, 20.0)]), (40.0, 1.0, [(0.0, 5.0)])]
    windowed = [(1e4, 0.05, 100.0), (1e4, 3.0, 1.0), (1e5, 0.05, 100.0), (1e5, 1.2, 1.0), (1e4, 3e4, 1.0),
                (10.0, 1.0, 8.0)]
    for omega, gamma, tmax in windowed:
        reach = tunnelmol.cli.RADIUS_WINDOW * math.pi / omega
        ends = tmax * np.array([0.25, 0.5, 0.75, 1.0])
        cases.append((omega, gamma, [(0.0 if t <= reach else t - reach, t) for t in ends]))
    for omega, gamma, windows in cases:
        params = ModelParams(omega=omega, gamma=gamma)

        def rate(s):
            return transition_rate(exact_direction(start, params, sense, s), params)

        lo, hi = np.array(windows).T
        got = _rate_integral(start, params, sense, lo, hi)
        for a, b, got_ab in zip(lo, hi, got):
            edges = [m / gamma for m in (1.0, 4.0, 16.0, 64.0, 256.0) if a < m / gamma < b]
            if a == 0.0:
                want, err = quad(rate, a, b, points=edges or None, limit=1000, epsabs=1e-13, epsrel=1e-12)
                assert err <= 1e-12 * max(1.0, want)
                assert abs(math.exp(-2.0 * got_ab) - math.exp(-2.0 * want)) <= 1e-12
                assert abs(got_ab - want) <= 1e-12 * max(1.0, want)
                continue
            # far from 0 both rules sample the rate at nodes rounded to ulps of b, where it can move by gamma
            # omega per unit time
            floor = 16.0 * gamma * np.spacing(b)
            want, err = quad(rate, a, b, points=edges or None, limit=1000, epsabs=floor, epsrel=1e-12)
            assert err <= 1e-12 * want + floor
            assert abs(got_ab - want) <= 1e-12 * want + floor


def _radius_worst(out: str) -> float:
    return float(re.search(r"radius_vs_rate_integral \(worst (\S+), bound 1e-06\)", out).group(1))


@pytest.mark.parametrize(
    "argv",
    [
        (),  # the whole span [0, t]
        ("--omega", "1e5", "--gammas", "0.05", "--tmax", "100"),  # windows of 15.5 half periods at omega t = 1e7
        ("--gammas", "10", "--theta0", "0"),  # Lambda up to 50, where the radius exp(-2 Lambda) is 4e-44
    ],
)
def test_the_radius_check_sees_a_relative_error_of_2e6_in_lambda(tmp_path, capsys, monkeypatch, argv):
    assert run(tmp_path, "families", *argv) == 0
    assert _radius_worst(capsys.readouterr().out) <= 1e-9
    closed_form = FamilyTrajectory.rate_integral_at
    monkeypatch.setattr(FamilyTrajectory, "rate_integral_at", lambda self, t: (1.0 + 2e-6) * closed_form(self, t))
    assert run(tmp_path, "families", *argv) == 1
    assert _radius_worst(capsys.readouterr().out) >= 1e-6


def test_the_radius_check_evaluates_the_rate_as_often_at_any_omega(tmp_path, monkeypatch):
    # no refusal and no cost growing with omega tmax: the check's windows hold 16 panels of 48 nodes each
    counts = []
    flow = tunnelmol.cli.flow_unit_vectors

    def counting(initial, params, direction, times):
        counts[-1] += np.size(times)
        return flow(initial, params, direction, times)

    monkeypatch.setattr(tunnelmol.cli, "flow_unit_vectors", counting)
    codes = []
    for omega in ("1e3", "1e5", "1e8"):
        counts.append(0)
        codes.append(run(tmp_path, "families", "--omega", omega, "--gammas", "0.05", "--tmax", "100"))
    assert counts == [4 * 16 * 48] * 3
    assert codes == [0, 0, 1]  # at omega t = 1e10 a window holds less Lambda than floats can compare: it fails


@pytest.mark.parametrize(
    "argv",
    [
        ("--omega", "1e8", "--tmax", "1"),  # a whole-span quadrature would take 3e7 panels here
        # at gamma 0 and 1e-12 Lambda(t) itself stays below the floor: no window, not even [0, t], could see more
        ("--gammas", "0,1e-12", "--omega", "100", "--tmax", "100"),
    ],
)
def test_families_checks_the_radius_on_bounded_windows(tmp_path, capsys, argv):
    start = time.perf_counter()
    assert run(tmp_path, "families", *argv) == 0
    assert time.perf_counter() - start < 5.0
    assert _radius_worst(capsys.readouterr().out) < 1e-6


@pytest.mark.parametrize("omega", ["1e11", "1e15", "1e20"])
def test_a_window_too_short_to_compare_in_floats_fails_the_radius_check(tmp_path, capsys, omega):
    # the last 15.5 half periods before t = 1 hold about 1e-10 of Lambda at omega = 1e11, below the floor
    # 2^-26 (1 + Lambda) that a relative error must clear; they span about 220 ulps of t at 1e15, and none at 1e20,
    # where both routes read 0
    assert run(tmp_path, "families", "--omega", omega, "--tmax", "1") == 1
    out = capsys.readouterr().out
    assert "validation passed: flip_rate_bounds" in out
    assert "VALIDATION FAILED: radius_vs_rate_integral (worst inf, bound 1e-06)" in out


def test_families_labels_each_rate_with_every_digit(tmp_path):
    assert run(tmp_path, "families", "--gammas", "1.2,0.1234567,0.1234568", "--points", "11") == 0
    _, body = read_csv_body(tmp_path / "families.csv")
    header = body[0].split(",")
    assert len(set(header)) == len(header) == 10
    assert header[4:7] == ["theta_g0.1234567", "phi_g0.1234567", "kappa_g0.1234567"]
    _, body = read_csv_body(tmp_path / "stationary.csv")
    assert body[0] == "gamma,label,condition,theta,phi,kappa"
    rows = [line.split(",") for line in body[1:]]
    assert [row[0] for row in rows if row[1] == "z"] == ["1.2", "0.1234567", "0.12345680000000001"]
    # the z family's rate is gamma itself, written the same way
    assert all(row[0] == row[5] for row in rows if row[1] == "z")


@pytest.mark.parametrize("gammas", ["1,1", "0.5,1.2,5e-1", "4,0.5,4.0"])
def test_families_rejects_a_repeated_rate(tmp_path, capsys, gammas):
    assert run(tmp_path, "families", "--gammas", gammas) == 2
    assert "repeats a rate" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


def test_scan_without_tunneling_is_a_usage_error(tmp_path, capsys):
    # a ratio sweep needs omega > 0: otherwise every point has gamma = 0
    assert run(tmp_path, "scan", "--omega", "0") == 2
    captured = capsys.readouterr()
    assert f"error: omega must be in [{TINY!r}, {MAX!r}], got 0.0" in captured.err
    assert "VALIDATION FAILED" not in captured.out


@pytest.mark.parametrize(
    "argv, option",
    [
        (("scan", "--omega", "5e-324"), "omega"),
        (("info", "--tmax", "5e-324"), "tmax"),
        (("families", "--tmax", "5e-324"), "tmax"),
        (("sample", "--tmax", "5e-324"), "tmax"),
        (("evolve", "--tmax", "5e-324"), "tmax"),
        (("histories", "--dt", "5e-324"), "dt"),
        (("families", "--theta0", "1e15"), "theta0"),
        (("sample", "--phi0", "-1.0000000000000001e8", "--ntraj", "20"), "phi0"),
    ],
)
def test_values_past_the_domain_ends_are_usage_errors(tmp_path, capsys, argv, option):
    # a subnormal time grid or scan rate, or an angle past 1e8 rad, breaks the commands' own checks
    assert run(tmp_path, *argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {option} must be in [")
    assert "VALIDATION FAILED" not in captured.out
    assert not any(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--omega", repr(TINY), "--points", "11"),
        ("info", "--tmax", repr(TINY), "--points", "11"),
        ("families", "--tmax", repr(TINY), "--points", "11"),
        ("sample", "--tmax", repr(TINY), "--points", "11", "--ntraj", "50"),
        ("families", "--theta0", "1e8", "--points", "11"),
        ("sample", "--theta0", "-1e8", "--phi0", "1e8", "--points", "11", "--ntraj", "50"),
    ],
)
def test_the_domain_ends_run_and_pass(tmp_path, argv):
    assert run(tmp_path, *argv) == 0


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (("sample", "--phi0", "-2.5e-3", "--ntraj", "50", "--points", "11"), "phi0", -2.5e-3),
        (("families", "--theta0", "-1e8", "--points", "11"), "theta0", -1e8),
        (("families", "--phi0", "-1E-3", "--points", "11"), "phi0", -1e-3),
        (("sample", "--theta0", "-0.0025", "--ntraj", "50", "--points", "11"), "theta0", -0.0025),
    ],
)
def test_negative_values_in_exponent_notation_parse(tmp_path, argv, key, value):
    # argparse alone reads -2.5e-3 as an option and exits 2 with 'expected one argument'
    assert run(tmp_path, *argv) == 0
    echo, _ = read_csv_body(next(tmp_path.glob("*.csv")))
    assert f"# {key}={value!r}" in echo


def test_a_flag_before_a_non_numeric_dash_token_is_still_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "sample", "--phi0", "-x")
    assert exc.value.code == 2


def test_seed_outside_the_philox_key_is_a_usage_error(tmp_path, capsys):
    # the seed is the 128-bit Philox key of the sampler
    assert run(tmp_path, "sample", "--ntraj", "20", "--points", "11", "--seed", "-1") == 2
    assert run(tmp_path, "sample", "--ntraj", "20", "--points", "11", "--seed", str(2**128)) == 2
    captured = capsys.readouterr()
    assert f"seed must be in [0, {2**128 - 1}], got -1" in captured.err
    assert "VALIDATION FAILED" not in captured.out
    assert run(tmp_path, "sample", "--ntraj", "20", "--points", "11", "--seed", str(2**128 - 1)) == 0


@pytest.mark.parametrize(
    "command, target, exc",
    [
        ("evolve", "propagator_closed_form", OverflowError("math range error")),
        ("histories", "decoherence_functional", ValueError("negative history weight -1e-3")),
        ("info", "build_info_report", NonCPError("Choi matrix has a negative eigenvalue")),
        ("sample", "sample_ensemble", FloatingPointError("overflow")),
    ],
)
def test_numerical_breakdown_is_a_named_failed_validation(tmp_path, capsys, monkeypatch, command, target, exc):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(tunnelmol.cli, target, broken)
    assert run(tmp_path, command, *(() if command == "histories" else ("--points", "5"))) == 1
    captured = capsys.readouterr()
    assert f"VALIDATION FAILED: {command}_completed ({type(exc).__name__}: {exc})" in captured.out
    assert "Traceback" not in captured.out + captured.err


def _expm_occupation(gamma, omega, theta0, phi0, times, delta0):
    # independent oracle: (1 + delta0 |expm(t S3) n0|) / 2 for a forward family
    S3 = np.array([[0.0, -omega, 0.0], [omega, -2.0 * gamma, 0.0], [0.0, 0.0, -2.0 * gamma]])
    n0 = np.array([math.sin(theta0) * math.cos(phi0), math.sin(theta0) * math.sin(phi0), math.cos(theta0)])
    return 0.5 * (1.0 + delta0 * np.array([np.linalg.norm(expm(t * S3) @ n0) for t in times]))


def test_evolve_at_the_d2s2_range_is_finite_and_matches_expm(tmp_path):
    assert run(tmp_path, "evolve", *D2S2, "--tmax", "1e-6", "--points", "3") == 0
    _, body = read_csv_body(tmp_path / "evolve.csv")
    header = body[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in body[1:]])
    assert np.all(np.isfinite(rows))
    S = np.zeros((4, 4))
    S[1:, 1:] = [[0.0, -176.0, 0.0], [176.0, -1.8e10, 0.0], [0.0, 0.0, -1.8e10]]
    for row in rows:
        got = np.array([[row[header.index(f"T{i}{j}")] for j in range(4)] for i in range(4)])
        assert np.abs(got - expm(row[0] * S)).max() < 1e-12


def test_stiff_families_pass_every_validation(tmp_path, capsys):
    assert run(tmp_path, "families", "--gammas", "1e2,1e3,1e4", "--tmax", "1", "--theta0", "0.25") == 0
    assert "VALIDATION FAILED" not in capsys.readouterr().out
    assert run(tmp_path, "families", "--gammas", "1e2,1e3,1e4", "--tmax", "1", "--direction", "backward") == 0


def test_moving_d2s2_sample_follows_the_exact_master_curve(tmp_path):
    ntraj = 400
    assert run(tmp_path, "sample", *D2S2, "--tmax", "1e-6", "--points", "41", "--ntraj", str(ntraj),
               "--theta0", "0.9", "--phi0", "0.2", "--initial", "0", "--seed", "11") == 0
    _, body = read_csv_body(tmp_path / "ensemble.csv")
    table = np.array([[float(x) for x in line.split(",")[:2]] for line in body[1:]])
    want = _expm_occupation(9e9, 176.0, 0.9, 0.2, table[:, 0], 1.0)
    sigma = np.sqrt(np.maximum(want * (1.0 - want), 1.0 / ntraj) / ntraj)
    assert np.max(np.abs(table[:, 1] - want) / sigma) < 6.0


def test_histories_reports_inconsistent_family_but_passes_checks(tmp_path, capsys):
    code = run(tmp_path, "histories", "--basis", "x", "--initial", "up", "--steps", "2", "--dt", "0.7")
    out = capsys.readouterr().out
    assert code == 0  # inconsistency is a finding, not an invariant failure
    assert "NOT consistent" in out
    code = run(tmp_path, "histories", "--basis", "z", "--initial", "up")
    out = capsys.readouterr().out
    assert code == 0
    assert "family is consistent" in out


def test_preset_reports_rate_separation(tmp_path):
    assert run(tmp_path, "preset", "D2S2") == 0
    _, body = read_csv_body(tmp_path / "preset_D2S2.csv")
    table = dict(line.split(",", 1) for line in body[1:])
    assert float(table["gamma_over_omega"]) == pytest.approx(5.11e7, rel=1e-2)
    assert float(table["kappa_x_over_kappa_z"]) < 1e-15
    assert table["regime"] == "overdamped"
    assert float(table["kappa_x"]) == pytest.approx(176.0**2 / (4 * 9e9), rel=1e-6)


def test_scan_csv_has_nan_below_critical(tmp_path):
    assert run(tmp_path, "scan", "--points", "7", "--ratio-min", "0.25", "--ratio-max", "4.0") == 0
    _, body = read_csv_body(tmp_path / "scan.csv")
    header = body[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in body[1:]]
    below = [r for r in rows if float(r["ratio"]) < 1.0]
    above = [r for r in rows if float(r["ratio"]) > 1.0]
    assert below and above
    assert all(r["n_equatorial"] == "0" and r["phi_x"] == "nan" for r in below)
    assert all(r["n_equatorial"] == "4" and np.isfinite(float(r["kappa_x"])) for r in above)


def test_scan_writes_the_forward_merged_root_at_the_critical_ratio(tmp_path):
    # geomspace gives the middle ratio as exactly 1.0; phi_y is the forward
    # dressed-y root at every ratio, so there it meets phi_x at pi/4
    assert run(tmp_path, "scan", "--ratio-min", "0.5", "--ratio-max", "2", "--points", "3") == 0
    _, body = read_csv_body(tmp_path / "scan.csv")
    assert body[2] == "1,1,critical,2,0.78539816339744828,0.78539816339744828,0.5,0.5,1"
    assert float(body[2].split(",")[5]) == math.pi / 4.0


def test_checks_collector(capsys):
    checks = _Checks()
    checks.below("alpha_ok", [np.array([1e-13, -1.0]), np.array([2e-13, 0.0])], 1e-12)
    checks.below("beta_bad", 1e-12, 1e-12)  # the bound itself fails
    checks.below("gamma_nan", [0.0, math.nan, -1.0], 1e-12)
    checks.below("delta_empty", [], 0.0)
    checks.check("epsilon_ok", True)
    checks.check("zeta_bad", False, "details here")
    assert capsys.readouterr().out.splitlines() == [
        "validation passed: alpha_ok (worst 2e-13, bound 1e-12)",
        "VALIDATION FAILED: beta_bad (worst 1e-12, bound 1e-12)",
        "VALIDATION FAILED: gamma_nan (worst nan, bound 1e-12)",
        "validation passed: delta_empty (worst -inf, bound 0)",
        "validation passed: epsilon_ok",
        "VALIDATION FAILED: zeta_bad (details here)",
    ]
    assert checks.failed == ["beta_bad", "gamma_nan", "zeta_bad"]
    assert checks.status == 1
    assert _Checks().status == 0


# the validations of each command at its defaults, in order; perfbench and its
# known_defects.json match failures by these names
VALIDATIONS = {
    "evolve": ["trace_preservation", "closed_form_vs_expm"],
    "families": ["stationary_roots", "flip_rate_bounds", "radius_vs_rate_integral"],
    "histories": ["hermiticity", "weight_normalization"],
    "sample": ["ensemble_vs_master", "gap_distribution"],
    "info": ["cross_basis_equality", "mub_information_bound", "information_range", "record_information_identity"],
    "preset": ["deep_overdamped_regime", "frozen_tunneling_separation"],
    "scan": ["stationary_roots", "rate_ordering", "family_count"],
}
WITHOUT_A_NUMBER = {"hermiticity", "deep_overdamped_regime"}


@pytest.mark.parametrize("command", list(tunnelmol.cli._COMMANDS))
def test_default_runs_list_their_validations_with_worst_value_and_bound(tmp_path, capsys, command):
    assert run(tmp_path, command) == 0
    lines = re.findall(r"^validation passed: (\S+)(.*)$", capsys.readouterr().out, re.M)
    assert [name for name, _ in lines] == VALIDATIONS[command]
    for name, suffix in lines:
        if name not in WITHOUT_A_NUMBER:
            assert re.fullmatch(r" \(worst \S+, bound \S+\)", suffix), (name, suffix)


def test_sample_trajectory_files(tmp_path):
    assert run(tmp_path, "sample", "--ntraj", "50", "--points", "21", "--save-trajectories", "2") == 0
    assert (tmp_path / "trajectory_000.csv").exists()
    assert (tmp_path / "trajectory_001.csv").exists()
    assert not (tmp_path / "trajectory_002.csv").exists()
    _, body = read_csv_body(tmp_path / "trajectory_000.csv")
    assert body[0] == "time,arm"
    assert body[1] in ("0,0", "0,1")  # the start, in the initial arm
    _, body = read_csv_body(tmp_path / "ensemble.csv")
    assert body[0] == "t,p0_sampled,p0_master,delta_p,bloch_x,bloch_y,bloch_z"
    assert len(body) == 22


@pytest.mark.parametrize(
    "flags, params, start, sense, p0",
    [
        (("--points", "21"), ModelParams(omega=1.0, gamma=1.0), BlochDirection(0.0, 0.0), FORWARD, 0.5),
        (("--direction", "backward", "--gamma", "0.41", "--omega", "0.86", "--theta0", "1.17", "--phi0", "0.52",
          "--tmax", "9", "--seed", "2024", "--initial", "1"),
         ModelParams(omega=0.86, gamma=0.41), BlochDirection(1.17, 0.52), BACKWARD, 0.0),
    ],
    ids=["static-z", "moving-backward"],
)
def test_saved_trajectories_are_the_single_trajectory_draws(tmp_path, flags, params, start, sense, p0):
    assert run(tmp_path, "sample", "--ntraj", "300", "--save-trajectories", "4", *flags) == 0
    echo, _ = read_csv_body(tmp_path / "ensemble.csv")
    values = dict(line[2:].split("=", 1) for line in echo if "=" in line)
    tmax, points, seed = float(values["tmax"]), int(values["points"]), int(values["seed"])
    fam = FamilyTrajectory.integrate(start, params, sense, np.linspace(0.0, tmax, max(points, 1001)))
    sampler = SamplerConfig(seed=seed, n_trajectories=300, p0=p0)
    for k in range(4):
        arm_u, sums, _ = _draw(fam, sampler, [k])
        want_arm, want_flips = int(arm_u[0] >= p0), _invert(fam, sums)
        saved_echo, body = read_csv_body(tmp_path / f"trajectory_{k:03d}.csv")
        assert saved_echo == echo and body[0] == "time,arm"
        rows = np.array([[float(x) for x in line.split(",")] for line in body[1:]])
        # the start in the initial arm, then each flip with the arm it leads into
        assert np.array_equal(rows[:, 0], np.concatenate(([0.0], want_flips)))
        assert np.array_equal(rows[:, 1], (want_arm + np.arange(len(want_flips) + 1)) % 2)


@pytest.mark.parametrize(
    "family, params, start, sense",
    [
        # the defaults: gamma = omega = 1 and the static z family (tmax 5, 201 points, seed 7)
        ((), ModelParams(omega=1.0, gamma=1.0), BlochDirection(0.0, 0.0), FORWARD),
        (("--direction", "backward", "--gamma", "0.41", "--omega", "0.86", "--theta0", "1.17", "--phi0", "0.52"),
         ModelParams(omega=0.86, gamma=0.41), BlochDirection(1.17, 0.52), BACKWARD),
    ],
    ids=["static-z", "moving-backward"],
)
def test_sample_inverts_only_the_flips_it_writes_out(tmp_path, monkeypatch, family, params, start, sense):
    fam = FamilyTrajectory.integrate(start, params, sense, np.linspace(0.0, 5.0, 1001))
    _, sums, _ = _draw(fam, SamplerConfig(seed=7, n_trajectories=2000), np.arange(2000))
    # an upper bound on the flips within rounding of a query's Lambda
    lam = fam.rate_integral_at(np.linspace(0.0, 5.0, 201))
    tol = 1e-6 * (1.0 + (params.gamma + params.omega) * 5.0)
    near = np.count_nonzero(np.abs(sums[:, None] - lam).min(axis=1) <= tol)
    gap_flips = 0
    if not family:  # the constant-rate family also samples the KS gap ensemble
        horizon = FamilyTrajectory.integrate(start, params, FORWARD, np.linspace(0.0, 30.0, 201))
        gap_flips = len(_draw(horizon, SamplerConfig(seed=7, n_trajectories=500, p0=1.0), np.arange(500))[1])

    inverted = []
    invert = trajectories._invert
    monkeypatch.setattr(trajectories, "_invert", lambda f, s: inverted.append(len(s)) or invert(f, s))
    assert run(tmp_path, "sample", "--ntraj", "2000", *family) == 0
    saved = sum(len(read_csv_body(tmp_path / f"trajectory_{k:03d}.csv")[1]) - 2 for k in range(3))
    assert sum(inverted) <= saved + near + gap_flips
    assert sum(inverted) < len(sums) + gap_flips


def test_evolve_checks_the_closed_form_against_expm(tmp_path, capsys):
    assert run(tmp_path, "evolve", *D2S2, "--tmax", "1e-6", "--points", "11") == 0
    out = capsys.readouterr().out
    assert "validation passed: closed_form_vs_expm" in out
    assert "closed_form_vs_ode" not in out


def test_evolve_exponential_matches_scipy_expm():
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(40):  # random generators at random times
        p = ModelParams(omega=rng.uniform(0.0, 3.0), gamma=rng.uniform(0.0, 3.0))
        cases.append(rng.uniform(0.0, 8.0) * generator(p))
    for t in (0.0, 1e-3, 0.7, 5.0, 40.0):  # the critical point
        cases.append(t * generator(ModelParams(omega=1.3, gamma=1.3)))
    cases.append(1e-7 * generator(ModelParams(omega=176.0, gamma=9e9)))  # D2S2
    for _ in range(40):  # and any real matrix, not only a contractive one
        cases.append(rng.standard_normal((4, 4)) * rng.uniform(0.01, 3.0))
    for a in cases:
        want = expm(a)
        assert np.abs(tunnelmol.cli._expm(a) - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_evolve_exponential_keeps_the_slow_mode_of_a_stiff_generator():
    # at D2S2 the slow rate omega^2 / (2 gamma) is ten orders below the norm
    # of S: the squarings carry exp(a) - I, so the closed form agrees to
    # rounding where a plain scaling and squaring loses seven digits
    p = ModelParams(omega=176.0, gamma=9e9)
    for t in (1e-3, 1.0, 5.0):
        exact = propagator_closed_form(p, np.array([t]))[0]
        assert np.abs(tunnelmol.cli._expm(t * generator(p)) - exact).max() < 1e-14


@pytest.mark.parametrize("gamma", ["1e50", "1e150"])
def test_evolve_checks_hold_at_rates_where_scipy_expm_is_nan(tmp_path, capsys, gamma):
    assert run(tmp_path, "evolve", "--gamma", gamma, "--points", "3") == 0
    assert "validation passed: closed_form_vs_expm" in capsys.readouterr().out


def test_evolve_passes_at_the_d2s2_preset_over_the_default_span(tmp_path, capsys):
    assert run(tmp_path, "evolve", *D2S2) == 0
    assert "VALIDATION FAILED" not in capsys.readouterr().out


def test_sample_refuses_an_unbounded_flip_count(tmp_path, capsys):
    start = time.perf_counter()
    code = run(tmp_path, "sample", *D2S2, "--tmax", "1e-3", "--direction", "backward",
               "--ntraj", "200", "--theta0", "0.9")
    assert code == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert "flips expected" in captured.err
    assert not (tmp_path / "ensemble.csv").exists()


def test_info_csv_header_and_column_order(tmp_path):
    assert run(tmp_path, "info", "--points", "11", "--tmax", "2", "--basis", "x") == 0
    _, body = read_csv_body(tmp_path / "info.csv")
    assert body[0] == (
        "t,chi_x_direct,chi_z_direct,chi_x_comp,chi_z_comp,sum_zx,sum_xz,quad_z_direct,quad_x_comp,mutual_info"
    )
    assert len(body) == 12
    # the y family basis adds its direct information, the column its records must equal
    assert run(tmp_path, "info", "--points", "11", "--tmax", "2", "--basis", "y") == 0
    _, body = read_csv_body(tmp_path / "info.csv")
    assert body[0] == (
        "t,chi_x_direct,chi_z_direct,chi_x_comp,chi_z_comp,sum_zx,sum_xz,quad_z_direct,quad_x_comp,chi_y_direct,mutual_info"
    )


def test_the_record_identity_is_checked_at_every_grid_time(tmp_path, capsys, monkeypatch):
    # records off by 1e-6 at the second grid time alone, far from tmax/2, fail the run
    exact = tunnelmol.info_flow._flow_record_information

    def shifted(n0, T, n1):
        out = exact(n0, T, n1)
        if out.ndim == 1:
            out = out.copy()
            out[1] += 1e-6
        return out

    monkeypatch.setattr(tunnelmol.info_flow, "_flow_record_information", shifted)
    assert run(tmp_path, "info", "--points", "11") == 1
    assert "VALIDATION FAILED: record_information_identity" in capsys.readouterr().out


def _first_call(tmp_path, argv):
    # a command run by a freshly built parser: exit code and the bytes of each CSV
    tunnelmol.cli._parser.cache_clear()
    code = run(tmp_path, *argv)
    return code, {p.name: p.read_bytes() for p in sorted(tmp_path.glob("*.csv"))}


def test_successive_commands_reuse_one_parser(tmp_path):
    commands = {
        "scan": ("scan", "--points", "11"),
        "histories": ("histories", "--steps", "3", "--basis", "x", "--initial", "up"),
        "preset": ("preset", "D2S2"),
        "usage": ("histories", "--steps", "40"),
    }
    first = {name: _first_call(tmp_path / "first" / name, argv) for name, argv in commands.items()}
    assert first["usage"] == (2, {}) and all(code == 0 for code, _ in list(first.values())[:3])
    tunnelmol.cli._parser.cache_clear()
    for k, name in enumerate(("scan", "histories", "usage", "preset", "histories", "scan")):
        # an argparse error leaves the shared parser as it was
        with pytest.raises(SystemExit) as exc:
            main(["histories", "--tmax", "3"])
        assert exc.value.code == 2
        out = tmp_path / "again" / str(k)
        code = run(out, *commands[name])
        assert (code, {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}) == first[name]
    assert tunnelmol.cli._parser.cache_info().misses == 1
    assert tunnelmol.cli.build_parser() is not tunnelmol.cli.build_parser()


@pytest.mark.parametrize("steps", [1, 3, 9])
def test_histories_weight_lines_match_the_label_loop(tmp_path, capsys, steps):
    from tunnelmol.histories import Decomposition, HistoryFamily, consistency_check, decoherence_functional

    assert run(tmp_path, "histories", "--steps", str(steps), "--basis", "x", "--initial", "up",
               "--gamma", "0.7", "--omega", "1.3", "--dt", "0.4") == 0
    out = capsys.readouterr().out
    x = Decomposition.from_direction(np.array([1.0, 0.0, 0.0]))
    fam = HistoryFamily(params=ModelParams(omega=1.3, gamma=0.7), times=0.4 * np.arange(steps),
                        decompositions=(x,) * steps)
    D = decoherence_functional(fam, np.array([0.0, 0.0, 1.0]))
    report = consistency_check(D)
    # reference: one print per history, its bits from D.label
    lines = [f"family is {'consistent' if report.passed else 'NOT consistent'}: max off-diagonal "
             f"{report.max_offdiag:.3e} (tolerance {report.tol:.0e})"]
    for idx, w in enumerate(report.weights):
        lines.append(f"  history {''.join(str(b) for b in D.label(idx))}: weight {w:.6f}")
    assert out.endswith("\n".join(lines) + "\n")


def _subparsers() -> dict:
    parser = tunnelmol.cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _csv_bytes(out) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


# the options each command takes: exactly those that can change its files,
# its stdout, its stderr or its exit status
TAKES = {
    "evolve": {"gamma", "omega", "tmax", "points"},
    "families": {"omega", "tmax", "points", "gammas", "theta0", "phi0", "direction"},
    "histories": {"gamma", "omega", "tau_c", "basis", "steps", "dt", "moving", "initial"},
    "sample": {"gamma", "omega", "tmax", "points", "seed", "ntraj", "theta0", "phi0", "direction", "initial",
               "save_trajectories"},
    "info": {"gamma", "omega", "tmax", "points", "basis"},
    "preset": {"name"},
    "scan": {"omega", "points", "ratio_min", "ratio_max"},
}

# each interval, closed: a float one ends at the largest finite float, and
# starts at the smallest normal one where the value must be above 0; an angle
# lies in [-1e8, 1e8]
POSITIVE = (TINY, MAX)
INTERVALS = {
    "gamma": (0.0, MAX), "omega": (0.0, MAX), "tau_c": (0.0, MAX), "theta0": (-1e8, 1e8), "phi0": (-1e8, 1e8),
    "tmax": POSITIVE, "dt": POSITIVE, "ratio_min": POSITIVE, "ratio_max": POSITIVE, "scan omega": POSITIVE,
    "points": (2, math.inf), "steps": (1, 10), "seed": (0, 2**128 - 1), "ntraj": (1, math.inf),
    "save_trajectories": (0, math.inf),
}


def _flag(key, value):
    # --key=value also passes a value that starts with '-'
    return f"--{key.replace('_', '-')}={value}"


def _just_outside(domain) -> list:
    """The values next to a closed interval (lo, hi) on either side, where there is one."""
    lo, hi = domain
    if isinstance(lo, float):
        return [math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]
    return [lo - 1] + ([hi + 1] if hi < math.inf else [])


@pytest.mark.filterwarnings("ignore:history gap")  # histories at tau_c = the largest float
@pytest.mark.parametrize("command", list(tunnelmol.cli._COMMANDS))
def test_option_table_is_the_parser_the_config_keys_and_the_echo(tmp_path, capsys, command):
    options = tunnelmol.cli._COMMANDS[command][2]
    dests = {a.dest for a in _subparsers()[command]._actions} - {"help", "out", "config"}
    assert run(tmp_path / "flags", command) == 0
    echo, _ = read_csv_body(next((tmp_path / "flags").glob("*.csv")))
    assert echo[0] == f"# command={command}"
    echoed = dict(line[2:].split("=", 1) for line in echo[1:])
    assert dests == set(options) == set(echoed) == TAKES[command]
    # a config file holding every default gives the bytes of a run with no flags
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("".join(f"{key}={val}\n" for key, val in echoed.items()))
    assert run(tmp_path / "config", command, "--config", str(cfg)) == 0
    assert _csv_bytes(tmp_path / "config") == _csv_bytes(tmp_path / "flags")
    capsys.readouterr()
    for key, (default, _, domain) in options.items():
        if domain is None:  # the gamma list, which its command parses
            continue
        if isinstance(domain[0], str):
            # a choice outside its set is a usage error that names the option
            assert default in domain
            cfg.write_text(f"{key}=not_a_choice\n")
            assert run(tmp_path / "bad", command, "--config", str(cfg)) == 2
            assert f"error: {key} must be one of" in capsys.readouterr().err
            assert not _csv_bytes(tmp_path / "bad")
            continue
        # a value just outside the interval, as a flag or a config value, is
        # one error line naming the option, the value and the interval
        lo, hi = domain
        assert domain == INTERVALS.get(f"{command} {key}", INTERVALS[key]) and lo <= default <= hi
        for value in _just_outside(domain):
            cfg.write_text(f"{key}={value!r}\n")
            for argv in ((_flag(key, value),), ("--config", str(cfg))):
                assert run(tmp_path / "bad", command, *argv) == 2
                captured = capsys.readouterr()
                assert captured.err == f"error: {key} must be in [{lo!r}, {hi!r}], got {value!r}\n"
                assert "VALIDATION FAILED" not in captured.out
                assert not _csv_bytes(tmp_path / "bad")
        # each end passes the domain check and runs the command; at the
        # largest float the model itself may break down (exit 1) or a
        # cross-option or cost limit refuse it (exit 2 with its own message)
        for end in (lo, hi) if hi < math.inf else (lo,):
            code = run(tmp_path / "end", command, _flag(key, end))
            err = capsys.readouterr().err
            assert code in (0, 1, 2) and f"{key} must be" not in err, (key, end, err)
            assert code != 2 or err.startswith("error: ") and err.count("\n") == 1


def _outcome(tmp_path, capsys, command, *argv):
    """Exit status, stdout, stderr (warnings included) and the CSV bodies of one run in a fresh directory.

    The bodies leave out the '#' echo, which names every option it is given.
    """
    out = tmp_path / str(len(list(tmp_path.iterdir())))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        code = run(out, command, *argv)
    captured = capsys.readouterr()
    stdout = captured.out.replace(str(out), "<out>")
    bodies = {path.name: read_csv_body(path)[1] for path in sorted(out.glob("*.csv"))}
    return code, stdout, captured.err + "".join(str(w.message) for w in caught), bodies


# a cheap base run of each command, and for each option it takes another
# valid value; the base moves off the defaults only where an option would
# otherwise not act (phi0 and the sense at theta0 = 0, moving on the z axis)
ANOTHER_VALUE = {
    "evolve": (("--points", "5"), {"gamma": 2.0, "omega": 2.0, "tmax": 3.0, "points": 6}),
    "families": (("--points", "5", "--gammas", "0.5,4"),
                 {"omega": 2.0, "tmax": 3.0, "points": 6, "gammas": "0.5,3", "theta0": 0.3, "phi0": 0.1,
                  "direction": "backward"}),
    "histories": (("--steps", "2", "--basis", "x"),
                  {"gamma": 2.0, "omega": 2.0, "tau_c": 1.0, "basis": "z", "steps": 3, "dt": 0.3,
                   "moving": "forward", "initial": "up"}),
    "sample": (("--points", "5", "--ntraj", "20", "--theta0", "0.5", "--save-trajectories", "1"),
               {"gamma": 2.0, "omega": 2.0, "tmax": 3.0, "points": 6, "seed": 8, "ntraj": 21, "theta0": 0.6,
                "phi0": 0.1, "direction": "backward", "initial": "0", "save_trajectories": 2}),
    "info": (("--points", "5"), {"gamma": 2.0, "omega": 2.0, "tmax": 3.0, "points": 6, "basis": "x"}),
    "preset": ((), {}),  # its one option, the preset name, has no other value
    "scan": (("--points", "3"), {"omega": 2.0, "points": 4, "ratio_min": 0.3, "ratio_max": 40.0}),
}


@pytest.mark.parametrize("command", list(tunnelmol.cli._COMMANDS))
def test_each_option_a_command_takes_changes_its_outcome_and_no_other_is_taken(tmp_path, capsys, command):
    base, moved = ANOTHER_VALUE[command]
    assert set(moved) == TAKES[command] - {"name"} and tunnelmol.cli.PRESETS.keys() == {"D2S2"}
    assert sum(map(len, TAKES.values())) == 40
    at_base = _outcome(tmp_path, capsys, command, *base)
    assert at_base[0] == 0
    for key, value in moved.items():
        outcome = _outcome(tmp_path, capsys, command, *base, _flag(key, value))
        assert outcome[0] == 0 and outcome != at_base, key
    # an option of another command, as a flag or as a config key, is a usage error
    cfg = tmp_path / "other.cfg"
    for key in set().union(*TAKES.values()) - TAKES[command]:
        with pytest.raises(SystemExit) as exc:
            main([command, _flag(key, 1), "--out", str(tmp_path / "bad")])
        assert exc.value.code == 2
        cfg.write_text(f"{key}=1\n")
        assert run(tmp_path / "bad", command, "--config", str(cfg)) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not _csv_bytes(tmp_path / "bad")


def test_readme_command_line_section_lists_every_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    for command, parser in _subparsers().items():
        assert f"tunnelmol {command}" in section
        flags = {flag for a in parser._actions for flag in a.option_strings} - {"-h", "--help"}
        assert flags and not [flag for flag in flags if f"`{flag}`" not in section], command
