"""Command line behavior: subcommands, config layering, CSV output, exits."""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

import tunnelmol.cli
from tunnelmol import trajectories
from tunnelmol.channels import NonCPError
from tunnelmol.cli import _Checks, _rate_integral, main
from tunnelmol.families import BACKWARD, FORWARD, BlochDirection, FamilyTrajectory, exact_direction, transition_rate
from tunnelmol.ptm import ModelParams, generator, propagator_closed_form
from tunnelmol.trajectories import SamplerConfig, _draw, sample_trajectory

# deuterated disulfane: collisions outpace tunneling by 5e7
D2S2 = ("--gamma", "9e9", "--omega", "176")


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
        ("evolve", "--tau-c", "nan"),
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
    assert "tmax must be finite" in captured.err and "gamma must be finite" in captured.err


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
    assert "validation passed: trace_preservation" in out
    assert "VALIDATION FAILED: closed_form_vs_expm (max deviation nan)" in out


@pytest.mark.parametrize("sense", [FORWARD, BACKWARD])
def test_gauss_legendre_rate_integral_matches_adaptive_quadrature(sense):
    # scipy's quad stays the oracle for the radius_vs_rate_integral check: the
    # paper's range at omega = 1, then underdamped runs over tens of periods
    start = BlochDirection(theta=0.25, phi=0.1)
    cases = [(1.0, gamma, (0.5, 1.0, 5.0)) for gamma in (0.3, 1.0, 3.0, 1e2, 1e4, 5e7)]
    cases += [(10.0, 0.05, (20.0,)), (10.0, 0.3, (20.0,)), (40.0, 1.0, (5.0,))]
    for omega, gamma, ts in cases:
        params = ModelParams(omega=omega, gamma=gamma)

        def rate(s):
            return transition_rate(exact_direction(start, params, sense, s), params)

        got = _rate_integral(start, params, sense, np.array(ts))
        for t, got_t in zip(ts, got):
            edges = [m / gamma for m in (1.0, 4.0, 16.0, 64.0, 256.0) if m / gamma < t]
            want, err = quad(rate, 0.0, t, points=edges or None, limit=1000, epsabs=1e-13, epsrel=1e-12)
            assert err <= 1e-12 * max(1.0, want)
            assert abs(math.exp(-2.0 * got_t) - math.exp(-2.0 * want)) <= 1e-12
            assert abs(got_t - want) <= 1e-12 * max(1.0, want)


def test_scan_without_tunneling_is_a_usage_error(tmp_path, capsys):
    # a ratio sweep needs omega > 0: otherwise every point has gamma = 0
    assert run(tmp_path, "scan", "--omega", "0") == 2
    captured = capsys.readouterr()
    assert "scan needs omega > 0" in captured.err
    assert "VALIDATION FAILED" not in captured.out


def test_seed_outside_the_philox_key_is_a_usage_error(tmp_path, capsys):
    # the seed is the 128-bit Philox key of the sampler
    assert run(tmp_path, "sample", "--ntraj", "20", "--points", "11", "--seed", "-1") == 2
    assert run(tmp_path, "sample", "--ntraj", "20", "--points", "11", "--seed", str(2**128)) == 2
    captured = capsys.readouterr()
    assert "2**128" in captured.err
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
    assert run(tmp_path, command, "--points", "5") == 1
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


def test_checks_collector(capsys):
    checks = _Checks()
    checks.check("alpha_ok", True)
    checks.check("beta_bad", False, "details here")
    out = capsys.readouterr().out
    assert "validation passed: alpha_ok" in out
    assert "VALIDATION FAILED: beta_bad (details here)" in out
    assert checks.status == 1
    assert _Checks().status == 0


def test_sample_trajectory_files(tmp_path):
    assert run(tmp_path, "sample", "--ntraj", "50", "--points", "21", "--save-trajectories", "2") == 0
    assert (tmp_path / "trajectory_000.csv").exists()
    assert (tmp_path / "trajectory_001.csv").exists()
    assert not (tmp_path / "trajectory_002.csv").exists()
    _, body = read_csv_body(tmp_path / "trajectory_000.csv")
    assert body[0] == "time,arm"


@pytest.mark.parametrize(
    "flags, params, start, sense, initial",
    [
        (("--points", "21"), ModelParams(omega=1.0, gamma=1.0), BlochDirection(0.0, 0.0), FORWARD, None),
        (("--direction", "backward", "--gamma", "0.41", "--omega", "0.86", "--theta0", "1.17", "--phi0", "0.52",
          "--tmax", "9", "--seed", "2024", "--initial", "1"),
         ModelParams(omega=0.86, gamma=0.41), BlochDirection(1.17, 0.52), BACKWARD, 1),
    ],
    ids=["static-z", "moving-backward"],
)
def test_saved_trajectories_are_the_single_trajectory_draws(tmp_path, flags, params, start, sense, initial):
    assert run(tmp_path, "sample", "--ntraj", "300", "--save-trajectories", "4", *flags) == 0
    echo, _ = read_csv_body(tmp_path / "ensemble.csv")
    values = dict(line[2:].split("=", 1) for line in echo if "=" in line)
    tmax, points, seed = float(values["tmax"]), int(values["points"]), int(values["seed"])
    fam = FamilyTrajectory.integrate(start, params, sense, np.linspace(0.0, tmax, max(points, 1001)))
    sampler = SamplerConfig(seed=seed, n_trajectories=300, initial=initial)
    header = "".join(f"{line}\n" for line in echo)
    for k in range(4):
        want = header + sample_trajectory(fam, sampler, index=k).to_csv()
        assert (tmp_path / f"trajectory_{k:03d}.csv").read_text() == want


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
        gap_flips = len(_draw(horizon, SamplerConfig(seed=7, n_trajectories=500, initial=0), np.arange(500))[1])

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
            main(["histories", "--basis", "w"])
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
