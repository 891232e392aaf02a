"""Command line front end.

Subcommands cover the main capabilities: propagator evolution, family flows
and their stationary set, decoherence matrices, telegraph sampling,
information curves, a named physical preset, and a parameter scan across the
damping ratio.  Every command writes CSV files whose leading '#' lines echo
the fully resolved configuration, so a result file is self-describing and a
rerun with the same inputs is byte-identical.

Options resolve in three layers: built-in defaults, then a config file of
flat key=value lines (--config), then explicit flags.  The TUNNELMOL_OUTDIR
environment variable supplies the default output directory and nothing else.

Exit status is 0 only if every validation of the invoked command passes;
a failing validation prints its name on stdout and the command returns 1.
A command that breaks down numerically (an exception other than a usage
error) counts as the failed validation <command>_completed and also returns 1,
without a traceback.  Only usage and configuration errors, including model
parameters out of range, return 2.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .families import (
    BACKWARD,
    BlochDirection,
    FORWARD,
    FamilyTrajectory,
    X_DIRECTION,
    Y_DIRECTION,
    Z_DIRECTION,
    classify_regime,
    flow_unit_vectors,
    stationary_families,
)
from .histories import Decomposition, HistoryFamily, consistency_check, decoherence_functional
from .info_flow import build_info_report, verify_family_information_identity
from .ptm import ModelParams, generator, propagator_closed_form
from .trajectories import (
    SamplerConfig,
    deterministic_occupation,
    ensemble_average,
    gap_statistics,
    sample_ensemble,
)

OUTDIR_ENV = "TUNNELMOL_OUTDIR"

# sample keeps every flip in memory: refuse ensembles expected to draw more
MAX_EXPECTED_FLIPS = 1e7

PRESETS = {
    # deuterated disulfane in a dilute background gas: collisions outpace
    # tunneling by more than seven orders of magnitude
    "D2S2": {"gamma": 9.0e9, "omega": 176.0},
}

_COMMON_DEFAULTS = {
    "gamma": 1.0,
    "omega": 1.0,
    "tau_c": 0.0,
    "tmax": 5.0,
    "points": 201,
    "seed": 7,
}

_COMMAND_DEFAULTS = {
    "evolve": {},
    "families": {"gammas": "0.5,1.2,4", "theta0": 0.2, "phi0": 0.0, "direction": "forward"},
    "histories": {"basis": "z", "steps": 3, "dt": 0.5, "moving": "static", "initial": "mixed"},
    "sample": {
        "ntraj": 2000,
        "theta0": 0.0,
        "phi0": 0.0,
        "direction": "forward",
        "initial": "mixed",
        "save_trajectories": 3,
    },
    "info": {"basis": "z"},
    "preset": {"name": "D2S2"},
    "scan": {"ratio_min": 0.2, "ratio_max": 50.0},
}


class CliError(Exception):
    """Bad usage or configuration; maps to exit status 2."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved options for one command invocation."""

    command: str
    values: dict

    def __getattr__(self, name):
        try:
            return self.values[name]
        except KeyError:
            raise AttributeError(name) from None

    def params(self, gamma: float | None = None) -> ModelParams:
        """Model parameters from the options; gamma overrides the configured rate."""
        gamma = self.values["gamma"] if gamma is None else gamma
        try:
            return ModelParams(omega=self.values["omega"], gamma=gamma, tau_c=self.values["tau_c"])
        except ValueError as exc:
            raise CliError(str(exc)) from None

    def out_dir(self) -> Path:
        out = self.values.get("out")
        if out is None:
            out = os.environ.get(OUTDIR_ENV) or "."
        path = Path(out)
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CliError(f"cannot create output directory {path}: {exc}") from None
        return path


def _parse_config_file(path: str, allowed: dict) -> dict:
    """Flat key=value lines; '#' starts a comment; keys must be known."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in allowed:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        kind = type(allowed[key])
        try:
            values[key] = kind(val) if kind is not bool else val.lower() in ("1", "true", "yes")
        except ValueError:
            raise CliError(f"{path}:{lineno}: cannot parse {val!r} as {kind.__name__}") from None
    return values


def _resolve(args: argparse.Namespace) -> RunConfig:
    defaults = dict(_COMMON_DEFAULTS)
    defaults.update(_COMMAND_DEFAULTS[args.command])
    values = dict(defaults)
    if getattr(args, "config", None):
        values.update(_parse_config_file(args.config, defaults))
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    for key, val in values.items():
        if isinstance(val, float) and not math.isfinite(val):
            raise CliError(f"{key} must be finite, got {val}")
    values["out"] = getattr(args, "out", None)
    return RunConfig(command=args.command, values=values)


def _echo_lines(cfg: RunConfig) -> str:
    lines = [f"# command={cfg.command}"]
    for key in sorted(cfg.values):
        if key == "out":
            continue
        lines.append(f"# {key}={cfg.values[key]}")
    return "\n".join(lines) + "\n"


def _write_csv(cfg: RunConfig, filename: str, body) -> Path:
    """Write the config echo, then body: a string, or a function that writes to the file."""
    path = cfg.out_dir() / filename
    with open(path, "w") as fh:
        fh.write(_echo_lines(cfg))
        if isinstance(body, str):
            fh.write(body)
        else:
            body(fh)
    print(f"wrote {path}")
    return path


class _Checks:
    """Collects named validations and turns them into the exit status."""

    def __init__(self):
        self.failed = []

    def check(self, name: str, ok: bool, detail: str = ""):
        if ok:
            print(f"validation passed: {name}")
        else:
            suffix = f" ({detail})" if detail else ""
            print(f"VALIDATION FAILED: {name}{suffix}")
            self.failed.append(name)

    @property
    def status(self) -> int:
        return 1 if self.failed else 0


def _grid(cfg: RunConfig) -> np.ndarray:
    if cfg.points < 2:
        raise CliError("points must be at least 2")
    if cfg.tmax <= 0:
        raise CliError("tmax must be positive")
    return np.linspace(0.0, cfg.tmax, cfg.points)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring a degree-18 Taylor polynomial.

    a is scaled by 2^-s to 1-norm at most 1/2, where the series truncated
    after degree 18 is exact to about 1e-23 relative (Higham, SIAM J. Matrix
    Anal. Appl. 26, 2005; Moler & Van Loan, SIAM Rev. 45, 2003).  The
    squarings carry E = exp(a 2^-k) - I, as (I + E)^2 = I + (2 E + E^2): a
    slow mode's departure from I, far below one ulp of 1 in a stiff
    generator, keeps its own precision instead of rounding away.
    """
    norm = float(np.abs(a).sum(axis=0).max())
    s = max(0, math.ceil(math.log2(norm / 0.5))) if 0.5 < norm < math.inf else 0
    a = np.ldexp(a, -s)
    eye = np.eye(len(a))
    e = eye
    for k in range(18, 1, -1):  # Horner: E = a (I + a/2 (I + a/3 (...)))
        e = eye + (a @ e) / k
    e = a @ e
    for _ in range(s):
        e = 2.0 * e + e @ e
    return eye + e


def cmd_evolve(cfg: RunConfig) -> int:
    params = cfg.params()
    times = _grid(cfg)
    transfer = propagator_closed_form(params, times)
    header = ["t"]
    header += [f"T{i}{j}" for i in range(4) for j in range(4)]
    header += [f"{c}_from_{ax}" for ax in ("x", "y", "z") for c in ("x", "y", "z")]
    rows = [",".join(header)]
    for t, T in zip(times, transfer):
        cells = [f"{t:.17g}"] + [f"{T[i, j]:.17g}" for i in range(4) for j in range(4)]
        for col in (1, 2, 3):  # transported +x, +y, +z Bloch vectors
            cells += [f"{T[r, col]:.17g}" for r in (1, 2, 3)]
        rows.append(",".join(cells))
    _write_csv(cfg, "evolve.csv", "\n".join(rows) + "\n")

    checks = _Checks()
    worst_trace = float(np.abs(transfer[:, 0] - np.array([1.0, 0.0, 0.0, 0.0])).max())
    checks.check("trace_preservation", worst_trace < 1e-12, f"max deviation {worst_trace:.3e}")
    S = generator(params)
    checked = range(0, len(times), max(1, len(times) // 5))[1:]
    worst_gap = float(np.max([np.abs(transfer[k] - _expm(float(times[k]) * S)).max() for k in checked]))
    checks.check("closed_form_vs_expm", worst_gap < 1e-9, f"max deviation {worst_gap:.3e}")
    return checks.status


def _parse_gamma_list(spec: str) -> list:
    try:
        gammas = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"cannot parse gamma list {spec!r}") from None
    if not gammas:
        raise CliError("empty gamma list")
    if not all(math.isfinite(g) for g in gammas):
        raise CliError(f"gamma list {spec!r} holds a non-finite rate")
    return gammas


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule, shared read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _rate_integral(start: BlochDirection, params: ModelParams, direction: str, times: np.ndarray) -> np.ndarray:
    """Integrals of the flip rate gamma (n_y^2 + n_z^2) over [0, t] along the family through start.

    One value per t of the increasing times, read off one cumulative sum.  A
    48-node Gauss-Legendre rule on each panel (Golub & Welsch, Math. Comp.
    23, 221 (1969)), the nodes on flow_unit_vectors stacks of at most 4096
    panels.  kappa relaxes on the scale 1/(2 gamma), so the panels break at
    several multiples of 1/gamma; a single break misses that transient at
    gamma = 1e4.  The rate oscillates with period pi/eta >= pi/omega when
    underdamped, so no panel is longer than pi/omega; past 256/gamma the
    overdamped flow is slower than that.
    """
    g = params.gamma
    edges = np.union1d([0.0, *(m / g for m in (1.0, 4.0, 16.0, 64.0, 256.0) if g > 0 and m / g < times[-1])], times)
    pieces = np.maximum(np.ceil(np.diff(edges) * params.omega / math.pi), 1).astype(int)
    edges = np.concatenate(
        [np.linspace(a, b, n, endpoint=False) for a, b, n in zip(edges, edges[1:], pieces)] + [times[-1:]])
    nodes, weights = _gauss_legendre(48)
    sums = [0.0]
    for lo in range(0, len(edges) - 1, 4096):
        panel = edges[lo:lo + 4097]
        half = np.diff(panel)[:, None] / 2.0
        n = flow_unit_vectors(start, params, direction, panel[:-1, None] + half * (nodes + 1.0))
        sums.extend(np.sum(half * weights * g * (n[..., 1] ** 2 + n[..., 2] ** 2), axis=1))
    return np.cumsum(sums)[np.searchsorted(edges, times)]


def cmd_families(cfg: RunConfig) -> int:
    direction = cfg.direction
    if direction not in (FORWARD, BACKWARD):
        raise CliError("direction must be forward or backward")
    gammas = _parse_gamma_list(cfg.gammas)
    times = _grid(cfg)
    start = BlochDirection(theta=cfg.theta0, phi=cfg.phi0)
    trajectories = {}
    for g in gammas:
        trajectories[g] = FamilyTrajectory.integrate(start, cfg.params(gamma=g), direction, times)

    header = ["t"]
    for g in gammas:
        tag = f"{g:g}"
        header += [f"theta_g{tag}", f"phi_g{tag}", f"kappa_g{tag}"]
    rows = [",".join(header)]
    for k, t in enumerate(times):
        cells = [f"{t:.17g}"]
        for g in gammas:
            traj = trajectories[g]
            cells += [f"{traj.theta[k]:.17g}", f"{traj.phi[k]:.17g}", f"{traj.kappa[k]:.17g}"]
        rows.append(",".join(cells))
    _write_csv(cfg, "families.csv", "\n".join(rows) + "\n")

    stat_rows = ["gamma,label,condition,theta,phi,kappa"]
    stat_sets = {}
    for g in gammas:
        stat = stationary_families(cfg.params(gamma=g))
        stat_sets[g] = stat
        for fam in (stat.z_family, *stat.equatorial):
            d = fam.direction
            stat_rows.append(
                f"{g:g},{fam.label},{fam.condition},{d.theta:.17g},{d.phi:.17g},{fam.kappa:.17g}"
            )
    _write_csv(cfg, "stationary.csv", "\n".join(stat_rows) + "\n")

    checks = _Checks()
    # worst cases are reduced with np.max, which keeps a NaN (max() drops it)
    roots = []
    for g, stat in stat_sets.items():
        for fam in stat.equatorial:
            want = cfg.omega / g if fam.condition in (FORWARD, "both") else -cfg.omega / g
            roots.append(abs(math.sin(2.0 * fam.direction.phi) - want))
    worst_root = float(np.max(roots, initial=0.0))
    checks.check("stationary_roots", worst_root < 1e-12, f"max residual {worst_root:.3e}")

    excess = [np.max([-traj.kappa.min(), (traj.kappa - g).max()]) for g, traj in trajectories.items()]
    worst_kappa = float(np.max(excess))
    checks.check("flip_rate_bounds", worst_kappa < 1e-10, f"excess {worst_kappa:.3e}")

    # radius identity: the closed-form radius exp(-2 Lambda) against
    # Gauss-Legendre quadrature of the rate on unit vectors of the flow, with
    # panel breaks at 1, 4, 16, 64 and 256 times 1/gamma and no panel longer
    # than pi/omega (_rate_integral)
    checked = np.arange(0, len(times), max(1, len(times) // 4))[1:]
    deviations = []
    for traj in trajectories.values():
        integral = _rate_integral(start, traj.params, direction, times[checked])
        deviations.append(np.abs(np.exp(-2.0 * traj.rate_integral[checked]) - np.exp(-2.0 * integral)))
    worst_radius = float(np.max(deviations))
    checks.check("radius_vs_rate_integral", worst_radius < 1e-6, f"max deviation {worst_radius:.3e}")
    return checks.status


_INITIAL_STATES = {
    "mixed": None,
    "up": np.array([0.0, 0.0, 1.0]),
    "down": np.array([0.0, 0.0, -1.0]),
    "plus": np.array([1.0, 0.0, 0.0]),
    "minus": np.array([-1.0, 0.0, 0.0]),
}


def cmd_histories(cfg: RunConfig) -> int:
    if cfg.basis not in ("x", "y", "z"):
        raise CliError("basis must be one of x, y, z")
    if cfg.initial not in _INITIAL_STATES:
        raise CliError(f"initial must be one of {', '.join(_INITIAL_STATES)}")
    if cfg.moving not in ("static", FORWARD, BACKWARD):
        raise CliError("moving must be static, forward or backward")
    if not 1 <= cfg.steps <= 10:
        raise CliError("steps must be between 1 and 10")
    if cfg.dt <= 0:
        raise CliError("dt must be positive")
    params = cfg.params()
    times = np.arange(cfg.steps) * cfg.dt
    base = {"x": X_DIRECTION, "y": Y_DIRECTION, "z": Z_DIRECTION}[cfg.basis]
    if cfg.moving == "static":
        decomps = tuple(Decomposition.from_direction(base) for _ in times)
    else:
        decomps = tuple(Decomposition.from_direction(n) for n in flow_unit_vectors(base, params, cfg.moving, times))
    family = HistoryFamily(params=params, times=times, decompositions=decomps)
    D = decoherence_functional(family, _INITIAL_STATES[cfg.initial])
    _write_csv(cfg, "dmatrix.csv", D.write_csv)

    checks = _Checks()
    try:
        report = consistency_check(D)
    except ValueError as exc:
        checks.check("hermiticity", False, str(exc))
        return checks.status
    checks.check("hermiticity", True)
    weight_gap = abs(report.total_weight - 1.0)
    checks.check("weight_normalization", weight_gap < 1e-10, f"|sum - 1| = {weight_gap:.3e}")
    verdict = "consistent" if report.passed else "NOT consistent"
    print(f"family is {verdict}: max off-diagonal {report.max_offdiag:.3e} (tolerance {report.tol:.0e})")
    # the outcome bits of D.label, first time first
    print("\n".join(
        f"  history {format(idx, f'0{D.f}b')[::-1]}: weight {w:.6f}" for idx, w in enumerate(report.weights.tolist())
    ))
    return checks.status


def cmd_sample(cfg: RunConfig) -> int:
    if cfg.direction not in (FORWARD, BACKWARD):
        raise CliError("direction must be forward or backward")
    if cfg.initial not in ("mixed", "0", "1"):
        raise CliError("initial must be mixed, 0 or 1")
    if cfg.ntraj < 1:
        raise CliError("ntraj must be positive")
    if cfg.save_trajectories < 0:
        raise CliError("save_trajectories must be non-negative")
    initial = None if cfg.initial == "mixed" else int(cfg.initial)
    try:
        sampler = SamplerConfig(seed=cfg.seed, n_trajectories=cfg.ntraj, initial=initial)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    params = cfg.params()
    times = _grid(cfg)
    dense = np.linspace(0.0, cfg.tmax, max(cfg.points, 1001))
    start = BlochDirection(theta=cfg.theta0, phi=cfg.phi0)
    family = FamilyTrajectory.integrate(start, params, cfg.direction, dense)
    expected_flips = float(family.rate_integral[-1]) * cfg.ntraj
    if expected_flips > MAX_EXPECTED_FLIPS:
        raise CliError(
            f"about {expected_flips:.3g} flips expected (integrated rate {family.rate_integral[-1]:.3g} "
            f"x {cfg.ntraj} trajectories), above the limit {MAX_EXPECTED_FLIPS:.0e}; shorten tmax or ntraj"
        )
    ensemble = sample_ensemble(family, sampler)
    series = ensemble_average(ensemble, family, times)
    p0_init = {None: 0.5, 0: 1.0, 1: 0.0}[initial]
    master = deterministic_occupation(family, times, p0_initial=p0_init)

    rows = ["t,p0_sampled,p0_master,delta_p,bloch_x,bloch_y,bloch_z"]
    for k, t in enumerate(times):
        bx, by, bz = series.bloch[k]
        rows.append(
            f"{t:.17g},{series.p0[k]:.17g},{master[k]:.17g},"
            f"{2.0 * series.p0[k] - 1.0:.17g},{bx:.17g},{by:.17g},{bz:.17g}"
        )
    _write_csv(cfg, "ensemble.csv", "\n".join(rows) + "\n")
    # only the saved members' flips are turned into clock times
    for k in range(min(cfg.save_trajectories, len(ensemble))):
        _write_csv(cfg, f"trajectory_{k:03d}.csv", ensemble.member(k).to_csv())

    checks = _Checks()
    sigma = np.sqrt(np.maximum(master * (1.0 - master), 0.01) / cfg.ntraj)
    worst = float(np.max(np.abs(series.p0 - master) / (6.0 * sigma)))
    checks.check("ensemble_vs_master", worst <= 1.0, f"worst deviation {worst:.2f} of the 6 sigma budget")

    kap = family.kappa
    if kap.max() - kap.min() < 1e-9 * max(params.gamma, 1.0) and params.gamma > 0:
        # constant-rate family: rerun a longer horizon so the first gaps per
        # trajectory are free of window censoring, then KS-test against the
        # exponential law at the 1% level
        rate = float(kap[0])
        horizon = np.linspace(0.0, 30.0 / rate, 201)
        gap_family = FamilyTrajectory.integrate(start, params, cfg.direction, horizon)
        gap_sampler = SamplerConfig(seed=cfg.seed, n_trajectories=min(cfg.ntraj, 500), initial=0)
        stats = gap_statistics(sample_ensemble(gap_family, gap_sampler), rate=rate, max_gaps=10)
        bound = stats.ks_critical(0.01)
        checks.check(
            "gap_distribution",
            stats.ks_statistic < bound,
            f"KS {stats.ks_statistic:.4f} vs 1% bound {bound:.4f} (n = {stats.n})",
        )
    return checks.status


def cmd_info(cfg: RunConfig) -> int:
    if cfg.basis not in ("x", "y", "z"):
        raise CliError("basis must be one of x, y, z")
    params = cfg.params()
    times = _grid(cfg)
    report = build_info_report(params, times, family_basis=cfg.basis)
    _write_csv(cfg, "info.csv", report.to_csv())

    checks = _Checks()
    residual = report.cross_equality_residual()
    checks.check("cross_basis_equality", residual < 1e-8, f"residual {residual:.3e}")
    slack = min(
        float((1.0 - report.curves["sum_zx"]).min()),
        float((1.0 - report.curves["sum_xz"]).min()),
    )
    checks.check("mub_information_bound", slack > -1e-9, f"min slack {slack:.3e}")
    lo = min(float(report.curves[k].min()) for k in ("chi_x_direct", "chi_z_direct", "chi_x_comp", "chi_z_comp"))
    hi = max(float(report.curves[k].max()) for k in ("chi_x_direct", "chi_z_direct", "chi_x_comp", "chi_z_comp"))
    checks.check("information_range", lo > -1e-12 and hi < 1.0 + 1e-12, f"range [{lo:.3e}, {hi:.3f}]")
    ident = verify_family_information_identity(cfg.basis, params, float(times[-1]) / 2.0)
    checks.check("record_information_identity", ident.passed, f"residual {ident.residual:.3e}")
    return checks.status


def cmd_preset(cfg: RunConfig) -> int:
    name = cfg.name
    if name not in PRESETS:
        raise CliError(f"unknown preset {name!r}; known: {', '.join(sorted(PRESETS))}")
    data = PRESETS[name]
    params = ModelParams(omega=data["omega"], gamma=data["gamma"])
    regime = classify_regime(params)
    stat = stationary_families(params)
    ratio = params.gamma / params.omega
    if stat.kappa_x is None:
        raise CliError(f"preset {name!r} has no equatorial stationary families")
    kappa_ratio = stat.kappa_x / stat.kappa_z

    pairs = [
        ("preset", name),
        ("gamma", f"{params.gamma:.17g}"),
        ("omega", f"{params.omega:.17g}"),
        ("gamma_over_omega", f"{ratio:.17g}"),
        ("regime", regime.regime),
        ("kappa_z", f"{stat.kappa_z:.17g}"),
        ("kappa_x", f"{stat.kappa_x:.17g}"),
        ("kappa_y", f"{stat.kappa_y:.17g}"),
        ("kappa_x_over_kappa_z", f"{kappa_ratio:.17g}"),
    ]
    body = "key,value\n" + "\n".join(f"{k},{v}" for k, v in pairs) + "\n"
    _write_csv(cfg, f"preset_{name}.csv", body)
    for k, v in pairs:
        print(f"{k} = {v}")

    checks = _Checks()
    checks.check("deep_overdamped_regime", regime.regime == "overdamped", regime.regime)
    checks.check(
        "frozen_tunneling_separation",
        kappa_ratio < 1e-15,
        f"kappa_x/kappa_z = {kappa_ratio:.3e}",
    )
    return checks.status


def cmd_scan(cfg: RunConfig) -> int:
    if cfg.ratio_min <= 0 or cfg.ratio_max <= cfg.ratio_min:
        raise CliError("need 0 < ratio_min < ratio_max")
    if cfg.omega == 0:
        # every ratio would map to gamma = 0; a negative omega fails in ModelParams
        raise CliError("scan needs omega > 0")
    if cfg.points < 2:
        raise CliError("points must be at least 2")
    ratios = np.geomspace(cfg.ratio_min, cfg.ratio_max, cfg.points)
    rows = ["ratio,gamma,regime,n_equatorial,phi_x,phi_y,kappa_x,kappa_y,kappa_z"]
    checks = _Checks()
    roots = []
    ordering_ok = True
    count_ok = True
    for ratio in ratios:
        params = cfg.params(gamma=ratio * cfg.omega)
        stat = stationary_families(params)
        n_eq = len(stat.equatorial)
        if ratio > 1.0 + 1e-12:
            count_ok &= n_eq == 4
        elif ratio < 1.0 - 1e-12:
            count_ok &= n_eq == 0
        if n_eq:
            # at an exactly critical ratio the labels collapse to "merged";
            # report the forward root as phi_x and the backward one as phi_y
            phi_x = next(
                (f.direction.phi for f in stat.equatorial if f.label == "dressed_x"),
                next(f.direction.phi for f in stat.equatorial if f.condition == FORWARD),
            )
            phi_y = next(
                (f.direction.phi for f in stat.equatorial if f.label == "dressed_y"),
                next(f.direction.phi for f in stat.equatorial if f.condition == BACKWARD),
            )
            kx, ky = stat.kappa_x, stat.kappa_y
            roots.append(abs(math.sin(2.0 * phi_x) - 1.0 / ratio))
            ordering_ok &= kx <= ky + 1e-12 <= params.gamma + 1e-9
            cells = [f"{phi_x:.17g}", f"{phi_y:.17g}", f"{kx:.17g}", f"{ky:.17g}"]
        else:
            cells = ["nan", "nan", "nan", "nan"]
        rows.append(
            f"{ratio:.17g},{params.gamma:.17g},{params.regime},{n_eq}," + ",".join(cells) + f",{stat.kappa_z:.17g}"
        )
    _write_csv(cfg, "scan.csv", "\n".join(rows) + "\n")
    worst_root = float(np.max(roots, initial=0.0))
    checks.check("stationary_roots", worst_root < 1e-12, f"max residual {worst_root:.3e}")
    checks.check("rate_ordering", ordering_ok, "expected kappa_x <= kappa_y <= gamma")
    checks.check("family_count", count_ok, "expected 4 above the critical ratio, 0 below")
    return checks.status


_COMMANDS = {
    "evolve": cmd_evolve,
    "families": cmd_families,
    "histories": cmd_histories,
    "sample": cmd_sample,
    "info": cmd_info,
    "preset": cmd_preset,
    "scan": cmd_scan,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--gamma", type=float, help="collision rate")
    common.add_argument("--omega", type=float, help="tunneling angular frequency")
    common.add_argument("--tau-c", dest="tau_c", type=float, help="collision correlation time")
    common.add_argument("--tmax", type=float, help="end of the time grid")
    common.add_argument("--points", type=int, help="number of grid points")
    common.add_argument("--seed", type=int, help="master random seed")
    common.add_argument("--out", help=f"output directory (default: ${OUTDIR_ENV} or '.')")
    common.add_argument("--config", help="file of key=value defaults; flags take precedence")

    parser = argparse.ArgumentParser(
        prog="tunnelmol",
        description="Two-level tunneling molecule under collisional decoherence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("evolve", parents=[common], help="tabulate the propagator and Bloch paths")

    p = sub.add_parser("families", parents=[common], help="integrate family flows, list stationary sets")
    p.add_argument("--gammas", help="comma separated collision rates")
    p.add_argument("--theta0", type=float, help="initial polar angle")
    p.add_argument("--phi0", type=float, help="initial azimuth")
    p.add_argument("--direction", choices=(FORWARD, BACKWARD))

    p = sub.add_parser("histories", parents=[common], help="decoherence matrix of a history family")
    p.add_argument("--basis", choices=("x", "y", "z"))
    p.add_argument("--steps", type=int, help="number of history times (1..10)")
    p.add_argument("--dt", type=float, help="gap between history times")
    p.add_argument("--moving", choices=("static", FORWARD, BACKWARD), help="how the basis evolves")
    p.add_argument("--initial", choices=tuple(_INITIAL_STATES), help="initial state")

    p = sub.add_parser("sample", parents=[common], help="draw telegraph trajectories and compare ensembles")
    p.add_argument("--ntraj", type=int, help="ensemble size")
    p.add_argument("--theta0", type=float, help="family initial polar angle")
    p.add_argument("--phi0", type=float, help="family initial azimuth")
    p.add_argument("--direction", choices=(FORWARD, BACKWARD))
    p.add_argument("--initial", choices=("mixed", "0", "1"), help="starting arm")
    p.add_argument("--save-trajectories", dest="save_trajectories", type=int, help="how many raw trajectories to write")

    p = sub.add_parser("info", parents=[common], help="information flow curves")
    p.add_argument("--basis", choices=("x", "y", "z"), help="basis for the mutual information column")

    p = sub.add_parser("preset", parents=[common], help="report a named physical parameter set")
    p.add_argument("name", nargs="?", help="preset name (default D2S2)")

    p = sub.add_parser("scan", parents=[common], help="sweep the damping ratio")
    p.add_argument("--ratio-min", dest="ratio_min", type=float, help="smallest gamma/omega")
    p.add_argument("--ratio-max", dest="ratio_max", type=float, help="largest gamma/omega")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() built once per process: building it costs about 2 ms, and main runs per command."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        return _COMMANDS[cfg.command](cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a numerical breakdown is a failed validation, not a crash
        print(f"VALIDATION FAILED: {args.command}_completed ({type(exc).__name__}: {exc})")
        return 1


if __name__ == "__main__":
    sys.exit(main())
