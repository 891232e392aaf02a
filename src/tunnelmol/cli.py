"""Command line front end.

Subcommands cover the main capabilities: propagator evolution, family flows
and their stationary set, decoherence matrices, telegraph sampling,
information curves, a named physical preset, and a parameter scan across the
damping ratio.  Every command writes CSV files whose leading '#' lines echo
the fully resolved configuration, so a result file is self-describing and a
rerun with the same inputs is byte-identical.

Each command takes only the options that can change what it writes, prints
or returns, declared once with a default, help and domain in _COMMANDS; its
parser, its config-file keys and its echo all come from there, so a flag or
key the command does not take is a usage error.  Options resolve in three
layers: built-in defaults, then a config file of flat key=value lines
(--config), then explicit flags; the result must lie in each option's domain,
its choices or a closed interval.  The TUNNELMOL_OUTDIR environment variable
supplies the default output directory and nothing else.

Each command then validates its own output.  A numeric validation passes
when the largest value it measured is below its bound (NaN fails), and its
line shows both: 'validation passed: <name> (worst w, bound b)' or
'VALIDATION FAILED: <name> (...)'.  Only hermiticity, deep_overdamped_regime
and <command>_completed have no number.  Exit status is 0 only if every
validation passes, else 1; a numerical breakdown (an exception other than a
usage error) is the failed validation <command>_completed, without a
traceback.  Usage and configuration errors, including an option outside its
domain and runs too costly to start, return 2.
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
    flow_unit_vectors,
    stationary_families,
    stationary_roots,
)
from .histories import Decomposition, HistoryFamily, consistency_check, decoherence_functional
from .info_flow import build_info_report, verify_family_information_identity
from .ptm import CRITICAL, OVERDAMPED, UNDERDAMPED, ModelParams, generator, propagator_closed_form
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
# families' radius check costs 48 flow evaluations a panel, and a panel spans
# at most pi/omega: refuse a rate that needs more (1e7 panels take minutes)
MAX_RADIUS_PANELS = 1e7

PRESETS = {
    # deuterated disulfane in a dilute background gas: collisions outpace
    # tunneling by more than seven orders of magnitude
    "D2S2": {"gamma": 9.0e9, "omega": 176.0},
}

# An option is name -> (default, help, domain): the flag is --name with _
# turned into -, and the default's type parses both the flag and the
# config-file value.  The domain is the tuple of its choices or a closed
# interval (lo, hi); a float interval ends at the largest finite float, so NaN
# and the infinities fall outside it.  gammas has none: cmd_families parses it.
_MAX = sys.float_info.max
_AT_LEAST_0 = (0.0, _MAX)
_ABOVE_0 = (math.ulp(0.0), _MAX)  # math.ulp(0.0) is the smallest positive float
_FINITE = (-_MAX, _MAX)

# the options that more than one command takes
_SHARED = {
    "gamma": (1.0, "collision rate", _AT_LEAST_0),
    "omega": (1.0, "tunneling angular frequency", _AT_LEAST_0),
    "tmax": (5.0, "end of the time grid", _ABOVE_0),
    "points": (201, "number of grid points", (2, math.inf)),
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
            return ModelParams(omega=self.values["omega"], gamma=gamma, tau_c=self.values.get("tau_c", 0.0))
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


def _parse_config_file(path: str, defaults: dict) -> dict:
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
        if key not in defaults:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        kind = type(defaults[key])
        try:
            values[key] = kind(val)
        except ValueError:
            raise CliError(f"{path}:{lineno}: cannot parse {val!r} as {kind.__name__}") from None
    return values


def _domain_text(domain: tuple) -> str:
    return "one of " + ", ".join(domain) if isinstance(domain[0], str) else f"in [{domain[0]!r}, {domain[1]!r}]"


def _resolve(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then the flags; the one place that checks each option's domain."""
    options = _COMMANDS[args.command][2]
    values = {key: spec[0] for key, spec in options.items()}
    if args.config:
        values.update(_parse_config_file(args.config, values))
    for key in options:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    for key, (_, _, domain) in options.items():
        val = values[key]
        if domain and not (val in domain if isinstance(val, str) else domain[0] <= val <= domain[1]):
            raise CliError(f"{key} must be {_domain_text(domain)}, got {val!r}")
    values["out"] = args.out
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


def _table(header: list, columns) -> str:
    """CSV text: the header, then row k of the stacked columns, each number as %.17g and each string as it is.

    A 2-D column contributes one CSV column per column of its own.
    """
    blocks = [np.asarray(c)[None] if np.ndim(c) == 1 else np.asarray(c).T for c in columns]
    template = ",".join("%s" if b.dtype.kind == "U" else "%.17g" for b in blocks for _ in b)
    rows = zip(*(col for b in blocks for col in b.tolist()))
    return "\n".join([",".join(header)] + [template % row for row in rows]) + "\n"


class _Checks:
    """Collects named validations, prints each verdict and turns them into the exit status."""

    def __init__(self):
        self.failed = []

    def below(self, name: str, values, bound: float):
        """Pass when the largest of values is below bound; np.max keeps a NaN, which then fails."""
        worst = float(np.max(values, initial=-math.inf))
        self.check(name, worst < bound, f"worst {worst:.3g}, bound {bound:.3g}")

    def check(self, name: str, ok: bool, detail: str = ""):
        """Print the verdict, with detail in parentheses if given; below() is the rule for a number."""
        suffix = f" ({detail})" if detail else ""
        print(f"{'validation passed' if ok else 'VALIDATION FAILED'}: {name}{suffix}")
        if not ok:
            self.failed.append(name)

    @property
    def status(self) -> int:
        return 1 if self.failed else 0


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
    times = np.linspace(0.0, cfg.tmax, cfg.points)
    transfer = propagator_closed_form(params, times)
    header = ["t"]
    header += [f"T{i}{j}" for i in range(4) for j in range(4)]
    header += [f"{c}_from_{ax}" for ax in ("x", "y", "z") for c in ("x", "y", "z")]
    # the transported +x, +y, +z Bloch vectors are columns 1..3 of the Bloch block
    transported = transfer[:, 1:, 1:].transpose(0, 2, 1).reshape(-1, 9)
    _write_csv(cfg, "evolve.csv", _table(header, [times, transfer.reshape(-1, 16), transported]))

    checks = _Checks()
    checks.below("trace_preservation", np.abs(transfer[:, 0] - np.array([1.0, 0.0, 0.0, 0.0])), 1e-12)
    S = generator(params)
    checked = range(0, len(times), max(1, len(times) // 5))[1:]
    checks.below("closed_form_vs_expm", [np.abs(transfer[k] - _expm(float(times[k]) * S)).max() for k in checked], 1e-9)
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
    if len(set(gammas)) < len(gammas):
        raise CliError(f"gamma list {spec!r} repeats a rate")
    return gammas


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule, shared read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _panels(params: ModelParams, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_rate_integral's break points, and into how many panels it splits each gap (a float, inf at a huge omega)."""
    g = params.gamma
    edges = np.union1d([0.0, *(m / g for m in (1.0, 4.0, 16.0, 64.0, 256.0) if g > 0 and m / g < times[-1])], times)
    return edges, np.maximum(np.ceil(np.diff(edges) * params.omega / math.pi), 1)


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
    edges, pieces = _panels(params, times)
    edges = np.concatenate(
        [np.linspace(a, b, n, endpoint=False) for a, b, n in zip(edges, edges[1:], pieces.astype(int))] + [times[-1:]])
    nodes, weights = _gauss_legendre(48)
    sums = [0.0]
    for lo in range(0, len(edges) - 1, 4096):
        panel = edges[lo:lo + 4097]
        half = np.diff(panel)[:, None] / 2.0
        n = flow_unit_vectors(start, params, direction, panel[:-1, None] + half * (nodes + 1.0))
        sums.extend(np.sum(half * weights * params.gamma * (n[..., 1] ** 2 + n[..., 2] ** 2), axis=1))
    return np.cumsum(sums)[np.searchsorted(edges, times)]


def cmd_families(cfg: RunConfig) -> int:
    direction = cfg.direction
    gammas = _parse_gamma_list(cfg.gammas)
    times = np.linspace(0.0, cfg.tmax, cfg.points)
    start = BlochDirection(theta=cfg.theta0, phi=cfg.phi0)
    checked = np.arange(0, len(times), max(1, len(times) // 4))[1:]
    trajectories = {}
    for g in gammas:
        params = cfg.params(gamma=g)
        panels = float(_panels(params, times[checked])[1].sum())
        if panels > MAX_RADIUS_PANELS:
            raise CliError(f"the radius check needs about {panels:.3g} quadrature panels at gamma {g:g}, "
                           f"above the limit {MAX_RADIUS_PANELS:.0e}; shorten tmax or lower omega")
        trajectories[g] = FamilyTrajectory.integrate(start, params, direction, times)

    header, columns = ["t"], [times]
    for g, traj in trajectories.items():
        header += [f"theta_g{g:.17g}", f"phi_g{g:.17g}", f"kappa_g{g:.17g}"]
        columns += [traj.theta, traj.phi, traj.kappa]
    _write_csv(cfg, "families.csv", _table(header, columns))

    rows = []  # (gamma, label, condition, theta, phi, kappa) of each stationary family
    roots = []  # (phi, +-omega/gamma) of each equatorial root
    for g in gammas:
        stat = stationary_families(cfg.params(gamma=g))
        rows += [(g, fam.label, fam.condition, fam.direction.theta, fam.direction.phi, fam.kappa)
                 for fam in (stat.z_family, *stat.equatorial)]
        roots += [(fam.direction.phi, (1.0 if fam.condition == FORWARD else -1.0) * cfg.omega / g)
                  for fam in stat.equatorial]
    _write_csv(cfg, "stationary.csv", _table(["gamma", "label", "condition", "theta", "phi", "kappa"], zip(*rows)))

    checks = _Checks()
    phi, want = np.reshape(roots, (-1, 2)).T
    checks.below("stationary_roots", np.abs(np.sin(2.0 * phi) - want), 1e-12)
    checks.below("flip_rate_bounds", [np.max([-traj.kappa, traj.kappa - g]) for g, traj in trajectories.items()], 1e-10)

    # radius identity: the closed-form radius exp(-2 Lambda) against quadrature of the rate (_rate_integral)
    deviations = [np.exp(-2.0 * traj.rate_integral[checked])
                  - np.exp(-2.0 * _rate_integral(start, traj.params, direction, times[checked]))
                  for traj in trajectories.values()]
    checks.below("radius_vs_rate_integral", np.abs(deviations), 1e-6)
    return checks.status


_INITIAL_STATES = {
    "mixed": None,
    "up": np.array([0.0, 0.0, 1.0]),
    "down": np.array([0.0, 0.0, -1.0]),
    "plus": np.array([1.0, 0.0, 0.0]),
    "minus": np.array([-1.0, 0.0, 0.0]),
}


def cmd_histories(cfg: RunConfig) -> int:
    params = cfg.params()
    times = np.arange(cfg.steps) * cfg.dt
    axis = np.eye(3)["xyz".index(cfg.basis)]
    units = [axis] * len(times) if cfg.moving == "static" else flow_unit_vectors(axis, params, cfg.moving, times)
    family = HistoryFamily(params=params, times=times, decompositions=tuple(Decomposition(n) for n in units))
    D = decoherence_functional(family, _INITIAL_STATES[cfg.initial])
    _write_csv(cfg, "dmatrix.csv", D.write_csv)

    checks = _Checks()
    try:
        report = consistency_check(D)
    except ValueError as exc:
        checks.check("hermiticity", False, str(exc))
        return checks.status
    checks.check("hermiticity", True)
    checks.below("weight_normalization", abs(report.total_weight - 1.0), 1e-10)
    verdict = "consistent" if report.passed else "NOT consistent"
    print(f"family is {verdict}: max off-diagonal {report.max_offdiag:.3e} (tolerance {report.tol:.0e})")
    # the outcome bits of D.label, first time first
    print("\n".join(
        f"  history {format(idx, f'0{D.f}b')[::-1]}: weight {w:.6f}" for idx, w in enumerate(report.weights.tolist())
    ))
    return checks.status


def cmd_sample(cfg: RunConfig) -> int:
    """Sample a telegraph ensemble, average it against the master curve and test its gaps.

    Bounds: a run expected to draw more than MAX_EXPECTED_FLIPS flips
    (Lambda(tmax) x ntraj) is refused before drawing, which bounds the flat
    ensemble and, in expectation, the sampler's passes; the KS gap ensemble
    has at most 500 trajectories over 30 mean gaps and inverts only their
    first 11 flips each; only the saved members' flips are inverted.
    """
    initial = None if cfg.initial == "mixed" else int(cfg.initial)
    sampler = SamplerConfig(seed=cfg.seed, n_trajectories=cfg.ntraj, initial=initial)
    params = cfg.params()
    times = np.linspace(0.0, cfg.tmax, cfg.points)
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
    series = ensemble_average(ensemble, times)
    p0_init = {None: 0.5, 0: 1.0, 1: 0.0}[initial]
    master = deterministic_occupation(family, times, p0_initial=p0_init)

    header = ["t", "p0_sampled", "p0_master", "delta_p", "bloch_x", "bloch_y", "bloch_z"]
    columns = [times, series.p0, master, series.occupation_difference, series.bloch]
    _write_csv(cfg, "ensemble.csv", _table(header, columns))
    # only the saved members' flips are turned into clock times, in one
    # call; row 0 is the start, and each later row a flip with the arm it
    # leads into
    saved = min(cfg.save_trajectories, len(ensemble))
    offsets = ensemble.offsets
    flips = ensemble._flip_times_at(slice(0, offsets[saved]))
    for k in range(saved):
        arms = (ensemble.initial_arms[k] + np.arange(offsets[k + 1] - offsets[k] + 1)) % 2
        columns = [np.concatenate(([ensemble.t_start], flips[offsets[k] : offsets[k + 1]])), arms]
        _write_csv(cfg, f"trajectory_{k:03d}.csv", _table(["time", "arm"], columns))

    checks = _Checks()
    sigma = np.sqrt(np.maximum(master * (1.0 - master), 0.01) / cfg.ntraj)
    checks.below("ensemble_vs_master", np.abs(series.p0 - master) / (6.0 * sigma), 1.0)

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
        checks.below("gap_distribution", stats.ks_statistic, stats.ks_critical(0.01))
    return checks.status


def cmd_info(cfg: RunConfig) -> int:
    params = cfg.params()
    times = np.linspace(0.0, cfg.tmax, cfg.points)
    report = build_info_report(params, times, family_basis=cfg.basis)
    _write_csv(cfg, "info.csv", _table(["t", *report.curves], [times, *report.curves.values()]))

    checks = _Checks()
    curves = report.curves
    checks.below("cross_basis_equality", report.cross_equality_residual(), 1e-8)
    checks.below("mub_information_bound", [curves["sum_zx"] - 1.0, curves["sum_xz"] - 1.0], 1e-9)
    chi = np.array([curves[k] for k in ("chi_x_direct", "chi_z_direct", "chi_x_comp", "chi_z_comp")])
    checks.below("information_range", [-chi, chi - 1.0], 1e-12)
    ident = verify_family_information_identity(cfg.basis, params, float(times[-1]) / 2.0)
    checks.below("record_information_identity", ident.residual, 1e-8)
    return checks.status


def cmd_preset(cfg: RunConfig) -> int:
    name = cfg.name
    data = PRESETS[name]
    params = ModelParams(omega=data["omega"], gamma=data["gamma"])
    kx, ky = (float(k) for k in stationary_roots(params.gamma, params.omega)[2:])
    ratio = params.gamma / params.omega
    kappa_ratio = kx / params.gamma

    pairs = [
        ("preset", name),
        ("gamma", f"{params.gamma:.17g}"),
        ("omega", f"{params.omega:.17g}"),
        ("gamma_over_omega", f"{ratio:.17g}"),
        ("regime", params.regime),
        ("kappa_z", f"{params.gamma:.17g}"),
        ("kappa_x", f"{kx:.17g}"),
        ("kappa_y", f"{ky:.17g}"),
        ("kappa_x_over_kappa_z", f"{kappa_ratio:.17g}"),
    ]
    body = "key,value\n" + "\n".join(f"{k},{v}" for k, v in pairs) + "\n"
    _write_csv(cfg, f"preset_{name}.csv", body)
    for k, v in pairs:
        print(f"{k} = {v}")

    checks = _Checks()
    checks.check("deep_overdamped_regime", params.regime == OVERDAMPED, params.regime)
    checks.below("frozen_tunneling_separation", kappa_ratio, 1e-15)
    return checks.status


def cmd_scan(cfg: RunConfig) -> int:
    if cfg.ratio_max <= cfg.ratio_min:
        raise CliError(f"ratio_max must exceed ratio_min, got {cfg.ratio_max!r} <= {cfg.ratio_min!r}")
    if math.isinf(cfg.ratio_max * cfg.omega):
        raise CliError(f"the largest rate ratio_max * omega = {cfg.ratio_max!r} * {cfg.omega!r} overflows")
    ratios = np.geomspace(cfg.ratio_min, cfg.ratio_max, cfg.points)
    gammas = ratios * cfg.omega
    phi_x, phi_y, kx, ky = stationary_roots(gammas, cfg.omega)
    # the four roots of the forward and backward senses, two merged ones, or none
    n_eq = np.where(np.isnan(kx), 0, np.where(phi_x == phi_y, 2, 4))
    regime = np.select([gammas > cfg.omega, gammas < cfg.omega], [OVERDAMPED, UNDERDAMPED], CRITICAL)
    header = ["ratio", "gamma", "regime", "n_equatorial", "phi_x", "phi_y", "kappa_x", "kappa_y", "kappa_z"]
    _write_csv(cfg, "scan.csv", _table(header, [ratios, gammas, regime, n_eq, phi_x, phi_y, kx, ky, gammas]))

    checks = _Checks()
    found = n_eq > 0
    checks.below("stationary_roots", np.abs(np.sin(2.0 * np.stack([phi_x, phi_y])) - 1.0 / ratios)[:, found], 1e-12)
    # kappa_x <= kappa_y <= gamma
    checks.below("rate_ordering", np.stack([kx - ky, ky - gammas])[:, found], 1e-12)
    # 4 equatorial roots above the critical ratio, 0 below
    away = np.abs(ratios - 1.0) > 1e-12
    checks.below("family_count", np.abs(n_eq - np.where(ratios > 1.0, 4.0, 0.0))[away], 1.0)
    return checks.status


_BASES = ("x", "y", "z")
_SENSES = (FORWARD, BACKWARD)


def _shared(*names: str) -> dict:
    return {name: _SHARED[name] for name in names}


# command -> (handler, help line, every option it takes)
_COMMANDS = {
    "evolve": (cmd_evolve, "tabulate the propagator and Bloch paths", _shared("gamma", "omega", "tmax", "points")),
    "families": (cmd_families, "integrate family flows, list stationary sets", {
        **_shared("omega", "tmax", "points"),
        "gammas": ("0.5,1.2,4", "comma separated collision rates", None),
        "theta0": (0.2, "initial polar angle", _FINITE),
        "phi0": (0.0, "initial azimuth", _FINITE),
        "direction": (FORWARD, "sense of the flow", _SENSES),
    }),
    "histories": (cmd_histories, "decoherence matrix of a history family", {
        **_shared("gamma", "omega"),
        "tau_c": (0.0, "collision correlation time; a shorter gap warns", _AT_LEAST_0),
        "basis": ("z", "basis at the first history time", _BASES),
        "steps": (3, "number of history times", (1, 10)),
        "dt": (0.5, "gap between history times", _ABOVE_0),
        "moving": ("static", "how the basis evolves", ("static", *_SENSES)),
        "initial": ("mixed", "initial state", tuple(_INITIAL_STATES)),
    }),
    "sample": (cmd_sample, "draw telegraph trajectories and compare ensembles", {
        **_shared("gamma", "omega", "tmax", "points"),
        "seed": (7, "master random seed, the sampler's 128-bit Philox key", (0, 2**128 - 1)),
        "ntraj": (2000, "ensemble size", (1, math.inf)),
        "theta0": (0.0, "family initial polar angle", _FINITE),
        "phi0": (0.0, "family initial azimuth", _FINITE),
        "direction": (FORWARD, "sense of the family flow", _SENSES),
        "initial": ("mixed", "starting arm", ("mixed", "0", "1")),
        "save_trajectories": (3, "how many raw trajectories to write", (0, math.inf)),
    }),
    "info": (cmd_info, "information flow curves", {
        **_shared("gamma", "omega", "tmax", "points"),
        "basis": ("z", "basis for the mutual information column", _BASES),
    }),
    "preset": (cmd_preset, "report a named physical parameter set", {
        "name": ("D2S2", "preset name", tuple(PRESETS)),
    }),
    "scan": (cmd_scan, "sweep the damping ratio", {
        "omega": (1.0, "tunneling angular frequency", _ABOVE_0),
        **_shared("points"),
        "ratio_min": (0.2, "smallest gamma/omega", _ABOVE_0),
        "ratio_max": (50.0, "largest gamma/omega", _ABOVE_0),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tunnelmol",
        description="Two-level tunneling molecule under collisional decoherence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, options) in _COMMANDS.items():
        # no abbreviations: families would read --gamma as its --gammas
        p = sub.add_parser(command, help=help_line, allow_abbrev=False)
        p.add_argument("--out", help=f"output directory (default: ${OUTDIR_ENV} or '.')")
        p.add_argument("--config", help="file of key=value defaults; flags take precedence")
        for name, (default, text, domain) in options.items():
            text = f"{text} (default: {default}" + (f"; {_domain_text(domain)})" if domain else ")")
            if name == "name":  # preset's positional
                p.add_argument(name, nargs="?", help=text)
            else:
                p.add_argument("--" + name.replace("_", "-"), dest=name, type=type(default), help=text)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() built once per process: building it costs about 2 ms, and main runs per command."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        return _COMMANDS[cfg.command][0](cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a numerical breakdown is a failed validation, not a crash
        _Checks().check(f"{args.command}_completed", False, f"{type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
