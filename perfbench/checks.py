"""Reference checks written from the model's formulas.

None of these reuse the program's own validations or its code: the
generator of the Bloch-vector flow is written out here and exponentiated
with scipy, and history weights, stationary roots and rates come from the
closed forms of the model.  A check returns an empty string when the
outputs agree with the reference, and otherwise a one-line description of
the worst miss.

The model: tunneling at angular frequency omega, collisions reading out
sigma_x at rate gamma.  The traceless Bloch components evolve as
dr/dt = S3 r with

    S3 = [[0, -omega, 0], [omega, -2 gamma, 0], [0, 0, -2 gamma]].
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np
from scipy.linalg import expm


def s3(gamma: float, omega: float) -> np.ndarray:
    return np.array([[0.0, -omega, 0.0], [omega, -2.0 * gamma, 0.0], [0.0, 0.0, -2.0 * gamma]])


def h2(p: np.ndarray) -> np.ndarray:
    """Binary entropy in bits, with 0 log 0 = 0."""
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    out = np.zeros_like(p)
    for q in (p, 1.0 - p):
        nz = q > 0
        out[nz] -= q[nz] * np.log2(q[nz])
    return out


def unit(theta: float, phi: float) -> np.ndarray:
    return np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])


_BASIS = {"x": unit(math.pi / 2, 0.0), "y": unit(math.pi / 2, math.pi / 2), "z": unit(0.0, 0.0)}
_INITIAL = {"mixed": np.zeros(3), "up": _BASIS["z"], "down": -_BASIS["z"], "plus": _BASIS["x"], "minus": -_BASIS["x"]}


def read_table(path: Path) -> dict:
    """Columns of a CSV written by the command line front end, as strings."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return {name: [row[k] for row in rows] for k, name in enumerate(header)}


def _floats(col) -> np.ndarray:
    return np.array([float(v) for v in col])


def _worst(name: str, err: float, tol: float) -> str:
    return "" if err <= tol else f"{name}: deviation {err:.3e} above {tol:.0e}"


def check_info(out: Path, p: dict) -> str:
    """chi_direct = 1 - h2((1 + r)/2) with r the transported Bloch length."""
    table = read_table(out / "info.csv")
    t = _floats(table["t"])
    if len(t) != p["points"] or abs(t[-1] - p["tmax"]) > 1e-12 * p["tmax"]:
        return "info: time grid differs from the requested one"
    S = s3(p["gamma"], p["omega"])
    worst = 0.0
    for basis in ("x", "z"):
        r = np.array([np.linalg.norm(expm(s * S) @ _BASIS[basis]) for s in t])
        want = 1.0 - h2(0.5 * (1.0 + np.minimum(r, 1.0)))
        worst = max(worst, float(np.abs(_floats(table[f"chi_{basis}_direct"]) - want).max()))
    return _worst("info chi_direct vs 1 - h2((1+r)/2)", worst, 1e-9)


def exact_occupation(p: dict, t: np.ndarray) -> np.ndarray:
    """Arm-0 occupation of the telegraph process on an exact family.

    Along a family the arm difference decays as exp(-2 int kappa).  For the
    forward family n ~ exp(t S3) n0 that factor is |exp(t S3) n0|; for the
    backward family n ~ exp(-t S3^T) n0 it is 1 / |exp(-t S3^T) n0|.
    """
    S = s3(p["gamma"], p["omega"])
    n0 = unit(p["theta0"], p["phi0"])
    if p["direction"] == "forward":
        radius = np.array([np.linalg.norm(expm(s * S) @ n0) for s in t])
    else:
        radius = 1.0 / np.array([np.linalg.norm(expm(-s * S.T) @ n0) for s in t])
    delta0 = {"0": 1.0, "1": -1.0, "mixed": 0.0}[p["initial"]]
    return 0.5 * (1.0 + delta0 * radius)


def check_sample(out: Path, p: dict) -> str:
    """Sampled occupation within 6 binomial sigma of the exact master curve."""
    table = read_table(out / "ensemble.csv")
    t = _floats(table["t"])
    if len(t) != p["points"]:
        return "sample: time grid differs from the requested one"
    want = exact_occupation(p, t)
    n = p["ntraj"]
    sigma = np.sqrt(np.maximum(want * (1.0 - want), 1.0 / n) / n)
    ratio = float((np.abs(_floats(table["p0_sampled"]) - want) / (6.0 * sigma)).max())
    return "" if ratio <= 1.0 else f"sample p0 vs exact master: worst deviation {ratio:.2f} of the 6 sigma budget"


def history_weights(p: dict) -> np.ndarray:
    """Weights of the consistent family, one per little-endian history index.

    The basis moves with the forward flow (or stays put on the invariant z
    axis), so after each projection the state is the projector itself and
    the next outcome repeats the arm with probability (1 + r_m)/2, where
    r_m = |T3(dt) n_m| is the transported length of the current direction.
    """
    f = p["steps"]
    T3 = expm(p["dt"] * s3(p["gamma"], p["omega"]))
    n = _BASIS[p["basis"]]
    first = n @ _INITIAL[p["initial"]]
    keep = []
    for _ in range(f - 1):
        v = T3 @ n
        r = float(np.linalg.norm(v))
        keep.append(r)
        n = v / r if p["moving"] == "forward" else n
    idx = np.arange(2**f)
    bits = (idx[:, None] >> np.arange(f)) & 1
    sign = 1 - 2 * bits  # +1 for the arm along +n
    w = 0.5 * (1.0 + sign[:, 0] * first)
    for m, r in enumerate(keep):
        w = w * 0.5 * (1.0 + sign[:, m] * sign[:, m + 1] * r)
    return w


def check_histories(out: Path, p: dict) -> str:
    """Diagonal against the Markov product, off-diagonal against zero.

    The matrix is read one block of rows at a time, so the check adds little
    to the workload's peak memory.
    """
    n = 2 ** p["steps"]
    want = history_weights(p)
    weight_err = off_max = 0.0
    rows = 0
    with open(out / "dmatrix.csv") as fh:
        for line in fh:
            if line.startswith("row,col,real,imag"):
                break
        while True:
            block = list(itertools.islice(fh, 64 * n))
            if not block:
                break
            D = np.loadtxt(block, delimiter=",", ndmin=2)
            i, j = D[:, 0].astype(np.int64), D[:, 1].astype(np.int64)
            if not np.array_equal(i * n + j, rows + np.arange(len(D))):
                return "histories: entries are not in row-major order"
            on = i == j
            weight_err = max(weight_err, float(np.abs(D[on, 2] - want[i[on]]).max(initial=0.0)),
                             float(np.abs(D[on, 3]).max(initial=0.0)))
            off_max = max(off_max, float(np.hypot(D[~on, 2], D[~on, 3]).max(initial=0.0)))
            rows += len(D)
    if rows != n * n:
        return f"histories: expected {n * n} entries, found {rows}"
    return _worst("histories weights vs Markov product", weight_err, 1e-12) or _worst(
        "histories off-diagonal", off_max, 1e-12
    )


def check_markov(chain, p: dict) -> str:
    """Static z chain: flips with p = (1 - exp(-2 gamma dt))/2 at every step."""
    flip = 0.5 * (1.0 - math.exp(-2.0 * p["gamma"] * p["dt"]))
    M = np.array([[1.0 - flip, flip], [flip, 1.0 - flip]])
    if len(chain.transitions) != p["steps"] - 1:
        return "markov: wrong number of transition matrices"
    err = max(float(np.abs(T - M).max()) for T in chain.transitions)
    err = max(err, float(np.abs(np.asarray(chain.initial_distribution) - 0.5).max()))
    return _worst("markov transitions vs flip probability", err, 1e-12) or _worst(
        "markov factorisation error", float(chain.factorization_error), 1e-12
    )


def _equatorial_rates(gamma: float, omega: float) -> tuple:
    xi = math.sqrt(gamma * gamma - omega * omega)
    return omega * omega / (2.0 * (gamma + xi)), (gamma + xi) / 2.0


def check_families(out: Path, p: dict) -> str:
    """Stationary roots solve sin 2 phi = +omega/gamma (forward), -omega/gamma (backward)."""
    table = read_table(out / "stationary.csv")
    worst_root = worst_rate = 0.0
    seen = set()
    for k, label in enumerate(table["label"]):
        g = float(table["gamma"][k])
        seen.add(g)
        phi, theta, kappa = (float(table[c][k]) for c in ("phi", "theta", "kappa"))
        if label == "z":
            worst_rate = max(worst_rate, abs(kappa - g) / g)
            continue
        want = p["omega"] / g if table["condition"][k] == "forward" else -p["omega"] / g
        worst_root = max(worst_root, abs(math.sin(2.0 * phi) - want), abs(theta - math.pi / 2))
        kx, ky = _equatorial_rates(g, p["omega"])
        worst_rate = max(worst_rate, abs(kappa - (kx if label == "dressed_x" else ky)) / kappa)
    if seen != set(p["gammas"]) or len(table["label"]) != 5 * len(p["gammas"]):
        return "families: stationary set incomplete"
    return _worst("families stationary roots", worst_root, 1e-12) or _worst(
        "families stationary rates (relative)", worst_rate, 1e-12
    )


def check_scan(out: Path, p: dict) -> str:
    """Roots and rates across the damping ratio; four roots above critical, none below."""
    table = read_table(out / "scan.csv")
    ratio = _floats(table["ratio"])
    if len(ratio) != p["points"] or abs(ratio[-1] / p["ratio_max"] - 1.0) > 1e-12:
        return "scan: ratio grid differs from the requested one"
    worst_root = worst_rate = 0.0
    for k, rho in enumerate(ratio):
        n_eq = int(table["n_equatorial"][k])
        if rho < 1.0 and n_eq != 0 or rho > 1.0 and n_eq != 4:
            return f"scan: {n_eq} equatorial roots at ratio {rho:.6g}"
        if n_eq == 0:
            continue
        g = rho * p["omega"]
        worst_root = max(worst_root, abs(math.sin(2.0 * float(table["phi_x"][k])) - 1.0 / rho))
        kx, ky = _equatorial_rates(g, p["omega"])
        worst_rate = max(
            worst_rate,
            abs(float(table["kappa_x"][k]) / kx - 1.0),
            abs(float(table["kappa_y"][k]) / ky - 1.0),
            abs(float(table["kappa_z"][k]) / g - 1.0),
        )
    return _worst("scan stationary roots", worst_root, 1e-12) or _worst("scan rates (relative)", worst_rate, 1e-12)


def check_preset(out: Path, p: dict) -> str:
    """D2S2 rates: kappa_z = gamma, kappa_x = omega^2 / (2 (gamma + xi))."""
    table = read_table(out / "preset_D2S2.csv")
    values = dict(zip(table["key"], table["value"]))
    kx, ky = _equatorial_rates(p["gamma"], p["omega"])
    if values.get("regime") != "overdamped":
        return "preset: D2S2 not reported as overdamped"
    err = max(
        abs(float(values["kappa_x"]) / kx - 1.0),
        abs(float(values["kappa_y"]) / ky - 1.0),
        abs(float(values["kappa_z"]) / p["gamma"] - 1.0),
    )
    return _worst("preset rates (relative)", err, 1e-12)


def check_evolve(out: Path, p: dict) -> str:
    """Tabulated transfer matrix against expm of the 4x4 generator."""
    table = read_table(out / "evolve.csv")
    t = _floats(table["t"])
    S = np.zeros((4, 4))
    S[1:, 1:] = s3(p["gamma"], p["omega"])
    worst = 0.0
    for k, s in enumerate(t):
        T = expm(s * S)
        got = np.array([[float(table[f"T{i}{j}"][k]) for j in range(4)] for i in range(4)])
        worst = max(worst, float(np.abs(got - T).max()))
    return _worst("evolve propagator vs expm", worst, 1e-9)


FILE_CHECKS = {
    "info": check_info,
    "sample": check_sample,
    "histories": check_histories,
    "families": check_families,
    "scan": check_scan,
    "preset": check_preset,
    "evolve": check_evolve,
}
