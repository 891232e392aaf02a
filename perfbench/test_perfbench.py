"""Self-tests of the benchmark: python3 -m pytest perfbench

They use small operations of their own, so they run in seconds; the
benchmark's workloads are only generated here, never run in full.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads
from tracer import Tracer
from workloads import Op

run.import_package()


def small_ops() -> list:
    """One cheap operation per layer family, each with its reference check."""
    info = {"gamma": 0.7, "omega": 1.1, "tmax": 3.0, "points": 11}
    sample = {"gamma": 2.5, "omega": 1.0, "tmax": 2.0, "points": 11, "ntraj": 300,
              "theta0": 0.9, "phi0": 0.4, "direction": "forward", "initial": "0"}
    hist = {"gamma": 0.8, "omega": 1.0, "steps": 4, "dt": 0.3, "basis": "x", "moving": "forward", "initial": "mixed"}
    return [
        Op(name="info", check="info", params=info,
           argv=("info", "--gamma", "0.7", "--omega", "1.1", "--tmax", "3.0", "--points", "11", "--basis", "x")),
        Op(name="sample", check="sample", params=sample,
           argv=("sample", "--gamma", "2.5", "--omega", "1.0", "--tmax", "2.0", "--points", "11", "--ntraj", "300",
                 "--theta0", "0.9", "--phi0", "0.4", "--direction", "forward", "--initial", "0", "--seed", "3")),
        Op(name="histories", check="histories", params=hist,
           argv=("histories", "--gamma", "0.8", "--omega", "1.0", "--steps", "4", "--dt", "0.3", "--basis", "x",
                 "--moving", "forward", "--initial", "mixed")),
        Op(name="markov", check="markov", call="markov_from_family",
           params={"gamma": 0.9, "omega": 1.0, "steps": 5, "dt": 0.4}),
        Op(name="evolve", check="evolve", params={"gamma": 1.3, "omega": 1.0, "tmax": 4.0, "points": 11},
           argv=("evolve", "--gamma", "1.3", "--omega", "1.0", "--tmax", "4.0", "--points", "11")),
    ]


def traced_pass(tmp_path: Path):
    tracer = Tracer()
    tracer.install()
    try:
        result = run.run_pass(small_ops(), tmp_path, tracer)
    finally:
        tracer.uninstall()
    return tracer, result


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_a_function_of_the_seed(workload):
    from tunnelmol.cli import build_parser

    assert workloads.generate(workload, 5) == workloads.generate(workload, 5)
    assert workloads.generate(workload, 5) != workloads.generate(workload, 6)
    for op in workloads.generate(workload, 5):
        if op.argv:
            build_parser().parse_args(list(op.argv))


def test_small_operations_pass_their_checks(tmp_path):
    result = run.run_pass(small_ops(), tmp_path)
    assert [o["status"] for o in result["outcomes"]] == ["ok"] * len(small_ops()), result["outcomes"]


def test_traced_self_times_fit_in_the_wall_time(tmp_path):
    tracer, result = traced_pass(tmp_path)
    summary = tracer.summary()
    assert all(entry["self_s"] > -1e-9 for entry in summary.values())
    assert sum(entry["self_s"] for entry in summary.values()) <= result["wall_s"]
    assert tracer.counters["families.ode_nfev"] > 0
    assert summary["ptm.propagator_closed_form"]["calls"] > 0


def test_tracer_uninstall_restores_every_binding(tmp_path):
    import tunnelmol.cli
    import tunnelmol.families

    before = (tunnelmol.cli.propagator_closed_form, tunnelmol.families.solve_ivp,
              tunnelmol.families.FamilyTrajectory.__dict__["integrate"])
    traced_pass(tmp_path)
    after = (tunnelmol.cli.propagator_closed_form, tunnelmol.families.solve_ivp,
             tunnelmol.families.FamilyTrajectory.__dict__["integrate"])
    assert before == after


def test_counts_repeat_exactly_across_traced_runs(tmp_path):
    values = []
    for k in range(2):
        tracer, result = traced_pass(tmp_path / str(k))
        values.append(run.layer_metrics(tracer, result["outcomes"], {}))
    counts = [name for name, unit in run.PER_LAYER.items() if unit != "s" and name in values[0]]
    assert {n: values[0][n] for n in counts} == {n: values[1][n] for n in counts}
    assert values[0]["trajectories.chunks"] > 0


def _corrupt(path: Path, column: str, row: int):
    lines = path.read_text().splitlines(keepends=True)
    start = next(k for k, ln in enumerate(lines) if not ln.startswith("#"))
    col = lines[start].rstrip("\n").split(",").index(column)
    cells = lines[start + 1 + row].rstrip("\n").split(",")
    cells[col] = repr(float(cells[col]) + 0.5)
    lines[start + 1 + row] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize(
    "index, filename, column, row",
    [(0, "info.csv", "chi_x_direct", 5), (1, "ensemble.csv", "p0_sampled", 3), (2, "dmatrix.csv", "real", 17),
     (4, "evolve.csv", "T12", 6)],
)
def test_corrupted_csv_fails_its_reference_check(tmp_path, index, filename, column, row):
    op = small_ops()[index]
    out = tmp_path / op.name
    out.mkdir()
    assert run.run_op(op, out)["status"] == "ok"
    _corrupt(out / filename, column, row)
    assert checks.FILE_CHECKS[op.check](out, op.params)


def test_known_defect_must_match_exactly():
    evolve = next(op for op in workloads.generate("stiff-d2s2", 1) if op.expect == "evolve_cosh_overflow")
    assert run.classify(evolve, {"raises": "OverflowError"}) == "known"
    assert run.classify(evolve, {"raises": "ValueError"}) == "failed"
    assert run.classify(evolve, {"exit": 0, "reference_check": "pass"}) == "ok"
    assert run.classify(evolve, {"exit": 0, "reference_check": "miss"}) == "failed"


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "telegraph", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
