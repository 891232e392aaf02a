"""tunnelmol benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload info-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  The run

  1. times five fresh interpreters importing tunnelmol and its CLI
     (setup_s) and records one `python -X importtime` breakdown;
  2. generates the workload's operations from the seed (workloads.py) and
     runs them in-process through `tunnelmol.cli.main(argv)`, or the one
     library call, in a closed loop: one warm-up pass, then passes until
     `--seconds` have elapsed;
  3. checks every operation's output against the benchmark's own
     reference (checks.py); an operation that raises, exits non-zero or
     misses its reference fails, unless it reproduces one of the known
     seed defects listed in known_defects.json exactly;
  4. with --trace 1, alternates untraced passes with passes traced by
     tracer.py and reports the per-layer metrics and the tracing overhead;
     with --trace 0 it reports the end-to-end metrics, untraced.

Only operation calls are timed; reference checks run between them.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A run record (machine, versions, load,
steal ticks, import breakdown, every pass, median and quartiles of every
metric) is written to .perfbench_out/ and the traced run's spans next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SETUPS = 5  # fresh interpreters per run; setup_s is their median
CLI_COMMANDS = ("evolve", "families", "histories", "sample", "info", "preset", "scan")
KNOWN_DEFECTS = json.loads((HERE / "known_defects.json").read_text())

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
}

PER_LAYER = {
    "ptm.propagator_closed_form.calls": "count",
    "ptm.propagator_closed_form.self_s": "s",
    "ptm.pauli_coefficients.calls": "count",
    "ptm.pauli_coefficients.self_s": "s",
    "ptm.self_s": "s",
    "ptm.import_s": "s",
    "channels.complementary_channel.calls": "count",
    "channels.self_s": "s",
    "channels.import_s": "s",
    "families.FamilyTrajectory.integrate.calls": "count",
    "families.FamilyTrajectory.integrate.self_s": "s",
    "families.ode_nfev": "count",
    "families.exact_direction.calls": "count",
    "families.exact_direction.self_s": "s",
    "families.self_s": "s",
    "families.import_s": "s",
    "histories.decoherence_functional.calls": "count",
    "histories.decoherence_functional.self_s": "s",
    "histories.tensor_bytes_computed": "B",
    "histories.Decomposition.from_direction.calls": "count",
    "histories.Decomposition.from_direction.self_s": "s",
    "histories.DecoherenceMatrix.to_csv.self_s": "s",
    "histories.markov_from_family.self_s": "s",
    "histories.self_s": "s",
    "histories.import_s": "s",
    "trajectories.SamplerConfig.rng.calls": "count",
    "trajectories.SamplerConfig.rng.self_s": "s",
    "trajectories.sample_trajectory.self_s": "s",
    "trajectories.sample_ensemble.self_s": "s",
    "trajectories.ensemble_average.self_s": "s",
    "trajectories.Trajectory.arm_at.calls": "count",
    "trajectories.chunks": "count",
    "trajectories.thinning_acceptance": "1",
    "trajectories.self_s": "s",
    "trajectories.import_s": "s",
    "info_flow.build_info_report.self_s": "s",
    "info_flow.von_neumann_entropy.calls": "count",
    "info_flow.quadratic_information.useful_ratio": "1",
    "info_flow.self_s": "s",
    "info_flow.import_s": "s",
    **{f"cli.{cmd}.wall_s": "s" for cmd in CLI_COMMANDS},
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "cli.import_s": "s",
    "ops.known_defects": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark itself cannot run (bad arguments, no source tree)."""


# -- machine and run record ----------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def steal_ticks() -> int | None:
    fields = _read("/proc/stat").split("\n", 1)[0].split()
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def load_avg() -> str:
    return _read("/proc/loadavg").strip()


def _blas() -> dict:
    """BLAS library and its thread count, read from the loaded OpenBLAS."""
    import ctypes

    import numpy as np

    info = {"threads_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}}
    try:
        info["build"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError) as exc:  # the config layout differs across numpy versions
        info["build"] = repr(exc)
    paths = sorted({ln.split()[-1] for ln in _read("/proc/self/maps").splitlines() if "openblas" in ln.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    info.update(library=path, threads=getter())
                    return info
    return info


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def machine_record() -> dict:
    import numpy
    import scipy

    cpu_model = next(
        (ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines() if ln.startswith("model name")),
        platform.processor(),
    )
    return {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
    }


# -- set-up time ---------------------------------------------------------------

_IMPORT = f"import sys; sys.path.insert(0, {str(SRC)!r}); import time, tunnelmol, tunnelmol.cli; print(repr(time.perf_counter()))"


def measure_setup() -> float:
    """Seconds from spawning a fresh interpreter to tunnelmol.cli imported.

    Both ends read CLOCK_MONOTONIC, which is shared by all processes.
    """
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-I", "-c", _IMPORT], capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"fresh interpreter could not import tunnelmol:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1]) - start


def import_breakdown() -> dict:
    """Import seconds per tunnelmol module from `python -X importtime`.

    Each module is charged its own time plus every non-tunnelmol module it
    was first to import, so scipy.integrate lands on tunnelmol.ptm.
    """
    proc = subprocess.run(
        [sys.executable, "-I", "-X", "importtime", "-c", _IMPORT], capture_output=True, text=True, timeout=120
    )
    rows = []
    for ln in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", ln)
        if m:
            rows.append((int(m[1]), int(m[2]), len(m[3]), m[4]))
    out = {}
    for i, (self_us, _, depth, name) in enumerate(rows):
        if not name.startswith("tunnelmol"):
            continue
        total = self_us
        for _, cum_us, d, child in reversed(rows[:i]):
            if d <= depth:
                break
            if d == depth + 2 and not child.startswith("tunnelmol"):
                total += cum_us
        out[name] = total * 1e-6
    return out


# -- operations ----------------------------------------------------------------


def _failed_validations(text: str) -> list:
    return sorted(m[1] for m in re.finditer(r"^VALIDATION FAILED: (\S+)", text, re.M))


def _markov_call(p: dict):
    import numpy as np
    from tunnelmol import histories, ptm

    params = ptm.ModelParams(omega=p["omega"], gamma=p["gamma"])
    z = histories.Decomposition.from_direction(np.array([0.0, 0.0, 1.0]))
    family = histories.HistoryFamily(params=params, times=np.arange(p["steps"]) * p["dt"], decompositions=(z,) * p["steps"])
    return histories.markov_from_family(family)


def run_op(op, out: Path, tracer: Tracer | None = None) -> dict:
    """Run one operation; time only the program call, then check its outputs."""
    from tunnelmol import cli

    outcome = {}
    result = None
    log = io.StringIO()
    if op.argv:
        call, args = cli.main, (list(op.argv) + ["--out", str(out)],)
    else:
        call, args = _markov_call, (op.params,)
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(log):
            if tracer is not None and op.argv:
                result = tracer.span(f"cli.{op.command}", call, *args)
            else:
                result = call(*args)
    except Exception as exc:  # a crash is an outcome to classify, not a benchmark error
        outcome["raises"] = type(exc).__name__
        outcome["detail"] = str(exc)[:200]
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    r1 = resource.getrusage(resource.RUSAGE_SELF)

    if "raises" not in outcome:
        if op.argv:
            outcome["exit"] = result
            outcome["failed_validations"] = _failed_validations(log.getvalue())
            check, subject = checks.FILE_CHECKS[op.check], out
        else:
            outcome["exit"] = 0
            check, subject = checks.check_markov, result
        try:
            miss = check(subject, op.params)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            miss = f"{op.check}: unreadable output ({type(exc).__name__}: {exc})"
        outcome["reference_check"] = "miss" if miss else "pass"
        if miss:
            outcome["detail"] = miss
    outcome["status"] = classify(op, outcome)
    outcome["wall_s"] = wall
    outcome["cpu_s"] = cpu
    outcome["minor_faults"] = r1.ru_minflt - r0.ru_minflt
    outcome["preempted"] = r1.ru_nivcsw - r0.ru_nivcsw
    outcome["bytes_written"] = sum(f.stat().st_size for f in out.iterdir()) if op.argv else 0
    return outcome


def classify(op, outcome: dict) -> str:
    """ok, known (reproduces the recorded seed defect exactly) or failed."""
    if outcome.get("exit") == 0 and outcome.get("reference_check") == "pass":
        return "ok"
    if op.expect:
        match = KNOWN_DEFECTS[op.expect]["match"]
        if all(outcome.get(k) == v for k, v in match.items()):
            return "known"
    return "failed"


def run_pass(ops, work: Path, tracer: Tracer | None = None) -> dict:
    outcomes = []
    for k, op in enumerate(ops):
        out = work / f"{k}-{op.name}"
        out.mkdir(parents=True, exist_ok=True)
        outcomes.append(run_op(op, out, tracer))
    return {
        "wall_s": sum(o["wall_s"] for o in outcomes),
        "cpu_s": sum(o["cpu_s"] for o in outcomes),
        "minor_faults": sum(o["minor_faults"] for o in outcomes),
        "preempted": sum(o["preempted"] for o in outcomes),
        "outcomes": outcomes,
    }


# -- metrics -------------------------------------------------------------------


def quartiles(values) -> dict:
    values = list(values)
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def layer_metrics(tracer: Tracer, outcomes: list, import_s: dict) -> dict:
    """Per-layer values of one traced pass."""
    summary = tracer.summary()
    count = lambda name: summary.get(name, {}).get("calls", 0)  # noqa: E731
    self_s = lambda name: summary.get(name, {}).get("self_s", 0.0)  # noqa: E731
    layer_self = {layer: 0.0 for layer in LAYERS + ("cli",)}
    for name, entry in summary.items():
        layer_self[name.split(".", 1)[0]] += entry["self_s"]
    c = tracer.counters
    chunks = c["trajectories.chunks"]
    prop = c["info_flow.quadratic_information.propagator_calls"]
    values = {
        "families.ode_nfev": c["families.ode_nfev"],
        "histories.tensor_bytes_computed": c["histories.tensor_bytes_computed"],
        "trajectories.chunks": chunks,
        "trajectories.thinning_acceptance": c["trajectories.flips"] / (64 * chunks) if chunks else 0.0,
        "info_flow.quadratic_information.useful_ratio": count("info_flow.quadratic_information") / prop if prop else 0.0,
        "cli.bytes_written": sum(o["bytes_written"] for o in outcomes),
        "ops.known_defects": sum(o["status"] == "known" for o in outcomes),
        "trace.spans": len(tracer.spans),
    }
    for cmd in CLI_COMMANDS:
        values[f"cli.{cmd}.wall_s"] = summary.get(f"cli.{cmd}", {}).get("total_s", 0.0)
    for name in PER_LAYER:
        head, _, last = name.rpartition(".")
        if name in values or head == "trace":
            continue
        if last == "import_s":
            values[name] = import_s.get(f"tunnelmol.{head}", 0.0)
        elif head in layer_self and last == "self_s":
            values[name] = layer_self[head]
        elif last == "calls":
            values[name] = count(head)
        elif last == "self_s":
            values[name] = self_s(head)
    return values


# -- entry point ---------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time after the warm-up pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def require_source_tree():
    if not (SRC / "tunnelmol" / "__init__.py").is_file():
        raise BenchError(f"no tunnelmol source tree under {SRC}")


def import_package():
    require_source_tree()
    sys.path.insert(0, str(SRC))
    import tunnelmol
    import tunnelmol.cli  # noqa: F401

    if Path(tunnelmol.__file__).resolve().parent != SRC / "tunnelmol":
        raise BenchError(f"imported tunnelmol from {tunnelmol.__file__}, not from {SRC}")


def measure(args) -> tuple[dict, dict]:
    """Run the workload; return (result line, run record)."""
    require_source_tree()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds}
    record["loadavg_before"], record["steal_ticks_before"] = load_avg(), steal_ticks()
    setups = [measure_setup() for _ in range(SETUPS)]
    import_s = import_breakdown()
    import_package()
    record.update(machine_record())
    record["import_s"] = import_s
    ops = workloads.generate(args.workload, args.seed)
    record["operations"] = [{"name": op.name, "argv": list(op.argv), "call": op.call, "expect": op.expect} for op in ops]

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        warmup = run_pass(ops, work)
        untraced, traced, layer_values = [], [], []
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or not untraced or (tracer is not None and not traced):
            untraced.append(run_pass(ops, work))
            if tracer is not None:
                tracer.reset()
                tracer.install()
                try:
                    traced.append(run_pass(ops, work, tracer))
                finally:
                    tracer.uninstall()
                layer_values.append(layer_metrics(tracer, traced[-1]["outcomes"], import_s))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    passes = [warmup] + untraced + traced
    record["loadavg_after"], record["steal_ticks_after"] = load_avg(), steal_ticks()

    outcomes = [o for p in passes for o in p["outcomes"]]
    attempted = len(outcomes)
    failed = sum(o["status"] == "failed" for o in outcomes)
    ok = sum(o["status"] == "ok" for o in outcomes)
    record["outcomes_first_pass"] = [
        {"name": op.name, **{k: v for k, v in o.items() if k not in ("wall_s", "cpu_s", "minor_faults", "preempted")}}
        for op, o in zip(ops, warmup["outcomes"])
    ]
    record["failures"] = [
        {"name": op.name, **o} for p in passes for op, o in zip(ops, p["outcomes"]) if o["status"] == "failed"
    ][:20]
    record["passes"] = [
        {"kind": kind, **{k: v for k, v in p.items() if k != "outcomes"}}
        for kind, group in (("warmup", [warmup]), ("untraced", untraced), ("traced", traced))
        for p in group
    ]

    samples = {
        "setup_s": setups,
        "run_s": [p["wall_s"] for p in untraced],
        "cpu_s": [p["cpu_s"] for p in untraced],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
        "ok_ratio": [ok / attempted],
    }
    units = dict(END_TO_END)
    if tracer is not None:
        for name in PER_LAYER:
            samples[name] = [v[name] for v in layer_values if name in v]
        samples["trace.overhead_s"] = [
            statistics.median(p["wall_s"] for p in traced) - statistics.median(p["wall_s"] for p in untraced)
        ]
        units.update(PER_LAYER)
        counts = [name for name, unit in PER_LAYER.items() if unit != "s"]
        record["counts_repeat_across_passes"] = all(len(set(samples[name])) == 1 for name in counts)
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
    record["metrics"] = {name: {**quartiles(vals), "unit": units[name], "samples": vals} for name, vals in samples.items()}

    reported = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": record["metrics"][name]["median"], "unit": unit} for name, unit in reported.items()},
    }
    return result, record


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        result, record = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"{args.workload} seed {args.seed}: attempted {result['attempted']}, failed {result['failed']}", file=sys.stderr)
    for name, m in record["metrics"].items():
        if name in result["metrics"]:
            print(f"  {name:48s} {m['median']:14.6g} {m['unit']:6s} [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']}]", file=sys.stderr)
    print(f"  record: {path}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
