"""Cold start: importing the package and its CLI loads numpy alone.

No module of the package imports scipy, except the PEP 562 hook that
resolves families.solve_ivp to scipy's solver on access; nothing in the
package calls it, and it stays for the benchmark tracer that patches that
name.  The families and evolve commands load none of scipy.  The test-only
routes live in tests/oracles.py, and the package no longer carries them,
neither as module names nor as methods of its classes.  Records that hold
arrays compare by identity, so == on them gives a bool.
"""

import ast
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate

import tunnelmol
import tunnelmol.cli
import tunnelmol.families
from tunnelmol import (
    Decomposition,
    FORWARD,
    FamilyTrajectory,
    HistoryFamily,
    ModelParams,
    SamplerConfig,
    Trajectory,
    Z_DIRECTION,
    build_info_report,
    consistency_check,
    decoherence_functional,
    ensemble_average,
    gap_statistics,
    markov_from_family,
    sample_ensemble,
)

SRC = str(Path(tunnelmol.__file__).resolve().parents[1])

# names the package must not carry, as module attributes or class members: the
# routes of tests/oracles.py, deleted helpers that only tests called, the
# coefficient trees the pair chain of the decoherence functional replaced, the
# Choi matrix route the closed-form Choi spectrum replaced, the hash sort of
# every float that the CSV writer's factor classes replaced, and the scalar
# copies of the information report's columns
GONE = (
    "propagator_numeric IntegrationError state_from_bloch bloch_from_state "
    "family_ode_step family_closed_form TangentBranchError check_backward_condition bloch_block "
    "KrausSet ComplementaryChannel choi_to_kraus stinespring_isometry complementary_channel complementary_apply "
    "choi_to_ptm kraus_to_ptm bit_flip_kraus entropy_exchange unital_holevo_closed_form classical_collision_average "
    "ptm_to_csv ptm_from_csv is_trace_preserving "
    "complementary_outputs SIGNIFICANT_EIGENVALUE binary_entropy von_neumann_entropy holevo_chi InputEnsemble "
    "exact_direction apply_ptm canonical y_basis bloch_direction events classify_regime RegimeReport "
    "to_csv _grow _sandwiches _pair_coefficients _PRODUCT _LEFT_TABLE _RIGHT_TABLE "
    "ptm_to_choi choi_eigenvalues _CHOI_BASIS _distinct _HASH_MULTIPLIER _LOW_WORD MAX_RADIUS_PANELS _panels "
    "holevo_direct holevo_complementary MubBoundReport mub_bound_check InformationIdentityReport "
    "verify_family_information_identity ForwardConditionError short_time_leak_model mutual_information_family "
    "_record_information _axis check_forward_condition ConditionReport EigenSystem eigen_system "
    "_SERIES_CUTOFF _rate_integral_within"
).split()


def fresh(code: str) -> str:
    """stdout of `code` run in an isolated interpreter that sees only this package's source."""
    prelude = f"import sys; sys.path.insert(0, {SRC!r}); "
    proc = subprocess.run([sys.executable, "-I", "-c", prelude + code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_importing_the_package_and_cli_loads_no_scipy():
    out = fresh(
        "import tunnelmol, tunnelmol.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))); "
        "print('solve_ivp' in vars(tunnelmol.families))"
    )
    assert out.splitlines() == ["[]", "False"]


def test_the_families_command_loads_no_scipy_integrate(tmp_path):
    out = fresh(
        "from tunnelmol import cli; "
        f"code = cli.main(['families', '--gammas', '0.5,1e4', '--points', '41', '--out', {str(tmp_path)!r}]); "
        "print(code); "
        "print(sorted(m for m in sys.modules if m == 'scipy.integrate' or m.startswith('scipy.integrate.')))"
    )
    assert out.splitlines()[-2:] == ["0", "[]"]


def test_the_evolve_command_loads_no_scipy(tmp_path):
    out = fresh(
        "from tunnelmol import cli; "
        f"code = cli.main(['evolve', '--points', '11', '--out', {str(tmp_path)!r}]); "
        "print(code); "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy')))"
    )
    assert out.splitlines()[-2:] == ["0", "[]"]


def test_families_solve_ivp_is_scipys():
    assert tunnelmol.families.solve_ivp is scipy.integrate.solve_ivp


def test_no_module_imports_scipy_and_the_test_only_routes_are_gone():
    scipy_imports = []
    for path in sorted(Path(tunnelmol.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        hook = next(
            (node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "__getattr__"), None
        )
        allowed = set(map(id, ast.walk(hook))) if path.name == "families.py" and hook else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == "scipy" or n.startswith("scipy.") for n in names) and id(node) not in allowed:
                scipy_imports.append(f"{path.name}:{node.lineno}")
    assert scipy_imports == []
    modules = (tunnelmol, tunnelmol.ptm, tunnelmol.families, tunnelmol.channels, tunnelmol.histories,
               tunnelmol.info_flow, tunnelmol.trajectories, tunnelmol.cli)
    classes = {obj for m in modules for obj in vars(m).values() if isinstance(obj, type) and obj.__module__ == m.__name__}
    owners = [*modules, *sorted(classes, key=lambda c: c.__qualname__)]
    assert [f"{o.__name__}.{name}" for o in owners for name in GONE if hasattr(o, name)] == []


def test_the_package_calls_no_eigensolver():
    # the Choi spectrum is a closed form in the PTM; eigvalsh lives in tests/oracles.py
    sources = sorted(Path(tunnelmol.__file__).parent.glob("*.py"))
    assert [path.name for path in sources if "linalg.eig" in path.read_text()] == []


def _records():
    """One instance of each package record with an array field, built twice over."""
    params = ModelParams(omega=1.0, gamma=0.5)
    times = np.linspace(0.0, 1.0, 5)
    family = FamilyTrajectory.integrate(Z_DIRECTION, params, FORWARD, times)
    history = HistoryFamily(params=params, times=times[:3], decompositions=(Decomposition.z_basis(),) * 3)
    ensemble = sample_ensemble(family, SamplerConfig(seed=1, n_trajectories=20))
    return {
        "Decomposition": Decomposition.x_basis(),
        "FamilyTrajectory": family,
        "HistoryFamily": history,
        "DecoherenceMatrix": decoherence_functional(history),
        "ConsistencyReport": consistency_check(decoherence_functional(history)),
        "MarkovChain": markov_from_family(history),
        "InfoReport": build_info_report(params, times),
        "Trajectory": Trajectory(t_start=0.0, t_end=1.0, initial_arm=0, flip_times=np.array([0.5])),
        "Ensemble": ensemble,
        "EnsembleSeries": ensemble_average(ensemble, times),
        "GapStatistics": gap_statistics(ensemble, rate=params.gamma),
    }


@pytest.mark.parametrize("name", [
    "ConsistencyReport", "DecoherenceMatrix", "Decomposition", "Ensemble", "EnsembleSeries",
    "FamilyTrajectory", "GapStatistics", "HistoryFamily", "InfoReport", "MarkovChain", "Trajectory",
])
def test_records_holding_arrays_compare_as_a_bool(name):
    first, second = _records()[name], _records()[name]
    assert type(first).__name__ == name
    assert (first == second) is False
    assert (first == first) is True


def test_unknown_module_attributes_still_raise():
    with pytest.raises(AttributeError, match="no attribute 'quad'"):
        tunnelmol.families.quad
