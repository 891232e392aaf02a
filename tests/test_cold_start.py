"""Cold start: importing the package and its CLI loads numpy alone.

No module of the package imports scipy, except the PEP 562 hook that
resolves families.solve_ivp to scipy's solver on access; nothing in the
package calls it, and it stays for the benchmark tracer that patches that
name.  The families and evolve commands load none of scipy.  The test-only
routes live in tests/oracles.py, and the package no longer carries them.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.integrate

import tunnelmol
import tunnelmol.families

SRC = str(Path(tunnelmol.__file__).resolve().parents[1])

# names the package must not carry: the routes of tests/oracles.py and three deleted PTM helpers
GONE = (
    "propagator_numeric IntegrationError state_from_bloch bloch_from_state "
    "family_ode_step family_closed_form TangentBranchError check_backward_condition bloch_block "
    "KrausSet ComplementaryChannel choi_to_kraus stinespring_isometry complementary_channel complementary_apply "
    "choi_to_ptm kraus_to_ptm bit_flip_kraus entropy_exchange unital_holevo_closed_form classical_collision_average "
    "ptm_to_csv ptm_from_csv is_trace_preserving"
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
    modules = (tunnelmol, tunnelmol.ptm, tunnelmol.families, tunnelmol.channels, tunnelmol.histories, tunnelmol.info_flow)
    assert [f"{m.__name__}.{name}" for m in modules for name in GONE if hasattr(m, name)] == []


def test_unknown_module_attributes_still_raise():
    with pytest.raises(AttributeError, match="no attribute 'quad'"):
        tunnelmol.families.quad
