"""Cold start: importing the package and its CLI loads numpy alone.

scipy is imported only inside the functions that call it: the
propagator_numeric and family_ode_step cross-checks.  The families and
evolve commands load none of it.  families.solve_ivp still resolves to
scipy's solver, so a wrapper set on that module attribute sees every family
ODE solve.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate

import tunnelmol
import tunnelmol.families
from tunnelmol.families import BACKWARD, FORWARD, BlochDirection, exact_direction, family_ode_step
from tunnelmol.ptm import ModelParams

SRC = str(Path(tunnelmol.__file__).resolve().parents[1])


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


def test_cross_checks_agree_with_the_closed_form_on_first_call():
    out = fresh(
        "import numpy as np, scipy.integrate; "
        "from tunnelmol.families import FORWARD, BACKWARD, BlochDirection, exact_direction, family_ode_step; "
        "from tunnelmol.ptm import ModelParams, propagator_closed_form, propagator_numeric; "
        "import tunnelmol.families as fam; "
        "p = ModelParams(omega=1.3, gamma=0.7); d0 = BlochDirection(0.9, 0.4); "
        "gap = max(float(np.abs(family_ode_step(d0, p, s, 1.1).unit_vector "
        "- exact_direction(d0, p, s, 1.1).unit_vector).max()) for s in (FORWARD, BACKWARD)); "
        "print(gap < 1e-8); "
        "print(float(np.abs(propagator_numeric(p, 1.7) - propagator_closed_form(p, 1.7)).max()) < 1e-9); "
        "print(fam.solve_ivp is scipy.integrate.solve_ivp)"
    )
    assert out.splitlines() == ["True", "True", "True"]


def test_families_solve_ivp_is_scipys_and_wrappers_see_the_ode_calls(monkeypatch):
    assert tunnelmol.families.solve_ivp is scipy.integrate.solve_ivp
    nfev = []

    def counting(*args, **kwargs):
        sol = scipy.integrate.solve_ivp(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(tunnelmol.families, "solve_ivp", counting)
    p, d0 = ModelParams(omega=1.0, gamma=2.0), BlochDirection(1.1, 0.2)
    for sense in (FORWARD, BACKWARD):
        got = family_ode_step(d0, p, sense, 0.8).unit_vector
        assert np.abs(got - exact_direction(d0, p, sense, 0.8).unit_vector).max() < 1e-8
    assert len(nfev) == 2 and min(nfev) > 0


def test_unknown_module_attributes_still_raise():
    with pytest.raises(AttributeError, match="no attribute 'quad'"):
        tunnelmol.families.quad
