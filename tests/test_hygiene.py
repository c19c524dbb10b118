"""Source hygiene of the package modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "exfree"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> set[str]:
    """Names bound by `import` and `from ... import` anywhere in the module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def loaded_names(tree: ast.Module) -> set[str]:
    """Names the module reads."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    assert sorted(imported_names(tree) - loaded_names(tree)) == []


#: Exports that no package module calls, kept on purpose.
REFERENCE = (
    # the closed-form oracle the tests check the propagators and the
    # protocol timing against (acceptance criteria 01, 03 and 04)
    "mean_photon_numbers",
    "sweet_point_detuning",
    "sweet_point_detuning_numeric",
    "timing_ratio",
    # the two-mode squeezed-vacuum statistics of the paper's pair coupling
    "tmsv_joint_population",
    # reference Hamiltonians: the far-detuned exchange limit and the
    # excitation-exchanging baseline of criterion 10
    "build_h_eff",
    "build_h_bs_reference",
    # the fit of damped population oscillations, a calibration on its own
    "fit_damped_oscillation",
)


def test_every_export_has_a_caller():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    called = set().union(*(loaded_names(ast.parse(p.read_text())) for p in MODULES))
    assert sorted(exported - called - set(REFERENCE)) == []
    assert sorted(set(REFERENCE) - exported) == []


def test_import_loads_no_optimize_integrate_or_special():
    code = (
        "import sys, exfree, exfree.cli; "
        "print(' '.join(m for m in ('scipy.optimize', 'scipy.integrate', 'scipy.special') "
        "if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == []
