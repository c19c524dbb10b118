"""Source hygiene of the package modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

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


CONFIGS = PACKAGE.parent.parent / "configs"

#: The module families a run must not load, scipy and numpy.ma.
FAMILIES = ("scipy", "numpy.ma")

#: Prints the loaded modules of each of FAMILIES, one line per family.
PRINT_LOADED = f"""
for family in {FAMILIES!r}:
    print(family + ":", *sorted(m for m in sys.modules
                                if m == family or m.startswith(family + ".")))
"""

#: Runs the CLI with the interpreter's arguments, then prints the modules
#: loaded (PRINT_LOADED).
RUN_CLI = """
import sys
from exfree.cli import main
try:
    main.main(args=sys.argv[1:], prog_name="exfree-qst")
except SystemExit as exc:
    assert exc.code == 0, f"exit {exc.code}"
""" + PRINT_LOADED


def fresh_modules(code: str, *args: str) -> dict[str, list[str]]:
    """The modules of each of FAMILIES a fresh interpreter has loaded after
    running `code`."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    lines = [ln.split() for ln in out.stdout.splitlines()]
    return {ln[0][:-1]: ln[1:] for ln in lines if ln and ln[0][:-1] in FAMILIES}


def test_import_loads_no_scipy():
    assert fresh_modules("import sys, exfree, exfree.cli\n" + PRINT_LOADED)["scipy"] == []


@pytest.fixture(scope="module", params=sorted(p.stem for p in CONFIGS.glob("*.yaml")))
def exact_run_modules(request, tmp_path_factory):
    """The modules a fresh CLI process loads running a shipped config exactly
    (calibrate-g, which propagates nothing, refuses a method)."""
    path = CONFIGS / f"{request.param}.yaml"
    experiment = yaml.safe_load(path.read_text())["experiment"]
    out = tmp_path_factory.mktemp(request.param)
    method = [] if experiment == "calibrate-g" else ["--method", "exact"]
    return fresh_modules(RUN_CLI, experiment, "--config", str(path), "--out", str(out),
                         *method)


def test_exact_run_loads_no_scipy(exact_run_modules):
    assert exact_run_modules["scipy"] == []


def test_exact_run_loads_no_numpy_ma(exact_run_modules):
    assert exact_run_modules["numpy.ma"] == []


def scipy_imports(tree: ast.Module) -> list[tuple[int, bool]]:
    """The line of each import of scipy in the module, and whether it sits
    inside a function."""
    in_functions = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(m == "scipy" or m.startswith("scipy.") for m in modules):
            found.append((node.lineno, id(node) in in_functions))
    return found


def test_scipy_imported_only_inside_dynamics_functions():
    found = {p.name: scipy_imports(ast.parse(p.read_text())) for p in PACKAGE.glob("*.py")}
    assert sorted(name for name, imports in found.items() if imports) == ["dynamics.py"]
    assert [line for line, inside in found["dynamics.py"] if not inside] == []


def test_lindblad_run_loads_scipy_and_succeeds(tmp_path):
    # the Chebyshev propagator needs sparse matvecs, not an ODE integrator
    args = ("qst", "--config", str(CONFIGS / "qst.yaml"), "--out", str(tmp_path),
            "--method", "lindblad", "--dims", "3,2,3")
    loaded = set(fresh_modules(RUN_CLI, *args)["scipy"])
    assert "scipy.sparse" in loaded
    assert not {"scipy.integrate", "scipy.optimize"} & loaded
