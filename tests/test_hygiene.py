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


def public_definitions(tree: ast.Module) -> set[str]:
    """Public names the module binds at its top level: its functions,
    classes and constants."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if not name.startswith("_")}


def public_names() -> dict[str, bool]:
    """Every public name of a package module, as "module.name", and whether
    the package reads it: in its own module, or imported from it by another."""
    trees = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    imported = {
        f"{node.module}.{alias.name}"
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    return {
        f"{module}.{name}": name in loaded_names(tree) or f"{module}.{name}" in imported
        for module, tree in trees.items()
        for name in public_definitions(tree)
    }


#: Public names that no package module reads, kept on purpose, each with why.
#: A name leaves this list when the package gains a caller for it.
REFERENCE = {
    "analytic.g_eff": "the far-detuned exchange rate g1 g2 / delta of model.build_h_eff",
    "analytic.mean_photon_numbers":
        "the closed-form oracle the propagators are checked against (criterion 01)",
    "analytic.sweet_point_detuning": "the closed-form sweet points of criterion 04",
    "analytic.sweet_point_detuning_numeric": "the bisected sweet points of criterion 04",
    "analytic.tau_s2": "the closed-form bus period the tests check the bus oscillation against",
    "analytic.timing_ratio": "the swap-time ratio to the exchange baseline (criterion 03)",
    "analytic.tmsv_joint_population":
        "the two-mode squeezed-vacuum statistics of the paper's pair coupling",
    "calibration.fit_damped_oscillation":
        "the fit of damped population oscillations, a calibration on its own",
    "model.angular_to_khz": "the inverse of khz_to_angular: reports detunings in kHz",
    "model.build_h_bs_reference":
        "the excitation-exchanging baseline Hamiltonian of criterion 10",
    "model.build_h_eff": "the far-detuned exchange limit of the pair coupling",
}


def test_every_export_has_a_caller():
    # a module's exports are its public names: each is read or kept on purpose
    unread = [name for name, read in public_names().items() if not read]
    assert sorted(set(unread) - set(REFERENCE)) == []


def test_every_reference_entry_is_an_unread_export():
    names = public_names()
    assert all(reason.strip() for reason in REFERENCE.values())
    assert sorted(set(REFERENCE) - set(names)) == []
    assert sorted(name for name in REFERENCE if names.get(name)) == []


def test_package_init_imports_nothing():
    # the API is module-qualified: exfree.<module>.<name>, bound once
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    assert [n for n in ast.walk(init) if isinstance(n, (ast.Import, ast.ImportFrom))] == []


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
