"""No module of the package reaches into another module's private names,
only the command that needs scipy loads it, and every function the benchmark
probes exists with the parameters its probe reads."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import mjlslab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mjlslab"
DEMOS = ROOT / "demos" / "configs"

# cli reads the kept draw for the trace through _symbol_paths, and the
# benchmark's tracer patches and pins that binding
# (test_instrument_restores_every_binding); the pointwise and product
# estimates are the public ones
ALLOWED = {
    ("cli", "stability", "_symbol_paths"),
}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_uses(path: Path):
    """(importer, module, name) for each private name taken from a sibling module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    importer = path.stem
    modules = {}  # local name -> sibling module bound by `from . import x`
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        package = node.module or ""
        if node.level == 0 and not package.startswith("mjlslab"):
            continue
        module = package.split(".")[-1] if package else ""
        for alias in node.names:
            if not module:
                modules[alias.asname or alias.name] = alias.name
            if _is_private(alias.name):
                yield importer, module or alias.name, alias.name
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _is_private(node.attr)
        ):
            yield importer, modules[node.value.id], node.attr


def test_no_module_imports_another_modules_private_names():
    found = {use for path in sorted(PACKAGE.glob("*.py")) for use in _private_uses(path)}
    assert found - ALLOWED == set(), "private names imported across modules"
    assert ALLOWED <= found, "an allowed private import is gone; drop it from ALLOWED"


def test_the_public_names_are_the_names_the_package_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    public = mjlslab.__all__
    assert len(set(public)) == len(public), "a name is listed twice in __all__"
    assert len(set(imported)) == len(imported), "a name is imported twice"
    assert sorted(public) == sorted(["__version__", *imported])


def test_the_import_scan_sees_both_forms(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "from .linalg import _private, public\n"
        "from . import splitting, __version__\n"
        "splitting._hidden(splitting.visible)\n"
    )
    assert set(_private_uses(src)) == {
        ("probe", "linalg", "_private"),
        ("probe", "splitting", "_hidden"),
    }


# a hook reads the probed call's arguments as args["name"]
_HOOK_ARGUMENT = re.compile(r"""args\[["'](\w+)["']\]""")


def _benchmark_probes():
    """perfbench/tracing.PROBES, loaded from its file; the benchmark is not edited."""
    spec = importlib.util.spec_from_file_location(
        "_benchmark_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.PROBES


def test_every_benchmark_probe_names_a_function_and_the_parameters_it_reads():
    # a refactor of a probed function fails here, naming it, and not with an
    # AttributeError or a KeyError inside a traced pass
    read = set()
    for probe in _benchmark_probes():
        target = f"mjlslab.{probe.module}.{probe.function}"
        module = importlib.import_module(f"mjlslab.{probe.module}")
        assert hasattr(module, probe.function), f"{target} is probed but does not exist"
        if probe.hook is None:
            continue
        source = inspect.getsource(probe.hook)
        names = set(_HOOK_ARGUMENT.findall(source))
        assert names or "args[" not in source, f"the scan missed what {target}'s hook reads"
        params = inspect.signature(getattr(module, probe.function)).parameters
        missing = sorted(names - set(params))
        assert not missing, f"{target}'s probe reads {missing}, which it does not take"
        read |= names
    assert read, "no probe hook reads an argument"


# runs the commands given as a JSON list of argv lists, then prints the scipy
# modules loaded
_RUN_AND_LIST_SCIPY = """
import json, sys
import mjlslab.cli as cli
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _scipy_modules_after(tmp_path, runs):
    """Run the commands in one fresh interpreter, each writing report-<i>.json."""
    runs = [argv + ["--out", str(tmp_path / f"report-{i}.json")] for i, argv in enumerate(runs)]
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_SCIPY, json.dumps(runs)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_only_the_exact_periodic_split_loads_scipy(tmp_path):
    light = [
        ["decompose", "--config", str(DEMOS / "decompose_reducible.json")],
        ["jsr", "--config", str(DEMOS / "jsr_shear.json")],
        ["classify", "--config", str(DEMOS / "classify_rotmix.json"),
         "--trials", "4", "--horizon", "64"],
        ["example46", "--config", str(DEMOS / "example46.json")],
    ]
    assert _scipy_modules_after(tmp_path, light) == []

    split = [["split", "--config", str(DEMOS / "split_shear_periodic.json")]]
    assert "scipy.linalg" in _scipy_modules_after(tmp_path, split)
    exact = json.loads((tmp_path / "report-0.json").read_text())["results"]["periodic_exact"]
    assert exact["source"] == "periodic-exact" and exact["unstable"] is None
    assert exact["center"]["basis"] == [[0, 1]]
    # the half-shear's stable row direction is (-1, 2) / sqrt(5)
    (stable,) = exact["stable"]["basis"]
    assert abs(abs(np.dot(stable, [-1.0, 2.0])) / np.sqrt(5.0) - 1.0) < 1e-12
