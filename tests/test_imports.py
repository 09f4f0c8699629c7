"""No module of the package reaches into another module's private names, and
only the command that needs scipy loads it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mjlslab"
DEMOS = ROOT / "demos" / "configs"

# cli scores the pointwise row through these until stability grows one public
# entry point for the classify pipeline (ROADMAP item 2); the benchmark tracer
# patches them. The product history comes from consistent_convergence_estimate
ALLOWED = {
    ("cli", "stability", "_build_report"),
    ("cli", "stability", "_symbol_paths"),
    ("cli", "stability", "_vector_histories"),
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
