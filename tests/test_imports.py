"""No module of the package reaches into another module's private names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mjlslab"

# cli drives the classify pipeline through these until stability grows one
# public entry point for it (ROADMAP item 1); the benchmark tracer patches them
ALLOWED = {
    ("cli", "stability", "_build_report"),
    ("cli", "stability", "_matrix_histories"),
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
