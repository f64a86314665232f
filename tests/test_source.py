"""Static checks of the package source."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mvdeg

SOURCE = Path(__file__).resolve().parent.parent / "src" / "mvdeg"
PERFBENCH = SOURCE.parent.parent / "perfbench"


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level private functions, classes and constants -> line."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names read, attributes looked up and names imported anywhere in a module."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _dead_private_helpers(source: Path) -> list[str]:
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(source.glob("*.py"))}
    used = set().union(*(_referenced_names(tree) for tree in trees.values()))
    return sorted(
        f"{module}: {name} (line {line})"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in used
    )


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def _package_imports(tree: ast.Module) -> set[str]:
    """Modules of the package a module imports, relatively or as mvdeg.<name>."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ["mvdeg"] * bool(node.level) + (node.module.split(".") if node.module else [])
            paths = [base + [alias.name] for alias in node.names]
        else:
            continue
        found.update(path[1] for path in paths if len(path) > 1 and path[0] == "mvdeg")
    return found


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SOURCE.glob("*.py")) if p.name != "__init__.py"],
    ids=lambda p: p.name,
)
def test_module_imports_only_names_it_uses(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_every_private_helper_is_referenced():
    assert _dead_private_helpers(SOURCE) == []


def test_oracles_share_no_code_with_the_path_they_check():
    imports = {path.stem: _package_imports(ast.parse(path.read_text())) for path in SOURCE.glob("*.py")}
    assert sorted(name for name, used in imports.items() if "oracles" in used) == ["__init__"]
    reached, todo = set(), ["oracles"]
    while todo:
        new = imports[todo.pop()] - reached
        reached |= new
        todo.extend(new)
    assert {"kron", "entropy"}.isdisjoint(reached)


def _benchmark_names() -> set[str]:
    """Every <name> that perfbench reads as mvdeg.<name>, off the module or a
    variable or attribute that holds it (``mvdeg.cli``, ``self.mvdeg.generate``)."""
    names = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Attribute):
                continue
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == "mvdeg") or (
                isinstance(owner, ast.Attribute) and owner.attr == "mvdeg"
            ):
                names.add(node.attr)
    return names


def _benchmark_layers() -> tuple[str, ...]:
    """The LAYERS tuple of perfbench/tracer.py, read without importing it."""
    for node in ast.parse((PERFBENCH / "tracer.py").read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def _layer_resolves(layer: str) -> bool:
    """Whether the tracer can wrap a layer: a function or classmethod defined on
    the module or class its dotted path names under mvdeg."""
    module, *path = layer.split(".")
    try:
        owner = importlib.import_module(f"mvdeg.{module}")
        for name in path[:-1]:
            owner = getattr(owner, name)
        raw = vars(owner)[path[-1]]
    except (ImportError, AttributeError, KeyError):
        return False
    return isinstance(raw, classmethod) or callable(raw)


def test_every_name_the_benchmark_uses_resolves():
    names = _benchmark_names()
    assert names
    missing = [
        name for name in sorted(names)
        if not hasattr(mvdeg, name) and importlib.util.find_spec(f"mvdeg.{name}") is None
    ]
    assert missing == []


def test_every_traced_layer_resolves():
    layers = _benchmark_layers()
    assert layers
    assert [layer for layer in layers if not _layer_resolves(layer)] == []


def test_importing_the_package_and_its_cli_loads_no_scipy():
    # scipy serves only the class map's ndtr fallback, which imports it on first use
    code = "import sys, mvdeg, mvdeg.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    path = [str(SOURCE.parent), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    ).stdout
    assert out.split() == ["[]"]
