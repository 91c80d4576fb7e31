"""Every name a package module imports is used in it, and the package's
__all__ lists exactly the names its __init__ imports.

The only exceptions to the first are the names perfbench/tracer.py patches in
a module's namespace (its TARGETS), which a module may import for the tracer
alone.
"""

import ast
from pathlib import Path

import pytest

import fucik_branch

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "fucik_branch").glob("*.py")
                 if p.name != "__init__.py")


def tracer_targets() -> set[tuple[str, str]]:
    """(module, name) pairs of TARGETS, read from the tracer's source."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return {(mod, name) for mod, name, *_ in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == {"os", "b"}
    assert unused_imports("import os.path\nos.sep\n") == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_its_imports(path):
    allowed = {name for mod, name in tracer_targets() if mod == path.stem}
    assert unused_imports(path.read_text()) - allowed == set()


def test_all_is_exactly_what_init_imports():
    tree = ast.parse((ROOT / "src" / "fucik_branch" / "__init__.py").read_text())
    imported = {a.asname or a.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert len(set(fucik_branch.__all__)) == len(fucik_branch.__all__)
    assert set(fucik_branch.__all__) == imported
    for name in fucik_branch.__all__:
        assert getattr(fucik_branch, name) is not None
