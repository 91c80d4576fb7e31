"""Every name a package module imports is used in it, every private
top-level function or class of the package is used by the package, and the
package's __all__ lists exactly the names its __init__ imports.

The only exceptions to the first two are the names perfbench/tracer.py
patches (its TARGETS), which a module may import, or define, for the tracer
alone. Helpers only the tests need live under tests/.

Importing the package generates no code: no module calls exec, eval or
compile, and the CLI's import does not pull in dataclasses, whose class
builder exec-compiles five methods per class.
"""

import ast
import os
import subprocess
import sys
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


def referenced_names(source: str) -> set[str]:
    """Names a module's code looks up, as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {a.name for a in node.names}
    return names


def private_definitions(source: str) -> set[str]:
    """Top-level functions and classes whose names start with one underscore."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def test_private_definitions_are_found():
    source = "def _a(): pass\nclass _B: pass\ndef c(): _a()\ndef __d__(): pass\n"
    assert private_definitions(source) == {"_a", "_B"}
    assert {"_a", "c"} <= referenced_names(source + "from x import c\n")
    assert "_B" not in referenced_names(source)


def test_private_definitions_are_used_by_the_package():
    sources = {p.stem: p.read_text() for p in (ROOT / "src" / "fucik_branch").glob("*.py")}
    used = set().union(*map(referenced_names, sources.values()))
    unused = {(mod, name) for mod, source in sources.items()
              for name in private_definitions(source) - used}
    assert unused - tracer_targets() == set()


def test_all_is_exactly_what_init_imports():
    tree = ast.parse((ROOT / "src" / "fucik_branch" / "__init__.py").read_text())
    imported = {a.asname or a.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert len(set(fucik_branch.__all__)) == len(fucik_branch.__all__)
    assert set(fucik_branch.__all__) == imported
    for name in fucik_branch.__all__:
        assert getattr(fucik_branch, name) is not None


def test_every_exported_name_is_used():
    # a public name that no package module and no test looks up is dead
    # surface; __init__ itself, which imports every one, does not count
    sources = [p.read_text() for p in MODULES]
    sources += [p.read_text() for p in (ROOT / "tests").glob("*.py")]
    used = set().union(*map(referenced_names, sources))
    assert set(fucik_branch.__all__) - used == set()


def code_generating_calls(source: str) -> set[str]:
    return {node.func.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("exec", "eval", "compile")}


def test_code_generating_calls_are_found():
    assert code_generating_calls("exec('x = 1')\ny = eval('2')\nre.compile('a')\n") == {
        "exec", "eval"}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "fucik_branch").glob("*.py")),
                         ids=lambda p: p.stem)
def test_module_generates_no_code(path):
    assert code_generating_calls(path.read_text()) == set()


def test_cli_import_leaves_dataclasses_out():
    probe = "import sys, fucik_branch.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout == "False\n"
