import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import scorefield

MODULES = sorted(m.name for m in pkgutil.iter_modules(scorefield.__path__))
ROOT = Path(__file__).resolve().parent.parent


def test_modules_declare_their_names():
    declared = [n for n in MODULES if hasattr(importlib.import_module(f"scorefield.{n}"), "__all__")]
    assert len(declared) >= 8, declared


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # A name left in __all__ after its definition is gone breaks
    # ``from scorefield.<module> import *``.
    mod = importlib.import_module(f"scorefield.{name}")
    exported = list(getattr(mod, "__all__", ()))
    assert [n for n in exported if not hasattr(mod, n)] == []
    namespace = {}
    exec(f"from scorefield.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_package_imports_in_a_fresh_process():
    src = str(Path(scorefield.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", "import scorefield; print(scorefield.__version__)"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == scorefield.__version__


def unused_imports(path: Path) -> list[str]:
    """Names a file imports and never references, as "file:line name".

    ``__future__`` imports, names listed in the file's ``__all__`` and the
    package ``__init__``'s re-exports count as used.
    """
    if path == ROOT / "src" / "scorefield" / "__init__.py":
        return []
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    files = [f for d in ("src/scorefield", "tests", "demos") for f in sorted((ROOT / d).glob("*.py"))]
    assert len(files) >= 30
    assert [u for f in files for u in unused_imports(f)] == []


# Public names with no caller in src/, demos/, perfbench/ or README's python
# blocks, each kept for a reason.
UNCALLED_KEPT = {
    "xi": "the paper's xi formula beside psi, audited and kept",
    "rotation_correction": "the paper's rotation formula, audited and kept",
    "trajectory_deviation": "the skip-budget study in ROADMAP reads it",
    "load_trajectory_csv": "the reader of the trajectory format README documents",
}


def _reads(node) -> set[str]:
    """Every name and attribute a syntax tree reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def _readme_python() -> list[ast.Module]:
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return [ast.parse(block) for block in blocks]


def uncalled_public_names() -> list[str]:
    """``module.name`` for each ``__all__`` entry that nothing reads: no other
    src/ module, no statement of its own module beside its definition, no
    demo, no perfbench file and no README python block."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted((ROOT / "src" / "scorefield").glob("*.py"))}
    outside = [ast.parse(path.read_text(), str(path))
               for d in ("demos", "perfbench") for path in sorted((ROOT / d).glob("*.py"))]
    read_outside = set().union(*map(_reads, outside + _readme_python()))
    uncalled = []
    for name in MODULES:
        exported = getattr(importlib.import_module(f"scorefield.{name}"), "__all__", ())
        elsewhere = set().union(*(_reads(tree) for other, tree in trees.items() if other != name))
        for public in exported:
            own = set().union(*(_reads(stmt) for stmt in trees[name].body
                                if getattr(stmt, "name", None) != public))
            if public not in own | elsewhere | read_outside:
                uncalled.append(f"{name}.{public}")
    return uncalled


def test_every_public_name_has_a_caller():
    assert len(_readme_python()) >= 1
    uncalled = uncalled_public_names()
    assert {u.split(".")[1] for u in uncalled} == set(UNCALLED_KEPT), uncalled


# Public methods and properties of exported classes with no reader outside
# their own definition, each kept for a reason.
UNREAD_MEMBERS_KEPT = {
    "posterior_weights": "tests pin the softmax limits through it; directions 3, 4 and 13 build on it",
    "covariance": "the dense reference that tests compare the compact forms against",
    "from_cloud": "the far-field law of acceptance criterion 4 is stated against it",
}


def _attribute_reads(trees) -> list[str]:
    return [n.attr for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]


def _member_defs(trees) -> dict[str, ast.AST]:
    """``Class.member`` -> definition node, for each public method or property
    that a class in some ``__all__`` defines or inherits from a scorefield class."""
    defs = {}
    for name in MODULES:
        mod = importlib.import_module(f"scorefield.{name}")
        for public in getattr(mod, "__all__", ()):
            cls = getattr(mod, public)
            if not isinstance(cls, type):
                continue
            for klass in cls.__mro__:
                if not klass.__module__.startswith("scorefield."):
                    continue
                body = next(n for n in ast.walk(trees[klass.__module__.split(".")[1]])
                            if isinstance(n, ast.ClassDef) and n.name == klass.__name__).body
                for node in body:
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                        defs.setdefault(f"{public}.{node.name}", node)
    return defs


def unread_public_members() -> list[str]:
    """``Class.member`` for each public method or property that no attribute
    read names outside its own definition: in src/, demos/, perfbench/ or a
    README python block."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted((ROOT / "src" / "scorefield").glob("*.py"))}
    outside = [ast.parse(path.read_text(), str(path))
               for d in ("demos", "perfbench") for path in sorted((ROOT / d).glob("*.py"))]
    reads = Counter(_attribute_reads(list(trees.values()) + outside + _readme_python()))
    return [member for member, node in _member_defs(trees).items()
            if reads[node.name] <= Counter(_attribute_reads([node]))[node.name]]


def test_every_public_member_has_a_reader():
    unread = unread_public_members()
    assert {u.split(".")[1] for u in unread} == set(UNREAD_MEMBERS_KEPT), unread
