import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import scorefield

MODULES = sorted(m.name for m in pkgutil.iter_modules(scorefield.__path__))


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
