"""The package namespace re-exports each module's public names once, and
importing it loads numpy but not scipy."""

import os
import subprocess
import sys

import whittaker2d
from whittaker2d import mc, model, noise, rate, sde, skorokhod, varopt


def test_every_export_resolves_once():
    names = whittaker2d.__all__
    assert len(names) == len(set(names))
    modules = (model, noise, sde, skorokhod, rate, varopt, mc)
    assert set(names) == {"__version__"}.union(*(m.__all__ for m in modules))
    for module in modules:
        for name in module.__all__:
            assert getattr(whittaker2d, name) is getattr(module, name), name


def test_import_loads_no_scipy():
    # scipy is imported only inside brute_force_local_rate, the one caller
    code = ("import sys, whittaker2d, whittaker2d.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    src = os.path.dirname(os.path.dirname(whittaker2d.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
