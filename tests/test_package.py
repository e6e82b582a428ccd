"""The package namespace re-exports each module's public names once;
importing it loads numpy but neither scipy nor concurrent.futures, and a
small ldp_slope call loads no numpy.ma module that numpy had not."""

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


def _loaded_in_child(code):
    """The stdout of code, run in a fresh interpreter on this checkout."""
    src = os.path.dirname(os.path.dirname(whittaker2d.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_import_loads_no_scipy():
    # scipy is imported only inside brute_force_local_rate, the one caller
    code = ("import sys, whittaker2d, whittaker2d.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert _loaded_in_child(code) == "[]"


def test_import_loads_no_concurrent_futures():
    # imported only where a tile pool, a draw thread or an n_workers pool
    # is made
    code = ("import sys, whittaker2d, whittaker2d.cli; "
            "print([m for m in sys.modules "
            "if m.split('.')[0] == 'concurrent'])")
    assert _loaded_in_child(code) == "[]"


def test_ldp_slope_loads_no_numpy_ma():
    # np.unique imports numpy.ma on its first call; some numpy versions
    # load it at import already
    code = """if True:
        import sys
        import numpy as np
        before = set(sys.modules)
        from whittaker2d import (ModelConfig, PathBundle, TimeGrid,
                                 TriangularConfiguration, ldp_slope)
        grid = TimeGrid(0.0, 1.0, 50)
        zero = TriangularConfiguration.zeros(1)
        phi = PathBundle.linear(1, grid, zero,
                                TriangularConfiguration(1, np.array([0.5])))
        ldp_slope(ModelConfig(N=1, gamma=8.0, initial=zero), phi, 0.25,
                  [8.0, 16.0, 32.0], 200, seed=1)
        print(sorted(m for m in set(sys.modules) - before
                     if m.startswith("numpy.ma")))
    """
    assert _loaded_in_child(code) == "[]"
