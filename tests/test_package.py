"""The package namespace re-exports each module's public names once;
importing it loads numpy but neither scipy nor concurrent.futures, the CLI
runs where scipy cannot be imported, and a small ldp_slope call loads no
numpy.ma module that numpy had not."""

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
    # scipy is imported only by the test oracles of whittaker2d._oracles,
    # which neither the package namespace nor the CLI imports
    code = ("import sys, whittaker2d, whittaker2d.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m == 'whittaker2d._oracles'])")
    assert _loaded_in_child(code) == "[]"


def test_cli_runs_without_scipy(tmp_path):
    # as installed without the test extra: any import of scipy fails
    t = [i / 10 for i in range(11)]
    for name, text in (
        ("drv", "t,value\n" + "".join(f"{x},0.0\n" for x in t)),
        ("bar", "t,value\n" + "".join(f"{x},{x - 0.5}\n" for x in t)),
        ("init", "T_1_1\n0.0\n"),
        ("term", "T_1_1\n1.0\n"),
    ):
        (tmp_path / f"{name}.csv").write_text(text)
    d = f"{tmp_path}{os.sep}"
    argvs = [
        ["simulate", "--n", "2", "--dt", "0.01", "--out", d + "run.csv"],
        ["rate", "--bundle", d + "run.csv", "--out", d + "rate.csv"],
        ["reflect", "--driver", d + "drv.csv", "--barrier", d + "bar.csv",
         "--out", d + "ref.csv"],
        ["optimize", "--init", d + "init.csv", "--terminal", d + "term.csv",
         "--m", "8", "--out", d + "opt.csv"],
    ]
    code = f"""if True:
        import sys
        sys.modules["scipy"] = None
        from whittaker2d.cli import main
        print([main(argv) for argv in {argvs!r}])
    """
    assert _loaded_in_child(code).splitlines()[-1] == "[0, 0, 0, 0]"


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
