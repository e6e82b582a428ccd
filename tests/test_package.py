"""The package namespace re-exports each module's public names once."""

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
