"""Triangular interacting diffusions with exponential barrier repulsion.

A simulator, Skorokhod reflection toolkit, action (rate) functional, path
optimizer, and Monte Carlo experiment layer for the scaled triangular SDE
system in which each particle is pushed off the two particles one level
above it, together with the limiting one-sided reflection picture.

Each module's __all__ is the one list of its public names; the package
re-exports them all.
"""

from . import mc, model, noise, rate, sde, skorokhod, varopt
from .model import *  # noqa: F401,F403
from .noise import *  # noqa: F401,F403
from .sde import *  # noqa: F401,F403
from .skorokhod import *  # noqa: F401,F403
from .rate import *  # noqa: F401,F403
from .varopt import *  # noqa: F401,F403
from .mc import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (model, noise, sde, skorokhod, rate, varopt, mc)
    for name in module.__all__
]
