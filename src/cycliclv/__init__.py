"""Exact first integrals of cyclic Lotka-Volterra systems.

The package classifies each system of the cyclic family
dx_i/dt = x_i (k_i x_{i+1} - k_{i-1} x_{i-1}) by the first integrals it
admits, computes monomial-integral exponents two independent ways (exact
nullspace, and closed-form chains walked from lambda_1 = 1 by the recurrence
lambda_{j+2} = k_j lambda_j / k_{j+1}), verifies conservation and independence
symbolically in rational arithmetic, and monitors conservation drift along
numerically integrated trajectories.

The public names are those of each module's ``__all__``; the package
re-exports them all and lists none of them itself. The exact modules
``darboux``, ``model`` and ``verify`` load with the package. ``sim``, the one
module that needs numpy, loads on the first lookup of ``__all__``, of ``sim``
or of one of ``sim.__all__``'s names, so exact work never imports numpy.
"""

import importlib

from . import darboux, model, verify
from .darboux import *
from .model import *
from .verify import *

__version__ = "0.1.0"


def __getattr__(name: str):
    # tools probe modules for optional dunders; those stay absent without
    # loading sim. import_module, unlike "from . import sim", looks up no
    # attribute of this package, so it cannot come back here
    if name == "__all__" or not name.startswith("__"):
        sim = importlib.import_module(".sim", __name__)
        if name == "__all__":
            return darboux.__all__ + model.__all__ + sim.__all__ + verify.__all__
        if name == "sim":
            return sim
        if name in sim.__all__:
            return getattr(sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
