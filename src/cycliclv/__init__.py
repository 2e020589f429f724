"""Exact first integrals of cyclic Lotka-Volterra systems.

The package classifies each system of the cyclic family
dx_i/dt = x_i (k_i x_{i+1} - k_{i-1} x_{i-1}) by the first integrals it
admits, computes monomial-integral exponents two independent ways (exact
nullspace, and closed-form chains walked from lambda_1 = 1 by the recurrence
lambda_{j+2} = k_j lambda_j / k_{j+1}), verifies conservation and independence
symbolically in rational arithmetic, and monitors conservation drift along
numerically integrated trajectories.

The public names are those of each module's ``__all__``; the package
re-exports them all and lists none of them itself. Only ``model`` and
``darboux`` load with the package. A lookup of ``verify`` or ``sim`` loads
that module alone, one of ``verify``'s names loads ``verify``, and one of
``__all__`` or of ``sim``'s names loads both; ``sim`` is the one module that
needs numpy. So computing integrals imports neither, simulating does not
import ``verify``, and exact work never imports numpy.
"""

import importlib

from . import darboux, model
from .darboux import *
from .model import *

__version__ = "0.1.0"


def __getattr__(name: str):
    # tools probe modules for optional dunders; those stay absent without
    # loading anything. "from . import linalg" asks here before it imports
    # linalg, so the names of submodules not re-exported must not load sim
    # and numpy. import_module, unlike "from . import sim", looks up no
    # attribute of this package, so it cannot come back here
    if name in ("cli", "linalg", "_reference") or name.startswith("__") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name in ("sim", "verify"):
        return importlib.import_module(f".{name}", __name__)
    verify = importlib.import_module(".verify", __name__)
    if name in verify.__all__:
        return getattr(verify, name)
    sim = importlib.import_module(".sim", __name__)
    if name == "__all__":
        return darboux.__all__ + model.__all__ + sim.__all__ + verify.__all__
    if name in sim.__all__:
        return getattr(sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
