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
``darboux`` load with the package. ``verify`` loads on the first lookup of
``verify`` or of one of its names, and ``sim``, the one module that needs
numpy, on the first lookup of ``__all__``, of ``sim`` or of one of its names.
So computing integrals imports neither, and exact work never imports numpy.
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
    if name in ("cli", "linalg") or name.startswith("__") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    verify = importlib.import_module(".verify", __name__)
    if name == "verify":
        return verify
    if name in verify.__all__:
        return getattr(verify, name)
    sim = importlib.import_module(".sim", __name__)
    if name == "__all__":
        return darboux.__all__ + model.__all__ + sim.__all__ + verify.__all__
    if name == "sim":
        return sim
    if name in sim.__all__:
        return getattr(sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
