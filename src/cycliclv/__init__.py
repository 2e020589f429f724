"""Exact first integrals of cyclic Lotka-Volterra systems.

The package classifies each system of the cyclic family
dx_i/dt = x_i (k_i x_{i+1} - k_{i-1} x_{i-1}) by the first integrals it
admits, computes monomial-integral exponents two independent ways (exact
nullspace, and closed-form chains walked from lambda_1 = 1 by the recurrence
lambda_{j+2} = k_j lambda_j / k_{j+1}), verifies conservation and independence
symbolically in rational arithmetic, and monitors conservation drift along
numerically integrated trajectories.

The public names are those of each module's ``__all__``; the package
re-exports them all and lists none of them itself.
"""

from . import darboux, model, sim, verify
from .darboux import *
from .model import *
from .sim import *
from .verify import *

__version__ = "0.1.0"

__all__ = darboux.__all__ + model.__all__ + sim.__all__ + verify.__all__
