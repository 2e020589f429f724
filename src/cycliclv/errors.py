"""Exception types raised across the package.

All indices reported by these exceptions are 1-based, matching the
coordinate labels x1..xn used everywhere in the public interface.
"""

from __future__ import annotations

__all__ = [
    "CyclicLVError",
    "InputError",
    "ZeroParameter",
    "IntegrationAborted",
    "PositivityBreached",
    "NonFiniteState",
    "IntegralOutOfRange",
    "StepUnderflow",
    "StepLimitReached",
]


class CyclicLVError(Exception):
    """Base class for every error raised by this package."""


class InputError(CyclicLVError, ValueError):
    """A refused rate, state, sample set, setting, spec file or flag (exit code 2)."""


class ZeroParameter(InputError):
    """A rate parameter is zero (every k_i must be nonzero)."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"rate parameter k{index} is zero; all rates must be nonzero")


class IntegrationAborted(CyclicLVError):
    """Base for runtime integration failures at time ``t``.

    ``trajectory`` is None until sim.integrate, just before raising, sets it
    to the sim.Trajectory of every accepted state before the failure.
    """

    trajectory = None

    def __init__(self, t: float, message: str):
        self.t = t
        super().__init__(f"{message} at t={t:.17g}")


class PositivityBreached(IntegrationAborted):
    """A coordinate fell below sim.POSITIVITY_FLOOR during integration."""

    def __init__(self, t: float, coordinate: int):
        self.coordinate = coordinate
        super().__init__(t, f"coordinate x{coordinate} fell below the positivity floor")


class NonFiniteState(IntegrationAborted):
    """A coordinate became NaN or infinite during integration."""

    def __init__(self, t: float, coordinate: int):
        self.coordinate = coordinate
        super().__init__(t, f"coordinate x{coordinate} became non-finite")


class IntegralOutOfRange(IntegrationAborted):
    """A first integral's value or drift left the float range during integration."""

    def __init__(self, t: float, integral: int):
        self.integral = integral
        super().__init__(t, f"integral H{integral} left the float range")


class StepUnderflow(IntegrationAborted):
    """The adaptive step size fell below sim.MIN_STEP."""

    def __init__(self, t: float, step: float):
        self.step = step
        super().__init__(t, f"adaptive step {step:.17g} fell below the minimum")


class StepLimitReached(IntegrationAborted):
    """An adaptive run accepted sim.MAX_STEPS steps before reaching t_end."""

    def __init__(self, t: float, steps: int):
        self.steps = steps
        super().__init__(t, f"adaptive run reached the limit of {steps} steps")

