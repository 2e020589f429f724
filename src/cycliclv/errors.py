"""Exception types raised across the package.

All indices reported by these exceptions are 1-based, matching the
coordinate labels x1..xn used everywhere in the public interface.
"""

from __future__ import annotations

__all__ = [
    "CyclicLVError",
    "DimensionTooSmall",
    "ZeroParameter",
    "DimensionMismatch",
    "UnsupportedDimension",
    "DomainViolation",
    "EmptySampleSet",
    "ZeroCoordinate",
    "NonPositiveInitialState",
    "FloatOutOfRange",
    "InitialIntegralOutOfRange",
    "IntegrationAborted",
    "PositivityBreached",
    "NonFiniteState",
    "IntegralOutOfRange",
    "StepUnderflow",
    "StepLimitReached",
]


class CyclicLVError(Exception):
    """Base class for every error raised by this package."""


# -- system construction / model ------------------------------------------

class DimensionTooSmall(CyclicLVError):
    """Fewer than two rate parameters were supplied."""


class ZeroParameter(CyclicLVError):
    """A rate parameter is zero (every k_i must be nonzero)."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"rate parameter k{index} is zero; all rates must be nonzero")


class DimensionMismatch(CyclicLVError):
    """A state or exponent vector does not match the system dimension."""


# -- exponent machinery -----------------------------------------------------

class UnsupportedDimension(CyclicLVError):
    """The exponent linear system is not defined for n = 2."""


class DomainViolation(CyclicLVError):
    """A state lies outside the domain of the requested evaluation."""


# -- verification ------------------------------------------------------------

class EmptySampleSet(CyclicLVError):
    """A pointwise check was invoked with no sample points."""


class ZeroCoordinate(CyclicLVError):
    """A sample point has a zero coordinate where nonzero is required."""


# -- simulation ---------------------------------------------------------------

class NonPositiveInitialState(CyclicLVError):
    """Every initial coordinate must be finite and at least sim.POSITIVITY_FLOOR."""


class FloatOutOfRange(CyclicLVError):
    """A nonzero rate or exponent has no finite nonzero float; refused up front.

    ``what`` names it, e.g. "rate k1" or "exponent of x2 in H3".
    """

    def __init__(self, what: str):
        super().__init__(
            f"{what} has no finite nonzero float (it overflows or rounds to zero)"
        )


class InitialIntegralOutOfRange(CyclicLVError):
    """A first integral's value at x0 leaves the float range; refused up front.

    ``integral`` is the 1-based position of the integral: 1 for H1, j + 1
    for the j-th monomial. sim.integrate states the range.
    """

    def __init__(self, integral: int):
        self.integral = integral
        super().__init__(
            f"integral H{integral} is outside the float range at the initial state"
        )


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

