"""Trajectory integration with conservation-drift monitoring.

Two drivers are provided: classic fixed-step fourth-order Runge-Kutta and
the embedded Fehlberg 4(5) pair with proportional step control. Every
accepted step emits a record holding the state, the value of each first
integral in the basis, and its relative drift from the initial value.

The positive orthant is invariant for the true flow; a coordinate crossing
zero can only be a numerical artifact, so integration halts with
PositivityBreached as soon as any coordinate falls below a configurable
floor. Runtime aborts carry the partial trajectory on the exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .darboux import IntegralBasis, integral_basis
from .errors import (
    DimensionMismatch,
    NonPositiveInitialState,
    NotMeasurable,
    PositivityBreached,
    StepUnderflow,
)
from .model import CyclicLVSystem

__all__ = [
    "Method",
    "IntegratorConfig",
    "TrajectoryRecord",
    "integrate",
    "convergence_order",
]

# denominator floor for the relative drift of near-zero integrals
DRIFT_DENOMINATOR_FLOOR = 1e-300


class Method(Enum):
    RK4_FIXED = "rk4"
    ADAPTIVE_RK45 = "rk45"


@dataclass(frozen=True)
class IntegratorConfig:
    """Stepper selection and control knobs.

    ``step`` is the fixed step for RK4 and the initial trial step for the
    adaptive pair; ``rel_tol``/``abs_tol``/``min_step`` apply to the
    adaptive pair only. Any state coordinate dropping below
    ``positivity_floor`` aborts the run. Every field but ``method`` must be
    finite and positive; NaN and infinity raise ValueError.
    """

    method: Method = Method.RK4_FIXED
    step: float = 1e-3
    t_end: float = 10.0
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    min_step: float = 1e-10
    positivity_floor: float = 1e-12

    def __post_init__(self):
        for name in (
            "step", "t_end", "rel_tol", "abs_tol", "min_step", "positivity_floor"
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class TrajectoryRecord:
    """One accepted step: time, state, integral values, relative drift."""

    t: float
    x: np.ndarray
    integral_values: tuple[float, ...]
    relative_drift: tuple[float, ...]


def _rhs(sys: CyclicLVSystem) -> Callable[[np.ndarray], np.ndarray]:
    n = sys.n
    k = np.array([float(v) for v in sys.rates])
    ip1 = np.roll(np.arange(n), -1)
    im1 = np.roll(np.arange(n), 1)
    k_im1 = k[im1]

    def f(x: np.ndarray) -> np.ndarray:
        return x * (k * x[ip1] - k_im1 * x[im1])

    return f


def _evaluators(basis: IntegralBasis) -> list[Callable[[np.ndarray], float]]:
    evals: list[Callable[[np.ndarray], float]] = [lambda x: float(np.sum(x))]
    for mono in basis.monomials:
        lam = np.array([float(e) for e in mono.exponents])
        support = lam != 0.0

        def value(x: np.ndarray, lam=lam[support], support=support) -> float:
            return float(math.exp(np.dot(lam, np.log(x[support]))))

        evals.append(value)
    return evals


class _Monitor:
    """Builds records and enforces the positivity floor."""

    def __init__(self, basis: IntegralBasis, x0: np.ndarray, floor: float):
        self._evals = _evaluators(basis)
        self._floor = floor
        initial = tuple(ev(x0) for ev in self._evals)
        self._baseline = initial
        self._dens = tuple(max(abs(v), DRIFT_DENOMINATOR_FLOOR) for v in initial)
        self.records: list[TrajectoryRecord] = [
            TrajectoryRecord(0.0, x0.copy(), initial, (0.0,) * len(initial))
        ]

    def accept(self, t: float, x: np.ndarray) -> None:
        low = int(np.argmin(x))
        if x[low] < self._floor:
            raise PositivityBreached(t, low + 1, self.records)
        values = tuple(ev(x) for ev in self._evals)
        drift = tuple(
            abs(v - v0) / den
            for v, v0, den in zip(values, self._baseline, self._dens)
        )
        self.records.append(TrajectoryRecord(t, x.copy(), values, drift))


def _validate_x0(sys: CyclicLVSystem, x0: Sequence) -> np.ndarray:
    x = np.asarray([float(v) for v in x0], dtype=float)
    if x.shape != (sys.n,):
        raise DimensionMismatch(
            f"initial state has length {len(x)}, system has n={sys.n}"
        )
    # NaN fails every comparison, so test for the one good range, not x <= 0
    if not np.all(np.isfinite(x) & (x > 0)):
        raise NonPositiveInitialState(
            "initial state must be finite and strictly positive"
        )
    return x


def _rk4_step(f, x: np.ndarray, h: float) -> np.ndarray:
    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Fehlberg 4(5): the fourth-order solution is propagated, the fifth-order
# companion supplies the local error estimate.
_FEHLBERG_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3554 / 2565, 1859 / 4104, -11 / 40),
)
_FEHLBERG_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
_FEHLBERG_ERR = (1 / 360, 0.0, -128 / 4275, -2197 / 75240, 1 / 50, 2 / 55)


def _rkf45_step(f, x: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    stages = [f(x)]
    for row in _FEHLBERG_A[1:]:
        xs = x + h * sum(a * s for a, s in zip(row, stages))
        stages.append(f(xs))
    x_new = x + h * sum(b * s for b, s in zip(_FEHLBERG_B4, stages))
    err = h * sum(e * s for e, s in zip(_FEHLBERG_ERR, stages))
    return x_new, err


def integrate(
    sys: CyclicLVSystem,
    x0: Sequence,
    cfg: IntegratorConfig,
    basis: IntegralBasis,
) -> list[TrajectoryRecord]:
    """Integrate from a strictly positive initial state up to cfg.t_end.

    Returns a record per accepted step, the initial state included. Raises
    DimensionMismatch for an x0 of the wrong length and
    NonPositiveInitialState for a NaN, infinite or nonpositive entry, both
    up front, then PositivityBreached if a coordinate
    falls below the floor, and StepUnderflow if the adaptive controller
    cannot satisfy its tolerances above min_step; the last two carry the
    records accumulated so far.
    """
    x = _validate_x0(sys, x0)
    f = _rhs(sys)
    monitor = _Monitor(basis, x, cfg.positivity_floor)

    if cfg.method is Method.RK4_FIXED:
        h = cfg.step
        n_full = int(math.floor(cfg.t_end / h + 1e-9))
        for i in range(n_full):
            x = _rk4_step(f, x, h)
            monitor.accept((i + 1) * h, x)
        t = n_full * h
        remainder = cfg.t_end - t
        if remainder > 1e-12 * max(1.0, abs(cfg.t_end)):
            x = _rk4_step(f, x, remainder)
            monitor.accept(cfg.t_end, x)
        return monitor.records

    t = 0.0
    h = min(cfg.step, cfg.t_end)
    while t < cfg.t_end * (1.0 - 1e-14):
        h = min(h, cfg.t_end - t)
        x_new, err = _rkf45_step(f, x, h)
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(x), np.abs(x_new))
        enorm = float(np.max(np.abs(err) / scale))
        factor = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** -0.2))
        if enorm <= 1.0:
            t += h
            x = x_new
            monitor.accept(t, x)
            h *= factor
        else:
            h *= factor
            if h < cfg.min_step:
                raise StepUnderflow(t, h, monitor.records)
    return monitor.records


def convergence_order(
    sys: CyclicLVSystem,
    x0: Sequence,
    t_end: float,
    steps: tuple[float, float],
    integral_index: int = 0,
) -> float:
    """Empirical order of the fixed-step scheme from drift at two resolutions.

    Integrates with RK4 at the coarse and fine steps (intended as h and
    h/2) and returns log(drift_coarse / drift_fine) / log(coarse / fine)
    for the selected integral, index 0 being the linear one. Raises
    NotMeasurable when either drift sits at roundoff level (below 100x
    machine epsilon), where the ratio says nothing about the scheme.

    Runge-Kutta steps conserve the linear integral exactly in real
    arithmetic, so its drift is pure roundoff at any step size and the
    order is typically NotMeasurable at index 0; a monomial integral
    (index 1 and up) drifts at the scheme's true order.
    """
    h_coarse, h_fine = steps
    if h_coarse <= 0 or h_fine <= 0:
        raise ValueError("steps must be positive")
    if h_fine >= h_coarse:
        raise ValueError("the second step must be the finer one")
    basis = integral_basis(sys)
    if not 0 <= integral_index <= len(basis.monomials):
        raise IndexError(f"integral index {integral_index} outside the basis")
    drifts = []
    for h in (h_coarse, h_fine):
        cfg = IntegratorConfig(method=Method.RK4_FIXED, step=h, t_end=t_end)
        records = integrate(sys, x0, cfg, basis)
        drifts.append(max(r.relative_drift[integral_index] for r in records))
    floor = 100.0 * np.finfo(float).eps
    if drifts[0] <= floor or drifts[1] <= floor:
        raise NotMeasurable(
            f"drifts {drifts[0]:.3g}, {drifts[1]:.3g} are roundoff-dominated"
        )
    return math.log(drifts[0] / drifts[1]) / math.log(h_coarse / h_fine)
