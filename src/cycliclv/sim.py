"""Trajectory integration with conservation-drift monitoring.

Two drivers are provided: classic fixed-step fourth-order Runge-Kutta and
the embedded Fehlberg 4(5) pair with proportional step control. Accepted
states are written into preallocated arrays; one vectorised pass after the
last step gives a Trajectory holding the times, the states, the value of
each first integral in the basis, and its relative drift |H - H(x0)| / H(x0)
from its value at the initial state, which the range rule below keeps a
positive float.

The positive orthant is invariant for the true flow; a coordinate crossing
zero can only be a numerical artifact, so integration halts with
PositivityBreached as soon as any coordinate falls below POSITIVITY_FLOOR,
and with NonFiniteState when one becomes NaN or infinite. The initial state
must meet the same floor, or it is refused with NonPositiveInitialState. Every
value and drift of a row must be finite, and each monomial's
s = lam . log x must lie in LOG_RANGE, so that exp(s) neither overflows nor
underflows: an initial state that breaks this is refused with
InitialIntegralOutOfRange, and a later row ends the run with
IntegralOutOfRange. Runtime aborts carry the partial Trajectory, cut
before the failing row, on the exception. The float work runs with numpy's
floating-point warnings off: an overflow or NaN it meets is reported by one
of these exceptions, not printed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial
from sys import float_info
from typing import Callable, Sequence

import numpy as np

from .darboux import IntegralBasis, integral_basis
from .errors import (
    DimensionMismatch,
    FloatOutOfRange,
    InitialIntegralOutOfRange,
    IntegralOutOfRange,
    NonFiniteState,
    NonPositiveInitialState,
    NotMeasurable,
    PositivityBreached,
    StepLimitReached,
    StepUnderflow,
    TooManySteps,
)
from .model import CyclicLVSystem, structure_matrix

__all__ = [
    "Method",
    "IntegratorConfig",
    "Trajectory",
    "integrate",
    "convergence_order",
]

# The range of s = lam . log x whose exp(s) is a finite normal float.
LOG_RANGE = (math.log(float_info.min), math.log(float_info.max))

# Most steps one run may take. A fixed-step run that needs more is refused
# before any array is allocated; an adaptive run that reaches it aborts.
MAX_STEPS = 10_000_000

# Every coordinate of every row, x0 included, must stay at or above this.
POSITIVITY_FLOOR = 1e-12

# The adaptive pair's error tolerances, and the step below which it gives up.
REL_TOL = 1e-9
ABS_TOL = 1e-12
MIN_STEP = 1e-10

# Rows an adaptive run allocates first; the arrays double when full.
_ADAPTIVE_ROWS = 1024


class Method(Enum):
    RK4_FIXED = "rk4"
    ADAPTIVE_RK45 = "rk45"


@dataclass(frozen=True)
class IntegratorConfig:
    """The stepper, its step and the end time.

    ``step`` is the fixed step for RK4 and the initial trial step for the
    adaptive pair, which controls it with REL_TOL, ABS_TOL and MIN_STEP.
    ``method`` takes a Method or its value ("rk4", "rk45"). ``step`` and
    ``t_end`` must be finite and positive. Anything else, NaN and infinity
    included, raises ValueError.
    """

    method: Method = Method.RK4_FIXED
    step: float = 1e-3
    t_end: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "method", Method(self.method))
        for name in ("step", "t_end"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Every accepted state in time order, the initial state first.

    ``t`` has shape (rows,) and ``x`` shape (rows, n). ``values`` and
    ``drift`` have shape (rows, 1 + m): column 0 is the linear integral H1,
    column j the j-th monomial of the basis, and ``drift`` is each value's
    relative distance from row 0.
    """

    t: np.ndarray
    x: np.ndarray
    values: np.ndarray
    drift: np.ndarray


def _floats(qs: Sequence[Fraction], what: Callable[[int], str]) -> np.ndarray:
    """The floats of exact rationals, each nonzero one finite and nonzero.

    float(q) raises OverflowError past float_info.max and rounds a q below
    the smallest subnormal to 0.0; either raises FloatOutOfRange naming
    what(i) for the 1-based position i.
    """
    out = []
    for i, q in enumerate(qs, start=1):
        try:
            v = float(q)
        except OverflowError:
            raise FloatOutOfRange(what(i)) from None
        if v == 0.0 and q != 0:
            raise FloatOutOfRange(what(i))
        out.append(v)
    return np.array(out, dtype=float)


def _rhs(sys: CyclicLVSystem) -> Callable[[np.ndarray], np.ndarray]:
    """The field x * (A x) in floats, A the structure matrix.

    Each row's two terms stay two products; summing them changes n = 2's bits.
    Raises FloatOutOfRange for a rate whose float overflows or rounds to zero.
    """
    first, second = zip(*structure_matrix(sys))
    j1, j2 = (np.array([j for j, _ in terms]) for terms in (first, second))
    # row i's first entry is k_i, so this column holds every rate once and
    # the second column's -k_{i-1} then always has a float
    c1 = _floats([c for _, c in first], lambda i: f"rate k{i}")
    c2 = np.array([float(c) for _, c in second])

    def f(x: np.ndarray) -> np.ndarray:
        return x * (c1 * x[j1] + c2 * x[j2])

    return f


def _values(x: np.ndarray, basis: IntegralBasis) -> tuple[np.ndarray, np.ndarray]:
    """H1 and each monomial for every row, and where they leave the float range.

    Returns the values, shape (rows, 1 + m), and a mask of the same shape
    that marks an H1 that is not finite and a monomial whose
    s = lam . log x lies outside LOG_RANGE; a masked monomial's value is a
    placeholder. Each value has the same bits as evaluating that state
    alone with sum(x) and exp(lam . log x). Batched forms (x @ lam, np.exp)
    round differently, and np.dot's rounding depends on the alignment of
    its operands, so each row of logs is copied to a fresh array before the
    dot. Raises FloatOutOfRange for an exponent whose float overflows or
    rounds to zero.
    """
    h1 = x.sum(axis=1)
    columns, outside = [h1], [~np.isfinite(h1)]
    for j, mono in enumerate(basis.monomials, start=2):
        lam = _floats(mono.exponents, lambda i: f"exponent of x{i} in H{j}")
        support = lam != 0.0
        lam = lam[support]
        logs = np.log(x[:, support])
        s = np.fromiter(
            (np.dot(lam, row.copy()) for row in logs), dtype=float, count=len(logs)
        )
        inside = (s >= LOG_RANGE[0]) & (s <= LOG_RANGE[1])
        outside.append(~inside)
        columns.append(
            np.fromiter(
                map(math.exp, np.where(inside, s, 0.0).tolist()),
                dtype=float,
                count=len(s),
            )
        )
    return np.column_stack(columns), np.column_stack(outside)


def _validate_x0(sys: CyclicLVSystem, x0: Sequence) -> np.ndarray:
    x = np.asarray([float(v) for v in x0], dtype=float)
    if x.shape != (sys.n,):
        raise DimensionMismatch(
            f"initial state has length {len(x)}, system has n={sys.n}"
        )
    # NaN fails every comparison, so test for the one good range
    if not np.all(np.isfinite(x) & (x >= POSITIVITY_FLOOR)):
        raise NonPositiveInitialState(
            "initial state must be finite and at least the positivity floor "
            f"{POSITIVITY_FLOOR:g}"
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


def _run_rk4(f, x: np.ndarray, cfg: IntegratorConfig):
    """Fixed-step RK4 into arrays sized up front; returns (t, x, None)."""
    h = cfg.step
    # the negated test also refuses an infinite ratio, before floor() sees it
    if not cfg.t_end / h <= MAX_STEPS:
        raise TooManySteps(
            f"t_end/step = {cfg.t_end / h:.17g} exceeds the limit of {MAX_STEPS} steps"
        )
    n_full = int(math.floor(cfg.t_end / h + 1e-9))
    remainder = cfg.t_end - n_full * h
    tail = remainder > 1e-12 * cfg.t_end
    steps = n_full + tail
    t = np.arange(steps + 1) * h
    if tail:
        t[-1] = cfg.t_end
    xs = np.empty((steps + 1, x.size))
    xs[0] = x
    for i in range(1, steps + 1):
        x = _rk4_step(f, x, h if i <= n_full else remainder)
        xs[i] = x
        if not x.min() >= POSITIVITY_FLOOR:
            return t[: i + 1], xs[: i + 1], None
    return t, xs, None


def _run_rkf45(f, x: np.ndarray, cfg: IntegratorConfig):
    """Fehlberg 4(5) into arrays that double when full; returns (t, x, abort)."""
    ts = np.empty(min(_ADAPTIVE_ROWS, MAX_STEPS + 1))
    xs = np.empty((len(ts), x.size))
    ts[0] = 0.0
    xs[0] = x
    rows = 1
    t = 0.0
    h = min(cfg.step, cfg.t_end)
    abort = None
    while t < cfg.t_end * (1.0 - 1e-14):
        h = min(h, cfg.t_end - t)
        x_new, err = _rkf45_step(f, x, h)
        scale = ABS_TOL + REL_TOL * np.maximum(np.abs(x), np.abs(x_new))
        enorm = float(np.max(np.abs(err) / scale))
        factor = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** -0.2))
        if enorm <= 1.0:
            t += h
            x = x_new
            if rows == len(ts):
                if rows > MAX_STEPS:
                    abort = partial(StepLimitReached, t, MAX_STEPS)
                    break
                more = min(rows, MAX_STEPS + 1 - rows)
                ts = np.concatenate((ts, np.empty(more)))
                xs = np.concatenate((xs, np.empty((more, x.size))))
            ts[rows] = t
            xs[rows] = x
            rows += 1
            if not x.min() >= POSITIVITY_FLOOR:
                break
            h *= factor
        else:
            h *= factor
            if h < MIN_STEP:
                abort = partial(StepUnderflow, t, h)
                break
    return ts[:rows], xs[:rows], abort


def integrate(
    sys: CyclicLVSystem,
    x0: Sequence,
    cfg: IntegratorConfig,
    basis: IntegralBasis,
) -> Trajectory:
    """Integrate from an initial state at or above the floor up to cfg.t_end.

    Returns the Trajectory of every accepted step, the initial state
    included. Raises up front DimensionMismatch for an x0 of the wrong
    length, NonPositiveInitialState for a NaN or infinite entry or one below
    POSITIVITY_FLOOR, FloatOutOfRange for a nonzero rate or exponent whose
    float overflows or rounds to zero, InitialIntegralOutOfRange when an
    integral at x0 leaves the float range, and TooManySteps when a
    fixed-step run needs more than MAX_STEPS steps. During the run it
    raises PositivityBreached if a coordinate falls below POSITIVITY_FLOOR,
    NonFiniteState if one becomes NaN or infinite, IntegralOutOfRange if an
    integral's value or drift leaves the float range, StepUnderflow if the
    adaptive controller cannot satisfy its tolerances above MIN_STEP, and
    StepLimitReached if an adaptive run accepts MAX_STEPS steps; these carry
    the Trajectory up to the failure.
    """
    x = _validate_x0(sys, x0)
    f = _rhs(sys)
    with np.errstate(all="ignore"):
        outside = _values(x[None], basis)[1][0]
        if outside.any():
            raise InitialIntegralOutOfRange(int(np.argmax(outside)) + 1)
        run = _run_rk4 if cfg.method is Method.RK4_FIXED else _run_rkf45
        t, xs, abort = run(f, x, cfg)
        # The loops stop at a state that fails x.min() >= POSITIVITY_FLOOR: one
        # below the floor, NaN or -inf. A +inf passes that test, so every row is
        # screened here.
        finite = np.isfinite(xs)
        bad = ~finite.all(axis=1) | (xs.min(axis=1) < POSITIVITY_FLOOR)
        if bad.any():
            row = int(np.argmax(bad))
            if finite[row].all():
                abort = partial(PositivityBreached, float(t[row]), int(np.argmin(xs[row])) + 1)
            else:
                abort = partial(NonFiniteState, float(t[row]), int(np.argmin(finite[row])) + 1)
            t, xs = t[:row], xs[:row]
        values, outside = _values(xs, basis)
        # row 0 passed the range rule, so every start is a positive float
        start = values[0]
        drift = np.abs(values - start) / start
        outside |= ~np.isfinite(drift)
    if outside.any():
        # the first row out of range, and its first integral out of range
        row, column = divmod(int(np.argmax(outside)), outside.shape[1])
        abort = partial(IntegralOutOfRange, float(t[row]), column + 1)
        t, xs, values, drift = t[:row], xs[:row], values[:row], drift[:row]
    trajectory = Trajectory(t, xs, values, drift)
    if abort is not None:
        raise abort(trajectory)
    return trajectory


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
        drift = integrate(sys, x0, cfg, basis).drift[:, integral_index]
        drifts.append(float(drift.max()))
    floor = 100.0 * np.finfo(float).eps
    if drifts[0] <= floor or drifts[1] <= floor:
        raise NotMeasurable(
            f"drifts {drifts[0]:.3g}, {drifts[1]:.3g} are roundoff-dominated"
        )
    return math.log(drifts[0] / drifts[1]) / math.log(h_coarse / h_fine)
