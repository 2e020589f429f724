"""Trajectory integration with conservation-drift monitoring.

Two drivers are provided: classic fixed-step fourth-order Runge-Kutta and
the embedded Fehlberg 4(5) pair with proportional step control. A run goes
in blocks of at most _BLOCK_ROWS rows. Either driver steps into one reused
block buffer, where RK4 starts each block from the last row of the one before;
then one vectorised pass over the block evaluates each first integral of the
basis, its relative drift |H - H(x0)| / H(x0) from its value at the initial
state, which the range rule below keeps a positive float, and the screen
below. The Trajectory keeps the times, states, values and drifts of every
sample_every-th row and of the last, and each integral's largest drift over
every row, so a run's memory is the rows it keeps and one block. Each row's
figures do not depend on the block it falls in.

Each driver has two kernels, picked once from n. Up to _SCALAR_MAX_N
coordinates, _compiled_step writes straight-line Python source over the
locals x0 ... x{n-1} and compiles it once per integrate call. For RK4 that
source is the whole fixed-step loop: the locals carry the state from step
to step, and each new state goes into the block buffer through a
memoryview. Each step makes no numpy call and no list. For RKF45 it is one
step on a list of floats, which _rkf45_blocks calls; the array step
keeps its state an array. Each rate, tolerance and tableau entry enters the
source as its repr, the shortest decimal that reads back as the same
float, so each literal is exactly the float the array kernel uses. Because
the tolerances are baked in, the source is generated again on every call,
not cached. The bound is 16, where the benchmarked systems sit. Long runs
step faster compiled up to about 40 coordinates, but compiling costs
milliseconds per run, so larger systems keep the array kernel until short
runs there are measured. There the RK4 loop is _rk4_steps, which takes the
compiled loop's arguments. Both kernels give the same bits. The compiled
code does the array kernel's operations per entry in the same order: each
RHS entry as xi * (a * xj + b * xk), (0.5*h)*k, then
(h/6)*(((k1 + 2 k2) + 2 k3) + k4), and each Fehlberg sum left to right, as
sum() adds the arrays, zero weights kept so that a NaN or inf stage still
reaches every sum, never with sum() over floats, which rounds with
compensation from Python 3.12 on, or math.fsum. sum() starts from int 0
and the compiled sum from its first term, which saves a slow int + float
add per sum; the two differ only in the sign of an exact zero sum, which
x + h * sum drops for the positive x and abs drops from the error. Its
error norm keeps a NaN as np.maximum and np.max do, so neither kernel
accepts a NaN state: a lost NaN would turn a StepUnderflow into a
NonFiniteState.

The kernels only step; integrate screens every row. The positive orthant
is invariant for the true flow; a coordinate crossing zero can only be a
numerical artifact, so the run ends with PositivityBreached at the first
row with a coordinate below POSITIVITY_FLOOR, and with NonFiniteState at
the first with a NaN or infinite one. A run that fails steps on to the end
of the failing row's block, at most _BLOCK_ROWS rows, before the screen
finds that row. Each monomial's s = lam . log x must lie in LOG_RANGE, so
that exp(s) neither overflows nor underflows; one outside it is evaluated
as NaN, so the one integral test is that every drift of a row is finite,
and a row that fails it ends the run with IntegralOutOfRange. The screen
sees row 0, x0, alone before the first step, and refuses it with
InputError. A basis whose exponent vectors have another length than the
system is refused with InputError.
These runtime aborts, the IntegrationAborted
subclasses defined here, carry the partial Trajectory, cut before the
failing row, on the exception. The float work runs with numpy's
floating-point warnings off: an overflow or NaN it meets is reported by one
of these exceptions, not printed.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import partial
from itertools import chain
from numbers import Real
from sys import float_info
from typing import Callable, Sequence

import numpy as np

from .darboux import IntegralBasis
from .model import CyclicLVError, CyclicLVSystem, InputError, _Record, structure_matrix

__all__ = [
    "IntegrationAborted",
    "PositivityBreached",
    "NonFiniteState",
    "IntegralOutOfRange",
    "StepUnderflow",
    "StepLimitReached",
    "Method",
    "IntegratorConfig",
    "Trajectory",
    "integrate",
]

# The range of s = lam . log x whose exp(s) is a finite normal float.
LOG_RANGE = (math.log(float_info.min), math.log(float_info.max))

# Most steps one run may take, and most state floats, n per step, it may
# compute, so that only n > 16 gets fewer steps. MAX_STORED_FLOATS // n
# bounds n * steps, a run's work, not only the floats a run that kept every
# row would store, so it holds for a sampled run too. A fixed-step run that
# needs more is refused; an adaptive run that reaches the limit aborts.
MAX_STEPS = 10_000_000
MAX_STORED_FLOATS = 16 * MAX_STEPS

# Every coordinate of every row, x0 included, must stay at or above this.
POSITIVITY_FLOOR = 1e-12

# The adaptive pair's error tolerances, and the step below which it gives up.
REL_TOL = 1e-9
ABS_TOL = 1e-12
MIN_STEP = 1e-10

# Systems with at most this many coordinates step on compiled straight-line
# code over Python floats, larger ones on numpy arrays (see the module docstring).
_SCALAR_MAX_N = 16

# Rows that integrate steps, evaluates and screens at a time, fewer above 16
# coordinates, so that no block holds more than _BLOCK_FLOATS state floats.
_BLOCK_ROWS = 4096
_BLOCK_FLOATS = 16 * _BLOCK_ROWS


class IntegrationAborted(CyclicLVError):
    """Base for runtime integration failures at time ``t``.

    ``trajectory`` is None until integrate, just before raising, sets it
    to the Trajectory of every accepted state before the failure.
    """

    trajectory = None

    def __init__(self, t: float, message: str):
        self.t = t
        super().__init__(f"{message} at t={t:.17g}")


class PositivityBreached(IntegrationAborted):
    """A coordinate fell below POSITIVITY_FLOOR during integration."""

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
    """The adaptive step size fell below MIN_STEP."""

    def __init__(self, t: float, step: float):
        self.step = step
        super().__init__(t, f"adaptive step {step:.17g} fell below the minimum")


class StepLimitReached(IntegrationAborted):
    """An adaptive run accepted its step limit, MAX_STEPS or fewer, before reaching t_end."""

    def __init__(self, t: float, steps: int):
        self.steps = steps
        super().__init__(t, f"adaptive run reached the limit of {steps} steps")


class Method(Enum):
    RK4_FIXED = "rk4"
    ADAPTIVE_RK45 = "rk45"


class IntegratorConfig(_Record):
    """The stepper, its step and the end time.

    ``step`` is the fixed step for RK4 and the initial trial step for the
    adaptive pair, which controls it with REL_TOL, ABS_TOL and MIN_STEP.
    ``method`` takes a Method or its value ("rk4", "rk45"). ``step`` and
    ``t_end`` must be real numbers, finite and positive; anything else, an
    unknown method, a str, NaN and infinity included, raises InputError, a
    ValueError. The RK4 step budget needs n, so integrate tests it.
    """

    __slots__ = ("method", "step", "t_end")

    def __init__(
        self, method: Method | str = Method.RK4_FIXED, step: float = 1e-3, t_end: float = 10.0
    ):
        try:
            method = Method(method)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        step, t_end = _float(step, "step"), _float(t_end, "t_end")
        for name, value in (("step", step), ("t_end", t_end)):
            if not (math.isfinite(value) and value > 0):
                raise InputError(f"{name} must be finite and positive, got {value}")
        super().__init__(method, step, t_end)


class Trajectory(_Record):
    """The kept states in time order, the initial state first.

    ``t`` has shape (rows,) and ``x`` shape (rows, n). ``values`` and
    ``drift`` have shape (rows, 1 + m): column 0 is the linear integral H1,
    column j the j-th monomial of the basis, and ``drift`` is each value's
    relative distance from row 0. ``max_drift``, shape (1 + m,), is each
    integral's largest drift over every row the run took, kept or not,
    which only integrate knows. Trajectories compare by identity, as arrays
    have no single truth value.
    """

    __slots__ = ("t", "x", "values", "drift", "max_drift")
    __eq__ = object.__eq__
    __hash__ = object.__hash__


def _float(value, what: str) -> float:
    """float(value) for a non-bool real in the float range, else InputError naming what."""
    if isinstance(value, Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise InputError(f"{what} is not a real number within the float range")


def _floats(qs: Sequence[Fraction], what: Callable[[int], str]) -> np.ndarray:
    """The floats of exact rationals, each nonzero one finite and nonzero.

    float(q) raises OverflowError past float_info.max and rounds a q below
    the smallest subnormal to 0.0; either raises InputError naming what(i)
    for the 1-based position i.
    """
    out = []
    for i, q in enumerate(qs, start=1):
        try:
            v = float(q)
        except OverflowError:
            v = 0.0  # no finite float either
        if v == 0.0 and q != 0:
            raise InputError(
                f"{what(i)} has no finite nonzero float (it overflows or rounds to zero)"
            )
        out.append(v)
    return np.array(out, dtype=float)


def _terms(sys: CyclicLVSystem) -> tuple[np.ndarray, ...]:
    """Arrays j1, c1, j2, c2 of each structure-matrix row's two columns and float entries.

    Raises InputError for a rate whose float overflows or rounds to zero.
    """
    first, second = zip(*structure_matrix(sys))
    j1, j2 = (np.array([j for j, _ in terms]) for terms in (first, second))
    # row i's first entry is k_i, so this column holds every rate once and
    # the second column's -k_{i-1} then always has a float
    c1 = _floats([c for _, c in first], lambda i: f"rate k{i}")
    c2 = np.array([float(c) for _, c in second])
    return j1, c1, j2, c2


def _rhs(sys: CyclicLVSystem) -> Callable[[np.ndarray], np.ndarray]:
    """The field x * (A x) on a float array, A the structure matrix.

    Each row's two terms stay two products; summing them changes n = 2's bits.
    """
    j1, c1, j2, c2 = _terms(sys)

    def f(x: np.ndarray) -> np.ndarray:
        return x * (c1 * x[j1] + c2 * x[j2])

    return f


def _values(x: np.ndarray, exponents: Sequence[np.ndarray]) -> np.ndarray:
    """H1 and each monomial for every row, shape (rows, 1 + m).

    exponents holds each monomial's float exponent vector. A monomial whose
    s = lam . log x lies outside LOG_RANGE is NaN, as math.exp(nan) is.
    Each other value has the same bits as evaluating that state alone with
    sum(x) and math.exp(np.dot(lam, log x)). x @ lam sums in another order
    and np.exp rounds differently from math.exp. np.dot sends contiguous
    operands to BLAS ddot, which uses FMA, and strided ones to numpy's own
    loop: the rows of the F-ordered x[:, support] are strided, and on one
    n=9 trajectory of 1001 rows, 479 of their dots differed from those of
    contiguous copies. So the support columns are taken with np.compress,
    whose result is C-ordered, and one np.matmul of (rows, 1, m) by (m, 1)
    sends each contiguous row of logs through the same ddot. np.log runs on
    contiguous memory either way, and gives each entry the bits it gives
    that entry alone. x may have any layout: it is made C-contiguous first,
    since sum(axis=1) adds the entries of an F-ordered row in another order.
    """
    x = np.ascontiguousarray(x)
    columns = [x.sum(axis=1)]
    for lam in exponents:
        support = lam != 0.0
        # C-ordered, where x[:, support] would be F-ordered
        logs = np.log(np.compress(support, x, axis=1))
        s = np.matmul(logs[:, None, :], lam[support][:, None])[:, 0, 0]
        s[(s < LOG_RANGE[0]) | (s > LOG_RANGE[1])] = math.nan
        columns.append(np.fromiter(map(math.exp, s.tolist()), dtype=float, count=len(s)))
    return np.column_stack(columns)


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


def _rkf45_step(f, x: np.ndarray, h: float) -> tuple[np.ndarray, float]:
    """One Fehlberg 4(5) step: the fourth-order state and its error norm."""
    stages = [f(x)]
    for row in _FEHLBERG_A[1:]:
        xs = x + h * sum(a * s for a, s in zip(row, stages))
        stages.append(f(xs))
    x_new = x + h * sum(b * s for b, s in zip(_FEHLBERG_B4, stages))
    err = h * sum(e * s for e, s in zip(_FEHLBERG_ERR, stages))
    scale = ABS_TOL + REL_TOL * np.maximum(np.abs(x), np.abs(x_new))
    return x_new, float(np.max(np.abs(err) / scale))


def _rk4_steps(f, xs: np.ndarray, row: int, count: int, h: float) -> None:
    """count RK4 steps of h from row ``row`` of xs, each new state in the next row."""
    x = xs[row]
    for r in range(row + 1, row + count + 1):
        x = _rk4_step(f, x, h)
        xs[r] = x


def _compiled_step(sys: CyclicLVSystem, rk4: bool) -> Callable:
    """_rk4_steps or _rkf45_step of sys as compiled straight-line Python.

    For RK4 it takes the (xs, row, count, h) of _rk4_steps. For RKF45 it
    takes (x, h), x a list of Python floats, and returns what _rkf45_step
    returns, the new state as a list. The source holds only integer indices,
    the names of locals and float literals: each rate, tolerance and tableau
    entry is the repr of a float, never text from the spec file, and the
    names inf and nan in its namespace make every repr an expression. Each
    entry takes the array kernel's operations in its order.
    """
    rows = list(zip(*(v.tolist() for v in _terms(sys))))
    n = len(rows)
    ix = range(n)

    def rhs(stage, y):
        return [f"k{stage}_{i} = {y}{i} * ({a!r} * {y}{j} + {b!r} * {y}{k})"
                for i, (j, a, k, b) in enumerate(rows)]

    def weighted(weights, i):
        # left to right from the first term, zero weights kept (module docstring)
        return "(" + " + ".join(f"{w!r} * k{s}_{i}" for s, w in enumerate(weights, 1)) + ")"

    unpack = "".join(f"x{i}, " for i in ix) + "= "
    if rk4:
        body = rhs(1, "x")
        for stage, c in ((2, "half"), (3, "half"), (4, "h")):
            body += [f"y{i} = x{i} + {c} * k{stage - 1}_{i}" for i in ix] + rhs(stage, "y")
        # each new x{i} reads only x{i} and the stages, so it can replace x{i} at once
        body += [f"x{i} = x{i} + sixth * (((k1_{i} + 2.0 * k2_{i}) + 2.0 * k3_{i}) + k4_{i})"
                 for i in ix]
        body += [f"buf[p + {i}] = x{i}" for i in ix]
        src = [
            "def step(xs, row, count, h):",
            'buf = memoryview(xs).cast("B").cast("d")',
            unpack + "xs[row].tolist()",
            "half = 0.5 * h",
            "sixth = h / 6.0",
            f"for p in range((row + 1) * {n}, (row + 1 + count) * {n}, {n}):",
            *("    " + line for line in body),
        ]
    else:
        src = ["def step(x, h):", unpack + "x", *rhs(1, "x")]
        for stage, row in enumerate(_FEHLBERG_A[1:], 2):
            src += [f"y{i} = x{i} + h * {weighted(row, i)}" for i in ix] + rhs(stage, "y")
        src += [f"z{i} = x{i} + h * {weighted(_FEHLBERG_B4, i)}" for i in ix] + ["m = 0.0"]
        for i in ix:
            # a >= NaN is False, so a NaN in z makes its ratio NaN; a NaN
            # ratio replaces m, and a NaN m stays, as in np.max. So
            # _rkf45_blocks never accepts a NaN state, and x, an accepted
            # state, is not NaN.
            src += [
                f"a = abs(x{i})",
                f"b = abs(z{i})",
                f"r = abs(h * {weighted(_FEHLBERG_ERR, i)})"
                f" / ({ABS_TOL!r} + {REL_TOL!r} * (a if a >= b else b))",
                "m = r if m == m and not r <= m else m",
            ]
        src.append("return [" + ", ".join(f"z{i}" for i in ix) + "], m")
    namespace = {"inf": math.inf, "nan": math.nan}
    exec("\n    ".join(src), namespace)
    return namespace["step"]


def _step_limit(n: int) -> int:
    """Most steps a run of n coordinates may take: MAX_STEPS, or fewer for large n."""
    return min(MAX_STEPS, MAX_STORED_FLOATS // n)


def _rk4_blocks(steps, xs: np.ndarray, ts: np.ndarray, cfg: IntegratorConfig):
    """Fixed-step RK4 from the state in xs[0]; yields (rows, None) for each block.

    Each block writes up to len(xs) - 1 new rows after xs[0], and their
    times into ts. steps(xs, row, count, h) is _rk4_steps or its compiled
    form: a block's full steps take one call and the tail step, if any, a
    second. Each block's last row is carried into xs[0] for the next. A
    t_end / step over _step_limit(n), an infinite one that math.floor cannot
    take included, is refused with InputError: the one test of a run's length.
    """
    h, n, ratio = cfg.step, xs.shape[1], cfg.t_end / cfg.step
    if not ratio <= _step_limit(n):
        raise InputError(
            f"t_end/step = {ratio:.17g} exceeds the limit of {_step_limit(n)} steps at n={n}")
    n_full = int(math.floor(ratio + 1e-9))
    remainder = cfg.t_end - n_full * h
    total = n_full + (remainder > 1e-12 * cfg.t_end)
    base = 0
    while base < total:
        count = min(len(xs) - 1, total - base)
        full = min(count, n_full - base)
        steps(xs, 0, full, h)
        if full < count:
            steps(xs, full, 1, remainder)
        ts[: count + 1] = np.arange(base, base + count + 1) * h
        if base + count == total:
            ts[count] = cfg.t_end
        yield count, None
        xs[0] = xs[count]
        base += count


def _rkf45_blocks(step, x, xs: np.ndarray, ts: np.ndarray, cfg: IntegratorConfig):
    """Fehlberg 4(5) from the state x, which xs[0] holds; yields (rows, abort) per block.

    step(x, h) is _rkf45_step, x an array, or its compiled form, x a list:
    it returns the new state and its error norm. Each accepted row goes into
    the next row of xs[1:] and its time into ts. A block is yielded full,
    just before the row that would not fit, so only the last one can be
    short. StepUnderflow, and StepLimitReached at _step_limit steps, come
    with the last block.
    """
    limit = _step_limit(xs.shape[1])
    size = len(xs) - 1
    t = 0.0
    h = min(cfg.step, cfg.t_end)
    row = accepted = 0
    while t < cfg.t_end * (1.0 - 1e-14):
        h = min(h, cfg.t_end - t)
        x_new, enorm = step(x, h)
        factor = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** -0.2))
        if enorm <= 1.0:
            t += h
            x = x_new
            if accepted == limit:
                yield row, StepLimitReached(t, limit)
                return
            if row == size:
                yield row, None
                row = 0
            accepted += 1
            row += 1
            ts[row], xs[row] = t, x
        elif h * factor < MIN_STEP:
            yield row, StepUnderflow(t, h * factor)
            return
        h *= factor
    yield row, None


def integrate(
    sys: CyclicLVSystem,
    x0: Sequence,
    cfg: IntegratorConfig,
    basis: IntegralBasis,
    sample_every: int = 1,
) -> Trajectory:
    """Integrate from an initial state at or above the floor up to cfg.t_end.

    Returns the Trajectory of rows 0, sample_every, 2 * sample_every, ...
    and the last row, and the largest drift of every row. The run steps,
    evaluates and screens a block of at most _BLOCK_ROWS rows and
    _BLOCK_FLOATS state floats at a time, so its memory is the rows it keeps
    and one block. Raises InputError up front, in this order, for a
    sample_every that is not a positive integer, an x0 of the wrong length
    or with an entry that is not a real number in the float range, a
    nonzero rate or exponent whose float overflows or rounds to zero, a
    basis whose exponent vectors have another length than the system, an x0
    that the row screen fails (an entry NaN, infinite or below
    POSITIVITY_FLOOR, or an integral outside the float range), and an RK4
    run whose t_end / step passes its step limit, the lower of MAX_STEPS
    and MAX_STORED_FLOATS // n. During the run it raises
    PositivityBreached if a coordinate falls below POSITIVITY_FLOOR,
    NonFiniteState if one becomes NaN or infinite, IntegralOutOfRange if an
    integral's drift is not finite, a monomial outside LOG_RANGE being NaN,
    StepUnderflow if the adaptive controller cannot satisfy its tolerances
    above MIN_STEP, and StepLimitReached if an adaptive run reaches its step
    limit; each carries the Trajectory up to the failure as ``trajectory``,
    sampled the same way.
    """
    if isinstance(sample_every, bool) or not (isinstance(sample_every, int) and sample_every >= 1):
        raise InputError(f"sample_every must be a positive integer, got {sample_every!r}")
    x = np.asarray([_float(v, f"initial state entry x{i}") for i, v in enumerate(x0, 1)])
    if x.shape != (sys.n,):
        raise InputError(f"initial state has length {len(x)}, system has n={sys.n}")
    rk4 = cfg.method is Method.RK4_FIXED
    if sys.n <= _SCALAR_MAX_N:
        step, state = _compiled_step(sys, rk4), x.tolist()
    else:
        step, state = partial(_rk4_steps if rk4 else _rkf45_step, _rhs(sys)), x
    # after the kernel, so that a bad rate is refused before a bad exponent
    if any(len(mono.exponents) != sys.n for mono in basis.monomials):
        raise InputError("exponent vector length does not match the system")
    exponents = [_floats(mono.exponents, lambda i: f"exponent of x{i} in H{j}")
                 for j, mono in enumerate(basis.monomials, start=2)]
    size = min(_BLOCK_ROWS, max(1, _BLOCK_FLOATS // sys.n)) + 1
    xs, ts = np.empty((size, sys.n)), np.empty(size)
    xs[0], ts[0] = x, 0.0
    blocks = _rk4_blocks(step, xs, ts, cfg) if rk4 else _rkf45_blocks(step, state, xs, ts, cfg)
    kept, max_drift = [], np.zeros(1 + len(exponents))
    # the index of xs[0] in the run, and the first row of xs a block adds
    base = first = 0
    with np.errstate(all="ignore"):
        start = _values(x[None], exponents)[0]
        # row 0 alone before the first step, then the driver's blocks from row 1
        for rows, abort in chain([(0, None)], blocks):
            block = xs[first : rows + 1]
            values = _values(block, exponents)
            # once row 0 passed the range rule, every start is a positive float
            drift = np.abs(values - start) / start
            # each row, in order: a coordinate not finite, one below the
            # floor, a drift not finite
            fails = np.column_stack((
                ~np.isfinite(block),
                block.min(axis=1) < POSITIVITY_FLOOR,
                ~np.isfinite(drift),
            ))
            good = len(block)
            if fails.any():
                # the first failing row, and its first failure
                row, column = divmod(int(np.argmax(fails)), fails.shape[1])
                if not first:  # row 0, x0
                    raise InputError(
                        ("initial state must be finite and at least the positivity floor "
                         f"{POSITIVITY_FLOOR:g}") if column <= sys.n else
                        (f"integral H{column - sys.n} is outside the float range "
                         "at the initial state")
                    )
                when = float(ts[first + row])
                if column < sys.n:
                    abort = NonFiniteState(when, column + 1)
                elif column == sys.n:
                    abort = PositivityBreached(when, int(np.argmin(block[row])) + 1)
                else:
                    abort = IntegralOutOfRange(when, column - sys.n)
                good = row
            if good:
                # copies, as the next block overwrites xs and ts
                columns = (ts[first : rows + 1], block, values, drift)
                kept.append([c[-(base + first) % sample_every : good : sample_every].copy()
                             for c in columns])
                last = (base + first + good - 1, [c[good - 1 : good].copy() for c in columns])
                max_drift = np.maximum(max_drift, drift[:good].max(axis=0))
            if good < len(block):
                break
            base, first = base + rows, 1
    if last[0] % sample_every:
        kept.append(last[1])
    trajectory = Trajectory(*map(np.concatenate, zip(*kept)), max_drift)
    if abort is not None:
        abort.trajectory = trajectory
        raise abort
    return trajectory
