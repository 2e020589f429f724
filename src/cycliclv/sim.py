"""Trajectory integration with conservation-drift monitoring.

Two drivers are provided: classic fixed-step fourth-order Runge-Kutta and
the embedded Fehlberg 4(5) pair with proportional step control. A run goes
in blocks of at most _BLOCK_ROWS rows. Either driver steps into one reused
block buffer, where RK4 starts each block from the last row of the one before;
then one vectorised pass over the block evaluates each first integral of the
basis, its relative drift |H - H(x0)| / H(x0) from its value at the initial
state, which the range rule below keeps a positive float, and the screen
below. A run keeps the times, states, values and drifts of every
sample_every-th row and of the last, and each integral's largest drift over
every row. Each block's kept rows go to a row sink once the block passes
the screen: integrate's caller may pass one, as the CLI passes its CSV
writer, and then a run's memory is one block, however many rows it
writes. Without one, integrate collects the rows into a Trajectory, and a
run's memory is the rows it keeps and one block. Each row's figures do not
depend on the block it falls in.

Both drivers step on native code wherever they can, at any n: rk4_steps
and rkf45_block of _native.c, which do the operations of _rk4_steps and of
_rkf45_rows on _rkf45_step entry by entry in the same order, built once per
machine with Python's own C compiler into the per-user cache and loaded
with ctypes (_native). Where no build loads (no compiler, a cache that
cannot be used, a failed build, or a build that does not step bit for bit
as the array kernels do), both fall back, with the same bits, to those
array kernels, which step on numpy arrays at any n (_array_kernel).

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
system is refused with InputError. The runtime aborts, the
IntegrationAborted subclasses defined here, differ only in name: each is
built as IntegrationAborted(t, message), worded where its failure is found,
and carries t, its message and the partial Trajectory, cut before the
failing row. The float work runs with numpy's floating-point warnings off:
an overflow or NaN it meets is reported by one of these exceptions, not
printed.
"""

from __future__ import annotations

import binascii
import ctypes
import math
import os
from contextlib import suppress
from enum import Enum
from fractions import Fraction
from functools import cache, partial
from itertools import chain
from numbers import Real
from sys import float_info, platform
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

# The C source of the native loops and the flags it is built with: no FP
# contraction, so that no a * b + c becomes one fused multiply-add. A build
# that runs longer than _BUILD_SECONDS is stopped, so a temporary build file
# older than that belongs to no live build.
_NATIVE_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_native.c")
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_BUILD_SECONDS = 120

# How a block of the adaptive loop ends, as rkf45_block of _native.c numbers
# it: the block is full and the run goes on, the run reached t_end, the step
# fell below MIN_STEP, or the run reached its step limit.
_FULL, _DONE, _UNDERFLOW, _LIMIT = range(4)

# Rows that integrate steps, evaluates and screens at a time, fewer above 64
# coordinates, so that no block holds more than _BLOCK_FLOATS state floats.
# On an n = 9 RK4 run of 5e4 steps writing every 100th row, a process's peak
# RSS was 31.4 MB with blocks of 4096 rows, 30.9 with 2048 and 30.6 with 1024
# and 512, at no measurable cost in time.
_BLOCK_ROWS = 1024
_BLOCK_FLOATS = 65536


class IntegrationAborted(CyclicLVError):
    """Base for runtime integration failures at time ``t``, and their one constructor.

    ``trajectory`` is None until integrate, just before raising, sets it
    to the Trajectory of the kept states before the failure, or of the last
    one alone when a row sink took them.
    """

    trajectory = None

    def __init__(self, t: float, message: str):
        self.t = t
        super().__init__(f"{message} at t={t:.17g}")


class PositivityBreached(IntegrationAborted):
    """A coordinate fell below POSITIVITY_FLOOR during integration."""


class NonFiniteState(IntegrationAborted):
    """A coordinate became NaN or infinite during integration."""


class IntegralOutOfRange(IntegrationAborted):
    """A first integral's value or drift left the float range during integration."""


class StepUnderflow(IntegrationAborted):
    """The adaptive step size fell below MIN_STEP."""


class StepLimitReached(IntegrationAborted):
    """An adaptive run accepted its step limit, MAX_STEPS or fewer, before reaching t_end."""


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
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        xs[r] = x


@cache
def _native():
    """A build of _native.c with its two loops declared, or None where none loads.

    A build lives in the per-user cache, $XDG_CACHE_HOME/cycliclv, else
    ~/.cache/cycliclv, made with mode 0700, under a name from the CRC-32 of
    the source, _CFLAGS and the platform, and is loaded from there. Without
    one, Python's own C compiler, sysconfig's CC, builds it (_build), unless
    the marker that name + ".failed" says that a build of it failed its
    probe. No compiler, a cache that is not a directory of this user's that
    only it can write to, a failed build and a failed probe all give None,
    and integrate steps on the array kernels, with the same bits. The
    answer holds for the process.
    """
    try:
        with open(_NATIVE_SOURCE, "rb") as file:
            key = file.read() + repr((_CFLAGS, platform, os.uname().machine)).encode()
        home = os.environ.get("XDG_CACHE_HOME", "")
        if not os.path.isabs(home):
            home = os.path.expanduser("~/.cache")
        folder = os.path.join(home, "cycliclv")
        if not os.path.isabs(folder):  # no home directory
            return None
        os.makedirs(folder, mode=0o700, exist_ok=True)
        # a library loaded from here runs as this user
        stat = os.stat(folder)
        if stat.st_uid != os.getuid() or stat.st_mode & 0o022:
            return None
        path = os.path.join(folder, f"native-{binascii.crc32(key):08x}.so")
        try:
            return _declared(ctypes.CDLL(path))
        except OSError:  # not built yet, or not a library
            return None if os.path.exists(f"{path}.failed") else _build(path)
    # AttributeError: a library without one of the loops, or no os.uname or os.getuid
    except (OSError, AttributeError):
        return None


def _declared(lib):
    """lib, with the argument and result types of its loops' C declarations."""
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    lib.rk4_steps.argtypes = (i64, ptr, ptr, ptr, ptr, ptr, i64, i64, f64, ptr)
    lib.rk4_steps.restype = None
    lib.rkf45_block.argtypes = (i64, ptr, ptr, ptr, ptr, ptr, f64, f64, f64, f64, i64, ptr, ptr,
                                ptr, ptr, ptr, i64, ptr)
    lib.rkf45_block.restype = i64
    return lib


def _build(path: str):
    """Build _native.c at path and return it declared, or None if it steps otherwise.

    First it removes the temporary files of builds that started more than
    _BUILD_SECONDS ago, which only a process that ended mid-build leaves,
    and the builds named rk4-*.so of an older, RK4-only source.
    The build goes to a temporary file beside path, which takes path's name
    only once a run of both loops has the bits of the array kernels
    (_probe). A build that steps otherwise is neither cached nor used: it
    leaves the marker path + ".failed", so that no later process builds it
    again. Raises OSError, or AttributeError where Python records no
    compiler, as _native expects; subprocess and sysconfig are imported
    only here.
    """
    import subprocess
    import sysconfig
    import time

    stale = time.time() - _BUILD_SECONDS
    with os.scandir(os.path.dirname(path)) as entries:
        for entry in entries:
            with suppress(FileNotFoundError):  # removed meanwhile by another process
                # A native-*.so of another CRC stays: two installed versions
                # that each removed the other's build would compile again in
                # every process that alternates between them.
                if (entry.name.endswith(".tmp") and entry.stat().st_mtime < stale
                        or entry.name.startswith("rk4-") and entry.name.endswith(".so")):
                    os.remove(entry.path)
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        subprocess.run([*sysconfig.get_config_var("CC").split(), *_CFLAGS, "-o", temporary,
                        _NATIVE_SOURCE, "-lm"], capture_output=True, check=True,
                       timeout=_BUILD_SECONDS)
        lib = _declared(ctypes.CDLL(temporary))
        if not _probe(lib):
            open(f"{path}.failed", "wb").close()
            return None
        os.replace(temporary, path)
        return lib
    except subprocess.SubprocessError:
        return None
    finally:
        with suppress(FileNotFoundError):
            os.remove(temporary)


def _probe(lib) -> bool:
    """Whether both loops of lib step as the array kernels do, bit for bit.

    The rates' floats are not dyadic, and a step of 0.37 moves the state by
    about its own size, so that a fused multiply-add or another order in
    any stage or sum changes a bit of the new states; a step of 0.1, which
    moves it by about 2 %, let a reordered final sum through. RK4 takes 32
    such steps and a shorter one. RKF45 starts with a trial step of 0.37,
    rejects it until a step fits the tolerances, and runs to t = 1 in blocks
    of 7 rows, so that every stage, sum and controller factor reaches its
    times and states. A zero weight reaches no accepted state: it changes a
    sum only when the stage it weighs is NaN or infinite, and then the error
    norm is too. So a second run starts with x8 NaN, which each stage
    spreads one coordinate further each way: at 15 coordinates only the
    sixth stage is NaN at x2 and x14, where a dropped zero weight leaves the
    trial state finite. Every trial of that run is rejected until
    StepUnderflow, and its last trial's state and error norm must agree,
    NaN for NaN.
    """
    rates = [Fraction(4, 3), Fraction(9, 7), Fraction(10, 11), Fraction(14, 13), Fraction(22, 17)]
    sys = CyclicLVSystem(rates)
    x0 = (0.2, 0.3, 0.5, 0.7, 1.1)
    runs = []
    for steps in (_native_kernel(lib, sys, True), _array_kernel(sys, True)):
        xs = np.empty((34, sys.n))
        xs[0] = x0
        steps(xs, 0, 32, 0.37)
        steps(xs, 32, 1, 0.137)
        runs.append(xs.tobytes())
    wide = CyclicLVSystem(rates * 3)
    with np.errstate(all="ignore"):
        for system, start in ((sys, x0), (wide, [math.nan if i == 7 else 0.5 for i in range(15)])):
            for rows in (_native_kernel(lib, system, False), _array_kernel(system, False)):
                xs, ts = np.empty((8, system.n)), np.empty(8)
                xs[0] = start
                blocks, got = rows(xs[0].copy(), xs, ts, 1.0, 0.37, MAX_STEPS), []
                while True:
                    try:
                        count, *ended = next(blocks)
                    except StopIteration as stop:
                        state, norm = stop.value
                        got.append(np.array([*state, norm]))
                        break
                    got.append((count, *ended, xs[1 : count + 1].tobytes(),
                                ts[1 : count + 1].tobytes()))
                runs.append(got)
    return (runs[0] == runs[1]
            and all(native[:-1] == array[:-1]
                    and np.array_equal(native[-1], array[-1], equal_nan=True)
                    for native, array in (runs[2:4], runs[4:6])))


def _array_kernel(sys: CyclicLVSystem, rk4: bool) -> Callable:
    """_rk4_steps, or _rkf45_rows on _rkf45_step, with sys's field bound.

    Called as _native_kernel's loop is. Raises InputError, as _terms does,
    for a rate whose float overflows or rounds to zero.
    """
    f = _rhs(sys)
    return partial(_rk4_steps, f) if rk4 else partial(_rkf45_rows, partial(_rkf45_step, f))


def _native_kernel(lib, sys: CyclicLVSystem, rk4: bool) -> Callable:
    """A loop of lib on sys's field, called as the Python loop it stands for.

    For RK4 it is rk4_steps, called as _rk4_steps is, with (xs, row, count,
    h). For RKF45 it is rkf45_block, called as _rkf45_rows is once its step
    is bound, with (x, xs, ts, t_end, h, limit): a generator that yields and
    returns what _rkf45_rows does. It reads REL_TOL, ABS_TOL and MIN_STEP
    when a run starts. Raises InputError, as _terms does, for a rate whose
    float overflows or rounds to zero.
    """
    n = sys.n
    terms = [np.ascontiguousarray(a, kind) for a, kind in zip(_terms(sys), (np.int64, float) * 2)]
    # each pointer keeps its array alive
    j1, c1, j2, c2 = (a.ctypes.data_as(ctypes.c_void_p) for a in terms)

    def check(xs: np.ndarray, fits: bool) -> None:
        if not (xs.flags.c_contiguous and xs.dtype == float and xs.shape[1:] == (n,) and fits):
            raise ValueError("xs must be a C-ordered float array of n columns that holds the "
                             "rows written")

    if rk4:
        # the four stages and a stage state
        work = np.empty(5 * n).ctypes.data_as(ctypes.c_void_p)

        def steps(xs: np.ndarray, row: int, count: int, h: float) -> None:
            check(xs, 0 <= row <= row + count < len(xs))
            lib.rk4_steps(n, j1, c1, j2, c2, xs.ctypes.data, row, count, h, work)

        return steps

    tableau = np.array([*chain(*_FEHLBERG_A), *_FEHLBERG_B4, *_FEHLBERG_ERR])

    def blocks(x, xs: np.ndarray, ts: np.ndarray, t_end: float, h: float, limit: int):
        # the state; t, the trial step and the error norm; the accepted
        # count and the end code; the six stages, a stage state and the
        # trial state
        x, run = np.array(x, dtype=float), np.array([0.0, h, 0.0])
        check(xs, len(xs) > 1 and x.shape == (n,) and ts.flags.c_contiguous
              and ts.dtype == float and ts.shape == (len(xs),))
        state, work = np.array([0, _DONE], dtype=np.int64), np.empty(8 * n)
        tolerances = (REL_TOL, ABS_TOL, MIN_STEP)
        while True:
            rows = lib.rkf45_block(n, j1, c1, j2, c2, tableau.ctypes.data, *tolerances, t_end,
                                   limit, run.ctypes.data, state.ctypes.data, x.ctypes.data,
                                   ts.ctypes.data, xs.ctypes.data, len(xs) - 1,
                                   work.ctypes.data)
            end = int(state[1])
            yield rows, end, float(run[0]), float(run[1])
            if end != _FULL:
                return work[7 * n :], float(run[2])

    return blocks


def _step_limit(n: int) -> int:
    """Most steps a run of n coordinates may take: MAX_STEPS, or fewer for large n."""
    return min(MAX_STEPS, MAX_STORED_FLOATS // n)


def _rk4_blocks(steps, xs: np.ndarray, ts: np.ndarray, cfg: IntegratorConfig):
    """Fixed-step RK4 from the state in xs[0]; yields (rows, None) for each block.

    Each block writes up to len(xs) - 1 new rows after xs[0], and their
    times into ts. steps(xs, row, count, h) is the native loop or
    _rk4_steps with its field bound: a block's full steps take one call and
    the tail step, if any, a second. Each block's last row is carried into
    xs[0] for the next. A t_end / step over _step_limit(n), an infinite one
    that math.floor cannot take included, is refused with InputError: the
    one test of a run's length.
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


def _rkf45_rows(step, x, xs: np.ndarray, ts: np.ndarray, t_end: float, h: float, limit: int):
    """Fehlberg 4(5) from the state x with trial step h; yields (rows, end, t, h) per block.

    step(x, h) is _rkf45_step with its field bound: it returns the new state
    and its error norm. Each accepted state goes into the next row of xs
    after row 0 and its time into ts. A block ends _FULL just before the row
    that would not fit, so only the last one can be short; the last ends
    _DONE at t_end, _UNDERFLOW when a rejected step times its factor falls
    below MIN_STEP, or _LIMIT when a step is accepted after limit steps.
    Each yield gives the rows written, the end, t and the next trial step,
    the one that fell below MIN_STEP at _UNDERFLOW. Returns the last trial's
    new state and error norm, which _probe compares. rkf45_block of
    _native.c runs this loop in C (_native_kernel).
    """
    size = len(xs) - 1
    t = 0.0
    row = accepted = 0
    end = _DONE
    while end == _DONE and t < t_end * (1.0 - 1e-14):
        h = min(h, t_end - t)
        x_new, enorm = step(x, h)
        factor = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** -0.2))
        if enorm <= 1.0:
            t += h
            x = x_new
            if accepted == limit:
                end = _LIMIT
            else:
                if row == size:
                    yield row, _FULL, t, h * factor
                    row = 0
                accepted += 1
                row += 1
                ts[row], xs[row] = t, x
        elif h * factor < MIN_STEP:
            end = _UNDERFLOW
        h *= factor
    yield row, end, t, h
    return x_new, enorm


def _rkf45_blocks(rows, x, xs: np.ndarray, ts: np.ndarray, cfg: IntegratorConfig):
    """Fehlberg 4(5) from the state x, which xs[0] holds; yields (rows, abort) per block.

    rows is the native loop or _rkf45_rows with its step bound, each called
    with (x, xs, ts, t_end, h, limit). StepUnderflow, and StepLimitReached
    at _step_limit steps, come with the last block.
    """
    limit = _step_limit(xs.shape[1])
    for count, end, t, h in rows(x, xs, ts, cfg.t_end, cfg.step, limit):
        if end == _UNDERFLOW:
            yield count, StepUnderflow(t, f"adaptive step {h:.17g} fell below the minimum")
        elif end == _LIMIT:
            yield count, StepLimitReached(t, f"adaptive run reached the limit of {limit} steps")
        else:
            yield count, None


def integrate(
    sys: CyclicLVSystem,
    x0: Sequence,
    cfg: IntegratorConfig,
    basis: IntegralBasis,
    sample_every: int = 1,
    sink: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], None] | None = None,
) -> Trajectory:
    """Integrate from an initial state at or above the floor up to cfg.t_end.

    The run keeps rows 0, sample_every, 2 * sample_every, ... and the last
    row, and the largest drift of every row. It steps, evaluates and screens
    a block of at most _BLOCK_ROWS rows and _BLOCK_FLOATS state floats at a
    time. Each block's kept rows go to sink(t, x, values, drift), four new
    arrays of Trajectory's shapes, as soon as the block passes the screen;
    the last row, when sampling skipped it, goes in one more call. The first
    call comes with the first stepped block, after every InputError. With a
    sink the run's memory is one block, and it returns the Trajectory of its
    last row alone with max_drift. Without one the kept rows are collected
    into the returned Trajectory, so its memory is those rows and one block.
    Raises InputError up front, in this order, for a
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
    sampled the same way, or its last row alone when a sink took the rows.
    """
    if isinstance(sample_every, bool) or not (isinstance(sample_every, int) and sample_every >= 1):
        raise InputError(f"sample_every must be a positive integer, got {sample_every!r}")
    x = np.asarray([_float(v, f"initial state entry x{i}") for i, v in enumerate(x0, 1)])
    if x.shape != (sys.n,):
        raise InputError(f"initial state has length {len(x)}, system has n={sys.n}")
    rk4 = cfg.method is Method.RK4_FIXED
    native = _native()
    step = _native_kernel(native, sys, rk4) if native else _array_kernel(sys, rk4)
    # after the kernel, so that a bad rate is refused before a bad exponent
    if any(len(mono.exponents) != sys.n for mono in basis.monomials):
        raise InputError("exponent vector length does not match the system")
    exponents = [_floats(mono.exponents, lambda i: f"exponent of x{i} in H{j}")
                 for j, mono in enumerate(basis.monomials, start=2)]
    size = min(_BLOCK_ROWS, max(1, _BLOCK_FLOATS // sys.n)) + 1
    xs, ts = np.empty((size, sys.n)), np.empty(size)
    xs[0], ts[0] = x, 0.0
    blocks = _rk4_blocks(step, xs, ts, cfg) if rk4 else _rkf45_blocks(step, x, xs, ts, cfg)
    collect = sink is None
    if collect:
        kept = []
        sink = lambda *columns: kept.append(columns)
    max_drift = np.zeros(1 + len(exponents))
    # the index of xs[0] in the run, and the first row of xs a block adds
    base = first = 0
    with np.errstate(all="ignore"):
        start = _values(x[None], exponents)[0]
        # row 0 alone before the first step, then the driver's blocks, the
        # first from row 0 again, so that the sink gets no row before the
        # driver has stepped and every InputError is raised
        for stepped, (rows, abort) in enumerate(chain([(0, None)], blocks)):
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
                if not stepped:  # row 0, x0
                    raise InputError(
                        ("initial state must be finite and at least the positivity floor "
                         f"{POSITIVITY_FLOOR:g}") if column <= sys.n else
                        (f"integral H{column - sys.n} is outside the float range "
                         "at the initial state")
                    )
                when = float(ts[first + row])
                if column < sys.n:
                    abort = NonFiniteState(when, f"coordinate x{column + 1} became non-finite")
                elif column == sys.n:
                    low = int(np.argmin(block[row])) + 1
                    abort = PositivityBreached(
                        when, f"coordinate x{low} fell below the positivity floor")
                else:
                    abort = IntegralOutOfRange(
                        when, f"integral H{column - sys.n} left the float range")
                good = row
            if not stepped:
                continue
            if good:
                # copies, as the next block overwrites xs and ts
                columns = (ts[first : rows + 1], block, values, drift)
                sink(*(c[-(base + first) % sample_every : good : sample_every].copy()
                       for c in columns))
                last = (base + first + good - 1, [c[good - 1 : good].copy() for c in columns])
                max_drift = np.maximum(max_drift, drift[:good].max(axis=0))
            if good < len(block):
                break
            base, first = base + rows, 1
    if last[0] % sample_every:
        sink(*last[1])
    trajectory = Trajectory(*(map(np.concatenate, zip(*kept)) if collect else last[1]), max_drift)
    if abort is not None:
        abort.trajectory = trajectory
        raise abort
    return trajectory
