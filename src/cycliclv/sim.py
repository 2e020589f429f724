"""Trajectory integration with conservation-drift monitoring.

Two drivers are provided: classic fixed-step fourth-order Runge-Kutta and
the embedded Fehlberg 4(5) pair with proportional step control. A run is
one stream of screened blocks (_screened) of at most _BLOCK_ROWS rows,
which integrate consumes. The stream holds four aligned buffers of
times, states, values and drifts, whose row r holds one row of the run.
Either method steps from row 0 of the states into the rows after it, and
the stream copies each block's last state into row 0 for the next, whose
time nothing reads; then one pass over the new rows writes into the same
rows each first integral of the basis and its relative drift
|H - H(x0)| / H(x0) from its value at the initial state, which the range
rule below keeps a positive float, applies the screen below, and folds
the drifts of the rows that pass into each integral's largest. The
stream yields every row that passes, as one view of each buffer per
block, x0's row with the first block, and keeps none. integrate samples
them: a run keeps the times, states, values and drifts of every
sample_every-th row and of the last, and each integral's largest drift
over every row. Each block's kept rows go to a row sink once
the block passes the screen: integrate's caller may pass one, as the CLI
passes its CSV writer, and then a run's memory is one block, however many
rows it writes. Without one, integrate collects the rows into a
Trajectory, and a run's memory is the rows it keeps and one block. Each
row's figures do not depend on the block it falls in.

Each function of _native.c has a Python reference of the same name in
_reference, which takes the same parameters, writes the same outputs and
gives the same bits or bytes; the comment on each function in _native.c
states the order of operations that makes them so. _rk4_blocks,
_rkf45_blocks, _pass and _csv_bytes call impl.<name>(...) alone, where
impl (_impl) is a build of _native.c or, where none loads, _reference,
which is imported only then.
Each C function is wired once: an entry of _ENTRY_POINTS gives its C
types, each pointer as the dtype of its array, and _load wraps it to take
numpy arrays of those dtypes alone.
A build is made once per machine with Python's own C compiler into the
per-user cache, loaded with ctypes (_native), and used only after each
probe case, _reference._probe_<name> for each C function, gives with it
what it gives with _reference (_reference._probe).
Where none loads (no compiler, a cache that cannot be used, a failed build
or a failed probe), the references run at any n, with the same bits and
bytes. numpy's _logs gives both of them each row's H1 and s.

The kernels only step; the stream screens every row. The positive orthant
is invariant for the true flow; a coordinate crossing zero can only be a
numerical artifact, so the run ends with PositivityBreached at the first
row with a coordinate below POSITIVITY_FLOOR, and with NonFiniteState at
the first with a NaN or infinite one. A run that fails steps on to the end
of the failing row's block, at most _BLOCK_ROWS rows, before the screen
finds that row. Each monomial's s = lam . log x must lie in LOG_RANGE, so
that exp(s) neither overflows nor underflows; one outside it is evaluated
as NaN, so the one integral test is that every drift of a row is finite,
and a row that fails it ends the run with IntegralOutOfRange. block_pass
finds the first row that fails any of these tests, and _failure alone
names the failure, testing in the order above: a non-finite coordinate,
the floor, then the drifts. Row 0, x0, goes through the run's own pass
once, alone, against a start of ones, before the first step, and _failure
names a failure there as InputError. Its values become the start, so its
row 0 is those values with drifts of zero, and each block's pass writes
rows 1 on. A basis whose exponent vectors have another length than
the system is refused with InputError.
The runtime aborts, the IntegrationAborted subclasses defined here, differ
only in name: each is built as IntegrationAborted(t, message), worded
where its failure is found, and carries t, its message and the partial
Trajectory, cut before the failing row. The float work runs with numpy's
floating-point warnings off: an overflow or NaN it meets is reported by
one of these exceptions, not printed.
"""

from __future__ import annotations

import binascii
import ctypes
import math
import os
import re
from enum import Enum
from fractions import Fraction
from functools import cache, partial
from importlib import import_module
from numbers import Real
from sys import float_info, platform
from types import SimpleNamespace
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
# contraction, so that no a * b + c becomes one fused multiply-add.
_NATIVE_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_native.c")
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

# The most bytes csv_rows of _native.c writes for one value and its
# separator: "-1.2345678901234567e-308" and a comma.
_CSV_VALUE_BYTES = 25

# How a block of the adaptive loop ends, as rkf45_block of _native.c numbers
# it: the block is full and the run goes on, the run reached t_end, the step
# fell below MIN_STEP, or the run reached its step limit.
_FULL, _DONE, _UNDERFLOW, _LIMIT = range(4)

# Rows that the stream steps, evaluates and screens at a time, fewer above 64
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

    The columns are int64 and the entries float, as the steppers take them.
    Raises InputError for a rate whose float overflows or rounds to zero.
    """
    first, second = zip(*structure_matrix(sys))
    j1, j2 = (np.array([j for j, _ in terms], np.int64) for terms in (first, second))
    # row i's first entry is k_i, so this column holds every rate once and
    # the second column's -k_{i-1} then always has a float
    c1 = _floats([c for _, c in first], lambda i: f"rate k{i}")
    c2 = np.array([float(c) for _, c in second])
    return j1, c1, j2, c2


def _monomial(exponents: Sequence, what: Callable[[int], str]) -> tuple:
    """A monomial's support and its float exponents there, for _logs.

    The support is None where every exponent is nonzero, as in every ODD
    basis, else the mask of the nonzero ones. It is read once per run from
    exponents themselves, exact rationals or floats: _floats keeps each
    zero and makes no other exponent zero. Raises InputError as _floats
    does, naming what(i).
    """
    lam = _floats(exponents, what)
    support = None if all(exponents) else np.array([e != 0 for e in exponents])
    return support, lam if support is None else lam[support]


def _logs(x: np.ndarray, monomials: Sequence[tuple]) -> list[np.ndarray]:
    """H1 and each monomial's s = lam . log x for every row, one array each.

    monomials holds each monomial's support and exponents from _monomial.
    H1 has the bits of sum(x) and each s those of np.dot(lam, log x) on
    the support, each on that state alone. x @ lam sums in another order.
    np.dot sends contiguous operands to BLAS ddot, which uses FMA, and
    strided ones to numpy's own loop: the rows of the F-ordered
    x[:, support] are strided, and on one n=9 trajectory of 1001 rows, 479
    of their dots differed from those of contiguous copies. So a partial
    support's columns are taken with np.compress, whose result is
    C-ordered, a full support takes x itself, and one np.matmul of (rows,
    1, m) by (m, 1) sends each contiguous row of logs through the same
    ddot. np.log gives each entry the bits it gives that entry alone. x is
    C-ordered, as _pass refuses any other block: sum(axis=1) adds the
    entries of an F-ordered row in another order.
    """
    columns = [x.sum(axis=1)]
    for support, lam in monomials:
        logs = np.log(x if support is None else np.compress(support, x, axis=1))
        columns.append(np.matmul(logs[:, None, :], lam[:, None])[:, 0, 0])
    return columns


# Fehlberg 4(5), as rkf45_block takes it: the rows of the stage matrix A,
# then the weights of the fourth-order solution, which is propagated, then
# those of the error estimate, the fifth-order companion's difference.
_FEHLBERG = (
    1 / 4,
    3 / 32, 9 / 32,
    1932 / 2197, -7200 / 2197, 7296 / 2197,
    439 / 216, -8.0, 3680 / 513, -845 / 4104,
    -8 / 27, 2.0, -3554 / 2565, 1859 / 4104, -11 / 40,
    25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0,
    1 / 360, 0.0, -128 / 4275, -2197 / 75240, 1 / 50, 2 / 55,
)


def _native_name() -> str:
    """The file name of a build of _NATIVE_SOURCE: native-<CRC-32>.so.

    The CRC is of the source with its /* ... */ comments removed, _CFLAGS
    and the platform, so that an edit of a comment alone keeps the name and
    no machine builds again for it.
    """
    with open(_NATIVE_SOURCE, "rb") as file:
        code = re.sub(rb"/\*.*?\*/", b"", file.read(), flags=re.DOTALL)
    key = code + repr((_CFLAGS, platform, os.uname().machine)).encode()
    return f"native-{binascii.crc32(key):08x}.so"


@cache
def _native():
    """A build of _native.c as _load wraps it, or None where none loads.

    A build lives in the per-user cache, $XDG_CACHE_HOME/cycliclv, else
    ~/.cache/cycliclv, made with mode 0700, under _native_name(), and is
    loaded from there. Without one, Python's own C compiler, sysconfig's
    CC, builds it (_reference._build), unless the marker that name +
    ".failed" says that a build of it failed its probe. No compiler, a
    cache that is not a directory of this user's that only it can write to,
    a failed build and a failed probe all give None, and then _impl gives
    _reference, with the same bits and bytes. The answer holds for the
    process.
    """
    try:
        name = _native_name()
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
        path = os.path.join(folder, name)
        try:
            return _load(path)
        except OSError:  # not built yet, or not a library
            if os.path.exists(f"{path}.failed"):
                return None
            from . import _reference

            return _reference._build(path)
    # AttributeError: a library without one of the functions, or no os.uname or os.getuid
    except (OSError, AttributeError):
        return None


def _load(path: str) -> SimpleNamespace:
    """The library at path, as a namespace of its functions of _ENTRY_POINTS.

    Each is given its C types, a pointer as void *, and wrapped once
    (_call), to take each pointer as an ndarray of its dtype, as _reference
    takes it.
    """
    lib, functions = ctypes.CDLL(path), {}
    for name, (restype, params) in _ENTRY_POINTS.items():
        function = getattr(lib, name)
        function.restype = restype
        function.argtypes = [ctypes.c_void_p if isinstance(p, np.dtype) else p for p in params]
        functions[name] = partial(_call, function, params)
    return SimpleNamespace(**functions)


def _call(function, params: tuple, *args):
    """function of args, each ndarray among them passed by address; the caller holds them alive.

    params are the function's parameter types of _ENTRY_POINTS. Raises
    ValueError where a pointer's argument is not a C-ordered ndarray of its
    dtype: C reads each entry as that type, and the rows one after another
    from the array's address. The callers allocate every array, of the size
    that the comment in _native.c gives.
    """
    if not all(isinstance(a, np.ndarray) and a.dtype == p and a.flags.c_contiguous
               for a, p in zip(args, params) if isinstance(p, np.dtype)):
        raise ValueError(f"{function.__name__} takes C-ordered arrays of the dtypes declared")
    return function(*[a.ctypes.data if isinstance(a, np.ndarray) else a for a in args])


def _impl():
    """The functions of _ENTRY_POINTS: a build (_native), or where none loads _reference."""
    return _native() or import_module("._reference", __package__)


# Each C function of _native.c: its result type and the types of its
# parameters, a pointer as the dtype of its array. ctypes needs both
# types: without argtypes a float argument raises ArgumentError, and
# without restype an int64 result is cut to a C int.
_I64, _F64 = ctypes.c_int64, ctypes.c_double
_I64S, _F64S, _BYTES = np.dtype(np.int64), np.dtype(np.float64), np.dtype(np.uint8)
_ENTRY_POINTS = {
    "rk4_steps": (None, (_I64, _I64S, _F64S, _I64S, _F64S, _F64S, _I64, _I64, _F64, _F64S)),
    "rkf45_block": (_I64, (_I64, _I64S, _F64S, _I64S, _F64S, _F64S, _F64, _F64, _F64, _F64, _I64,
                           _F64S, _I64S, _F64S, _F64S, _I64, _F64S)),
    "block_pass": (_I64, (_I64, _I64, _I64, _F64S, _F64S, _F64S, _F64S, _F64S, _F64, _F64, _F64)),
    "csv_rows": (_I64, (_F64S, _I64, _I64, _BYTES, _I64)),
}


def _csv_bytes(block: np.ndarray, impl) -> bytes:
    """The rows of the 2-D float array block as CSV lines, each value as '%.17g' % value.

    impl.csv_rows writes them: natively as the comment on put_value in
    _native.c states, or in _reference through Python's %. Neither reads
    the locale.
    """
    rows, cols = block.shape
    block = np.ascontiguousarray(block, dtype=float)
    out = np.empty(rows * max(cols, 1) * _CSV_VALUE_BYTES, np.uint8)
    size = impl.csv_rows(block, rows, cols, out, len(out))
    if size < 0:
        raise RuntimeError(f"csv_rows refused {len(out)} bytes for {rows} rows of {cols} values")
    return out[:size].tobytes()


def _step_limit(n: int) -> int:
    """Most steps a run of n coordinates may take: MAX_STEPS, or fewer for large n."""
    return min(MAX_STEPS, MAX_STORED_FLOATS // n)


def _rk4_blocks(impl, terms: tuple, xs: np.ndarray, ts: np.ndarray, cfg: IntegratorConfig):
    """Fixed-step RK4 from the state in xs[0]; yields (rows, None) for each block.

    Each block writes up to len(xs) - 1 new rows after xs[0], and their
    times into ts[1:], by impl.rk4_steps on the system's terms (_terms): a
    block's full steps take one call and the tail step, if any, a second.
    Each block steps from xs[0], where _screened puts the last one's last
    state; each time comes from its step count, so ts[0] is not read. A
    t_end / step over _step_limit(n), an infinite one that math.floor
    cannot take included, is refused with InputError: the one test of a
    run's length.
    """
    h, n, ratio = cfg.step, xs.shape[1], cfg.t_end / cfg.step
    if not ratio <= _step_limit(n):
        raise InputError(
            f"t_end/step = {ratio:.17g} exceeds the limit of {_step_limit(n)} steps at n={n}")
    n_full = int(math.floor(ratio + 1e-9))
    remainder = cfg.t_end - n_full * h
    total = n_full + (remainder > 1e-12 * cfg.t_end)
    # the four stages and a stage state
    base, work = 0, np.empty(5 * n)
    while base < total:
        count = min(len(xs) - 1, total - base)
        full = min(count, n_full - base)
        impl.rk4_steps(n, *terms, xs, 0, full, h, work)
        if full < count:
            impl.rk4_steps(n, *terms, xs, full, 1, remainder, work)
        ts[1 : count + 1] = np.arange(base + 1, base + count + 1) * h
        if base + count == total:
            ts[count] = cfg.t_end
        yield count, None
        base += count


def _rkf45_blocks(impl, terms: tuple, xs: np.ndarray, ts: np.ndarray, cfg: IntegratorConfig):
    """Fehlberg 4(5) from the state in xs[0]; yields (rows, abort) for each block.

    Each block is one call of impl.rkf45_block on the system's terms
    (_terms), which steps from xs[0], as _rk4_blocks does, and resumes from
    the time, step and count the last one left, with REL_TOL, ABS_TOL and
    MIN_STEP as they are when the run starts. StepUnderflow, and
    StepLimitReached at _step_limit steps, come with the last block.
    """
    n, limit, tableau = xs.shape[1], _step_limit(xs.shape[1]), np.array(_FEHLBERG)
    tolerances = (REL_TOL, ABS_TOL, MIN_STEP)
    # t, the trial step and the error norm; the accepted count and the end
    # code, which rkf45_block only writes; the six stages, a stage state
    # and the trial state
    run, state = np.array([0.0, cfg.step, 0.0]), np.zeros(2, dtype=np.int64)
    work, end = np.empty(8 * n), _FULL
    while end == _FULL:
        rows = impl.rkf45_block(n, *terms, tableau, *tolerances, cfg.t_end, limit, run, state, ts,
                                xs, len(xs) - 1, work)
        (t, h), end = run[:2].tolist(), int(state[1])
        if end == _UNDERFLOW:
            yield rows, StepUnderflow(t, f"adaptive step {h:.17g} fell below the minimum")
        elif end == _LIMIT:
            yield rows, StepLimitReached(t, f"adaptive run reached the limit of {limit} steps")
        else:
            yield rows, None


def _pass(impl, monomials: Sequence[tuple], block: np.ndarray, values: np.ndarray,
          drift: np.ndarray, start: np.ndarray, max_drift: np.ndarray) -> int:
    """The stream's pass over the rows of block: _logs, then impl.block_pass; returns its good.

    It writes each row's values into the same row of values, and their
    drifts |v - start| / start into drift, and returns the first failing
    row, or len(block) when none fails. numpy computes each row's H1 and s
    (_logs) into values, and block_pass does the rest, as the comment on it
    in _native.c states: it folds the drifts of the rows before the failing
    one into max_drift, in place. Only the rows up to the failing one hold
    their figures. Each array must be C-ordered float: block of shape
    (rows, n), values and drift of (rows, len(start)), and max_drift of
    start's length; any other raises ValueError before impl is called.
    """
    rows, n = block.shape
    shape = (rows, len(start))
    if not all(a.dtype == float and a.flags.c_contiguous and a.shape == want for a, want in
               ((block, (rows, n)), (values, shape), (drift, shape), (start, shape[1:]),
                (max_drift, shape[1:]))):
        raise ValueError(f"_pass takes C-ordered float arrays, buffers of {shape} and {shape[1:]}")
    for j, column in enumerate(_logs(block, monomials)):
        values[:, j] = column
    return impl.block_pass(rows, n, shape[1] - 1, block, values, drift, start, max_drift,
                           *LOG_RANGE, POSITIVITY_FLOOR)


def _failure(x: np.ndarray, drift: np.ndarray, t: float | None) -> CyclicLVError:
    """The error that names why the row x, with its drifts, failed block_pass.

    The screen's order is stated here alone: the first coordinate that is
    not finite, else the first lowest one when it lies below
    POSITIVITY_FLOOR, else the first integral whose drift is not finite,
    H1 first. t is the row's time, or None for x0, whose failure is
    integrate's InputError.
    """
    x, drift = x.tolist(), drift.tolist()
    nonfinite = [i for i, v in enumerate(x, 1) if not math.isfinite(v)]
    low = nonfinite or min(x) < POSITIVITY_FLOOR
    j = next((j for j, d in enumerate(drift, 1) if not math.isfinite(d)), None)
    if t is None:
        return InputError(("initial state must be finite and at least the positivity floor "
                           f"{POSITIVITY_FLOOR:g}") if low else
                          f"integral H{j} is outside the float range at the initial state")
    if nonfinite:
        return NonFiniteState(t, f"coordinate x{nonfinite[0]} became non-finite")
    if low:
        return PositivityBreached(
            t, f"coordinate x{x.index(min(x)) + 1} fell below the positivity floor")
    return IntegralOutOfRange(t, f"integral H{j} left the float range")


def _screened(sys: CyclicLVSystem, x0: Sequence, cfg: IntegratorConfig, basis: IntegralBasis):
    """The run's screened rows, block by block: yields (t, x, values, drift, max_drift, abort).

    t, x, values and drift are one view each of rows low to good - 1 of
    four aligned buffers, of Trajectory's shapes: row r of values and drift
    holds the integrals, and their drifts, of the state in row r of x, at
    the time in row r of t. The next block overwrites them, so a consumer
    copies what it keeps before it asks for the next. A block's pass writes
    rows 1 to rows, and good is the first of them that fails the screen, or
    rows + 1. low is 0 for the first stepped block, whose row 0 is x0's,
    (0.0, x0, start, zeros), and 1 after it, where row 0 holds the last
    block's last state alone. So a block whose first row fails yields x0's
    row alone, or four empty arrays. max_drift is each
    integral's largest drift over every row so far, and abort the block's
    IntegrationAborted or None; after an abort the stream ends. Raises
    InputError as integrate does, all but the RK4 step limit's before the
    first step and that one with it, so no row comes before every
    InputError. The float work runs with the caller's numpy error state,
    which integrate sets to ignore around its loop: a with block here would
    stay entered while the stream is suspended.
    """
    x = np.asarray([_float(v, f"initial state entry x{i}") for i, v in enumerate(x0, 1)])
    if x.shape != (sys.n,):
        raise InputError(f"initial state has length {len(x)}, system has n={sys.n}")
    impl, terms = _impl(), _terms(sys)
    # after the terms, so that a bad rate is refused before a bad exponent
    if any(len(mono.exponents) != sys.n for mono in basis.monomials):
        raise InputError("exponent vector length does not match the system")
    monomials = [_monomial(mono.exponents, lambda i: f"exponent of x{i} in H{j}")
                 for j, mono in enumerate(basis.monomials, start=2)]
    size = min(_BLOCK_ROWS, max(1, _BLOCK_FLOATS // sys.n)) + 1
    width = 1 + len(monomials)
    xs, ts = np.empty((size, sys.n)), np.empty(size)
    values, drift = np.empty((size, width)), np.empty((size, width))
    xs[0], ts[0] = x, 0.0
    start, max_drift = np.ones(width), np.zeros(width)
    # x0 goes through the run's own pass, alone, before the first step;
    # its drifts from 1 are finite exactly where its values are
    if not _pass(impl, monomials, xs[:1], values[:1], drift[:1], start, max_drift):
        raise _failure(x, drift[0], None)
    # once x0 passed the range rule, every start is a positive float
    start[:], max_drift[:] = values[0], 0.0
    drift[0] = 0.0
    low = 0
    stepper = _rk4_blocks if cfg.method is Method.RK4_FIXED else _rkf45_blocks
    for rows, abort in stepper(impl, terms, xs, ts, cfg):
        new = slice(1, rows + 1)
        good = 1 + _pass(impl, monomials, xs[new], values[new], drift[new], start, max_drift)
        if good <= rows:
            abort = _failure(xs[good], drift[good], float(ts[good]))
        yield ts[low:good], xs[low:good], values[low:good], drift[low:good], max_drift, abort
        if abort is not None:
            return
        # the next block steps from this one's last row
        xs[0], low = xs[rows], 1


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
    time (_screened), and samples the rows of each block's views. Each
    block's kept rows go to sink(t, x, values, drift), four new arrays of
    Trajectory's shapes, as soon as the block passes the screen, in one
    call when there are any; the last row, when sampling skipped it, goes
    in one more call. The first call comes with the first
    stepped block, after every InputError, and holds x0's row. With a
    sink the run's memory is one block, and it returns the Trajectory of its
    last row alone with max_drift. Without one the kept rows are collected
    into the returned Trajectory, so its memory is those rows and one block.
    Raises InputError up front, in this order, for a sample_every that is
    not a positive integer, an x0 of the wrong length or with an entry that
    is not a real number in the float range, a nonzero rate or exponent
    whose float overflows or rounds to zero, a basis whose exponent vectors
    have another length than the system, an x0 that fails the row screen,
    which sees x0 before any step (an entry NaN, infinite or below
    POSITIVITY_FLOOR, or an integral outside the float range), and an RK4
    run whose t_end / step passes its step limit, the lower of MAX_STEPS and
    MAX_STORED_FLOATS // n. During the run it raises PositivityBreached if a
    coordinate falls below POSITIVITY_FLOOR, NonFiniteState if one becomes
    NaN or infinite, IntegralOutOfRange if an integral's drift is not
    finite, a monomial outside LOG_RANGE being NaN, StepUnderflow if the
    adaptive controller cannot satisfy its tolerances above MIN_STEP, and
    StepLimitReached if an adaptive run reaches its step limit; each carries
    the Trajectory up to the failure as ``trajectory``, sampled the same
    way, or its last row alone when a sink took the rows.
    """
    if isinstance(sample_every, bool) or not (isinstance(sample_every, int) and sample_every >= 1):
        raise InputError(f"sample_every must be a positive integer, got {sample_every!r}")
    kept = []
    put = (lambda *columns: kept.append(columns)) if sink is None else sink
    count = 0  # the rows the stream has yielded so far
    with np.errstate(all="ignore"):
        for *block, max_drift, abort in _screened(sys, x0, cfg, basis):
            if len(block[0]):
                # copies, as the next block overwrites the stream's buffers
                picked = [c[-count % sample_every :: sample_every].copy() for c in block]
                count += len(block[0])
                last = [c[-1:].copy() for c in block]
                if len(picked[0]):
                    put(*picked)
    if (count - 1) % sample_every:
        put(*last)
    trajectory = Trajectory(*(map(np.concatenate, zip(*kept)) if sink is None else last), max_drift)
    if abort is not None:
        abort.trajectory = trajectory
        raise abort
    return trajectory
