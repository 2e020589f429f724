"""The Python references of the four C functions of _native.c, the build and the probe.

rk4_steps, rkf45_block, block_pass and csv_rows each take the parameters
of the C function of that name, in the same order, with a numpy array
where C takes a pointer, and write the same outputs with the same bits or
bytes; the comment on each function in _native.c states the order of
operations that makes them so. Both steppers step from row 0 of xs into
the rows after it, and block_pass returns the first failing row, which
sim._failure names. sim calls either set the same way, as
impl.<name>(...), where impl is a build (sim._load) or this module
(sim._impl). _probe holds a build to this module on four cases, one per
function, each named _probe_<name>. sim imports this module only where
it must build _native.c (sim._native) or where no cached build loads, so
a process that loads a cached build neither compiles nor runs any of it.
Every constant and every other function comes from sim, read when it is
called, so that a value set on sim holds here too.
"""

from __future__ import annotations

import math
import os
from contextlib import suppress
from fractions import Fraction
from functools import partial
from sys import float_info, modules

import numpy as np

from . import sim
from .model import CyclicLVSystem

# A build that runs longer than this is stopped, so a temporary build file
# older than that belongs to no live build.
_BUILD_SECONDS = 120


def _field(j1, c1, j2, c2, y: np.ndarray) -> np.ndarray:
    """The field y * (A y) of sim._terms' arrays, as field of _native.c computes it.

    Each row's two terms stay two products; summing them changes n = 2's bits.
    """
    return y * (c1 * y[j1] + c2 * y[j2])


def rk4_steps(n, j1, c1, j2, c2, xs, row, count, h, work) -> None:
    """count RK4 steps of h from row ``row`` of xs, each new state in the next row.

    work, where the C function keeps its stages, is not used.
    """
    f, x = partial(_field, j1, c1, j2, c2), xs[row]
    for r in range(row + 1, row + count + 1):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        xs[r] = x


def _rkf45_step(f, tableau: list, rel_tol: float, abs_tol: float, x: np.ndarray, h: float):
    """One Fehlberg 4(5) trial from x: the fourth-order state and its error norm."""
    stages = [f(x)]
    for s in range(1, 6):
        row = tableau[s * (s - 1) // 2 : s * (s + 1) // 2]
        stages.append(f(x + h * sum(a * k for a, k in zip(row, stages))))
    x_new = x + h * sum(b * k for b, k in zip(tableau[15:21], stages))
    err = h * sum(e * k for e, k in zip(tableau[21:], stages))
    scale = abs_tol + rel_tol * np.maximum(np.abs(x), np.abs(x_new))
    return x_new, float(np.max(np.abs(err) / scale))


def rkf45_block(n, j1, c1, j2, c2, tableau, rel_tol, abs_tol, min_step, t_end, limit, run, state,
                ts, xs, size, work) -> int:
    """One block of the Fehlberg 4(5) loop, each trial from _rkf45_step.

    As in C, a call steps from row 0 of xs, resuming from the time, trial
    step and error norm in run and the accepted count in state[0], writes
    each accepted state into the next row of xs and its time into ts, and
    ends _FULL before the trial after its size-th row, _DONE at t_end,
    _UNDERFLOW when a rejected step times its factor falls below min_step,
    or _LIMIT when a step is accepted after limit steps. It leaves run, the
    count and end code in state and the last trial state in work[7 n:],
    and returns the rows written.
    """
    f, tableau = partial(_field, j1, c1, j2, c2), tableau.tolist()
    (t, h, enorm), accepted = run.tolist(), int(state[0])
    row, end, x = 0, sim._DONE, xs[0]
    while end == sim._DONE and t < t_end * (1.0 - 1e-14):
        if row == size:
            end = sim._FULL
            break
        h = min(h, t_end - t)
        work[7 * n :], enorm = _rkf45_step(f, tableau, rel_tol, abs_tol, x, h)
        factor = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** -0.2))
        if enorm <= 1.0:
            t += h
            if accepted == limit:
                end = sim._LIMIT
            else:
                accepted += 1
                row += 1
                ts[row], xs[row] = t, work[7 * n :]
                x = xs[row]
        elif h * factor < min_step:
            end = sim._UNDERFLOW
        h *= factor
    run[:], state[:] = (t, h, enorm), (accepted, end)
    return row


def block_pass(rows, n, m, xs, values, drift, start, max_drift, lo, hi, floor) -> int:
    """The pass over the block xs, in the rows of values and drift, with C's return.

    Each monomial's value is math.exp(s), which np.exp would round
    otherwise, or NaN where s lies outside [lo, hi]. The whole block is
    evaluated before it is screened, so only the figures of the rows up to
    the failing one are those that C leaves; no caller reads the others.
    """
    values, drift = values[:rows], drift[:rows]
    s = values[:, 1:]
    s[(s < lo) | (s > hi)] = math.nan
    s[:] = np.reshape([*map(math.exp, s.ravel().tolist())], s.shape)
    np.divide(np.abs(values - start), start, out=drift)
    fails = (~np.isfinite(xs) | (xs < floor)).any(axis=1) | ~np.isfinite(drift).all(axis=1)
    good = int(np.argmax(fails)) if fails.any() else rows
    if good:
        np.maximum(max_drift, drift[:good].max(axis=0), out=max_drift)
    return good


def csv_rows(block, rows, cols, out, capacity) -> int:
    """The lines of csv_rows into out, through one % of a template for the whole block.

    Python's % ignores the locale, as csv_rows does.
    """
    if rows < 0 or cols < 0 or rows and capacity // sim._CSV_VALUE_BYTES // rows < max(cols, 1):
        return -1
    line = ",".join(["%.17g"] * cols) + "\n"
    text = ((line * rows) % tuple(block.ravel().tolist())).encode()
    out[: len(text)] = np.frombuffer(text, np.uint8)
    return len(text)


def _build(path: str):
    """Build _native.c at path and return it loaded, or None if it fails its probe.

    First it removes the temporary files of builds that started more than
    _BUILD_SECONDS ago, which only a process that ended mid-build leaves.
    The build goes to a temporary file beside path, which takes path's name
    only once it passes _probe. A build that fails it is neither cached nor
    used: it leaves the marker path + ".failed", so that no later process
    builds it again. Raises OSError, or AttributeError where Python records
    no compiler, as sim._native expects; subprocess and sysconfig are
    imported only here.
    """
    import subprocess
    import sysconfig
    import time

    stale = time.time() - _BUILD_SECONDS
    with os.scandir(os.path.dirname(path)) as entries:
        for entry in entries:
            with suppress(FileNotFoundError):  # removed meanwhile by another process
                # A build of another source stays: two installed versions
                # that each removed the other's build would compile again in
                # every process that alternates between them.
                if entry.name.endswith(".tmp") and entry.stat().st_mtime < stale:
                    os.remove(entry.path)
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        subprocess.run([*sysconfig.get_config_var("CC").split(), *sim._CFLAGS, "-o", temporary,
                        sim._NATIVE_SOURCE, "-lm"], capture_output=True, check=True,
                       timeout=_BUILD_SECONDS)
        lib = sim._load(temporary)
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
    """Whether lib gives what this module gives on _probe_<name> for each sim._ENTRY_POINTS name.

    The comment on each function in _native.c states the order of
    operations that gives its reference's bits. A case's result compares
    with ==: the CSV as its bytes, and states, times, values and drifts as
    theirs, so bit for bit, but for the last RKF45 trials
    (_probe_rkf45_block).
    """
    cases = [globals()[f"_probe_{name}"] for name in sim._ENTRY_POINTS]
    with np.errstate(all="ignore"):
        return all(case(lib) == case(modules[__name__]) for case in cases)


# The RK4 and RKF45 probe cases' rates, whose floats are not dyadic, and start.
_PROBE_RATES = ((4, 3), (9, 7), (10, 11), (14, 13), (22, 17))
_PROBE_X0 = (0.2, 0.3, 0.5, 0.7, 1.1)
# The rows of the RKF45 probe case's buffer: its first run takes 579 steps to t = 1.
_PROBE_ROWS = 600


def _probe_rk4_steps(impl) -> bytes:
    """The states of 32 RK4 steps of 0.37 and one of 0.137 by impl.rk4_steps.

    A step of 0.37 moves the state by about its own size, so that a fused
    multiply-add or another order in any stage or sum changes a bit of the
    new states; a step of 0.1, which moves it by about 2 %, let a reordered
    final sum through.
    """
    sys = CyclicLVSystem([Fraction(*q) for q in _PROBE_RATES])
    terms, xs, work = sim._terms(sys), np.empty((34, sys.n)), np.empty(5 * sys.n)
    xs[0] = _PROBE_X0
    impl.rk4_steps(sys.n, *terms, xs, 0, 32, 0.37, work)
    impl.rk4_steps(sys.n, *terms, xs, 32, 1, 0.137, work)
    return xs.tobytes()


def _probe_rkf45_block(impl) -> list:
    """Each call of two RKF45 runs of impl.rkf45_block in blocks of 7 rows, and last trials.

    The first starts with a trial step of 0.37, rejects it until a step
    fits the tolerances, and runs to t = 1, so that every stage, sum and
    controller factor reaches its times and states. A zero weight reaches
    no accepted state: it changes a sum only when the stage it weighs is
    NaN or infinite, and then the error norm is too. So the second run
    starts 15 coordinates with x8 NaN, which each stage spreads one
    coordinate further each way: only the sixth stage is NaN at x2 and x14,
    where a dropped zero weight leaves the trial state finite. Every trial
    of that run is rejected until StepUnderflow. Each call passes the rows
    from the last one's last row on, so that it steps from its row 0 and
    the run's rows lie in one buffer, which ends it after _PROBE_ROWS. Each
    run's last trial state and error norm compare as
    np.array_equal(equal_nan=True) has them: every NaN alike, and -0.0 as
    0.0.
    """
    rates = [Fraction(*q) for q in _PROBE_RATES]
    nan8 = [math.nan if i == 7 else 0.5 for i in range(15)]
    tableau, got = np.array(sim._FEHLBERG), []
    for sys, start in ((CyclicLVSystem(rates), _PROBE_X0), (CyclicLVSystem(rates * 3), nan8)):
        n, xs, ts, done = sys.n, np.empty((_PROBE_ROWS, sys.n)), np.empty(_PROBE_ROWS), 0
        xs[0] = start
        # a run starts at t = 0 with no step accepted, and each call that
        # fills its block ends _FULL, which is 0
        run, state, work = np.array([0.0, 0.37, 0.0]), np.zeros(2, np.int64), np.empty(8 * n)
        while state[1] == sim._FULL and done + 8 <= _PROBE_ROWS:
            rows = impl.rkf45_block(n, *sim._terms(sys), tableau, sim.REL_TOL, sim.ABS_TOL,
                                    sim.MIN_STEP, 1.0, sim.MAX_STEPS, run, state, ts[done:],
                                    xs[done:], 7, work)
            done += rows
            got.append((rows, *state.tolist(), *run[:2].tolist()))
        last = np.array([*work[7 * n :], run[2]])
        # one NaN for every NaN, and -0.0 + 0.0 is 0.0
        got += [xs[1 : done + 1].tobytes(), ts[1 : done + 1].tobytes(),
                np.where(np.isnan(last), math.nan, last + 0.0).tobytes()]
    return got


def _probe_block_pass(impl) -> list:
    """Each literal block's first failing row, and the figures of the rows up to it.

    The figures are the values and drifts that sim._pass(impl, ...) writes
    into buffers of the block's rows, and max_drift, the failing row's
    drifts as which of them are finite, as sim._failure reads them. The two
    monomials' s are 30 log x1 - 1.5 log x2, on a partial support, and 0.5
    log x1 + 0.25 log x2 - 40 log x3, on a full one. The first six rows
    pass: row 0 is the start, which a pass of it alone against a start of
    ones writes, as x0's one pass in sim._screened does, and row 5 sits on
    POSITIVITY_FLOOR. Each later row fails: a NaN and an infinite
    coordinate; one below the floor with larger drifts than any row before
    it, and one below the floor whose s is also past LOG_RANGE; the first s
    past each end of LOG_RANGE and the second past its top; and an H1 that
    overflows. The pass goes over the first six rows alone, and over them
    followed by each failing row and then the second row again, so that the
    floor test, exp, the drift, each test of a row and the rows max_drift
    folds in all show.
    """
    monomials = [sim._monomial(lam, str) for lam in ((30.0, -1.5, 0.0), (0.5, 0.25, -40.0))]
    rows = ((0.2, 0.3, 0.5), (0.21, 0.29, 0.5), (0.35, 0.1, 0.55), (1.3, 0.07, 2.5),
            (0.9, 3.1, 0.011), (0.6, 1e-12, 0.4), (math.nan, 0.3, 0.5), (0.2, math.inf, 0.5),
            (5.0, 1e-13, 6.0), (1e-13, 0.3, 0.5), (1e11, 0.3, 0.5), (1e-11, 0.3, 0.5),
            (0.2, 0.3, 1e-9), (1e308, 1e308, 0.5))
    start = np.empty((1, 3))
    sim._pass(impl, monomials, np.array(rows[:1]), start, np.empty((1, 3)), np.ones(3), np.zeros(3))
    screens = []
    for block in (rows[:6], *((*rows[:6], row, rows[1]) for row in rows[6:])):
        values, drift = np.empty((2, len(block), 3))
        max_drift = np.zeros(3)
        good = sim._pass(impl, monomials, np.array(block), values, drift, start[0], max_drift)
        screens.append((good, values[:good].tobytes(), drift[:good].tobytes(),
                        np.isfinite(drift[good : good + 1]).tobytes(), max_drift.tobytes()))
    return screens


def _probe_csv_rows(impl) -> bytes:
    """Literal values and their negatives, a row of each, as sim._csv_bytes(..., impl) writes them.

    The values: 17th digits that tie, which go to even (1000000000000000.2
    and .8, 2251799813685247.8 just below 2^51); the double nearest 1e-12,
    which lies below it and so has 17 digits one exponent lower; exponents
    of one digit; zeros; the values that go to snprintf, 2^51 + 0.5, 1e24,
    a subnormal, one below 2^-53 and the largest double, whose 17th digit
    differs from a 16-digit rounding; and each layout of %g. Then 100 to
    199, whose second and third digits are each pair that csv_rows takes
    from its table, and the doubles nearest 10^-17 to 10^16, each with the
    doubles either side of it, where csv_rows's carry loop stops one
    exponent apart.
    """
    floats = (1000000000000000.25, 1000000000000000.75, 2251799813685247.75, 1e-12,
              2251799813685248.5, 1e24, 1.2345678e-05, 7e-9, 0.0, 5e-324, 1e-300 / 3,
              float_info.max, math.nan, math.inf, 0.1, 1 / 3, 1e-4, 2.5, 123456.789, 1e16, 1e17,
              1.2345e30)
    decades = [w for k in range(-17, 17) for p in [float(f"1e{k}")]
               for w in (math.nextafter(p, 0.0), p, math.nextafter(p, math.inf))]
    values = [*floats, *map(float, range(100, 200)), *decades]
    return sim._csv_bytes(np.array([values, [-v for v in values]]), impl)
