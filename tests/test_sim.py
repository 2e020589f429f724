"""Integrator behavior: conservation drift, abort events, measured order."""

import ctypes
import inspect
import math
import os
import random
import re
import shutil
import subprocess
import sysconfig
import time
from fractions import Fraction
from functools import partial
from pathlib import Path
from sys import float_info
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from cycliclv import (
    Classification,
    InputError,
    IntegralBasis,
    IntegralOutOfRange,
    IntegratorConfig,
    Method,
    MonomialIntegral,
    NonFiniteState,
    PositivityBreached,
    StepLimitReached,
    StepUnderflow,
    integral_basis,
    integrate,
    make_system,
)
from cycliclv import _reference, cli, sim
from helpers import (
    RATES_41,
    X0_41_TINY_H2,
    NotMeasurable,
    convergence_order,
    random_system,
    resonant_system,
    run_python,
    simplex_point,
    stderr_of,
    vector_field,
)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"step": 0.0},
            {"t_end": -1.0},
            {"t_end": 0.0},
            {"step": -1e-3},
            {"step": -math.inf},
            {"t_end": -math.inf},
            {"step": math.inf},
            {"step": math.nan},
            {"t_end": math.inf},
            {"t_end": math.nan},
        ],
    )
    def test_positive_fields_enforced(self, kwargs):
        with pytest.raises(InputError, match="must be finite and positive, got "):
            IntegratorConfig(**kwargs)

    def test_method_given_by_value(self):
        assert IntegratorConfig(method="rk45").method is Method.ADAPTIVE_RK45
        sys = make_system([2, 1, 3])
        cfg = IntegratorConfig(method="rk4", step=1e-2, t_end=1.0)
        assert cfg.method is Method.RK4_FIXED
        traj = integrate(sys, [0.2, 0.3, 0.5], cfg, integral_basis(sys))
        assert len(traj.t) == 101

    def test_unknown_method_rejected(self):
        with pytest.raises(InputError, match="'bogus' is not a valid Method"):
            IntegratorConfig(method="bogus")

    def test_rk4_step_count_over_limit_rejected(self):
        # the config takes the run; its step budget needs n, so integrate refuses it
        sys = make_system([2, 1, 3])
        cfg = IntegratorConfig(method="rk4", step=1e-3, t_end=1e300)
        refused = f"^t_end/step = 1e\\+303 exceeds the limit of {sim.MAX_STEPS} steps at n=3$"
        with pytest.raises(InputError, match=refused):
            integrate(sys, [0.2, 0.3, 0.5], cfg, integral_basis(sys))

    def test_rk45_step_count_is_not_checked_up_front(self):
        cfg = IntegratorConfig(method="rk45", step=1e-3, t_end=1e300)
        assert cfg.method is Method.ADAPTIVE_RK45


class TestFloatInput:
    """x0 entries and config fields are real numbers with a float, or an InputError names them."""

    # float() overflows, cannot parse, or takes no such type; a str is
    # refused even when it would parse, and a bool though float() takes it
    BAD = {"int-10e400": 10**400, "fraction-10e400": Fraction(10**400), "str": "a",
           "numeric-str": "1e-3", "none": None, "complex": 1j, "bool": True}

    @pytest.mark.parametrize("bad", BAD.values(), ids=BAD)
    def test_initial_state_entry(self, bad):
        sys = make_system([2, 1, 3])
        refused = "^initial state entry x2 is not a real number within the float range$"
        with pytest.raises(InputError, match=refused):
            integrate(sys, [0.5, bad, 0.5], IntegratorConfig(), integral_basis(sys))

    @pytest.mark.parametrize("bad", BAD.values(), ids=BAD)
    @pytest.mark.parametrize("field", ["step", "t_end"])
    def test_config_field(self, field, bad):
        refused = f"^{field} is not a real number within the float range$"
        with pytest.raises(InputError, match=refused):
            IntegratorConfig(**{field: bad})

    def test_real_numbers_of_any_type_are_taken(self):
        sys = make_system([2, 1, 3])
        cfg = IntegratorConfig(step=Fraction(1, 100), t_end=np.float32(1))
        assert (cfg.step, cfg.t_end) == (0.01, 1.0)
        traj = integrate(sys, [Fraction(1, 5), np.float64(0.3), 1], cfg, integral_basis(sys))
        assert traj.x[0].tolist() == [0.2, 0.3, 1.0]


def _reference_rhs(sys, x):
    """The float field as it was first written, term by term."""
    n = sys.n
    k = np.array([float(v) for v in sys.rates])
    ip1 = np.roll(np.arange(n), -1)
    im1 = np.roll(np.arange(n), 1)
    k_im1 = k[im1]
    return x * (k * x[ip1] - k_im1 * x[im1])


# The stepping kernels: the native loops and numpy arrays.
KERNELS = ("native", "array")
NATIVE = sim._native


def _impls() -> list:
    """_reference, and the native build where one loads."""
    return [impl for impl in (_reference, NATIVE()) if impl is not None]


def _has_compiler() -> bool:
    """Whether the C compiler Python was built with is installed here."""
    cc = sysconfig.get_config_var("CC")
    return bool(cc and shutil.which(cc.split()[0]))


def _force_kernel(monkeypatch, kernel):
    """Make integrate step on the named kernel.

    Where no native build loads, "native" is _reference, and
    TestNativeStepper.test_loads_where_python_has_a_compiler fails unless
    this host has no compiler.
    """
    monkeypatch.setattr(sim, "_native", NATIVE if kernel == "native" else lambda: None)


def _outcome(sys, x0, cfg, basis, sample_every=1):
    """The trajectory's arrays as bytes with the abort's message, its rows, and the abort.

    The abort is its class and time; it and the message are None when the
    run does not abort.
    """
    try:
        traj, abort, message = integrate(sys, x0, cfg, basis, sample_every), None, None
    except sim.IntegrationAborted as exc:
        traj, abort, message = exc.trajectory, (type(exc), exc.t), str(exc)
    arrays = (traj.t, traj.x, traj.values, traj.drift, traj.max_drift)
    return [*(a.tobytes() for a in arrays), message], len(traj.t), abort


def _on_every_kernel(monkeypatch, sys, x0, cfg):
    """The rows and abort of a run, whose outcome every kernel must give in the same bits."""
    basis = integral_basis(sys)
    got = []
    for kernel in KERNELS:
        _force_kernel(monkeypatch, kernel)
        got.append(_outcome(sys, x0, cfg, basis))
    assert got[1:] == got[:-1]
    return got[0][1:]


class TestRhsAgreesWithModel:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_bits_match_reference(self, n):
        # rational rates make float(k) inexact; n = 2 is where a summed
        # entry k1 - k2 would change the bits
        rng = random.Random(500 + n)
        for _ in range(50):
            rates = [
                Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 99))
                for _ in range(n)
            ]
            sys = make_system(rates)
            terms = sim._terms(sys)
            x = np.array([rng.uniform(1e-3, 10.0) for _ in range(n)])
            assert _reference._field(*terms, x).tobytes() == _reference_rhs(sys, x).tobytes()
            # the native kernel has no RHS of its own: a step of it must
            # match the array step on that field
            steps = []
            for impl in _impls():
                xs = np.array([x, np.nan * x])
                impl.rk4_steps(n, *terms, xs, 0, 1, 0.01, np.empty(5 * n))
                steps.append(xs[1].tobytes())
            assert steps[1:] == steps[:-1]

    def test_matches_vector_field(self):
        rng = random.Random(103)
        for _ in range(25):
            sys = random_system(rng, rng.randint(2, 9))
            x = np.array([0.05 + rng.random() for _ in range(sys.n)])
            expect = [float(v) for v in vector_field(sys, list(x))]
            got = _reference._field(*sim._terms(sys), x)
            assert got == pytest.approx(expect, rel=1e-14, abs=1e-300)


class TestIntegrate:
    def test_equilibrium(self):
        sys = make_system([1, 1, 1])
        cfg = IntegratorConfig(step=1e-2, t_end=1.0)
        traj = integrate(sys, [1.0, 1.0, 1.0], cfg, integral_basis(sys))
        assert len(traj.t) == 101
        assert (traj.x == 1.0).all()
        assert (traj.drift == 0.0).all()

    def test_drift_bounds_example(self):
        sys = make_system([1, 1, 1])
        cfg = IntegratorConfig(step=1e-3, t_end=10.0)
        traj = integrate(sys, [0.2, 0.3, 0.5], cfg, integral_basis(sys))
        assert traj.drift[:, 0].max() <= 1e-10
        assert traj.drift[:, 1].max() <= 1e-6

    def test_nonresonant_tracks_linear_only(self):
        sys = make_system([1, 1, 1, 2])
        cfg = IntegratorConfig(step=1e-3, t_end=5.0)
        traj = integrate(sys, [0.3, 0.3, 0.2, 0.2], cfg, integral_basis(sys))
        assert traj.values.shape == traj.drift.shape == (len(traj.t), 1)
        assert traj.drift[:, 0].max() <= 1e-10

    def test_partial_final_step(self):
        sys = make_system([1, 2, 3])
        cfg = IntegratorConfig(step=3e-3, t_end=0.01)
        traj = integrate(sys, [0.2, 0.3, 0.5], cfg, integral_basis(sys))
        assert [round(t, 6) for t in traj.t.tolist()] == [0.0, 0.003, 0.006, 0.009, 0.01]

    @pytest.mark.parametrize("t_end", [0.3, 0.7])
    def test_last_row_is_at_t_end(self, t_end):
        # 3 x 0.1 and 7 x 0.1 round one ulp past 0.3 and 0.7
        sys = make_system([2, 1, 3])
        cfg = IntegratorConfig(step=0.1, t_end=t_end)
        traj = integrate(sys, [0.2, 0.3, 0.5], cfg, integral_basis(sys))
        assert len(traj.t) == round(t_end / 0.1) + 1
        assert traj.t[-1] == cfg.t_end

    @pytest.mark.parametrize("t_end", [1e-13, 5e-13])
    def test_t_end_below_one_step_is_reached(self, t_end):
        sys = make_system([2, 1, 3])
        cfg = IntegratorConfig(step=1e-3, t_end=t_end)
        traj = integrate(sys, [0.2, 0.3, 0.5], cfg, integral_basis(sys))
        assert traj.t.tolist() == [0.0, t_end]

    def test_drift_is_relative_to_a_start_below_1e_300(self):
        sys = make_system(RATES_41)
        x0 = [float(v) for v in X0_41_TINY_H2.split(",")]
        cfg = IntegratorConfig(step=8e-4, t_end=0.0016)
        traj = integrate(sys, x0, cfg, integral_basis(sys))
        v0 = traj.values[0, 1]
        assert 0.0 < v0 < 1e-300
        assert len(traj.t) == 3
        assert traj.drift[:, 1].tolist() == [abs(v - v0) / v0 for v in traj.values[:, 1]]

    def test_positive_records_only(self):
        sys = make_system([1, 2, 3])
        cfg = IntegratorConfig(step=1e-2, t_end=5.0)
        traj = integrate(sys, [0.2, 0.3, 0.5], cfg, integral_basis(sys))
        assert (traj.x > 0).all()

    def test_nonpositive_initial_state(self):
        sys = make_system([1, 2, 3])
        cfg = IntegratorConfig()
        for bad in (
            [0.0, 0.5, 0.5],
            [0.5, -0.1, 0.6],
            [0.2, math.nan, 0.5],
            [math.inf, 0.3, 0.5],
            [1e-13, 0.5, 0.5],
        ):
            with pytest.raises(
                InputError,
                match="initial state must be finite and at least the positivity floor 1e-12",
            ):
                integrate(sys, bad, cfg, integral_basis(sys))

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    def test_initial_state_is_screened_before_any_step(self, method, monkeypatch):
        # row 0 goes through the row screen alone, before either driver
        # runs; a generator, entered stops the run as a driver starts
        def entered(*args):
            raise AssertionError("a driver was entered")
            yield

        monkeypatch.setattr(sim, "_rk4_blocks", entered)
        monkeypatch.setattr(sim, "_rkf45_blocks", entered)
        cfg = IntegratorConfig(method, step=1e-3, t_end=0.01)
        sys = make_system(RATES_41)
        for x0, message in (
            ([1e-13] + [0.5] * 40, "initial state must be finite and at least the positivity"),
            ([2.0] * 41, "integral H2 is outside the float range at the initial state"),
        ):
            with pytest.raises(InputError, match=f"^{message}"):
                integrate(sys, x0, cfg, integral_basis(sys))
        # a bad rate is refused before an x0 below the floor
        bad_rate = make_system(["1e-400", 1, 3])
        with pytest.raises(InputError, match="^rate k1 has no finite nonzero float"):
            integrate(bad_rate, [1e-13, 0.5, 0.5], cfg, integral_basis(bad_rate))

    def test_positivity_breach_carries_partial_records(self):
        # with k1 < k2 the first coordinate of the n=2 system decays
        # monotonically toward the boundary and must trip the floor
        sys = make_system([1, 5])
        cfg = IntegratorConfig(step=1e-3, t_end=20.0)
        with pytest.raises(PositivityBreached) as exc:
            integrate(sys, [0.5, 0.5], cfg, integral_basis(sys))
        event = exc.value
        assert str(event) == f"coordinate x1 fell below the positivity floor at t={event.t:.17g}"
        assert 0 < event.t <= 20.0
        assert len(event.trajectory.t) > 100
        assert (event.trajectory.x > 0).all()

    def test_non_finite_state_aborts(self):
        # a step of 1e200 overflows the first RK4 stage: every coordinate of
        # the next state is NaN, which x < floor alone would let through
        sys = make_system([2, 1, 3])
        cfg = IntegratorConfig(step=1e200, t_end=1e202)
        with pytest.raises(NonFiniteState) as exc:
            integrate(sys, [0.2, 0.3, 0.5], cfg, integral_basis(sys))
        event = exc.value
        assert event.t == 1e200
        assert str(event) == f"coordinate x1 became non-finite at t={1e200:.17g}"
        assert event.trajectory.t.tolist() == [0.0]
        assert np.isfinite(event.trajectory.values).all()

    def test_infinite_coordinate_aborts(self, monkeypatch):
        # +inf is not below the floor, so only the finite test catches it.
        # Poisoned terms hold x1 and x3 fixed and make x2' = 1e27 * x1 * x2,
        # whose RK4 step of 0.1 multiplies x2 by about 7e99: the fourth step
        # overflows x2 to +inf, which stays +inf to t_end. With rates 1,
        # H2 = x1 x2 x3 stays in range while x2 is finite.
        sys = make_system([1, 1, 1])

        def poisoned(sys):
            j1, j2 = np.array([0, 0, 2]), np.array([0, 2, 2])
            return j1, np.array([0.0, 1e27, 0.0]), j2, np.zeros(3)

        monkeypatch.setattr(sim, "_terms", poisoned)
        for kernel in KERNELS:
            _force_kernel(monkeypatch, kernel)
            with pytest.raises(NonFiniteState) as exc:
                integrate(sys, [0.2, 0.3, 0.5], IntegratorConfig(step=0.1, t_end=1.0),
                          integral_basis(sys))
            assert str(exc.value) == f"coordinate x2 became non-finite at t={exc.value.t:.17g}"
            assert exc.value.t == pytest.approx(0.4)
            assert len(exc.value.trajectory.t) == 4
            assert np.isfinite(exc.value.trajectory.x).all()

    def test_initial_h1_overflow_refused(self):
        sys = make_system([2, 1, 3])
        with pytest.raises(
            InputError, match="integral H1 is outside the float range at the initial state"
        ):
            integrate(sys, [1e308] * 3, IntegratorConfig(), integral_basis(sys))

    FLOOR = "initial state must be finite and at least the positivity floor 1e-12"
    X0_REFUSALS = {
        "nan": ([2, 1, 3], [0.2, math.nan, 0.5], FLOOR),
        "inf": ([2, 1, 3], [math.inf, 0.3, 0.5], FLOOR),
        "below-floor": ([2, 1, 3], [0.5, 1e-13, 0.5], FLOOR),
        "h1-overflow": ([2, 1, 3], [1e308] * 3, "integral H1 is outside the float range"),
        "h2-overflow": (RATES_41, [2.0] * 41, "integral H2 is outside the float range"),
        "h2-underflow": (RATES_41, [0.999, 1.001] * 20 + [0.999],
                         "integral H2 is outside the float range"),
    }

    @pytest.mark.parametrize("rates, x0, message", X0_REFUSALS.values(), ids=X0_REFUSALS)
    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    def test_x0_is_refused_in_the_same_words_on_both_kernels(self, rates, x0, message, method,
                                                             monkeypatch):
        # x0 goes through the pass of the kernel that runs, against a start
        # of ones; a monomial outside LOG_RANGE is NaN, past either end
        sys = make_system(rates)
        refused = f"^{message}" + ("$" if message == self.FLOOR else " at the initial state$")
        for kernel in KERNELS:
            _force_kernel(monkeypatch, kernel)
            with pytest.raises(InputError, match=refused):
                integrate(sys, x0, IntegratorConfig(method, step=1e-3, t_end=0.01),
                          integral_basis(sys))

    def test_configurable_floor(self, monkeypatch):
        sys = make_system([1, 5])
        cfg = IntegratorConfig(step=1e-3, t_end=20.0)
        with pytest.raises(PositivityBreached) as default:
            integrate(sys, [0.5, 0.5], cfg, integral_basis(sys))
        monkeypatch.setattr(sim, "POSITIVITY_FLOOR", 1e-3)
        with pytest.raises(PositivityBreached) as tight:
            integrate(sys, [0.5, 0.5], cfg, integral_basis(sys))
        assert tight.value.t < default.value.t


class TestAdaptive:
    def test_reaches_t_end_and_conserves(self, monkeypatch):
        sys = make_system([1, 2, 3])
        monkeypatch.setattr(sim, "REL_TOL", 1e-9)
        monkeypatch.setattr(sim, "ABS_TOL", 1e-12)
        cfg = IntegratorConfig(method=Method.ADAPTIVE_RK45, step=1e-2, t_end=10.0)
        traj = integrate(sys, [0.2, 0.3, 0.5], cfg, integral_basis(sys))
        assert traj.t[-1] == pytest.approx(10.0, abs=1e-12)
        assert traj.drift[:, 0].max() <= 1e-10
        assert traj.drift[:, 1].max() <= 1e-6

    def test_tolerance_controls_step_count(self, monkeypatch):
        sys = make_system([1, 2, 3])
        monkeypatch.setattr(sim, "ABS_TOL", 1e-14)
        cfg = IntegratorConfig(method=Method.ADAPTIVE_RK45, step=1e-2, t_end=5.0)
        counts = []
        for rel in (1e-6, 1e-10):
            monkeypatch.setattr(sim, "REL_TOL", rel)
            counts.append(len(integrate(sys, [0.2, 0.3, 0.5], cfg, integral_basis(sys)).t))
        assert counts[1] > counts[0]

    def test_stored_floats_bound_the_steps_above_16_coordinates(self, monkeypatch):
        assert sim._step_limit(16) == sim.MAX_STEPS > sim._step_limit(17)
        n = 17
        monkeypatch.setattr(sim, "MAX_STORED_FLOATS", 50 * n + n - 1)
        assert sim._step_limit(n) == 50
        sys = make_system([i % 3 + 1 for i in range(n)])
        basis = integral_basis(sys)
        x0 = [1.0 / n] * n
        with pytest.raises(StepLimitReached, match="limit of 50 steps") as exc:
            integrate(sys, x0, IntegratorConfig("rk45", step=1e-2, t_end=1e3), basis)
        limit = f"adaptive run reached the limit of 50 steps at t={exc.value.t:.17g}"
        assert str(exc.value) == limit
        assert len(exc.value.trajectory.t) == 51
        rk4 = integrate(sys, x0, IntegratorConfig("rk4", step=0.02, t_end=1.0), basis)
        assert rk4.x.shape == (51, n)
        refused = f"^t_end/step = 50.5 exceeds the limit of 50 steps at n={n}$"
        with pytest.raises(InputError, match=refused):
            integrate(sys, x0, IntegratorConfig("rk4", step=0.02, t_end=1.01), basis)

    def test_step_underflow(self, monkeypatch):
        sys = make_system([1, 2, 3])
        monkeypatch.setattr(sim, "REL_TOL", 1e-14)
        monkeypatch.setattr(sim, "ABS_TOL", 1e-16)
        monkeypatch.setattr(sim, "MIN_STEP", 1e-3)
        cfg = IntegratorConfig(method=Method.ADAPTIVE_RK45, step=1e-2, t_end=1.0)
        with pytest.raises(StepUnderflow) as exc:
            integrate(sys, [0.2, 0.3, 0.5], cfg, integral_basis(sys))
        assert len(exc.value.trajectory.t) >= 1


def _seeded_rates(rng: random.Random, n: int) -> list:
    """n positive rates p/q with p and q drawn from 50 to 200."""
    return [Fraction(rng.randint(50, 200), rng.randint(50, 200)) for _ in range(n)]


@st.composite
def _signed_systems(draw):
    """Rates +-p/q, p and q from 50 to 200, at n = 2 to 18, x0 in [0.5, 1.5], r and p.

    r, from 1 to n - 1, is a rotation and p, from -2 to 2 but 0, a power of two.
    """
    n = draw(st.integers(2, 18))
    part = st.integers(50, 200)
    rates = draw(st.lists(st.builds(lambda sign, p, q: Fraction(sign * p, q),
                                    st.sampled_from([1, -1]), part, part), min_size=n, max_size=n))
    x0 = draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n))
    return rates, x0, draw(st.integers(1, n - 1)), draw(st.sampled_from([-2, -1, 1, 2]))


def _run(rates, x0, cfg):
    """The t, x and abort of a run; the abort is None or its class and time."""
    sys = make_system(rates)
    try:
        traj, abort = integrate(sys, x0, cfg, integral_basis(sys)), None
    except sim.IntegrationAborted as exc:
        traj, abort = exc.trajectory, (type(exc), exc.t)
    return traj.t, traj.x, abort


# The symmetries of the field that each kernel keeps bit for bit. Each gives
# its images of rates and x0: their rates, their x0, the p of their time
# scale 2^-p and the map of a run's x onto theirs. H1 and the drifts are not
# compared: a rotation or a reflection reorders H1's sum.


def _rotation(rates, x0, r):
    """The rates and x0 rotated by r, whose run has each x row rotated, bit for bit, at the same t.

    Rotating them rotates the field's entries, each with the same
    operations, and RKF45's error norm is a max.
    """
    return [(rates[r:] + rates[:r], x0[r:] + x0[:r], 0, lambda x: np.roll(x, -r, axis=1))]


def _reflection(rates, x0):
    """Rates k'_i = -k_(-i-1) from x0 reflected, whose run has each x row reflected, bit for bit.

    y_i = x_(-i), indices mod n, solves that system: each entry of its
    field is the reflected entry's two products, added in the other
    order, which IEEE addition allows. The times are the same.
    """
    n = len(rates)
    mirror = [-i % n for i in range(n)]
    return [([-rates[(-i - 1) % n] for i in range(n)], [x0[i] for i in mirror], 0,
             lambda x: x[:, mirror])]


def _doubling(rates, x0, method, p):
    """Rates x 2^p, or for RK4 x0 x 2^p, with step and t_end x 2^-p.

    Rates x 2^p scale each entry of the field by 2^p exactly, and x0 x 2^p
    by 2^2p; with the step scaled by 2^-p, each stage and sum scales by a
    power of two, so each state stays equal, or scales by 2^p, bit for
    bit, at 2^-p the time. RKF45's error scale ABS_TOL + REL_TOL |x| does
    not scale with x, so x0 x 2^p is run on RK4 alone.
    """
    images = [([q * Fraction(2) ** p for q in rates], x0, p, lambda x: x)]
    if method == "rk4":
        images.append((rates, [v * 2.0**p for v in x0], p, lambda x: x * 2.0**p))
    return images


def _image_runs(rates, x0, method, images, t_end=1.013):
    """Each image's run beside the base run mapped onto it, both as _run's (t, x, abort).

    The base run steps by 0.01 to t_end, and an image with time scale 2^-p
    by 0.01 2^-p to t_end 2^-p.
    """
    t, x, abort = _run(rates, x0, IntegratorConfig(method, 0.01, t_end))
    pairs = []
    for image_rates, image_x0, p, x_map in images:
        scale = 2.0**-p
        cfg = IntegratorConfig(method, 0.01 * scale, t_end * scale)
        pairs.append((_run(image_rates, image_x0, cfg),
                      (t * scale, x_map(x), abort and (abort[0], abort[1] * scale))))
    return pairs


def _assert_agree(pairs):
    """Each image's run has the bits of t and x, and the abort, of the base run mapped."""
    for (t, x, abort), (want_t, want_x, want_abort) in pairs:
        assert t.tobytes() == want_t.tobytes()
        assert x.tobytes() == want_x.tobytes()
        assert abort == want_abort


class TestKernelsAgree:
    """A native build and _reference give the same bits, aborts included."""

    @pytest.mark.parametrize("n", range(2, 19))
    @pytest.mark.parametrize(
        "cfg",
        [
            # 20 full steps and a tail of 0.013
            IntegratorConfig(method="rk4", step=0.05, t_end=1.013),
            IntegratorConfig(method="rk45", step=1e-2, t_end=1.0),
        ],
        ids=["rk4-tail", "rk45"],
    )
    def test_bits_match(self, n, cfg, monkeypatch):
        rng = random.Random(700 + n)
        sys = random_system(rng, n, lo=1, hi=2)
        x0 = [1.0 + 0.1 * rng.uniform(-1.0, 1.0) for _ in range(n)]
        rows, abort = _on_every_kernel(monkeypatch, sys, x0, cfg)
        assert abort is None
        if cfg.method is Method.RK4_FIXED:
            assert rows == 22  # x0, 20 full steps and the tail

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    @pytest.mark.parametrize("n", [2, 3, 9, 17])
    def test_rotation_rotates_every_state(self, n, method, kernel, monkeypatch):
        _force_kernel(monkeypatch, kernel)
        rng = random.Random(900 + n)
        rates, x0 = _seeded_rates(rng, n), [rng.uniform(0.5, 1.5) for _ in range(n)]
        _assert_agree(_image_runs(rates, x0, method, _rotation(rates, x0, rng.randrange(1, n))))

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    @pytest.mark.parametrize("n", [2, 3, 9, 17])
    def test_doubling_rates_or_x0_halves_every_time(self, n, method, kernel, monkeypatch):
        _force_kernel(monkeypatch, kernel)
        rng = random.Random(980 + n)
        rates, x0 = _seeded_rates(rng, n), [rng.uniform(0.5, 1.5) for _ in range(n)]
        _assert_agree(_image_runs(rates, x0, method, _doubling(rates, x0, method, 1)))

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    @pytest.mark.parametrize("n", [2, 3, 9, 17])
    def test_reflection_reflects_every_state(self, n, method, kernel, monkeypatch):
        _force_kernel(monkeypatch, kernel)
        rng = random.Random(950 + n)
        rates, x0 = _seeded_rates(rng, n), [rng.uniform(0.5, 1.5) for _ in range(n)]
        _assert_agree(_image_runs(rates, x0, method, _reflection(rates, x0)))

    @given(st.sampled_from(["rotation", "reflection", "doubling"]), _signed_systems(),
           st.sampled_from(["rk4", "rk45"]), st.sampled_from(KERNELS))
    @settings(max_examples=48, deadline=None)
    def test_symmetries_map_drawn_runs(self, symmetry, system, method, kernel):
        # The three symmetries above on signed rates at n = 2 to 18. An abort
        # must map to the same abort at the mapped time, though H1, the sum
        # of the coordinates, bounds each of them, so these runs seldom
        # abort. IntegralOutOfRange need not map: a rotated or reflected
        # basis is normalised by its own first entry, and x0 x 2^p moves s.
        rates, x0, r, p = system
        images = {"rotation": _rotation(rates, x0, r), "reflection": _reflection(rates, x0),
                  "doubling": _doubling(rates, x0, method, p)}[symmetry]
        with pytest.MonkeyPatch.context() as patch:
            _force_kernel(patch, kernel)
            try:
                pairs = _image_runs(rates, x0, method, images, t_end=0.263)
            except InputError:
                reject()  # an integral outside the float range at x0
        assume(all(run[2] is None or run[2][0] is not IntegralOutOfRange
                   for pair in pairs for run in pair))
        _assert_agree(pairs)

    # rates whose floats are not dyadic, are signed, or sit near the top or
    # the bottom of the float range, each with the unit of time that keeps a
    # step's change of state near 1e-2; at n = 2 both terms of a row land on
    # one column
    LITERALS = {
        "n2-signed": ([Fraction(1, 3), Fraction(-7, 5)], 1.0),
        "n5-signed": ([Fraction(1, 3), Fraction(-7, 5), 2, Fraction(1, 3), 1], 1.0),
        "n2-huge": ([10**300, 3 * 10**300], 1e-300),
        "n3-huge": ([10**300, Fraction(10**300, 3), 2 * 10**300], 1e-300),
        "n2-tiny": ([Fraction(1, 10**300), Fraction(-7, 5 * 10**300)], 1e300),
        "n4-tiny": ([Fraction(1, 10**300), Fraction(1, 3 * 10**300), 2 * Fraction(1, 10**300),
                     Fraction(7, 5 * 10**300)], 1e300),
    }

    @pytest.mark.parametrize("rates, unit", LITERALS.values(), ids=LITERALS)
    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    def test_literal_rates(self, rates, unit, method, monkeypatch):
        sys = make_system(rates)
        x0 = [0.5 + 0.1 * i for i in range(sys.n)]
        if method == "rk4":
            cfg = IntegratorConfig(method, step=0.05 * unit, t_end=1.013 * unit)
        else:
            cfg = IntegratorConfig(method, step=1e-3 * unit, t_end=unit)
        rows, abort = _on_every_kernel(monkeypatch, sys, x0, cfg)
        assert abort is None
        assert rows == 22 if method == "rk4" else rows > 100

    def test_nan_stage_underflows_on_both_kernels(self, monkeypatch):
        # The coefficient of x7 in x8's row is NaN, so x8 of every first
        # stage is NaN, and each later stage spreads the NaN one coordinate
        # further each way: the new state and the error are NaN in x3 to
        # x13 and finite at both ends. The norm must keep the NaN, reject
        # every retry and end in StepUnderflow at t = 0. A max() that skips
        # the NaN accepts the NaN state and ends in NonFiniteState instead.
        sys = make_system([1, 2] * 8)
        cfg = IntegratorConfig(method="rk45", step=1e-2, t_end=1.0)
        terms = sim._terms

        def poisoned(sys):
            j1, c1, j2, c2 = terms(sys)
            c2 = c2.copy()
            c2[7] = math.nan
            return j1, c1, j2, c2

        monkeypatch.setattr(sim, "_terms", poisoned)
        rows, (kind, t) = _on_every_kernel(monkeypatch, sys, [1 / 16] * 16, cfg)
        assert kind is StepUnderflow
        assert rows == 1
        assert t == 0.0

    # k = (1, 5) from (0.5, 0.5): x1 decays at a rate near 4, and at step
    # 0.05 row 138 (t = 6.9) is the last above the floor, at about 1.03e-12.
    # k = (5, 1) is its mirror image, where x2 decays. A step of 1e200
    # overflows the first step's stages to NaN.
    EXITS = {
        "breach-full": (0.05, 7.013, PositivityBreached, 6.95),
        "breach-tail": (0.05, 6.94, PositivityBreached, 6.94),
        "nan": (1e200, 1e202, NonFiniteState, 1e200),
    }

    @pytest.mark.parametrize("step, t_end, kind, t", EXITS.values(), ids=EXITS)
    @pytest.mark.parametrize("rates", [(1, 5), (5, 1)], ids=["x1-decays", "x2-decays"])
    def test_rk4_exits(self, rates, step, t_end, kind, t, monkeypatch):
        cfg = IntegratorConfig("rk4", step=step, t_end=t_end)
        rows, abort = _on_every_kernel(monkeypatch, make_system(rates), [0.5, 0.5], cfg)
        assert abort == (kind, t)
        assert rows == round(t / step)

    # The adaptive pair on the same systems from (x1, 0.5) and its mirror
    # image: the step grows while the small coordinate decays, and the
    # failing row comes after `rows` rows at t.
    RK45_BREACHES = {
        "from-1e-7": (1e-7, 6.505346296972088, 20),
        "from-1e-9": (1e-9, 3.9581986048469178, 8),
    }

    @pytest.mark.parametrize("x1, t, rows", RK45_BREACHES.values(), ids=RK45_BREACHES)
    @pytest.mark.parametrize("mirror", [False, True], ids=["x1-decays", "x2-decays"])
    def test_rk45_breaches(self, mirror, x1, t, rows, monkeypatch):
        rates, x0 = ((5, 1), [0.5, x1]) if mirror else ((1, 5), [x1, 0.5])
        cfg = IntegratorConfig("rk45", step=0.05, t_end=20.0)
        assert _on_every_kernel(monkeypatch, make_system(rates), x0, cfg) == (
            rows, (PositivityBreached, t))

    # Runs that fail on a block's first new row, on one in its middle or on
    # its last row, in blocks of 7 rows, each of the three ways a row fails
    # the screen: a coordinate that is not finite, where k = (1, 5) from
    # (1e300, x2) grows x2 until its field overflows; x1 below the floor, as
    # in EXITS; and a monomial out of range, where the exponents of rates
    # [7, 1] * 15 + [7] reach 7^15, so that RK4's error moves s by about
    # 60 a row. Each gives the rates, x0, the step, t_end, the abort and the
    # failing row.
    BLOCK_EDGE_EXITS = {
        "non-finite-first": ([1, 5], [1e300, 1e-9], 1e-301, 1e-298, NonFiniteState, 92),
        "non-finite-mid": ([1, 5], [1e300, 1e-8], 1e-301, 1e-298, NonFiniteState, 87),
        "non-finite-last": ([1, 5], [1e300, 1e-10], 1e-301, 1e-298, NonFiniteState, 98),
        "floor-first": ([1, 5], [0.5, 0.5], 0.049, 8.0, PositivityBreached, 141),
        "floor-mid": ([1, 5], [0.5, 0.5], 0.048, 8.0, PositivityBreached, 144),
        "floor-last": ([1, 5], [0.5, 0.5], 0.047, 8.0, PositivityBreached, 147),
        "integral-first": ([7, 1] * 15 + [7], [1.0] * 31, 0.0022, 1.0, IntegralOutOfRange, 15),
        "integral-mid": ([7, 1] * 15 + [7], [1.0] * 31, 0.0025, 1.0, IntegralOutOfRange, 10),
        "integral-last": ([7, 1] * 15 + [7], [1.0] * 31, 0.002, 1.0, IntegralOutOfRange, 21),
    }

    @pytest.mark.parametrize("rates, x0, step, t_end, kind, fails", BLOCK_EDGE_EXITS.values(),
                             ids=BLOCK_EDGE_EXITS)
    def test_aborts_at_block_edges(self, rates, x0, step, t_end, kind, fails, monkeypatch):
        # the rows after row 0 fall in blocks of 7, so row g is a block's
        # first new row when g % 7 == 1 and its last when g % 7 == 0
        monkeypatch.setattr(sim, "_BLOCK_ROWS", 7)
        cfg = IntegratorConfig("rk4", step=step, t_end=t_end)
        rows, abort = _on_every_kernel(monkeypatch, make_system(rates), x0, cfg)
        assert (rows, abort) == (fails, (kind, fails * step))

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize(
        "method, x1, t_end, fails", [("rk4", 0.5, 8.0, 139), ("rk45", 1e-7, 20.0, 20)],
        ids=["rk4", "rk45"],
    )
    def test_failing_run_steps_at_most_one_block_past(self, method, x1, t_end, fails, kernel,
                                                      monkeypatch):
        # The kernels step on past the failing row to the end of its block,
        # where the screen finds it. Each wrapped kernel counts the steps it
        # takes: for RK4 the count it is asked for, for RKF45 each step that
        # rkf45_block adds to the accepted count in its state.
        taken = 0
        # a native build, if any, is made now, so that its probe's steps
        # are not counted
        _force_kernel(monkeypatch, kernel)
        impl = sim._impl()

        def rk4_steps(*args):
            nonlocal taken
            taken += args[7]  # count
            return impl.rk4_steps(*args)

        def rkf45_block(*args):
            nonlocal taken
            before = int(args[12][0])  # the state: the accepted count, then the end
            rows = impl.rkf45_block(*args)
            taken += int(args[12][0]) - before
            return rows

        wrapped = SimpleNamespace(rk4_steps=rk4_steps, rkf45_block=rkf45_block,
                                  block_pass=impl.block_pass)
        monkeypatch.setattr(sim, "_impl", lambda: wrapped)
        monkeypatch.setattr(sim, "_BLOCK_ROWS", 7)
        sys = make_system([1, 5])
        cfg = IntegratorConfig(method, step=0.05, t_end=t_end)
        _, rows, abort = _outcome(sys, [x1, 0.5], cfg, integral_basis(sys))
        assert (rows, abort[0]) == (fails, PositivityBreached)
        assert fails <= taken <= fails + 7

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_a_full_block_has_accepted_its_rows(self, kernel, monkeypatch):
        # A block ends _FULL before its next trial, so at each _FULL the
        # steps accepted so far are the rows yielded so far, and a call
        # resumes from its state alone. The count and the end are the
        # state's entries after each call of rkf45_block.
        if kernel == "native" and not _has_compiler():
            pytest.skip("the C compiler Python was built with is not installed")
        _force_kernel(monkeypatch, kernel)
        impl, written, ends = sim._impl(), 0, []

        def rkf45_block(*args):
            rows = impl.rkf45_block(*args)
            accepted, end = args[12].tolist()
            ends.append(end)
            assert accepted == written + rows
            return rows

        sys = make_system([1, 2, 2, 1, 2])
        xs, ts = np.empty((8, sys.n)), np.empty(8)
        xs[0] = [1.0, 1.1, 0.9, 1.0, 1.05]
        cfg = IntegratorConfig("rk45", step=0.01, t_end=1.0)
        for rows, abort in sim._rkf45_blocks(SimpleNamespace(rkf45_block=rkf45_block),
                                             sim._terms(sys), xs, ts, cfg):
            assert abort is None
            written += rows
        assert ends.count(sim._FULL) >= 2 and ends[-1] == sim._DONE

    def test_step_limit_on_both_kernels(self, monkeypatch):
        # 1100 steps go past the 1024 rows an adaptive run once allocated
        # first, so the limit is met after the storage has grown
        monkeypatch.setattr(sim, "MAX_STEPS", 1100)
        n = 16
        rng = random.Random(716)
        sys = random_system(rng, n, lo=1, hi=2)
        x0 = [1.0 + 0.1 * rng.uniform(-1.0, 1.0) for _ in range(n)]
        cfg = IntegratorConfig(method="rk45", step=1e-2, t_end=1e3)
        rows, (kind, _) = _on_every_kernel(monkeypatch, sys, x0, cfg)
        assert kind is StepLimitReached
        assert rows == sim.MAX_STEPS + 1

    @pytest.mark.parametrize(
        "rates, x",
        [([1, 2, 3], [1e153, 5e153, 3e153]), ([1, 2, 3, 1], [1e153, 1e153, 3e153, 3e153])],
        ids=["n3", "n4"],
    )
    def test_overflowing_stage_reaches_zero_weights(self, rates, x):
        # Near 1e153 a stage entry is near 1e307, so a tableau row's weighted
        # sum overflows before h scales it and a later stage is inf or NaN.
        # Its 0.0 weight in the fourth-order sum turns that into NaN in every
        # entry of the array step. The native loop's zero weights are the probe's
        # to check (TestNativeStepper.MUTATIONS["rkf45_block"]["zero-weight-dropped"]).
        f = partial(_reference._field, *sim._terms(make_system(rates)))
        with np.errstate(all="ignore"):
            want, norm = _reference._rkf45_step(f, list(sim._FEHLBERG), sim.REL_TOL, sim.ABS_TOL,
                                                np.array(x), 1e-306)
        assert np.isnan([*want, norm]).all()


class TestNativeStepper:
    """The native loops are built once into the per-user cache and loaded from there.

    Where they cannot be had, simulate steps on _reference and gives
    the same bytes, exit code and empty stderr, for RK4 and RKF45 alike.
    """

    @pytest.fixture(autouse=True)
    def fresh_process(self, tmp_path):
        """A process that has not looked for a build, before the test and after it."""
        spec = tmp_path / "spec.json"
        spec.write_text('{"k": [2, 1, 3]}', encoding="utf-8")
        self.csv = tmp_path / "t.csv"
        self.run = ["simulate", "--system", str(spec), "--x0", "0.2,0.3,0.5", "--step", "0.01",
                    "--t-end", "5.003", "--out", str(self.csv)]
        NATIVE.cache_clear()
        yield
        NATIVE.cache_clear()

    def _simulate(self, capsys):
        """main's exit code, stdout and stderr, and the CSV's bytes, of n = 3 RK4 and RKF45 runs."""
        outcomes = []
        for method in ("rk4", "rk45"):
            code = cli.main([*self.run, "--method", method])
            out, err = capsys.readouterr()
            outcomes.append((code, out, err, self.csv.read_bytes()))
        return outcomes

    @staticmethod
    def _mutate(monkeypatch, tmp_path, old, new):
        """Point sim at a copy of _native.c with its one text old replaced by new."""
        with open(sim._NATIVE_SOURCE, encoding="utf-8") as file:
            source = file.read()
        assert source.count(old) == 1
        (tmp_path / "_native.c").write_text(source.replace(old, new), encoding="utf-8")
        monkeypatch.setattr(sim, "_NATIVE_SOURCE", str(tmp_path / "_native.c"))

    @staticmethod
    def _no_compiler(monkeypatch, tmp_path):
        config_var = sysconfig.get_config_var
        monkeypatch.setattr(sysconfig, "get_config_var",
                            lambda name: "no-such-cc" if name == "CC" else config_var(name))

    @staticmethod
    def _cache_is_a_file(monkeypatch, tmp_path):
        (tmp_path / "file").write_bytes(b"")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))

    @staticmethod
    def _cache_writable_by_others(monkeypatch, tmp_path):
        (tmp_path / "cache" / "cycliclv").mkdir(parents=True)
        # mkdir applies the umask, chmod does not
        (tmp_path / "cache" / "cycliclv").chmod(0o777)

    @pytest.mark.parametrize(
        "unusable",
        [_no_compiler, _cache_is_a_file, _cache_writable_by_others],
        ids=["no-compiler", "cache-is-a-file", "cache-writable-by-others"],
    )
    def test_falls_back_to_the_same_bytes(self, unusable, monkeypatch, tmp_path, capsys):
        # the suite's cache holds a build where one can be made; a build
        # whose probe differs is each of MUTATIONS
        want = self._simulate(capsys)
        assert all(code == 0 and err == "" for code, _, err, _ in want)
        NATIVE.cache_clear()
        cache = tmp_path / "cache"
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        unusable.__func__(monkeypatch, tmp_path)
        assert NATIVE() is None
        assert self._simulate(capsys) == want
        # neither a build nor its temporary file is left behind
        if (cache / "cycliclv").is_dir():
            assert os.listdir(cache / "cycliclv") == []

    # Ways for each C function of _native.c to compute otherwise than its
    # Python reference, each one text of _native.c and its replacement.
    MUTATIONS = {
        "rk4_steps": {
            "fma-in-new-state": (
                "x[n + i] = x[i] + sixth * (((k1[i] + 2.0 * k2[i]) + 2.0 * k3[i]) + k4[i]);",
                "x[n + i] = fma(sixth, ((k1[i] + 2.0 * k2[i]) + 2.0 * k3[i]) + k4[i], x[i]);",
            ),
            "new-state-sum-regrouped": (
                "(((k1[i] + 2.0 * k2[i]) + 2.0 * k3[i]) + k4[i])",
                "((k1[i] + 2.0 * k2[i]) + (2.0 * k3[i] + k4[i]))",
            ),
            "field-distributed": (
                "k[i] = y[i] * (c1[i] * y[j1[i]] + c2[i] * y[j2[i]]);",
                "k[i] = y[i] * c1[i] * y[j1[i]] + y[i] * c2[i] * y[j2[i]];",
            ),
            "fma-in-fourth-stage": ("y[i] = x[i] + h * k3[i];", "y[i] = fma(h, k3[i], x[i]);"),
            "sixth-as-h-over-6.5": ("sixth = h / 6.0;", "sixth = h / 6.5;"),
        },
        "rkf45_block": {
            "fma-in-one-stage": (
                "                y[i] = x[i] + h * sum;",
                "                y[i] = s == 3 ? fma(h, sum, x[i]) : x[i] + h * sum;",
            ),
            "stage-sum-reordered": (
                "                y[i] = x[i] + h * sum;",
                "                if (s == 5)\n"
                "                    sum = (((a[4] * k[4 * n + i] + a[3] * k[3 * n + i])"
                " + a[2] * k[2 * n + i]) + a[1] * k[n + i]) + a[0] * k[i];\n"
                "                y[i] = x[i] + h * sum;",
            ),
            "error-sum-reordered": (
                "            double a = fabs(x[i]), b = fabs(z[i]);",
                "            e = ((((er[5] * k[5 * n + i] + er[4] * k[4 * n + i])"
                " + er[3] * k[3 * n + i]) + er[2] * k[2 * n + i]) + er[1] * k[n + i])"
                " + er[0] * k[i];\n"
                "            double a = fabs(x[i]), b = fabs(z[i]);",
            ),
            "zero-weight-dropped": (
                "                sum = sum + b4[q] * k[q * n + i];",
                "                if (q != 5)\n"
                "                    sum = sum + b4[q] * k[q * n + i];",
            ),
            "exp-log-for-pow": ("pow(m, -0.2)", "exp(-0.2 * log(m))"),
        },
        "block_pass": {
            "floor-inclusive": ("fails |= !isfinite(xs[i]) || xs[i] < floor;",
                                "fails |= !isfinite(xs[i]) || xs[i] <= floor;"),
            "expm1-for-exp": ("exp(v);", "expm1(v) + 1.0;"),
            "drift-as-ratio": ("fabs(v - start[j]) / start[j];", "fabs(v / start[j] - 1.0);"),
            "low-s-as-exp": ("v < lo || v > hi ? NAN : exp(v);", "v > hi ? NAN : exp(v);"),
            "failing-row-folded": (
                "        if (fails)\n",
                "        for (int64_t j = 0; j <= m; j++)\n"
                "            max_drift[j] = drift[j] > max_drift[j] ? drift[j] : max_drift[j];\n"
                "        if (fails)\n",
            ),
        },
        "csv_rows": {
            "ties-half-up": (
                "    *d += (low > half) | ((low == half) & (int)(*d & 1));",
                "    *d += low >= half;",
            ),
            "carry-once": ("        while (d >= TEN17)", "        if (d >= TEN17)"),
            "one-digit-exponent": (
                "        *p++ = (char)('0' + -k / 10);",
                "        if (-k > 9)\n            *p++ = (char)('0' + -k / 10);",
            ),
            "minus-zero-as-zero": (
                "    if (bits >> 63)\n        *p++ = '-';",
                "    if (bits >> 63 && v != 0.0)\n        *p++ = '-';",
            ),
            "libc-16-digits": ('snprintf(text, sizeof text, "%.17g", v);',
                               'snprintf(text, sizeof text, "%.16g", v);'),
            "pair-table-58-59-swapped": ('"4041424344454647484950515253545556575859"',
                                         '"4041424344454647484950515253545556575958"'),
            "split-at-10^9": (
                "hi = (uint32_t)(d / 100000000), lo = (uint32_t)(d % 100000000);",
                "hi = (uint32_t)(d / 1000000000), lo = (uint32_t)(d % 1000000000);",
            ),
        },
    }

    def test_each_c_function_has_one_entry_and_its_mutations(self):
        # A function of _native.c without a declaration would take floats
        # as ArgumentError and cut an int64 result to an int, and one whose
        # pointer is declared with another dtype would read its array's
        # bytes as another type; without a probe case or mutations it would
        # be held to nothing. Its reference of the same name takes its
        # arguments one for one.
        with open(sim._NATIVE_SOURCE, encoding="utf-8") as file:
            code = re.sub(r"/\*.*?\*/", "", file.read(), flags=re.DOTALL)
        prototypes = re.findall(r"^(?!static\b)(\w[\w *]*?)\b(\w+)\(([^)]*)\)", code,
                                flags=re.MULTILINE)
        defined = {name for _, name, _ in prototypes}
        assert defined == set(sim._ENTRY_POINTS) == set(self.MUTATIONS)
        c_types = {"void": None, "int64_t": ctypes.c_int64, "double": ctypes.c_double,
                   "int64_t *": np.dtype(np.int64), "double *": np.dtype(np.float64),
                   "char *": np.dtype(np.uint8)}

        def declared(text):
            # "const double *xs" and "double *" are both "double *"
            return c_types[" ".join(text.replace("const ", "").replace("*", " *").split())]

        for restype, name, params in prototypes:
            types = tuple(declared(re.sub(r"\w+$", "", p.strip())) for p in params.split(","))
            assert sim._ENTRY_POINTS[name] == (declared(restype), types)
            reference = getattr(_reference, name)
            assert inspect.isfunction(reference)
            assert len(inspect.signature(reference).parameters) == len(types)
            assert inspect.isfunction(getattr(_reference, f"_probe_{name}"))

    def _refused(self, function, mutation, monkeypatch, tmp_path, capsys):
        """A build with one mutation of function loads, fails its probe and leaves one marker.

        simulate then gives the suite build's bytes on the Python references.
        """
        if not _has_compiler():
            pytest.skip("the C compiler Python was built with is not installed")
        want = self._simulate(capsys)
        NATIVE.cache_clear()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        self._mutate(monkeypatch, tmp_path, *self.MUTATIONS[function][mutation])
        assert NATIVE() is None
        (marker,) = os.listdir(tmp_path / "cache" / "cycliclv")
        assert marker.endswith(".so.failed")
        assert self._simulate(capsys) == want

    # one test per C function, each under the name its mutations have had
    @pytest.mark.parametrize("mutation", MUTATIONS["rk4_steps"])
    def test_probe_refuses_an_rk4_loop_that_steps_otherwise(self, mutation, monkeypatch, tmp_path,
                                                           capsys):
        self._refused("rk4_steps", mutation, monkeypatch, tmp_path, capsys)

    @pytest.mark.parametrize("mutation", MUTATIONS["rkf45_block"])
    def test_probe_refuses_a_fehlberg_loop_that_steps_otherwise(self, mutation, monkeypatch,
                                                               tmp_path, capsys):
        self._refused("rkf45_block", mutation, monkeypatch, tmp_path, capsys)

    @pytest.mark.parametrize("mutation", MUTATIONS["block_pass"])
    def test_probe_refuses_a_pass_that_screens_otherwise(self, mutation, monkeypatch, tmp_path,
                                                         capsys):
        self._refused("block_pass", mutation, monkeypatch, tmp_path, capsys)

    @pytest.mark.parametrize("mutation", MUTATIONS["csv_rows"])
    def test_probe_refuses_a_formatter_that_writes_otherwise(self, mutation, monkeypatch,
                                                             tmp_path, capsys):
        self._refused("csv_rows", mutation, monkeypatch, tmp_path, capsys)

    REFUSED = "^csv_rows takes C-ordered arrays of the dtypes declared$"

    def test_a_build_refuses_an_array_that_is_not_c_ordered(self):
        # a build reads each array at its address, row after row
        if NATIVE() is None:
            pytest.skip("no native build loads here")
        block, out = np.asfortranarray(np.full((3, 4), 0.5)), np.empty(300, np.uint8)
        with pytest.raises(ValueError, match=self.REFUSED):
            NATIVE().csv_rows(block, 3, 4, out, len(out))

    def test_a_build_refuses_an_array_of_another_dtype(self):
        # C would read the bytes of an int64 block as doubles, with no error
        if NATIVE() is None:
            pytest.skip("no native build loads here")
        block, out = np.ones((3, 4)), np.empty(300, np.uint8)
        for args in ((block.astype(np.int64), out), (block, out.view(np.int8))):
            with pytest.raises(ValueError, match=self.REFUSED):
                NATIVE().csv_rows(args[0], 3, 4, args[1], len(out))

    def test_a_comment_edit_keeps_the_build_name(self, monkeypatch, tmp_path):
        # the name follows the code, not the comments around it
        name = sim._native_name()
        self._mutate(monkeypatch, tmp_path, "/* How a call of rkf45_block ended",
                     "/* How one call of rkf45_block ended")
        assert sim._native_name() == name
        self._mutate(monkeypatch, tmp_path, *self.MUTATIONS["rk4_steps"]["sixth-as-h-over-6.5"])
        assert sim._native_name() != name

    def test_the_probe_rejects_a_fehlberg_step(self, monkeypatch):
        # a finite error norm above 1 is a rejected step of the probe's run
        # to t_end; its NaN run rejects only NaN norms
        if not _has_compiler():
            pytest.skip("the C compiler Python was built with is not installed")
        norms = []
        step = _reference._rkf45_step

        def recorded(*args):
            out = step(*args)
            norms.append(out[1])
            return out

        monkeypatch.setattr(_reference, "_rkf45_step", recorded)
        assert _reference._probe(NATIVE())
        assert any(1.0 < norm < math.inf for norm in norms)

    def test_a_failed_probe_is_built_once(self, monkeypatch, tmp_path):
        # a second process finds the marker and does not run the compiler
        if not _has_compiler():
            pytest.skip("the C compiler Python was built with is not installed")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        self._mutate(monkeypatch, tmp_path, *self.MUTATIONS["rk4_steps"]["sixth-as-h-over-6.5"])
        assert NATIVE() is None
        (marker,) = os.listdir(tmp_path / "cache" / "cycliclv")
        assert marker.startswith("native-") and marker.endswith(".so.failed")
        second = "\n".join([
            "import subprocess, sys",
            "from cycliclv import sim",
            "def no_compiler(*args, **kwargs):",
            "    raise AssertionError('the compiler ran')",
            "subprocess.run = no_compiler",
            "sim._NATIVE_SOURCE = sys.argv[1]",
            "print(sim._native())",
        ])
        result = run_python(["-c", second, sim._NATIVE_SOURCE], tmp_path, timeout=120)
        assert result.returncode == 0, stderr_of(result)
        assert result.stdout.strip() == b"None"
        assert os.listdir(tmp_path / "cache" / "cycliclv") == [marker]

    def test_a_build_removes_stale_temporary_files(self, monkeypatch, tmp_path):
        # one left by a process killed mid-build, and one of a build that
        # may still be running; a build of another source stays
        if not _has_compiler():
            pytest.skip("the C compiler Python was built with is not installed")
        folder = tmp_path / "cache" / "cycliclv"
        folder.mkdir(parents=True, mode=0o700)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        stale, fresh = folder / "native-0.so.1.tmp", folder / "native-0.so.2.tmp"
        other = folder / "native-0.so"
        for file in (stale, fresh, other):
            file.write_bytes(b"")
        old = time.time() - _reference._BUILD_SECONDS - 10
        os.utime(stale, (old, old))
        assert NATIVE() is not None
        (built,) = set(os.listdir(folder)) - {fresh.name, other.name}
        assert built.startswith("native-") and built.endswith(".so")
        assert sorted(os.listdir(folder)) == sorted([built, fresh.name, other.name])

    def test_loads_where_python_has_a_compiler(self):
        if not _has_compiler():
            pytest.skip("the C compiler Python was built with is not installed")
        assert NATIVE() is not None

    def test_a_cached_build_is_loaded_without_the_compiler(self, monkeypatch, tmp_path):
        if not _has_compiler():
            pytest.skip("the C compiler Python was built with is not installed")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        built = NATIVE()
        assert built is not None
        (name,) = os.listdir(tmp_path / "cache" / "cycliclv")
        assert name.startswith("native-") and name.endswith(".so")
        NATIVE.cache_clear()

        def no_compiler(*args, **kwargs):
            raise AssertionError("the compiler ran")

        monkeypatch.setattr(subprocess, "run", no_compiler)
        loaded = NATIVE()
        assert loaded is not None and loaded is not built
        assert _reference._probe(loaded)


def _powers_of_ten() -> list[float]:
    """1e-323 to 1e308, each with the doubles either side of it."""
    out = []
    for k in range(-323, 309):
        p = float(f"1e{k}")
        out += [math.nextafter(p, 0.0), p, math.nextafter(p, math.inf)]
    return out


def _halfway() -> list[float]:
    """M/4 and M/8 for seeded odd M in [4e15, 9e15): 17th digits that tie or nearly do."""
    rng = random.Random(43)
    odd = [rng.randrange(4 * 10**15, 9 * 10**15) | 1 for _ in range(20_000)]
    return [m / 4 for m in odd] + [m / 8 for m in odd]


def _random_bits() -> list[float]:
    """2e5 seeded random finite bit patterns, subnormals and zeros possible."""
    bits = np.random.default_rng(43).integers(0, 2**64, 220_000, dtype=np.uint64)
    values = bits.view(float)
    return values[np.isfinite(values)][:200_000].tolist()


def _decades() -> list[float]:
    """c * 10^k for c = 1 to 9 and k = -17 to 17, each with the doubles either side of it.

    These are where csv_rows's carry loop stops one exponent apart.
    """
    out = []
    for c in range(1, 10):
        for k in range(-17, 18):
            v = float(f"{c}e{k}")
            out += [math.nextafter(v, 0.0), v, math.nextafter(v, math.inf)]
    return out


# Values near the 128-bit path's edges: the double nearest 1e-16, which has
# 17 digits one exponent lower, powers of ten and the largest and smallest
# doubles, with both zeros; and 2^-53 and 2^51, where the path hands over to
# snprintf, 2^50, 2^52, 1e15 and 1e16, each with the doubles either side of it.
CSV_EDGES = [9.9999999999999998e-17, 1e-16, 1e17, float_info.max, 5e-324, 0.0, -0.0,
             math.nan, math.inf, -math.inf,
             *(w for v in (2.0**-53, 2.0**50, 2.0**51, 2.0**52, 1e15, 1e16)
               for w in (math.nextafter(v, 0.0), v, math.nextafter(v, math.inf)))]


class TestCsvBytes:
    """_csv_bytes writes each value as '%.17g' % value does, on the native path and through %."""

    FAMILIES = {"powers-of-ten": _powers_of_ten, "halfway": _halfway,
                "random-bits": _random_bits, "edges": lambda: CSV_EDGES}

    @staticmethod
    def _lib():
        if not _has_compiler():
            pytest.skip("the C compiler Python was built with is not installed")
        return NATIVE()

    @staticmethod
    def _block(values) -> np.ndarray:
        """values and their negatives in rows of 10, padded with 1.5."""
        values = [*values, *(-v for v in values)]
        values += [1.5] * (-len(values) % 10)
        return np.array(values).reshape(-1, 10)

    @staticmethod
    def _percent(block: np.ndarray) -> bytes:
        """block's CSV lines, each value through its own %."""
        return "".join(",".join("%.17g" % v for v in row) + "\n"
                       for row in block.tolist()).encode()

    @pytest.mark.parametrize("family", FAMILIES.values(), ids=FAMILIES)
    def test_both_paths_write_what_percent_writes(self, family):
        block = self._block(family())
        want = self._percent(block)
        assert sim._csv_bytes(block, _reference) == want
        assert sim._csv_bytes(block, self._lib()) == want

    def test_the_native_digits_are_those_of_percent(self):
        # the decades, 2^k +- 0.5 for k <= 52, seeded log-uniform magnitudes
        # from 1e-20 to 1e20 and seeded random bit patterns, with their
        # negatives: about 4e5 values
        lib = NATIVE()
        if lib is None:
            pytest.skip("no native build loads here")
        rng = np.random.default_rng(47)
        bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(float)
        values = [*_decades(), *(2.0**k + d for k in range(53) for d in (-0.5, 0.5)),
                  *np.power(10.0, rng.uniform(-20.0, 20.0, 100_000)).tolist(), *bits.tolist()]
        block = self._block(values)
        assert sim._csv_bytes(block, lib) == self._percent(block)

    def test_no_digits_below_a_power_of_ten_round_up_to_it(self):
        # put_value steps its exponent up while the digits reach 10^17: the 8
        # doubles below the one nearest 10^k, for k = -17 to 16, keep the
        # exponent k - 1 at 17 digits, so the loop stops there and does not
        # carry them to k; csv_rows writes them and that double as % does
        values = []
        for k in range(-17, 17):
            v = float(f"1e{k}")
            values.append(v)
            for _ in range(8):
                v = math.nextafter(v, 0.0)
                assert int(("%.16e" % v)[-3:]) == k - 1
                values.append(v)
        lib = NATIVE()
        if lib is None:
            pytest.skip("no native build loads here")
        block = self._block(values)
        assert sim._csv_bytes(block, lib) == self._percent(block)

    def test_a_short_buffer_raises(self, monkeypatch):
        # csv_rows refuses a buffer without _CSV_VALUE_BYTES for each value
        lib = NATIVE()
        if lib is None:
            pytest.skip("no native build loads here")
        monkeypatch.setattr(sim, "_CSV_VALUE_BYTES", 24)
        refused = "^csv_rows refused 288 bytes for 3 rows of 4 values$"
        with pytest.raises(RuntimeError, match=refused):
            sim._csv_bytes(np.full((3, 4), 0.5), lib)

    def test_any_layout_and_no_rows(self):
        # a Fortran-ordered block, a strided one, and a block of no rows
        lib = self._lib()
        block = self._block(_powers_of_ten())
        for view in (np.asfortranarray(block), block[::3, ::2], block[:0]):
            assert (sim._csv_bytes(view, lib) == sim._csv_bytes(view, _reference)
                    == self._percent(view))

    def test_a_build_without_128_bit_integers_formats_through_snprintf(self, monkeypatch,
                                                                        tmp_path):
        # as on a compiler that has no unsigned __int128: every nonzero
        # finite value goes to snprintf, and the probe passes
        self._lib()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setattr(sim, "_CFLAGS", (*sim._CFLAGS, "-U__SIZEOF_INT128__"))
        NATIVE.cache_clear()
        try:
            lib = NATIVE()
            assert lib is not None
            block = self._block([*_powers_of_ten(), *_halfway()[:2000], *CSV_EDGES])
            assert sim._csv_bytes(block, lib) == self._percent(block)
        finally:
            NATIVE.cache_clear()

    def test_csv_rows_refuses_a_short_buffer(self):
        # 24 bytes of "-1.2345678901234567e-308" and a separator per value,
        # on every kernel
        block = np.full((3, 4), -1.2345678901234567e-308)
        for impl in _impls():
            out = np.full(3 * 4 * 25, ord("#"), np.uint8)
            assert impl.csv_rows(block, 3, 4, out, len(out) - 1) == -1
            assert (out == ord("#")).all()
            assert impl.csv_rows(block, 3, 4, out, len(out)) == len(out)
            assert out.tobytes() == self._percent(block)

    @pytest.fixture
    def comma_locale(self, monkeypatch, tmp_path):
        """LC_NUMERIC set to a locale whose decimal point is ',', and restored after.

        An installed one, else de_DE.UTF-8 built by localedef into tmp_path,
        where glibc looks on each setlocale while LOCPATH names it.
        """
        import locale

        before = locale.setlocale(locale.LC_NUMERIC)

        def comma(name: str) -> bool:
            try:
                locale.setlocale(locale.LC_NUMERIC, name)
            except locale.Error:
                return False
            return locale.localeconv()["decimal_point"] == ","

        found = any(map(comma, ["de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8"]))
        if not found and shutil.which("localedef"):
            monkeypatch.setenv("LOCPATH", str(tmp_path))
            subprocess.run(["localedef", "-i", "de_DE", "-f", "UTF-8",
                            str(tmp_path / "de_DE.UTF-8")], capture_output=True, timeout=120)
            found = comma("de_DE.UTF-8")
        if not found:
            locale.setlocale(locale.LC_NUMERIC, before)
            pytest.skip("no locale whose decimal point is ',' is installed or can be built")
        yield
        locale.setlocale(locale.LC_NUMERIC, before)

    def test_the_locale_does_not_change_the_point(self, comma_locale):
        # snprintf writes the locale's point for the values it formats
        # (subnormals, values below 1e-16, from 2^51 up, where 2^51 + 0.5 is
        # the first it writes in fixed notation with a point); % never does
        lib = self._lib()
        assert "%.1f" % 1.5 == "1.5"
        block = self._block([*CSV_EDGES, 1e-300 / 3, 2.2250738585072014e-308, 1.5e-17, 0.25,
                             2251799813685248.5])
        assert sim._csv_bytes(block, lib) == self._percent(block)


class TestBlocks:
    """Blocks of any size give the bits of one block that holds the whole run.

    A run's rows after row 0 fall in blocks of _BLOCK_ROWS, so with 7 a
    failing row g is a block's first row when g % 7 == 1 and its last when
    g % 7 == 0; with 1 it is both, and with 2 one or the other.
    """

    # rates, x0, method, step, t_end, and the row that fails or None
    RUNS = {
        # 20 full steps and a tail of 0.013
        "rk4-n5": ([1, 2, 2, 1, 2], [1.0, 1.1, 0.9, 1.0, 1.05], "rk4", 0.05, 1.013, None),
        "rk45-n5": ([1, 2, 2, 1, 2], [1.0, 1.1, 0.9, 1.0, 1.05], "rk45", 0.01, 1.0, None),
        "rk4-n17": ([i % 3 + 1 for i in range(17)], [1 + 0.01 * (i % 5) for i in range(17)],
                    "rk4", 0.05, 1.013, None),
        "rk45-n17": ([i % 3 + 1 for i in range(17)], [1 + 0.01 * (i % 5) for i in range(17)],
                     "rk45", 0.01, 0.5, None),
        # x1 decays below the floor (see TestKernelsAgree.EXITS)
        "rk4-mid": ([1, 5], [0.5, 0.5], "rk4", 0.05, 8.0, 139),
        "rk4-first": ([1, 5], [0.5, 0.5], "rk4", 0.049, 8.0, 141),
        "rk4-last": ([1, 5], [0.5, 0.5], "rk4", 0.047, 8.0, 147),
        "rk45-mid": ([1, 5], [1e-7, 0.5], "rk45", 0.05, 20.0, 20),
        "rk45-first": ([1, 5], [1e-9, 0.5], "rk45", 0.05, 20.0, 8),
        "rk45-last": ([1, 5], [2e-8, 0.5], "rk45", 0.05, 20.0, 14),
        "rk4-n17-mid": ([1, 5] + [1] * 15, [1e-6] + [0.5] * 16, "rk4", 0.05, 20.0, 136),
        # x3 decays below the floor on _reference's adaptive pair
        "rk45-n17-mid": ([1, 5] + [1] * 15, [1e-6, 0.5, 2e-12] + [0.5] * 14, "rk45", 0.05, 20.0,
                         90),
        # x1 starts on the floor and falls below it at the first step, so
        # x0's row is kept alone: RK4 aborts at t = 0.01 and RKF45 near
        # 0.00842, on a full support, and near 0.00237 on partial ones
        "rk4-first-step": ([2, 1, 3], [1e-12, 0.3, 0.5], "rk4", 1e-2, 1.0, 1),
        "rk45-first-step": ([2, 1, 3], [1e-12, 0.3, 0.5], "rk45", 1e-2, 1.0, 1),
        "rk4-first-step-n4": ([2, 1, 3, 6], [1e-12, 0.3, 0.5, 0.4], "rk4", 1e-2, 1.0, 1),
        "rk45-first-step-n4": ([2, 1, 3, 6], [1e-12, 0.3, 0.5, 0.4], "rk45", 1e-2, 1.0, 1),
    }

    @staticmethod
    def _same_in_any_block(sys, x0, cfg, sample_every, monkeypatch):
        """The outcome of one 10 000-row block, required of blocks of 1, 2 and 7 rows.

        Each kernel must give it.
        """
        basis = integral_basis(sys)
        monkeypatch.setattr(sim, "_BLOCK_ROWS", 10_000)
        want = _outcome(sys, x0, cfg, basis, sample_every)
        for kernel in KERNELS:
            _force_kernel(monkeypatch, kernel)
            for size in (1, 2, 7):
                monkeypatch.setattr(sim, "_BLOCK_ROWS", size)
                assert _outcome(sys, x0, cfg, basis, sample_every) == want
        return want

    @pytest.mark.parametrize("sample_every", [1, 3])
    @pytest.mark.parametrize("rates, x0, method, step, t_end, fails", RUNS.values(), ids=RUNS)
    def test_bits_match_one_block(self, rates, x0, method, step, t_end, fails, sample_every,
                                  monkeypatch):
        cfg = IntegratorConfig(method, step=step, t_end=t_end)
        _, rows, abort = self._same_in_any_block(make_system(rates), x0, cfg, sample_every,
                                                 monkeypatch)
        if fails is None:
            assert abort is None
        else:
            assert abort[0] is PositivityBreached
            # the rows before the failing one: 0, ..., fails - 1
            assert rows == len({*range(0, fails, sample_every), fails - 1})

    def test_step_limit_on_the_array_kernel(self, monkeypatch):
        # the driver's abort comes with the last block; 20 steps fill the
        # 2-row blocks exactly
        monkeypatch.setattr(sim, "MAX_STEPS", 20)
        sys = make_system([i % 3 + 1 for i in range(17)])
        cfg = IntegratorConfig("rk45", step=0.01, t_end=10.0)
        x0 = [1 + 0.01 * (i % 5) for i in range(17)]
        # rows 0 to 20, or 0, 3, ..., 18 and 20
        for sample_every, rows in ((1, 21), (3, 8)):
            _, got, (kind, _) = self._same_in_any_block(sys, x0, cfg, sample_every, monkeypatch)
            assert (got, kind) == (rows, StepLimitReached)

    @pytest.mark.parametrize("sample_every", [1, 3])
    @pytest.mark.parametrize("run", ["rk4-n5", "rk45-n5", "rk4-mid", "rk45-mid", "rk4-first-step",
                                     "rk45-first-step", "rk4-first-step-n4", "rk45-first-step-n4"])
    def test_sink_takes_the_rows_integrate_collects(self, run, sample_every, monkeypatch):
        # blocks of 7 rows, on each kernel; the sink's rows, in order, are
        # the collected Trajectory's, every call holds a row, and a run with a
        # sink returns or carries its last row
        rates, x0, method, step, t_end, _ = self.RUNS[run]
        monkeypatch.setattr(sim, "_BLOCK_ROWS", 7)
        sys = make_system(rates)
        basis = integral_basis(sys)
        cfg = IntegratorConfig(method, step=step, t_end=t_end)
        for kernel in KERNELS:
            _force_kernel(monkeypatch, kernel)
            want, rows, abort = _outcome(sys, x0, cfg, basis, sample_every)
            calls = []
            try:
                last = integrate(sys, x0, cfg, basis, sample_every, lambda *c: calls.append(c))
            except sim.IntegrationAborted as exc:
                last = exc.trajectory
                assert (type(exc), exc.t) == abort
            else:
                assert abort is None
            # more than one call, but where x0's row is kept alone
            assert min(2, rows) <= len(calls) <= rows
            assert all(len(c[0]) >= 1 for c in calls)
            got = [np.concatenate(c) for c in zip(*calls)]
            assert [a.tobytes() for a in got] == want[:4]
            assert last.max_drift.tobytes() == want[4]
            for name, column in zip(("t", "x", "values", "drift"), got):
                assert getattr(last, name).tobytes() == column[-1:].tobytes()

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_x0_reaches_block_pass_once(self, kernel, monkeypatch):
        # x0 passes alone before the first step, and the first block starts
        # at row 1's state
        _force_kernel(monkeypatch, kernel)
        impl, blocks = sim._impl(), []

        def block_pass(rows, n, m, xs, *args):
            blocks.append(xs[:rows].copy())
            return impl.block_pass(rows, n, m, xs, *args)

        wrapped = SimpleNamespace(rk4_steps=impl.rk4_steps, rkf45_block=impl.rkf45_block,
                                  block_pass=block_pass)
        monkeypatch.setattr(sim, "_impl", lambda: wrapped)
        sys = make_system([2, 1, 3])
        cfg = IntegratorConfig("rk4", step=0.01, t_end=0.05)
        trajectory = integrate(sys, [0.2, 0.3, 0.5], cfg, integral_basis(sys))
        assert len(trajectory.t) == 6
        assert [len(b) for b in blocks] == [1, 5]
        assert blocks[0].tobytes() == trajectory.x[:1].tobytes()
        assert blocks[1].tobytes() == trajectory.x[1:].tobytes()

    @pytest.mark.parametrize("size", [3, 1])
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("run", ["rk4-n5", "rk45-n5", "rk4-mid", "rk45-mid"])
    def test_the_stream_yields_aligned_rows(self, run, kernel, size, monkeypatch):
        # each yield is rows of one index of the four buffers: every values
        # and drift row is the pass of its own x row alone against the
        # start, and a block whose first row fails yields no row
        rates, x0, method, step, t_end, fails = self.RUNS[run]
        _force_kernel(monkeypatch, kernel)
        monkeypatch.setattr(sim, "_BLOCK_ROWS", size)
        sys = make_system(rates)
        basis = integral_basis(sys)
        cfg = IntegratorConfig(method, step=step, t_end=t_end)
        yields = []
        with np.errstate(all="ignore"):
            for *block, max_drift, abort in sim._screened(sys, x0, cfg, basis):
                assert len({len(c) for c in block}) == 1
                yields.append(([c.copy() for c in block], abort))
        t, x, values, drift = map(np.concatenate, zip(*(block for block, _ in yields)))
        assert t[0] == 0.0 and (np.diff(t) > 0).all()
        impl, width = sim._impl(), len(basis.monomials) + 1
        monomials = [sim._monomial(m.exponents, str) for m in basis.monomials]
        start, scratch = np.empty((2, 1, width))
        assert sim._pass(impl, monomials, np.array([x0]), start, scratch, np.ones(width),
                         np.zeros(width)) == 1
        assert x[0].tobytes() == np.array(x0).tobytes()
        assert values[0].tobytes() == start[0].tobytes()
        assert drift[0].tobytes() == np.zeros(width).tobytes()
        for row in range(len(t)):
            got = np.empty((2, 1, width))
            assert sim._pass(impl, monomials, x[row : row + 1], got[0], got[1], start[0],
                             np.zeros(width)) == 1
            assert got[0].tobytes() == values[row : row + 1].tobytes()
            assert got[1].tobytes() == drift[row : row + 1].tobytes()
        assert max_drift.tobytes() == drift.max(axis=0).tobytes()
        # the abort comes with the last yield alone
        assert [abort is None for _, abort in yields[:-1]] == [True] * (len(yields) - 1)
        if fails is None:
            assert yields[-1][1] is None
        else:
            assert isinstance(yields[-1][1], PositivityBreached)
            assert len(t) == fails
            # row fails is its block's first, and the block yields no row,
            # where size divides fails - 1
            assert (len(yields[-1][0][0]) == 0) == ((fails - 1) % size == 0)

    def test_an_interrupted_sink_leaves_numpys_error_state(self):
        # integrate ignores numpy's float errors around its loop alone, so
        # the caller's except block sees its own state again
        sys = make_system([2, 1, 3])
        cfg = IntegratorConfig("rk4", step=0.01, t_end=1.0)

        def sink(*columns):
            raise KeyboardInterrupt

        with np.errstate(all="warn"):
            try:
                integrate(sys, [0.2, 0.3, 0.5], cfg, integral_basis(sys), 1, sink)
            except KeyboardInterrupt:
                assert np.geterr() == dict.fromkeys(("divide", "over", "under", "invalid"),
                                                    "warn")
            else:
                pytest.fail("the sink's KeyboardInterrupt did not reach the caller")

    def test_refused_run_calls_no_sink(self):
        # row 0 passes the screen before the RK4 step limit refuses the run
        sys = make_system([2, 1, 3])
        cfg = IntegratorConfig("rk4", step=1e-3, t_end=1e300)
        calls = []
        with pytest.raises(InputError, match="exceeds the limit"):
            integrate(sys, [0.2, 0.3, 0.5], cfg, integral_basis(sys), 1,
                      lambda *c: calls.append(c))
        assert calls == []

    def test_sampled_rows_and_max_drift(self):
        # every sample_every-th row and the last, and the drift maximum of every row
        sys = make_system([2, 1, 3])
        basis = integral_basis(sys)
        cfg = IntegratorConfig("rk4", step=0.01, t_end=1.0)
        full = integrate(sys, [0.2, 0.3, 0.5], cfg, basis)
        for k in (1, 3, 7, 100, 1000):
            part = integrate(sys, [0.2, 0.3, 0.5], cfg, basis, k)
            rows = sorted({*range(0, 101, k), 100})
            for name in ("t", "x", "values", "drift"):
                assert getattr(part, name).tobytes() == getattr(full, name)[rows].tobytes()
            assert part.max_drift.tobytes() == full.drift.max(axis=0).tobytes()

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "2", True])
    def test_sample_every_must_be_a_positive_integer(self, bad):
        sys = make_system([2, 1, 3])
        with pytest.raises(InputError, match="sample_every must be a positive integer, got "):
            integrate(sys, [0.2, 0.3, 0.5], IntegratorConfig(), integral_basis(sys), bad)


    def test_block_buffer_is_bounded_by_the_step_limit(self, monkeypatch):
        # a run never writes more rows than its step limit, so a block size
        # past it allocates no more than the limit and gives the same bits
        sys = make_system([2, 1, 3])
        basis = integral_basis(sys)
        cfg = IntegratorConfig("rk4", step=0.01, t_end=0.1)
        want = _outcome(sys, [0.2, 0.3, 0.5], cfg, basis)
        monkeypatch.setattr(sim, "_BLOCK_ROWS", 10**15)
        assert _outcome(sys, [0.2, 0.3, 0.5], cfg, basis) == want
        assert want[1] == 11


class TestBasisDimension:
    @pytest.mark.parametrize("system_n, basis_n", [(3, 5), (5, 3)])
    def test_basis_of_another_dimension_is_refused(self, system_n, basis_n):
        sys = make_system([1, 2, 3, 4, 5][:system_n])
        basis = integral_basis(make_system([1, 2, 3, 4, 5][:basis_n]))
        x0 = [1.0] * system_n
        with pytest.raises(InputError, match="^exponent vector length does not match the system$"):
            integrate(sys, x0, IntegratorConfig(step=0.01, t_end=0.1), basis)

    def test_dimension_is_refused_before_an_exponent_without_float(self):
        sys = make_system([1, 2, 3])
        exponents = (Fraction(1), Fraction(10**400), Fraction(1), Fraction(1))
        basis = IntegralBasis(Classification.ODD, 4, (MonomialIntegral(exponents),))
        with pytest.raises(InputError, match="^exponent vector length does not match the system$"):
            integrate(sys, [1.0] * 3, IntegratorConfig(step=0.01, t_end=0.1), basis)

    def test_benchmark_rebuilds_a_linear_only_basis_from_the_field(self, tmp_path, monkeypatch):
        # bench/tracing.py times integrate on IntegralBasis(cls, basis.linear, ()),
        # so a basis rebuilt from that field must still integrate
        import cycliclv

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import tracing
        import workloads

        (inv,) = [i for i in workloads.build("layer-probe", 0, tmp_path) if i.method == "rk4"]
        bases = []

        def recording(system, x0, config, basis):
            bases.append(basis)
            return integrate(system, x0, config, basis)

        monkeypatch.setattr(cycliclv, "integrate", recording)
        assert tracing._integrate_s(cycliclv, inv, True, 0.1) > 0
        assert bases == [IntegralBasis(Classification.EVEN_NONRESONANT, inv.n, ())]


class TestConvergenceOrder:
    def test_monomial_drift_shows_fourth_order(self):
        sys = make_system([1, 2, 3])
        value = convergence_order(
            sys, [0.2, 0.3, 0.5], 10.0, (1e-2, 5e-3), integral_index=1
        )
        assert 3.2 <= value <= 4.8

    def test_linear_integral_is_roundoff_dominated(self):
        # Runge-Kutta steps conserve the linear integral exactly in real
        # arithmetic, so its drift never leaves the roundoff floor and the
        # ratio carries no order information at any practical step size.
        sys = make_system([1, 2, 3])
        with pytest.raises(NotMeasurable):
            convergence_order(sys, [0.2, 0.3, 0.5], 10.0, (1e-2, 5e-3))

    def test_equilibrium_not_measurable(self):
        sys = make_system([1, 1, 1])
        with pytest.raises(NotMeasurable):
            convergence_order(sys, [1.0, 1.0, 1.0], 1.0, (1e-2, 5e-3), integral_index=1)

    def test_step_validation(self):
        sys = make_system([1, 2, 3])
        with pytest.raises(ValueError):
            convergence_order(sys, [0.2, 0.3, 0.5], 1.0, (1e-3, 1e-2))
        with pytest.raises(ValueError):
            convergence_order(sys, [0.2, 0.3, 0.5], 1.0, (-1e-2, 1e-3))

    def test_index_validation(self):
        sys = make_system([1, 2, 3])
        with pytest.raises(IndexError):
            convergence_order(sys, [0.2, 0.3, 0.5], 1.0, (1e-2, 5e-3), integral_index=2)


def test_halving_band_for_monomial_drift():
    # order-4 scheme: halving the step cuts genuinely measurable drift by
    # a factor in the [8, 32] band
    rng = random.Random(107)
    eps_floor = 100.0 * np.finfo(float).eps
    checked = 0
    for n in (3, 5):
        sys = random_system(rng, n, lo=-3, hi=3)
        basis = integral_basis(sys)
        x0 = simplex_point(rng, n)
        drifts = []
        for h in (1e-2, 5e-3):
            cfg = IntegratorConfig(step=h, t_end=10.0)
            drifts.append(integrate(sys, x0, cfg, basis).drift[:, 1].max())
        if drifts[0] > eps_floor and drifts[1] > eps_floor:
            assert 8.0 <= drifts[0] / drifts[1] <= 32.0
            checked += 1
    assert checked >= 1


def _per_state(x, basis):
    """Reference: each integral of one state evaluated alone, as a 1-D array.

    Batched forms round differently: x @ lam sums in another order, np.exp
    is not math.exp, and np.dot on a strided row view takes numpy's own
    loop, not BLAS ddot with its FMA (on one n=9 trajectory, 479 of 1001
    F-ordered row views gave other bits than their contiguous copies). So
    the one-pass evaluation in integrate must match this bit for bit.
    """
    values = [float(np.sum(x))]
    for mono in basis.monomials:
        lam = np.array([float(e) for e in mono.exponents])
        support = lam != 0.0
        values.append(float(math.exp(np.dot(lam[support], np.log(x[support])))))
    return values


@pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 16, 17, 33, 41, 64])
def test_values_match_per_state_in_any_layout(n):
    # _logs takes every row's s from one np.matmul, which gives np.dot's
    # bits only on contiguous rows; it is given C-ordered rows alone, as
    # _pass refuses any other layout
    # (test_pass_refuses_a_misshapen_array_before_any_call). Each state is
    # drawn so that |lam . log x| <= 700 for every monomial, and so stays
    # in range; each monomial is then math.exp(s), as either kernel's
    # block_pass takes it.
    rng = random.Random(900 + n)
    if n % 2 == 0 and n >= 4:
        sys = resonant_system(rng, n, lo=1, hi=3)
    else:
        sys = random_system(rng, n, lo=1, hi=3)
    basis = integral_basis(sys)
    assert len(basis.monomials) == (0 if n == 2 else 1 if n % 2 else 2)
    widest = max([sum(abs(float(e)) for e in m.exponents) for m in basis.monomials], default=1.0)
    xs = np.array([[math.exp(rng.uniform(-700.0, 700.0) / widest) for _ in range(n)]
                   for _ in range(301)])
    expect = np.array([_per_state(x.copy(), basis) for x in xs])
    monomials = [sim._monomial(m.exponents, str) for m in basis.monomials]
    h1, *logs = sim._logs(xs, monomials)
    values = np.column_stack([h1, *([math.exp(v) for v in s] for s in logs)])
    assert values.tobytes() == expect.tobytes()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "make, n, method",
    [
        (random_system, 9, Method.RK4_FIXED),
        (resonant_system, 4, Method.RK4_FIXED),
        (random_system, 9, Method.ADAPTIVE_RK45),
    ],
)
def test_values_and_drift_match_per_state_formula(make, n, method, kernel, monkeypatch):
    # on the native pass and on the numpy pass alike
    _force_kernel(monkeypatch, kernel)
    rng = random.Random(109)
    sys = make(rng, n, lo=1, hi=9)
    basis = integral_basis(sys)
    assert len(basis.monomials) == (1 if n % 2 else 2)
    monkeypatch.setattr(sim, "REL_TOL", 1e-12)
    cfg = IntegratorConfig(method=method, step=2e-3, t_end=2.0)
    traj = integrate(sys, simplex_point(rng, n), cfg, basis)
    assert len(traj.t) > 300
    expect = [_per_state(x.copy(), basis) for x in traj.x]
    assert traj.values.tolist() == expect
    start = expect[0]
    drift = [
        [abs(v - v0) / abs(v0) for v, v0 in zip(row, start)]
        for row in expect
    ]
    assert traj.drift.tolist() == drift


@pytest.mark.parametrize("make, n, supports, kind", [
    (random_system, 9, [None], "ODD"),
    (resonant_system, 8, [[1, 0] * 4, [0, 1] * 4], "EVEN_RESONANT"),
], ids=["odd-full", "even-resonant-half"])
def test_full_and_half_supports_give_the_reference_bits(make, n, supports, kind):
    # a full support takes np.log of the block itself, a half one of its
    # np.compress copy; on either, both passes give each state's own bits
    rng = random.Random(113)
    sys = make(rng, n, lo=1, hi=3)
    basis = integral_basis(sys)
    assert basis.classification.value == kind
    monomials = [sim._monomial(m.exponents, str) for m in basis.monomials]
    assert [s if s is None else s.astype(int).tolist() for s, _ in monomials] == supports
    xs = np.array([simplex_point(rng, n) for _ in range(200)])
    expect = np.array([_per_state(x.copy(), basis) for x in xs])
    width = 1 + len(monomials)
    for impl in _impls():
        values, drift = np.empty((2, len(xs), width))
        good = sim._pass(impl, monomials, xs, values, drift, expect[0].copy(), np.zeros(width))
        assert good == len(xs)
        assert values.tobytes() == expect.tobytes()
        assert drift.tobytes() == (np.abs(expect - expect[0]) / expect[0]).tobytes()


# Each array of sim._pass, block, values, drift, start and max_drift, and
# its mis-shaped replacements for a block of 3 rows of 3 coordinates and
# one monomial: another row count, width, dtype or layout, or another length
_MISSHAPEN = {
    "block-dtype": (0, np.full((3, 3), 0.5, np.float32)),
    "block-layout": (0, np.asfortranarray(np.full((3, 3), 0.5))),
    "values-rows": (1, np.empty((4, 2))),
    "values-width": (1, np.empty((3, 3))),
    "values-dtype": (1, np.empty((3, 2), np.float32)),
    "values-layout": (1, np.empty((2, 3)).T),
    "drift-rows": (2, np.empty((2, 2))),
    "drift-width": (2, np.empty((3, 1))),
    "drift-dtype": (2, np.empty((3, 2), np.int64)),
    "drift-layout": (2, np.empty((6, 2))[::2]),
    "start-length": (3, np.ones(3)),
    "max-drift-length": (4, np.zeros(1)),
}


@pytest.mark.parametrize("position, misshapen", _MISSHAPEN.values(), ids=_MISSHAPEN)
def test_pass_refuses_a_misshapen_array_before_any_call(position, misshapen):
    # impl.block_pass would write past a short buffer, or read its rows in
    # another order, so _pass refuses each before it calls impl
    calls = []
    impl = SimpleNamespace(block_pass=lambda rows, *args: calls.append(rows) or rows)
    monomials = [sim._monomial((1.0, -2.0, 0.0), str)]
    arrays = [np.full((3, 3), 0.5), np.empty((3, 2)), np.empty((3, 2)), np.ones(2), np.zeros(2)]
    assert sim._pass(impl, monomials, *arrays) == 3
    assert calls == [3]
    arrays[position] = misshapen
    with pytest.raises(ValueError, match="^_pass takes C-ordered float arrays"):
        sim._pass(impl, monomials, *arrays)
    assert calls == [3]


# Coordinates that a row screen must refuse or that reach the edges of the
# float range: NaN, both infinities, zeros, a negative, subnormals,
# POSITIVITY_FLOOR and the float below it, 1e300 and the largest float.
_EDGE_COORDINATES = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e-310,
                     sim.POSITIVITY_FLOOR, math.nextafter(sim.POSITIVITY_FLOOR, 0.0), 1e300,
                     float_info.max)


@st.composite
def _pass_inputs(draw):
    """Monomials, a start row, an initial max_drift and a block for sim._pass.

    Each row is ordinary, has coordinates of _EDGE_COORDINATES, or puts
    one monomial's s within about 3 ulps of an end of LOG_RANGE, either
    side, through one coordinate on its support with every other
    coordinate 1.
    """
    n = draw(st.integers(2, 5))
    exponent = st.one_of(st.just(0.0), st.floats(-50.0, -1.5), st.floats(1.5, 50.0))
    lams = draw(st.lists(st.lists(exponent, min_size=n, max_size=n).filter(any), min_size=1,
                         max_size=3))
    ordinary = st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)

    @st.composite
    def edge(draw):
        row = draw(ordinary)
        for i, value in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                 st.sampled_from(_EDGE_COORDINATES)),
                                       min_size=1, max_size=n)):
            row[i] = value
        return row

    @st.composite
    def near_range(draw):
        lam = draw(st.sampled_from(lams))
        i = draw(st.sampled_from([i for i, e in enumerate(lam) if e]))
        end = draw(st.sampled_from(sim.LOG_RANGE))
        s = end + draw(st.integers(-3, 3)) * math.ulp(end)
        return [math.exp(s / lam[i]) if j == i else 1.0 for j in range(n)]

    block = draw(st.lists(st.one_of(ordinary, edge(), near_range()), min_size=1, max_size=12))
    max_drift = draw(st.lists(st.floats(0.0, 1.0), min_size=len(lams) + 1,
                              max_size=len(lams) + 1))
    return lams, draw(ordinary), max_drift, block


@given(_pass_inputs())
@settings(max_examples=100, deadline=None)
def test_a_build_passes_random_blocks_as_the_reference_does(inputs):
    # what _reference._probe_block_pass compares: the start that x0's pass
    # gives, and for the block and then each of its rows alone, so that no
    # failing row hides a later one, the first failing row, the figures of
    # the rows before it, which drifts of the failing row are finite, and
    # max_drift
    if NATIVE() is None:
        pytest.skip("no native build loads here")
    lams, x0, max_drift, block = inputs
    monomials = [sim._monomial(lam, str) for lam in lams]
    width = len(monomials) + 1
    got = []
    with np.errstate(all="ignore"):
        for impl in (_reference, NATIVE()):
            start = np.empty((1, width))
            sim._pass(impl, monomials, np.array([x0]), start, np.empty((1, width)), np.ones(width),
                      np.zeros(width))
            got.append([start.tobytes()])
            for rows in (block, *([row] for row in block)):
                drifts = np.array(max_drift)
                values, drift = np.empty((2, len(rows), width))
                good = sim._pass(impl, monomials, np.array(rows), values, drift, start[0], drifts)
                got[-1].append((good, values[:good].tobytes(), drift[:good].tobytes(),
                                np.isfinite(drift[good : good + 1]).tobytes(), drifts.tobytes()))
    assert got[0] == got[1]


_NO_BUILD = "no native build loads here"


@st.composite
def _systems(draw, n_min: int = 2):
    """A system of n_min to 18 random rational rates, negative ones among them, and its x0."""
    n = draw(st.integers(n_min, 18))
    rate = st.fractions(-9, 9, max_denominator=9).filter(bool)
    rates = draw(st.lists(rate, min_size=n, max_size=n))
    return make_system(rates), draw(st.lists(st.floats(0.05, 2.0), min_size=n, max_size=n))


def _nan_as_one(a: np.ndarray) -> bytes:
    """The bytes of a with every NaN made numpy's own, as the probe compares them."""
    return np.where(np.isnan(a), math.nan, a).tobytes()


@given(_systems(), st.integers(0, 12), st.floats(1e-3, 0.2), st.floats(1e-4, 0.2))
@settings(max_examples=60, deadline=None)
def test_a_build_steps_rk4_as_the_reference_does(system, full, h, tail):
    # the full steps from row 0 and a tail step from the row after them,
    # as _rk4_blocks calls them; a state that overflows takes its NaNs along
    if NATIVE() is None:
        pytest.skip(_NO_BUILD)
    sys, x0 = system
    got = []
    with np.errstate(all="ignore"):
        for impl in (_reference, NATIVE()):
            xs = np.zeros((full + 2, sys.n))
            xs[0] = x0
            impl.rk4_steps(sys.n, *sim._terms(sys), xs, 0, full, h, np.empty(5 * sys.n))
            impl.rk4_steps(sys.n, *sim._terms(sys), xs, full, 1, tail, np.empty(5 * sys.n))
            got.append(_nan_as_one(xs))
    assert got[0] == got[1]


@given(_systems(), st.floats(1e-3, 0.5), st.floats(0.01, 1.0), st.integers(1, 8),
       st.integers(0, 30))
@settings(max_examples=40, deadline=None)
def test_a_build_steps_rkf45_blocks_as_the_reference_does(system, h, t_end, size, limit):
    # up to four blocks of size rows, each from row 0, where the last
    # block's last row goes, as _screened puts it; each call's rows, times,
    # run and state, and the last trial as _probe_rkf45_block compares it
    if NATIVE() is None:
        pytest.skip(_NO_BUILD)
    sys, x0 = system
    n, tableau, got = sys.n, np.array(sim._FEHLBERG), []
    with np.errstate(all="ignore"):
        for impl in (_reference, NATIVE()):
            xs, ts = np.zeros((size + 1, n)), np.zeros(size + 1)
            xs[0] = x0
            run, state, work = np.array([0.0, h, 0.0]), np.zeros(2, np.int64), np.zeros(8 * n)
            calls = []
            while len(calls) < 4 and state[1] == sim._FULL:
                rows = impl.rkf45_block(n, *sim._terms(sys), tableau, sim.REL_TOL, sim.ABS_TOL,
                                        sim.MIN_STEP, t_end, limit, run, state, ts, xs, size, work)
                calls.append((rows, state.tobytes(), run[:2].tobytes(),
                              xs[1 : rows + 1].tobytes(), ts[1 : rows + 1].tobytes()))
                xs[0] = xs[rows]
            # one NaN for every NaN, and -0.0 + 0.0 is 0.0
            calls.append(_nan_as_one(np.array([*work[7 * n :], run[2]]) + 0.0))
            got.append(calls)
    assert got[0] == got[1]


@given(st.data(), st.integers(1, 4), st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_a_build_writes_random_bit_patterns_as_the_reference_does(data, rows, cols):
    # mostly values that csv_rows hands to snprintf, with random bits, and
    # values of every kind from st.floats, as '%.17g' % value writes them
    if NATIVE() is None:
        pytest.skip(_NO_BUILD)
    value = st.one_of(st.integers(0, 2**64 - 1).map(lambda b: np.uint64(b).view(float)),
                      st.floats())
    block = np.array(data.draw(st.lists(value, min_size=rows * cols, max_size=rows * cols)))
    block = block.reshape(rows, cols)
    assert sim._csv_bytes(block, NATIVE()) == sim._csv_bytes(block, _reference)


def test_rk4_state_error_is_fourth_order():
    # independent order check on the state itself against a fine reference
    sys = make_system([1, 2, 3])
    basis = integral_basis(sys)
    x0 = [0.2, 0.3, 0.5]
    ref = integrate(sys, x0, IntegratorConfig(step=1.25e-3, t_end=2.0), basis).x[-1]
    errs = []
    for h in (2e-2, 1e-2):
        end = integrate(sys, x0, IntegratorConfig(step=h, t_end=2.0), basis).x[-1]
        errs.append(float(np.max(np.abs(end - ref))))
    order = math.log(errs[0] / errs[1]) / math.log(2.0)
    assert 3.5 <= order <= 4.5
