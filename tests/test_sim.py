"""Integrator behavior: conservation drift, abort events, measured order."""

import ctypes
import math
import os
import random
import shutil
import subprocess
import sysconfig
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from cycliclv import (
    InputError,
    IntegratorConfig,
    Method,
    NonFiniteState,
    PositivityBreached,
    StepLimitReached,
    StepUnderflow,
    integral_basis,
    integrate,
    make_system,
)
from cycliclv import cli, sim
from cycliclv.sim import _rhs, _rk4_steps
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


def _has_compiler() -> bool:
    """Whether the C compiler Python was built with is installed here."""
    cc = sysconfig.get_config_var("CC")
    return bool(cc and shutil.which(cc.split()[0]))


def _force_kernel(monkeypatch, kernel):
    """Make integrate step on the named kernel.

    Where no native build loads, "native" is the array kernel, and
    TestNativeStepper.test_loads_where_python_has_a_compiler fails unless
    this host has no compiler.
    """
    monkeypatch.setattr(sim, "_native", NATIVE if kernel == "native" else lambda: None)


def _outcome(sys, x0, cfg, basis, sample_every=1):
    """The trajectory's arrays as bytes, its rows, and the abort's class and time or None."""
    try:
        traj, abort = integrate(sys, x0, cfg, basis, sample_every), None
    except sim.IntegrationAborted as exc:
        traj, abort = exc.trajectory, (type(exc), exc.t)
    arrays = (traj.t, traj.x, traj.values, traj.drift, traj.max_drift)
    return [a.tobytes() for a in arrays], len(traj.t), abort


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
            x = np.array([rng.uniform(1e-3, 10.0) for _ in range(n)])
            expect = _reference_rhs(sys, x).tobytes()
            assert _rhs(sys)(x).tobytes() == expect
            # the native kernel has no RHS of its own: a one-step run of it
            # must match the array step on the reference field
            if NATIVE() is not None:
                reference = np.array([x, np.nan * x])
                _rk4_steps(lambda y: _reference_rhs(sys, y), reference, 0, 1, 0.01)
                xs = np.array([x, np.nan * x])
                sim._native_kernel(NATIVE(), sys, True)(xs, 0, 1, 0.01)
                assert xs[1].tobytes() == reference[1].tobytes()

    def test_matches_vector_field(self):
        rng = random.Random(103)
        for _ in range(25):
            sys = random_system(rng, rng.randint(2, 9))
            x = np.array([0.05 + rng.random() for _ in range(sys.n)])
            expect = [float(v) for v in vector_field(sys, list(x))]
            assert _rhs(sys)(x) == pytest.approx(expect, rel=1e-14, abs=1e-300)


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


class TestKernelsAgree:
    """The native and array kernels give the same bits, aborts included."""

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

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize(
        "method, x1, t_end, fails", [("rk4", 0.5, 8.0, 139), ("rk45", 1e-7, 20.0, 20)],
        ids=["rk4", "rk45"],
    )
    def test_failing_run_steps_at_most_one_block_past(self, method, x1, t_end, fails, kernel,
                                                      monkeypatch):
        # The kernels step on past the failing row to the end of its block,
        # where the screen finds it. Each wrapped kernel counts the steps it
        # takes: for RK4 the count it is asked for, for RKF45 each step whose
        # error norm _rkf45_rows accepts, or on the native loop each step
        # that rkf45_block adds to its accepted count.
        rk4 = method == "rk4"
        taken = 0

        def counted(step):
            def counting(*args):
                nonlocal taken
                out = step(*args)
                taken += args[-2] if rk4 else out[1] <= 1.0
                return out
            return counting

        # a native build, if any, is made now, so that its probe's steps
        # are not counted
        _force_kernel(monkeypatch, kernel)
        lib = sim._native()
        if lib is not None:
            def rk4_steps(*args):
                nonlocal taken
                taken += args[7]  # count
                return lib.rk4_steps(*args)

            def rkf45_block(*args):
                nonlocal taken
                # args[12] points at the state, whose first entry is the
                # accepted count
                accepted = ctypes.c_int64.from_address(args[12])
                before = accepted.value
                rows = lib.rkf45_block(*args)
                taken += accepted.value - before
                return rows

            wrapped = SimpleNamespace(rk4_steps=rk4_steps, rkf45_block=rkf45_block)
            monkeypatch.setattr(sim, "_native", lambda: wrapped)
        monkeypatch.setattr(sim, "_rk4_steps", counted(sim._rk4_steps))
        monkeypatch.setattr(sim, "_rkf45_step", counted(sim._rkf45_step))
        monkeypatch.setattr(sim, "_BLOCK_ROWS", 7)
        sys = make_system([1, 5])
        cfg = IntegratorConfig(method, step=0.05, t_end=t_end)
        _, rows, abort = _outcome(sys, [x1, 0.5], cfg, integral_basis(sys))
        assert (rows, abort[0]) == (fails, PositivityBreached)
        assert fails <= taken <= fails + 7

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
        # entry of the array step. The native loop's zero weights are the
        # probe's to check (FEHLBERG_MUTATIONS["zero-weight-dropped"]).
        sys = make_system(rates)
        with np.errstate(all="ignore"):
            want, norm = sim._rkf45_step(_rhs(sys), np.array(x), 1e-306)
        assert np.isnan([*want, norm]).all()


class TestNativeStepper:
    """The native loops are built once into the per-user cache and loaded from there.

    Where they cannot be had, simulate steps on the array kernels and gives
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

    @staticmethod
    def _probe_differs(monkeypatch, tmp_path):
        # the sixth of h as h / 6.5: a build that compiles and loads, and
        # steps RK4 otherwise
        TestNativeStepper._mutate(monkeypatch, tmp_path, "sixth = h / 6.0;", "sixth = h / 6.5;")

    @pytest.mark.parametrize(
        "unusable, marked",
        [(_no_compiler, False), (_cache_is_a_file, False), (_cache_writable_by_others, False),
         (_probe_differs, True)],
        ids=["no-compiler", "cache-is-a-file", "cache-writable-by-others", "probe-differs"],
    )
    def test_falls_back_to_the_same_bytes(self, unusable, marked, monkeypatch, tmp_path, capsys):
        # the suite's cache holds a build where one can be made
        want = self._simulate(capsys)
        assert all(code == 0 and err == "" for code, _, err, _ in want)
        NATIVE.cache_clear()
        cache = tmp_path / "cache"
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        unusable.__func__(monkeypatch, tmp_path)
        assert NATIVE() is None
        assert self._simulate(capsys) == want
        # neither a build nor its temporary file is left behind; a failed
        # probe leaves its marker
        if (cache / "cycliclv").is_dir():
            left = os.listdir(cache / "cycliclv")
            if marked:
                assert len(left) == 1 and left[0].endswith(".so.failed")
            else:
                assert left == []

    # Five ways for the Fehlberg loop to step otherwise, each one text of
    # _native.c and its replacement: a fused multiply-add in the fourth
    # stage's state, the sixth stage's sum from its last term, the error sum
    # from its last term, the sixth stage's zero weight dropped from the
    # fourth-order sum, and the controller's power through exp and log.
    FEHLBERG_MUTATIONS = {
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
            " + er[3] * k[3 * n + i]) + er[2] * k[2 * n + i]) + er[1] * k[n + i]) + er[0] * k[i];\n"
            "            double a = fabs(x[i]), b = fabs(z[i]);",
        ),
        "zero-weight-dropped": (
            "                sum = sum + b4[q] * k[q * n + i];",
            "                if (q != 5)\n"
            "                    sum = sum + b4[q] * k[q * n + i];",
        ),
        "exp-log-for-pow": ("pow(m, -0.2)", "exp(-0.2 * log(m))"),
    }

    @pytest.mark.parametrize("old, new", FEHLBERG_MUTATIONS.values(), ids=FEHLBERG_MUTATIONS)
    def test_probe_refuses_a_fehlberg_loop_that_steps_otherwise(self, old, new, monkeypatch,
                                                               tmp_path):
        if not _has_compiler():
            pytest.skip("the C compiler Python was built with is not installed")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        self._mutate(monkeypatch, tmp_path, old, new)
        assert NATIVE() is None
        # the build compiled and loaded, and its probe refused it
        (marker,) = os.listdir(tmp_path / "cache" / "cycliclv")
        assert marker.endswith(".so.failed")

    def test_the_probe_rejects_a_fehlberg_step(self, monkeypatch):
        # a finite error norm above 1 is a rejected step of the probe's run
        # to t_end; its NaN run rejects only NaN norms
        if not _has_compiler():
            pytest.skip("the C compiler Python was built with is not installed")
        norms = []
        step = sim._rkf45_step

        def recorded(f, x, h):
            out = step(f, x, h)
            norms.append(out[1])
            return out

        monkeypatch.setattr(sim, "_rkf45_step", recorded)
        assert sim._probe(NATIVE())
        assert any(1.0 < norm < math.inf for norm in norms)

    def test_a_failed_probe_is_built_once(self, monkeypatch, tmp_path):
        # a second process finds the marker and does not run the compiler
        if not _has_compiler():
            pytest.skip("the C compiler Python was built with is not installed")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        self._probe_differs(monkeypatch, tmp_path)
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
        # may still be running; a build of the older RK4-only source goes,
        # and a native build of another source stays
        if not _has_compiler():
            pytest.skip("the C compiler Python was built with is not installed")
        folder = tmp_path / "cache" / "cycliclv"
        folder.mkdir(parents=True, mode=0o700)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        stale, fresh = folder / "native-0.so.1.tmp", folder / "native-0.so.2.tmp"
        retired, other = folder / "rk4-4acee1b7.so", folder / "native-0.so"
        for file in (stale, fresh, retired, other):
            file.write_bytes(b"")
        old = time.time() - sim._BUILD_SECONDS - 10
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
        assert sim._probe(loaded)


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
        # x3 decays below the floor on the array kernel's adaptive pair
        "rk45-n17-mid": ([1, 5] + [1] * 15, [1e-6, 0.5, 2e-12] + [0.5] * 14, "rk45", 0.05, 20.0,
                         90),
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
    @pytest.mark.parametrize("run", ["rk4-n5", "rk45-n5", "rk4-mid", "rk45-mid"])
    def test_sink_takes_the_rows_integrate_collects(self, run, sample_every, monkeypatch):
        # blocks of 7 rows; the sink's rows, in order, are the collected
        # Trajectory's, and a run with a sink returns or carries its last row
        rates, x0, method, step, t_end, _ = self.RUNS[run]
        monkeypatch.setattr(sim, "_BLOCK_ROWS", 7)
        sys = make_system(rates)
        basis = integral_basis(sys)
        cfg = IntegratorConfig(method, step=step, t_end=t_end)
        want, rows, abort = _outcome(sys, x0, cfg, basis, sample_every)
        calls = []
        try:
            last = integrate(sys, x0, cfg, basis, sample_every, lambda *c: calls.append(c))
        except sim.IntegrationAborted as exc:
            last = exc.trajectory
            assert (type(exc), exc.t) == abort
        else:
            assert abort is None
        assert 1 < len(calls) <= rows
        got = [np.concatenate(c) for c in zip(*calls)]
        assert [a.tobytes() for a in got] == want[:4]
        assert last.max_drift.tobytes() == want[4]
        for name, column in zip(("t", "x", "values", "drift"), got):
            assert getattr(last, name).tobytes() == column[-1:].tobytes()

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
    # _values takes every row's s from one np.matmul, which gives np.dot's
    # bits only on contiguous rows, so it must lay x out again whatever
    # layout it is given. Each state is drawn so that |lam . log x| <= 700
    # for every monomial, and so stays in range.
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
    exponents = [np.array([float(e) for e in m.exponents]) for m in basis.monomials]
    for x, want in ((xs, expect), (np.asfortranarray(xs), expect), (xs[::3], expect[::3])):
        assert sim._values(x, exponents).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "make, n, method",
    [
        (random_system, 9, Method.RK4_FIXED),
        (resonant_system, 4, Method.RK4_FIXED),
        (random_system, 9, Method.ADAPTIVE_RK45),
    ],
)
def test_values_and_drift_match_per_state_formula(make, n, method, monkeypatch):
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
