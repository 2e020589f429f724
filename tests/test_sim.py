"""Integrator behavior: conservation drift, abort events, measured order."""

import math
import random
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from cycliclv import (
    InputError,
    IntegratorConfig,
    Method,
    NonFiniteState,
    PositivityBreached,
    StepUnderflow,
    integral_basis,
    integrate,
    make_system,
)
from cycliclv import sim
from cycliclv.sim import _compiled_step, _rhs, _rk4_step, _rk4_steps
from helpers import (
    RATES_41,
    X0_41_TINY_H2,
    NotMeasurable,
    convergence_order,
    random_system,
    resonant_system,
    simplex_point,
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
        with pytest.raises(InputError, match=f"exceeds the limit of {sim.MAX_STEPS} steps"):
            IntegratorConfig(method="rk4", step=1e-3, t_end=1e300)

    def test_rk45_step_count_is_not_checked_up_front(self):
        cfg = IntegratorConfig(method="rk45", step=1e-3, t_end=1e300)
        assert cfg.method is Method.ADAPTIVE_RK45


def _reference_rhs(sys, x):
    """The float field as it was first written, term by term."""
    n = sys.n
    k = np.array([float(v) for v in sys.rates])
    ip1 = np.roll(np.arange(n), -1)
    im1 = np.roll(np.arange(n), 1)
    k_im1 = k[im1]
    return x * (k * x[ip1] - k_im1 * x[im1])


# The two stepping kernels: numpy arrays, and straight-line code over floats.
KERNELS = ("array", "compiled")


def _force_kernel(monkeypatch, kernel, n):
    """Make integrate step an n-coordinate system on the named kernel."""
    monkeypatch.setattr(sim, "_SCALAR_MAX_N", n if kernel == "compiled" else n - 1)


def _outcome(sys, x0, cfg, basis):
    """The trajectory's arrays as bytes, and the abort's class and time or None."""
    try:
        traj, abort = integrate(sys, x0, cfg, basis), None
    except sim.IntegrationAborted as exc:
        traj, abort = exc.trajectory, (type(exc), exc.t)
    arrays = (traj.t, traj.x, traj.values, traj.drift)
    return [a.tobytes() for a in arrays], len(traj.t), abort


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
            # the compiled kernel has no RHS of its own: a one-step run of it
            # must match the array step on the reference field
            step = _rk4_step(lambda y: _reference_rhs(sys, y), x, 0.01).tobytes()
            xs = np.array([x, np.nan * x])
            assert _compiled_step(sys, True)(xs, 0, 1, 0.01) == 1
            assert xs[1].tobytes() == step

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

    def test_positivity_breach_carries_partial_records(self):
        # with k1 < k2 the first coordinate of the n=2 system decays
        # monotonically toward the boundary and must trip the floor
        sys = make_system([1, 5])
        cfg = IntegratorConfig(step=1e-3, t_end=20.0)
        with pytest.raises(PositivityBreached) as exc:
            integrate(sys, [0.5, 0.5], cfg, integral_basis(sys))
        event = exc.value
        assert event.coordinate == 1
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
        assert event.coordinate == 1
        assert event.trajectory.t.tolist() == [0.0]
        assert np.isfinite(event.trajectory.values).all()

    def test_infinite_coordinate_aborts(self, monkeypatch):
        # +inf passes the floor test, so the stored states are screened too.
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
            _force_kernel(monkeypatch, kernel, sys.n)
            with pytest.raises(NonFiniteState) as exc:
                integrate(sys, [0.2, 0.3, 0.5], IntegratorConfig(step=0.1, t_end=1.0),
                          integral_basis(sys))
            assert exc.value.coordinate == 2
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
    """The compiled and array kernels give the same bits, aborts included."""

    @pytest.mark.parametrize("n", range(2, sim._SCALAR_MAX_N + 3))
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
        basis = integral_basis(sys)
        x0 = [1.0 + 0.1 * rng.uniform(-1.0, 1.0) for _ in range(n)]
        got = {}
        for kernel in KERNELS:
            _force_kernel(monkeypatch, kernel, n)
            got[kernel] = _outcome(sys, x0, cfg, basis)
        assert got["compiled"] == got["array"]
        _, rows, abort = got["array"]
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
        basis = integral_basis(sys)
        x0 = [0.5 + 0.1 * i for i in range(sys.n)]
        if method == "rk4":
            cfg = IntegratorConfig(method, step=0.05 * unit, t_end=1.013 * unit)
        else:
            cfg = IntegratorConfig(method, step=1e-3 * unit, t_end=unit)
        got = {}
        for kernel in KERNELS:
            _force_kernel(monkeypatch, kernel, sys.n)
            got[kernel] = _outcome(sys, x0, cfg, basis)
        assert got["compiled"] == got["array"]
        _, rows, abort = got["array"]
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
        basis = integral_basis(sys)
        cfg = IntegratorConfig(method="rk45", step=1e-2, t_end=1.0)
        terms = sim._terms

        def poisoned(sys):
            j1, c1, j2, c2 = terms(sys)
            c2 = c2.copy()
            c2[7] = math.nan
            return j1, c1, j2, c2

        monkeypatch.setattr(sim, "_terms", poisoned)
        got = {}
        for kernel in KERNELS:
            _force_kernel(monkeypatch, kernel, sys.n)
            got[kernel] = _outcome(sys, [1 / 16] * 16, cfg, basis)
        assert got["compiled"] == got["array"]
        _, rows, (kind, t) = got["array"]
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
        sys = make_system(rates)
        basis = integral_basis(sys)
        cfg = IntegratorConfig("rk4", step=step, t_end=t_end)
        got = {}
        for kernel in KERNELS:
            _force_kernel(monkeypatch, kernel, sys.n)
            got[kernel] = _outcome(sys, [0.5, 0.5], cfg, basis)
        assert got["compiled"] == got["array"]
        _, rows, abort = got["array"]
        assert abort == (kind, t)
        assert rows == round(t / step)
        # the screen cuts a run that went on past the failing row to the same
        # trajectory, so each loop's own exit is checked on its rows: it
        # stops at the failing row, and on the tail only if the full steps
        # all passed
        for steps in (_compiled_step(sys, True), partial(_rk4_steps, _rhs(sys))):
            with np.errstate(all="ignore"):
                ts, xs, _ = sim._run_rk4(steps, np.array([0.5, 0.5]), cfg)
            assert ts.tolist() == [i * step for i in range(rows)] + [t]
            assert not (xs[-1] >= sim.POSITIVITY_FLOOR).all()

    @pytest.mark.parametrize(
        "rates, x",
        [([1, 2, 3], [1e153, 5e153, 3e153]), ([1, 2, 3, 1], [1e153, 1e153, 3e153, 3e153])],
        ids=["n3", "n4"],
    )
    def test_overflowing_stage_reaches_zero_weights(self, rates, x):
        # Near 1e153 a stage entry is near 1e307, so a tableau row's weighted
        # sum overflows before h scales it and a later stage is inf or NaN.
        # Its 0.0 weight in the fourth-order sum turns that into NaN in every
        # entry, as in the array step; dropping the zero-weight terms leaves
        # +-inf in the n3 state and a finite x2 in the n4 one. A NaN's sign
        # bit is not compared.
        sys = make_system(rates)
        h = 1e-306
        z, m = _compiled_step(sys, False)(x, h)
        with np.errstate(all="ignore"):
            want = np.append(*sim._rkf45_step(_rhs(sys), np.array(x), h))
        assert np.isnan(want).all()
        assert np.isnan([*z, m]).all()


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
    for x, want in ((xs, expect), (np.asfortranarray(xs), expect), (xs[::3], expect[::3])):
        assert sim._values(x, basis)[0].tobytes() == want.tobytes()


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
