"""System construction, immutable records, vector field, structure-matrix rows,
hyperplane invariance."""

import copy
import pickle
import random
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from cycliclv import (
    Classification,
    CyclicLVSystem,
    InputError,
    IntegralBasis,
    IntegratorConfig,
    LinearIntegral,
    Method,
    MonomialIntegral,
    Trajectory,
    VerificationReport,
    as_fraction,
    build_exponent_system,
    check_jacobi_multiplier,
    integral_basis,
    make_system,
    structure_matrix,
)
from helpers import dense, random_system, vector_field, verify_hyperplane_invariance

nonzero_int = st.integers(min_value=-9, max_value=9).filter(lambda v: v != 0)
rate_lists = st.integers(min_value=2, max_value=12).flatmap(
    lambda n: st.lists(nonzero_int, min_size=n, max_size=n)
)


class TestAsFraction:
    def test_exact_decimal_string(self):
        assert as_fraction("0.25") == Fraction(1, 4)

    def test_quotient_string(self):
        assert as_fraction("2/3") == Fraction(2, 3)

    def test_int(self):
        assert as_fraction(-7) == Fraction(-7)

    def test_float_rejected(self):
        with pytest.raises(InputError):
            as_fraction(0.25)

    def test_bool_rejected(self):
        with pytest.raises(InputError):
            as_fraction(True)

    def test_literal_digit_limit(self):
        # a decimal exponent would build its power of ten before Python's
        # int-literal limit could apply; the limit holds for every form
        assert as_fraction("1e4000") == 10**4000
        assert as_fraction(Decimal("-25e-4299")) == Fraction(-1, 4 * 10**4297)
        for literal in ("1e5000", Decimal("1e4300"), "1e-4300", Decimal("1e-5000"),
                        "7" * 5000, "Infinity", Decimal("NaN")):
            with pytest.raises(ValueError):
                as_fraction(literal)


class TestMakeSystem:
    def test_symmetric_three(self):
        sys = make_system([1, 1, 1])
        assert sys.n == 3
        assert sys.rates == (1, 1, 1)

    def test_four(self):
        sys = make_system([2, 1, 3, 6])
        assert sys.n == 4

    def test_zero_parameter(self):
        with pytest.raises(InputError, match="^entry 2: rate parameters must be nonzero$"):
            make_system([1, 0, 3])

    def test_too_small(self):
        with pytest.raises(InputError, match="need n >= 2, got n=1"):
            make_system([5])

    def test_every_refusal_is_an_input_error(self):
        # each with the message it carried as a TypeError, ZeroDivisionError
        # or plain ValueError
        for rate, message in (
            (0.5, "refusing to convert float 0.5; pass the decimal literal"),
            ("1/0", "Fraction(1, 0)"),
            ("abc", "invalid literal for a rational: 'abc'"),
            (None, "cannot interpret None as an exact rational"),
        ):
            with pytest.raises(InputError, match=re.escape(message)):
                make_system([rate, 1, 1])
        with pytest.raises(InputError, match="refusing to convert float 0.5"):
            check_jacobi_multiplier(make_system([1, 1, 1]), [[0.5] * 3])

    def test_string_rates(self):
        sys = make_system(["1/2", "0.75", "-3"])
        assert sys.rates == (Fraction(1, 2), Fraction(3, 4), -3)


class TestRecords:
    """Every value type is an immutable record that compares by its fields."""

    def records(self):
        basis = integral_basis(make_system([2, 1, 3]))
        return [
            make_system(["1/2", 3, 5]),
            basis.monomials[0],
            LinearIntegral(3),
            basis,
            VerificationReport("witness"),
            IntegratorConfig("rk45", 0.01, 2.0),
        ]

    def test_equal_fields_make_equal_hashable_values(self):
        for a, b in zip(self.records(), self.records()):
            assert a is not b and a == b and hash(a) == hash(b), a
            assert a != LinearIntegral(4)

    def test_fields_cannot_be_assigned_or_deleted(self):
        for record in self.records():
            field = type(record).__slots__[0]
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)
            with pytest.raises(AttributeError):
                record.extra = 1

    def test_copy_and_pickle_rebuild_equal_values(self):
        for record in self.records():
            assert copy.copy(record) == record
            assert copy.deepcopy(record) == record
            assert pickle.loads(pickle.dumps(record)) == record

    def test_repr_names_each_field(self):
        assert repr(LinearIntegral(3)) == "LinearIntegral(n=3)"
        assert repr(VerificationReport()) == "VerificationReport(witness=None)"

    def test_keyword_positional_and_default_construction(self):
        assert IntegratorConfig() == IntegratorConfig(Method.RK4_FIXED, 1e-3, 10.0)
        assert IntegratorConfig(method="rk4", step=1e-3, t_end=10.0) == IntegratorConfig()
        assert IntegratorConfig("rk45").method is Method.ADAPTIVE_RK45
        assert VerificationReport().passed and not VerificationReport(witness="w").passed
        assert CyclicLVSystem(rates=(1, 2)) == CyclicLVSystem((1, 2))
        one = (Fraction(1), Fraction(0), Fraction(0))
        assert MonomialIntegral(exponents=one) == MonomialIntegral(one)
        basis = IntegralBasis(Classification.N2, LinearIntegral(2), ())
        assert basis.monomials == () and basis.linear.n == 2

    def test_trajectories_compare_by_identity(self):
        arrays = [np.zeros(1), np.zeros((1, 2)), np.zeros((1, 1)), np.zeros((1, 1)), np.zeros(1)]
        a, b = Trajectory(*arrays), Trajectory(*arrays)
        assert a == a and a != b and len({a, b}) == 2
        with pytest.raises(AttributeError):
            a.t = None

    def test_trajectory_max_drift_has_no_default(self):
        # only integrate knows the drift maximum of the rows it did not keep
        with pytest.raises(TypeError, match="^Trajectory takes 5 fields$"):
            Trajectory(np.zeros(1), np.zeros((1, 2)), np.zeros((1, 1)), np.zeros((1, 1)))


class TestVectorField:
    def test_symmetric_equilibrium(self):
        sys = make_system([1, 1, 1])
        assert vector_field(sys, [1, 1, 1]) == [0, 0, 0]

    def test_hand_substitution(self):
        # x1*(x2 - x3), x2*(x3 - x1), x3*(x1 - x2) at (1, 2, 3)
        sys = make_system([1, 1, 1])
        assert vector_field(sys, [1, 2, 3]) == [-1, 4, -3]

    def test_exact_on_fractions(self):
        sys = make_system([2, 1, 3])
        out = vector_field(sys, [Fraction(1, 3), Fraction(1, 2), Fraction(2, 7)])
        assert all(isinstance(v, Fraction) for v in out)
        assert sum(out) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(InputError, match="state has length 2, system has n=3"):
            vector_field(make_system([1, 1, 1]), [1, 2])

    @given(rate_lists, st.data())
    @settings(max_examples=60, deadline=None)
    def test_zero_coordinate_freezes_component(self, rates, data):
        sys = make_system(rates)
        state = [
            Fraction(data.draw(st.integers(min_value=-5, max_value=5)))
            for _ in range(sys.n)
        ]
        i = data.draw(st.integers(min_value=0, max_value=sys.n - 1))
        state[i] = Fraction(0)
        assert vector_field(sys, state)[i] == 0

    @given(rate_lists, st.data())
    @settings(max_examples=60, deadline=None)
    def test_components_sum_to_zero_exactly(self, rates, data):
        sys = make_system(rates)
        state = [
            Fraction(
                data.draw(st.integers(min_value=-9, max_value=9)),
                data.draw(st.integers(min_value=1, max_value=9)),
            )
            for _ in range(sys.n)
        ]
        assert sum(vector_field(sys, state)) == 0


def _division_oracle(rates, i):
    """Cofactor via polynomial division of row i of the field by x_i."""
    n = len(rates)
    xs = sp.symbols(f"x1:{n + 1}")
    p_i = xs[i - 1] * (
        sp.Rational(rates[(i - 1) % n]) * xs[i % n]
        - sp.Rational(rates[(i - 2) % n]) * xs[(i - 2) % n]
    )
    quotient, remainder = sp.div(sp.expand(p_i), xs[i - 1], *xs)
    assert remainder == 0
    poly = sp.Poly(quotient, *xs)
    return tuple(Fraction(str(poly.coeff_monomial(x))) for x in xs)


def _coeffs(sys, i):
    """Dense coefficients of K_i, row i (1-based) of A, terms on one column summed."""
    return tuple(dense([structure_matrix(sys)[i - 1]], sys.n)[0])


class TestCofactor:
    def test_frozen_examples(self):
        sys = make_system([1, 2, 3])
        assert _coeffs(sys, 1) == (0, 1, -3)
        assert _coeffs(sys, 2) == (-1, 0, 2)

    def test_n2_collision(self):
        sys = make_system([5, 7])
        assert _coeffs(sys, 1) == (0, -2)
        assert _coeffs(sys, 2) == (2, 0)

    def test_n2_cancel(self):
        sys = make_system([4, 4])
        assert _coeffs(sys, 1) == (0, 0)

    def test_against_division_oracle(self):
        rng = random.Random(7)
        for _ in range(10):
            n = rng.randint(2, 7)
            sys = random_system(rng, n)
            i = rng.randint(1, n)
            assert _coeffs(sys, i) == _division_oracle(sys.rates, i)

    @given(rate_lists)
    @settings(max_examples=60, deadline=None)
    def test_nonzero_entry_count(self, rates):
        sys = make_system(rates)
        for i in range(1, sys.n + 1):
            nonzero = sum(1 for c in _coeffs(sys, i) if c != 0)
            if sys.n >= 3:
                assert nonzero == 2
            else:
                assert nonzero == (0 if rates[0] == rates[1] else 1)


class TestStructureMatrix:
    def test_frozen_rows_in_field_order(self):
        assert structure_matrix(make_system([1, 2, 3])) == (
            ((1, 1), (2, -3)),
            ((2, 2), (0, -1)),
            ((0, 3), (1, -2)),
        )

    def test_n2_terms_stay_unsummed(self):
        assert structure_matrix(make_system([5, 7])) == (
            ((1, 5), (1, -7)),
            ((0, 7), (0, -5)),
        )

    @pytest.mark.parametrize("n", range(2, 10))
    def test_antisymmetric_with_cofactor_rows(self, n):
        sys = random_system(random.Random(300 + n), n)
        a = dense(structure_matrix(sys), n)
        assert all(a[i][j] == -a[j][i] for i in range(n) for j in range(n))

    @pytest.mark.parametrize("n", range(3, 10))
    def test_exponent_system_is_the_transpose(self, n):
        sys = random_system(random.Random(400 + n), n)
        a = dense(structure_matrix(sys), n)
        transpose = [[a[j][i] for j in range(n)] for i in range(n)]
        assert dense(build_exponent_system(sys), n) == transpose
        assert transpose == [[-v for v in row] for row in a]


class TestHyperplaneInvariance:
    def test_specific_case(self):
        assert verify_hyperplane_invariance(make_system([1, 2, 3]), 3)

    def test_holds_on_random_systems(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(2, 12)
            sys = random_system(rng, n)
            assert all(verify_hyperplane_invariance(sys, i) for i in range(1, n + 1))

    def test_corrupted_cofactor_detected(self):
        sys = make_system([1, 2, 3])
        good = structure_matrix(sys)[0]
        bad = tuple((j, c + 1 if j == 1 else c) for j, c in good)
        assert good == ((1, 1), (2, -3))
        assert bad == ((1, 2), (2, -3))
        assert not verify_hyperplane_invariance(sys, 1, bad)
