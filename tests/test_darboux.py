"""Exponent system, nullspace, closed-form exponents, basis assembly."""

import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from cycliclv import (
    Classification,
    IntegralBasis,
    LinearIntegral,
    MonomialIntegral,
    ResonanceViolated,
    UnsupportedDimension,
    WrongParity,
    build_exponent_system,
    exponents_even,
    exponents_odd,
    integral_basis,
    make_system,
    nullspace,
    resonance_condition,
)
from cycliclv import linalg
from helpers import dense, random_system, resonant_system

nonzero_int = st.integers(min_value=-9, max_value=9).filter(lambda v: v != 0)


def _sympy_exponent_rows(rates):
    """Collect the x_i coefficients of sum_j lambda_j K_j symbolically."""
    n = len(rates)
    xs = sp.symbols(f"x1:{n + 1}")
    lams = sp.symbols(f"l1:{n + 1}")
    k = [sp.Rational(v) for v in rates]
    cofs = [k[i] * xs[(i + 1) % n] - k[(i - 1) % n] * xs[(i - 1) % n] for i in range(n)]
    expr = sp.expand(sum(lams[i] * cofs[i] for i in range(n)))
    rows = []
    for m in range(n):
        coeff = sp.expand(expr.coeff(xs[m]))
        rows.append(
            tuple(Fraction(str(coeff.coeff(lams[j]))) for j in range(n))
        )
    return rows


class TestBuildExponentSystem:
    def test_frozen_three(self):
        es = build_exponent_system(make_system([1, 2, 3]))
        assert dense(es, 3) == [
            [0, -1, 3],
            [1, 0, -2],
            [-3, 2, 0],
        ]

    def test_symmetric_four_structure(self):
        es = build_exponent_system(make_system([1, 1, 1, 1]))
        for i, row in enumerate(dense(es, 4)):
            assert row[(i - 1) % 4] == 1
            assert row[(i + 1) % 4] == -1
            assert sum(1 for v in row if v != 0) == 2

    def test_rank_two_for_n3(self):
        rng = random.Random(23)
        for _ in range(25):
            sys = random_system(rng, 3)
            assert linalg.rank(build_exponent_system(sys), 3) == 2

    def test_matches_symbolic_collection(self):
        rng = random.Random(29)
        for _ in range(12):
            sys = random_system(rng, rng.randint(3, 8))
            es = build_exponent_system(sys)
            assert dense(es, sys.n) == [
                list(row) for row in _sympy_exponent_rows(sys.rates)
            ]

    def test_n2_unsupported(self):
        with pytest.raises(UnsupportedDimension):
            build_exponent_system(make_system([1, 2]))


class TestNullspace:
    def test_frozen_odd(self):
        ns = nullspace(build_exponent_system(make_system([2, 1, 3])))
        assert ns == [(1, 3, 2)]

    def test_frozen_even_resonant(self):
        ns = nullspace(build_exponent_system(make_system([2, 1, 3, 6])))
        assert ns == [(1, 0, 2, 0), (0, 1, 0, Fraction(1, 3))]

    def test_frozen_even_nonresonant(self):
        assert nullspace(build_exponent_system(make_system([1, 1, 1, 2]))) == []

    def test_matches_sympy_nullspace(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(3, 8)
            sys = resonant_system(rng, n) if n % 2 == 0 and rng.random() < 0.5 else random_system(rng, n)
            es = build_exponent_system(sys)
            mine = nullspace(es)
            theirs = []
            for v in sp.Matrix(dense(es, n)).nullspace():
                vec = [Fraction(str(e)) for e in v]
                lead = next(i for i, e in enumerate(vec) if e != 0)
                theirs.append(tuple(e / vec[lead] for e in vec))
            theirs.sort(key=lambda vec: next(i for i, e in enumerate(vec) if e != 0))
            assert mine == theirs

    def test_normalization_and_order(self):
        rng = random.Random(37)
        for _ in range(20):
            sys = random_system(rng, rng.choice([3, 5, 7]))
            leads = []
            for vec in nullspace(build_exponent_system(sys)):
                lead = next(i for i, e in enumerate(vec) if e != 0)
                assert vec[lead] == 1
                leads.append(lead)
            assert leads == sorted(leads)


class TestExponentsOdd:
    def test_three_matches_closed_form(self):
        rng = random.Random(41)
        for _ in range(20):
            sys = random_system(rng, 3)
            k1, k2, k3 = sys.rates
            assert exponents_odd(sys).exponents == (1, k3 / k2, k1 / k2)

    def test_five_all_ones(self):
        assert exponents_odd(make_system([1] * 5)).exponents == (1, 1, 1, 1, 1)

    def test_five_frozen(self):
        got = exponents_odd(make_system([1, 2, 3, 4, 5])).exponents
        assert got == (
            1,
            Fraction(15, 8),
            Fraction(1, 2),
            Fraction(5, 4),
            Fraction(3, 8),
        )

    def test_wrong_parity(self):
        with pytest.raises(WrongParity):
            exponents_odd(make_system([1, 1, 1, 1]))

    @given(st.sampled_from([3, 5, 7, 9]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_nullspace(self, n, data):
        rates = [data.draw(nonzero_int) for _ in range(n)]
        sys = make_system(rates)
        assert nullspace(build_exponent_system(sys)) == [exponents_odd(sys).exponents]


class TestResonance:
    def test_frozen(self):
        assert resonance_condition(make_system([2, 1, 3, 6]))
        assert not resonance_condition(make_system([1, 1, 1, 2]))
        assert resonance_condition(make_system([1] * 6))

    def test_wrong_parity(self):
        with pytest.raises(WrongParity):
            resonance_condition(make_system([1, 2, 3]))

    def test_n2_unsupported(self):
        with pytest.raises(UnsupportedDimension):
            resonance_condition(make_system([1, 2]))


class TestExponentsEven:
    def test_frozen_four(self):
        first, second = exponents_even(make_system([2, 1, 3, 6]))
        assert first.exponents == (1, 0, 2, 0)
        assert second.exponents == (0, 1, 0, Fraction(1, 3))

    def test_six_all_ones(self):
        first, second = exponents_even(make_system([1] * 6))
        assert first.exponents == (1, 0, 1, 0, 1, 0)
        assert second.exponents == (0, 1, 0, 1, 0, 1)

    def test_resonance_violated(self):
        with pytest.raises(ResonanceViolated):
            exponents_even(make_system([1, 1, 1, 2]))

    def test_wrong_parity(self):
        with pytest.raises(WrongParity):
            exponents_even(make_system([1, 2, 3]))

    @given(st.sampled_from([4, 6, 8]), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_equals_nullspace(self, n, seed):
        sys = resonant_system(random.Random(seed), n)
        pair = exponents_even(sys)
        assert nullspace(build_exponent_system(sys)) == [
            pair[0].exponents,
            pair[1].exponents,
        ]

    def test_supports_are_disjoint(self):
        rng = random.Random(43)
        for _ in range(15):
            first, second = exponents_even(resonant_system(rng, rng.choice([4, 6, 8, 10])))
            for j, (a, b) in enumerate(zip(first.exponents, second.exponents)):
                if j % 2 == 0:
                    assert b == 0
                else:
                    assert a == 0


class TestHomogeneity:
    @given(
        st.integers(min_value=3, max_value=9),
        st.integers(min_value=0, max_value=10**6),
        st.fractions(min_value=Fraction(-5), max_value=Fraction(5)).filter(
            lambda q: q != 0
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_common_scaling_leaves_exponents_unchanged(self, n, seed, scale):
        rng = random.Random(seed)
        sys = resonant_system(rng, n) if n % 2 == 0 else random_system(rng, n)
        scaled = make_system([scale * k for k in sys.rates])
        base = integral_basis(sys)
        assert [m.exponents for m in integral_basis(scaled).monomials] == [
            m.exponents for m in base.monomials
        ]
        assert integral_basis(scaled).classification is base.classification


class TestIntegralBasis:
    def test_odd(self):
        basis = integral_basis(make_system([2, 1, 3]))
        assert basis.classification is Classification.ODD
        assert len(basis.monomials) == 1
        assert basis.linear == LinearIntegral(3)

    def test_even_resonant(self):
        basis = integral_basis(make_system([2, 1, 3, 6]))
        assert basis.classification is Classification.EVEN_RESONANT
        assert len(basis.monomials) == 2

    def test_even_nonresonant(self):
        basis = integral_basis(make_system([1, 1, 1, 2]))
        assert basis.classification is Classification.EVEN_NONRESONANT
        assert basis.monomials == ()

    def test_n2(self):
        basis = integral_basis(make_system([5, 7]))
        assert basis.classification is Classification.N2
        assert basis.monomials == ()

    def test_monomial_count_enforced(self):
        with pytest.raises(ValueError):
            IntegralBasis(Classification.ODD, LinearIntegral(3), ())


class TestMonomialIntegralInvariants:
    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            MonomialIntegral(exponents=(Fraction(0), Fraction(0)))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            MonomialIntegral(exponents=(Fraction(2), Fraction(1)))


def test_cofactor_combination_is_zero_for_basis_members():
    from cycliclv.verify import cofactor_combination

    rng = random.Random(47)
    for _ in range(30):
        n = rng.randint(3, 10)
        sys = resonant_system(rng, n) if n % 2 == 0 else random_system(rng, n)
        for mono in integral_basis(sys).monomials:
            assert all(c == 0 for c in cofactor_combination(sys, mono.exponents))

