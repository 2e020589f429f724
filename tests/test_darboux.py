"""Exponent system, nullspace, closed-form exponents, basis assembly."""

import math
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from cycliclv import (
    Classification,
    IntegralBasis,
    InputError,
    MonomialIntegral,
    build_exponent_system,
    check_xh_zero,
    integral_basis,
    make_system,
    nullspace,
)
from cycliclv import darboux
from cycliclv.cli import run_check_battery
from helpers import (
    dense, fraction_integral_basis, random_system, rank, resonant_system, sympy_nullspace,
)

nonzero_int = st.integers(min_value=-9, max_value=9).filter(lambda v: v != 0)
# signed rationals whose parts run to 2^70, past any machine word
large_part = st.integers(min_value=1, max_value=1 << 70)
large_rational = st.builds(
    lambda sign, p, q: Fraction(sign * p, q), st.sampled_from((-1, 1)), large_part, large_part
)


def closed_forms(sys):
    """The closed-form exponent vectors, as integral_basis reports them."""
    return [mono.exponents for mono in integral_basis(sys).monomials]


def chain(k, a, b):
    """k_a k_{a+2} ... k_b (1-based), multiplied out over a slice; empty -> 1."""
    return math.prod(k[a - 1:b:2], start=Fraction(1))


def paper_exponents(k):
    """The paper's explicit exponents, for odd n or for even n at resonance.

    Odd n, one integral:
        lambda_1 = 1,
        lambda_j = (k1 k3 ... k_{j-2}) / (k2 k4 ... k_{j-1})             j >= 3 odd,
        lambda_j = (k_{j+1} k_{j+3} ... kn) / (kj k_{j+2} ... k_{n-1})    j >= 2 even.
    Even n, two integrals, each zero off its parity:
        lambda_1 = 1, lambda_j = (k_{j+1} k_{j+3} ... kn) / (kj k_{j+2} ... k_{n-1})
                                                                      j >= 3 odd,
        lambda_2 = 1, lambda_j = (k2 k4 ... k_{j-2}) / (k3 k5 ... k_{j-1})  j >= 4 even.
    """
    n = len(k)
    if n % 2 == 1:
        lam = [Fraction(1)]
        for j in range(2, n + 1):
            if j % 2:
                lam.append(chain(k, 1, j - 2) / chain(k, 2, j - 1))
            else:
                lam.append(chain(k, j + 1, n) / chain(k, j, n - 1))
        return [tuple(lam)]
    odd, even = [Fraction(0)] * n, [Fraction(0)] * n
    odd[0] = even[1] = Fraction(1)
    for j in range(3, n, 2):
        odd[j - 1] = chain(k, j + 1, n) / chain(k, j, n - 1)
    for j in range(4, n + 1, 2):
        even[j - 1] = chain(k, 2, j - 2) / chain(k, 3, j - 1)
    return [tuple(odd), tuple(even)]


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
            assert rank(build_exponent_system(sys), 3) == 2

    def test_matches_symbolic_collection(self):
        rng = random.Random(29)
        for _ in range(12):
            sys = random_system(rng, rng.randint(3, 8))
            es = build_exponent_system(sys)
            assert dense(es, sys.n) == [
                list(row) for row in _sympy_exponent_rows(sys.rates)
            ]

    def test_n2_unsupported(self):
        with pytest.raises(InputError, match="exponent system requires n >= 3"):
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
            assert nullspace(es) == sympy_nullspace(dense(es, n))

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
            assert closed_forms(sys) == [(1, k3 / k2, k1 / k2)]

    def test_five_all_ones(self):
        assert closed_forms(make_system([1] * 5)) == [(1, 1, 1, 1, 1)]

    def test_five_frozen(self):
        (got,) = closed_forms(make_system([1, 2, 3, 4, 5]))
        assert got == (
            1,
            Fraction(15, 8),
            Fraction(1, 2),
            Fraction(5, 4),
            Fraction(3, 8),
        )

    @given(st.sampled_from([3, 5, 7, 9]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_nullspace(self, n, data):
        rates = [data.draw(nonzero_int) for _ in range(n)]
        sys = make_system(rates)
        assert nullspace(build_exponent_system(sys)) == closed_forms(sys)
        assert closed_forms(sys) == paper_exponents(sys.rates)


class TestResonance:
    def test_frozen(self):
        # (1/3, 1/7, 3/7, 1) is resonant exactly, though its rounded floats
        # are not: fl(k1)fl(k3) - fl(k2)fl(k4) = -7.9e-18
        near = [Fraction(1, 3), Fraction(1, 7), Fraction(3, 7)]
        cases = (([2, 1, 3, 6], True), ([1, 1, 1, 2], False), ([1] * 6, True),
                 (near + [1], True), (near + [1 + Fraction(1, 10**30)], False))
        for rates, resonant in cases:
            got = integral_basis(make_system(rates)).classification
            assert (got is Classification.EVEN_RESONANT) == resonant


class TestExponentsEven:
    def test_frozen_four(self):
        first, second = closed_forms(make_system([2, 1, 3, 6]))
        assert first == (1, 0, 2, 0)
        assert second == (0, 1, 0, Fraction(1, 3))

    def test_six_all_ones(self):
        first, second = closed_forms(make_system([1] * 6))
        assert first == (1, 0, 1, 0, 1, 0)
        assert second == (0, 1, 0, 1, 0, 1)

    @given(st.sampled_from([4, 6, 8]), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_equals_nullspace(self, n, seed):
        sys = resonant_system(random.Random(seed), n)
        forms = closed_forms(sys)
        assert len(forms) == 2
        assert nullspace(build_exponent_system(sys)) == forms
        assert forms == paper_exponents(sys.rates)

    def test_supports_are_disjoint(self):
        rng = random.Random(43)
        for _ in range(15):
            first, second = closed_forms(resonant_system(rng, rng.choice([4, 6, 8, 10])))
            for j, (a, b) in enumerate(zip(first, second)):
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


def _normalised(vectors) -> list[tuple]:
    """Each exponent vector divided by its first nonzero entry, in sorted order."""
    return sorted(tuple(e / next(v for v in vec if v) for e in vec) for vec in vectors)


class TestSymmetries:
    """Rotating, reflecting or scaling the rates maps the basis as it maps the system.

    y_i = x_(i+r) solves the system of rates k_(i+r), and y_i = x_(-i) that
    of rates k'_i = -k_(-i-1), indices mod n, so an integral prod x_i^lam_i
    of one is prod y_i^lam_(i+r), or prod y_i^lam_(-i), of the other; c * k
    for rational c != 0 rescales time alone and keeps every exponent.
    """

    @given(st.integers(min_value=3, max_value=12), st.integers(min_value=0, max_value=10**6),
           st.fractions(min_value=-5, max_value=5, max_denominator=99).filter(lambda q: q != 0))
    @settings(max_examples=30, deadline=None)
    def test_images_keep_the_basis_up_to_the_permutation(self, n, seed, scale):
        rng = random.Random(seed)
        resonant = n % 2 == 0 and rng.random() < 0.5
        k = list((resonant_system if resonant else random_system)(rng, n).rates)
        r, mirror = rng.randrange(1, n), [-i % n for i in range(n)]
        images = [  # rates, and where each exponent moves
            (k[r:] + k[:r], lambda lam: lam[r:] + lam[:r]),
            ([-k[(-i - 1) % n] for i in range(n)], lambda lam: [lam[i] for i in mirror]),
            ([scale * q for q in k], list),
        ]
        basis = integral_basis(make_system(k))
        # the resonance verdict, k1 k3 ... k_(n-1) == k2 k4 ... kn, which
        # the even classification gives
        verdict = math.prod(k[0::2]) == math.prod(k[1::2])
        if n % 2 == 0:
            assert verdict is (basis.classification is Classification.EVEN_RESONANT)
        assert run_check_battery(make_system(k), 0)[1]
        for rates, moved in images:
            image = integral_basis(make_system(rates))
            assert image.classification is basis.classification
            assert _normalised(m.exponents for m in image.monomials) == _normalised(
                moved(list(m.exponents)) for m in basis.monomials)
            if n % 2 == 0:
                assert (math.prod(rates[0::2]) == math.prod(rates[1::2])) is verdict
            assert run_check_battery(make_system(rates), 0)[1]


class TestIntegralBasis:
    def test_odd(self):
        basis = integral_basis(make_system([2, 1, 3]))
        assert basis.classification is Classification.ODD
        assert len(basis.monomials) == 1
        assert basis.linear == 3

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

    @pytest.mark.parametrize("rates, classification", [
        ([5, 7], Classification.N2), ([2, 1, 3], Classification.ODD),
        ([2, 1, 3, 6], Classification.EVEN_RESONANT),
        ([1, 1, 1, 2], Classification.EVEN_NONRESONANT),
    ])
    def test_linear_is_the_dimension(self, rates, classification):
        sys = make_system(rates)
        basis = integral_basis(sys)
        assert basis.classification is classification
        assert basis.linear == sys.n and type(basis.linear) is int

    def test_monomial_count_enforced(self):
        with pytest.raises(ValueError):
            IntegralBasis(Classification.ODD, 3, ())

    def test_exponent_bits_are_bounded_over_the_basis(self, monkeypatch):
        # (1, 0, 2, 0) and (0, 1, 0, 1/3) take 2 + 3 and 2 + 3 bits; the
        # second walk counts on from the first, so its 1/3 passes a budget of 9
        sys = make_system([2, 1, 3, 6])
        monkeypatch.setattr(darboux, "MAX_EXPONENT_BITS", 10)
        assert len(integral_basis(sys).monomials) == 2
        monkeypatch.setattr(darboux, "MAX_EXPONENT_BITS", 9)
        with pytest.raises(InputError, match="^the integrals' exponents take more than 9 bits$"):
            integral_basis(sys)


class TestIntPairWalk:
    """integral_basis against the Fraction walks of helpers.fraction_integral_basis."""

    @given(
        st.integers(min_value=2, max_value=40).flatmap(
            lambda n: st.lists(large_rational, min_size=n, max_size=n)
        ),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_exponents_and_classification_match(self, rates, resonant):
        if resonant and len(rates) % 2 == 0 and len(rates) >= 4:
            # solve the last rate from k1 k3 ... k_{n-1} = k2 k4 ... kn
            rates[-1] = math.prod(rates[0::2]) / math.prod(rates[1:-1:2])
        sys = make_system(rates)
        basis = integral_basis(sys)
        classification, exponents = fraction_integral_basis(sys, darboux.MAX_EXPONENT_BITS)
        assert basis.classification is classification
        assert [mono.exponents for mono in basis.monomials] == exponents
        for e in (e for mono in basis.monomials for e in mono.exponents):
            assert type(e) is Fraction and e.denominator > 0
            assert math.gcd(e.numerator, e.denominator) == 1

    @given(large_rational, large_rational, st.integers(min_value=1, max_value=6000))
    @settings(max_examples=25, deadline=None)
    def test_alternating_rates_meet_the_bit_budget_at_the_same_n(self, a, b, budget):
        with mock.patch.object(darboux, "MAX_EXPONENT_BITS", budget):
            for n in range(2, 41):
                sys = make_system([a, b] * (n // 2) + [a] * (n % 2))
                try:
                    want = fraction_integral_basis(sys, budget)
                except InputError as exc:
                    with pytest.raises(InputError, match=f"^{re.escape(str(exc))}$"):
                        integral_basis(sys)
                else:
                    basis = integral_basis(sys)
                    assert (basis.classification,
                            [m.exponents for m in basis.monomials]) == want


class TestMonomialIntegralInvariants:
    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            MonomialIntegral(exponents=(Fraction(0), Fraction(0)))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            MonomialIntegral(exponents=(Fraction(2), Fraction(1)))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MonomialIntegral((0, 0, 0)), "exponent vector must not be identically zero"),
        (lambda: MonomialIntegral((2, 1, 0)), "first nonzero exponent must be normalized to 1"),
        (lambda: IntegralBasis(Classification.ODD, 3, ()),
         "ODD basis must hold 1 monomial integrals, got 0"),
    ],
    ids=["zero-exponents", "unnormalized", "wrong-monomial-count"],
)
def test_integral_records_refuse_with_input_error(build, message):
    with pytest.raises(InputError) as refused:
        build()
    assert str(refused.value) == message


def test_cofactor_combination_is_zero_for_basis_members():
    rng = random.Random(47)
    for _ in range(30):
        n = rng.randint(3, 10)
        sys = resonant_system(rng, n) if n % 2 == 0 else random_system(rng, n)
        for mono in integral_basis(sys).monomials:
            assert check_xh_zero(sys, mono).passed

