"""Symbolic conservation checks, multiplier identity, gradient independence."""

import random
import re
from fractions import Fraction

import pytest
import sympy as sp

from cycliclv import (
    Classification,
    InputError,
    MonomialIntegral,
    VerificationReport,
    check_independence,
    check_jacobi_multiplier,
    check_linear_integral,
    check_xh_zero,
    integral_basis,
    make_system,
    structure_matrix,
)
from cycliclv import verify as verify_mod
from cycliclv.verify import _independence_rank, _multiplier_form
from helpers import (
    dense_gradient_rank,
    field_divergence,
    fraction_jacobi_divergence,
    jacobi_divergence,
    randint_rational_state,
    random_system,
    resonant_system,
)


def test_report_passes_exactly_without_a_witness():
    assert VerificationReport().passed
    assert not VerificationReport("w").passed


class TestXhZero:
    def test_passing_example(self):
        sys = make_system([2, 1, 3])
        mono = MonomialIntegral(exponents=(Fraction(1), Fraction(3), Fraction(2)))
        assert check_xh_zero(sys, mono).passed

    def test_failing_example_names_first_coefficient(self):
        sys = make_system([2, 1, 3])
        mono = MonomialIntegral(exponents=(Fraction(1), Fraction(1), Fraction(1)))
        report = check_xh_zero(sys, mono)
        assert not report.passed
        assert report.witness == "coefficient of x1 is 1"

    def test_symmetric_resonant(self):
        sys = make_system([1, 1, 1, 1])
        mono = MonomialIntegral(
            exponents=(Fraction(1), Fraction(0), Fraction(1), Fraction(0))
        )
        assert check_xh_zero(sys, mono).passed

    def test_all_random_bases_pass(self):
        rng = random.Random(61)
        for _ in range(60):
            n = rng.randint(3, 11)
            sys = resonant_system(rng, n) if n % 2 == 0 else random_system(rng, n)
            for mono in integral_basis(sys).monomials:
                assert check_xh_zero(sys, mono).passed


class TestLinearIntegralCheck:
    def test_random_systems_pass(self):
        rng = random.Random(67)
        for _ in range(60):
            sys = random_system(rng, rng.randint(2, 12))
            assert check_linear_integral(sys).passed

    def test_sign_flip_detected(self, monkeypatch):
        # flip the sign of one field term and the quadratic expansion no
        # longer cancels
        original = verify_mod._row_quadratic

        def flipped(sys, i0):
            terms = sorted(original(sys, i0))
            if i0 == 0:
                key, c = terms[0]
                terms[0] = (key, -c)
            return terms

        monkeypatch.setattr(verify_mod, "_row_quadratic", flipped)
        report = check_linear_integral(make_system([1, 2, 3]))
        assert not report.passed
        assert report.witness == "coefficient of x1*x2 is -2"

    @pytest.mark.parametrize("rates, witness", [
        ([3, 3], "coefficient of x1*x2 is -6"),
        ([3, 5], "coefficient of x1*x2 is -6"),
    ])
    def test_sign_flip_at_n2_merges_a_rows_two_terms(self, monkeypatch, rates, witness):
        # at n = 2 both terms of a row share the key x1*x2, so the sum, not
        # _row_quadratic, merges them; flipping k1's term in row 1 leaves -2 k1
        original = verify_mod._row_quadratic

        def flipped(sys, i0):
            (key, c), rest = original(sys, i0)
            return ((key, -c), rest) if i0 == 0 else ((key, c), rest)

        monkeypatch.setattr(verify_mod, "_row_quadratic", flipped)
        report = check_linear_integral(make_system(rates))
        assert report.witness == witness


class TestJacobiMultiplier:
    def test_ones_point(self):
        sys = make_system([1, 2, 3])
        assert jacobi_divergence(sys, [1, 1, 1]) == 0

    def test_five_dimensional_point(self):
        rng = random.Random(71)
        sys = random_system(rng, 5)
        assert jacobi_divergence(sys, [1, 2, 3, 4, 5]) == 0

    def test_zero_residual_across_dimensions(self):
        rng = random.Random(73)
        for n in range(3, 11):
            sys = random_system(rng, n)
            samples = [randint_rational_state(rng, n, positive=False) for _ in range(10)]
            assert check_jacobi_multiplier(sys, samples).passed

    def test_unit_multiplier_control_is_nonzero(self):
        sys = make_system([1, 2, 3])
        rng = random.Random(79)
        nonzero = sum(
            1
            for _ in range(50)
            if field_divergence(sys, randint_rational_state(rng, 3, positive=False))
            != 0
        )
        assert nonzero >= 48

    def test_zero_coordinate_rejected(self):
        sys = make_system([1, 2, 3])
        with pytest.raises(InputError, match="coordinate x2 is zero"):
            jacobi_divergence(sys, [Fraction(1), Fraction(0), Fraction(2)])

    def test_empty_sample_set(self):
        with pytest.raises(InputError, match="at least one sample point is required"):
            check_jacobi_multiplier(make_system([1, 2, 3]), [])

    @pytest.mark.parametrize("samples, message", [
        ([], "at least one sample point is required"),
        ([(1, 2, 3), (1, 2)], "state length does not match the system"),
        ([(1, 2, 3), (Fraction(1, 2), 0, 3)], "coordinate x2 is zero"),
        ([(1, 2, 3), (1, 0.5, 3)], "refusing to convert float 0.5"),
    ], ids=["empty", "wrong-length", "zero-coordinate", "float-coordinate"])
    def test_samples_are_checked_when_the_form_is_zero(self, samples, message):
        sys = make_system([1, 2, 3])
        assert _multiplier_form(structure_matrix(sys)) == {}
        with pytest.raises(InputError, match=f"^{re.escape(message)}"):
            check_jacobi_multiplier(sys, samples)

    def test_fraction_points_are_not_read_again(self, monkeypatch):
        # both sampled checks take the battery's Fraction points as they are,
        # and still refuse a str, a float or a zero coordinate
        calls, read = [], verify_mod.as_fraction
        monkeypatch.setattr(verify_mod, "as_fraction", lambda v: calls.append(v) or read(v))
        sys = make_system([2, 1, 3])
        points = [randint_rational_state(random.Random(7), 3) for _ in range(4)]
        assert all(isinstance(v, Fraction) for point in points for v in point)
        assert check_jacobi_multiplier(sys, points).passed
        assert check_independence(sys, integral_basis(sys), points).passed
        assert calls == []
        for bad, message in (("x", "invalid literal for a rational: 'x'"),
                             (0.5, "refusing to convert float 0.5"),
                             (Fraction(0), "coordinate x2 is zero")):
            with pytest.raises(InputError, match=f"^{re.escape(message)}"):
                check_jacobi_multiplier(sys, [(Fraction(1), bad, Fraction(2))])
        assert calls == ["x", 0.5]

    def test_state_length_mismatch(self):
        sys = make_system([1, 2, 3])
        for divergence in (jacobi_divergence, field_divergence):
            with pytest.raises(InputError, match="state length does not match the system"):
                divergence(sys, [1, 2])

    def test_against_sympy_differentiation(self):
        rng = random.Random(83)
        for _ in range(6):
            _check_divergences_against_sympy(rng, rng.randint(3, 6))
        # n = 2: both terms of a cofactor fall on one column
        _check_divergences_against_sympy(rng, 2)


def _signed_rational(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 40))


def _planted(rows, i0, c):
    """The structure rows with an extra diagonal term c at row and column i0."""
    return tuple(row + ((i0, c),) if i == i0 else row for i, row in enumerate(rows))


class TestJacobiIntPairs:
    """verify's multiplier form and its witness, against the Fraction reference in helpers."""

    def test_matches_reference_on_signed_rational_fields(self):
        # S is the zero form, so the identity holds at every point
        rng = random.Random(103)
        for n in range(2, 13):
            for _ in range(6):
                sys = make_system([_signed_rational(rng) for _ in range(n)])
                assert _multiplier_form(structure_matrix(sys)) == {}
                point = randint_rational_state(rng, n, positive=False)
                assert fraction_jacobi_divergence(structure_matrix(sys), point) == 0
                assert check_jacobi_multiplier(sys, [point]).passed

    def test_planted_diagonal_gives_the_same_nonzero_residual(self, monkeypatch):
        rng = random.Random(107)
        original = verify_mod.structure_matrix
        for n in range(2, 13):
            for _ in range(6):
                sys = make_system([_signed_rational(rng) for _ in range(n)])
                i0, c = rng.randrange(n), _signed_rational(rng)
                rows = _planted(original(sys), i0, c)
                assert _multiplier_form(rows) == {(i0,): c}
                monkeypatch.setattr(verify_mod, "structure_matrix", lambda _, rows=rows: rows)
                point = randint_rational_state(rng, n, positive=False)
                residual = fraction_jacobi_divergence(rows, point)
                assert residual != 0
                report = check_jacobi_multiplier(sys, [point, (1,) * n])
                assert report.witness == f"coefficient of x{i0 + 1} is {c}"

    def test_planted_terms_that_cancel_give_zero(self, monkeypatch):
        # S = 2 x1 - x2 vanishes at x1 = 1, x2 = 2 but not at x2 = 3; the
        # witness is S's first monomial either way
        rows = structure_matrix(make_system([1, 2, 3]))
        rows = _planted(_planted(rows, 0, Fraction(2)), 1, Fraction(-1))
        assert _multiplier_form(rows) == {(0,): 2, (1,): -1}
        point = (1, 2, Fraction(5, 7))
        assert fraction_jacobi_divergence(rows, point) == 0
        assert fraction_jacobi_divergence(rows, (1, 3, Fraction(5, 7))) == Fraction(-7, 15)
        monkeypatch.setattr(verify_mod, "structure_matrix", lambda sys: rows)
        report = check_jacobi_multiplier(make_system([1, 2, 3]), [point, (1, 3, Fraction(5, 7))])
        assert report.witness == "coefficient of x1 is 2"

    def test_nonzero_form_fails_where_every_sample_vanishes(self, monkeypatch):
        # S = 2 x1 - x2 is zero at both samples, and the identity still fails
        rows = structure_matrix(make_system([1, 2, 3]))
        rows = _planted(_planted(rows, 0, Fraction(2)), 1, Fraction(-1))
        samples = [(1, 2, Fraction(5, 7)), (Fraction(1, 3), Fraction(2, 3), 9)]
        assert all(fraction_jacobi_divergence(rows, point) == 0 for point in samples)
        monkeypatch.setattr(verify_mod, "structure_matrix", lambda sys: rows)
        report = check_jacobi_multiplier(make_system([1, 2, 3]), samples)
        assert report.witness == "coefficient of x1 is 2"

    def test_failing_witness_bytes(self, monkeypatch):
        # x2 * 5/7 = -15/7 and M = 1/(1/2 * -3 * 4/5) = -5/6
        original = verify_mod.structure_matrix
        monkeypatch.setattr(
            verify_mod, "structure_matrix", lambda sys: _planted(original(sys), 1, Fraction(5, 7))
        )
        sample = (Fraction(1, 2), Fraction(-3), Fraction(4, 5))
        rows = verify_mod.structure_matrix(make_system([1, 2, 3]))
        assert fraction_jacobi_divergence(rows, sample) == Fraction(25, 14)
        report = check_jacobi_multiplier(make_system([1, 2, 3]), [sample, (1, 1, 1)])
        assert report.witness == "coefficient of x2 is 5/7"


def _check_divergences_against_sympy(rng, n):
    sys = random_system(rng, n)
    xs = sp.symbols(f"x1:{n + 1}", positive=True)
    k = [sp.Rational(v) for v in sys.rates]
    p = [
        xs[i] * (k[i] * xs[(i + 1) % n] - k[(i - 1) % n] * xs[(i - 1) % n])
        for i in range(n)
    ]
    multiplier = 1 / sp.prod(xs)
    divergence = sum(sp.diff(multiplier * p[i], xs[i]) for i in range(n))
    raw = sum(sp.diff(p[i], xs[i]) for i in range(n))
    assert sp.simplify(divergence) == 0
    point = randint_rational_state(rng, n, positive=True)
    subs = {x: sp.Rational(str(v)) for x, v in zip(xs, point)}
    assert jacobi_divergence(sys, point) == 0
    assert field_divergence(sys, point) == Fraction(str(raw.subs(subs)))


class TestIndependence:
    def test_rank_two_example(self):
        sys = make_system([2, 1, 3])
        basis = integral_basis(sys)
        samples = [
            (Fraction(1), Fraction(1), Fraction(1)),
            (Fraction(1), Fraction(2), Fraction(3)),
        ]
        assert check_independence(sys, basis, samples).passed
        assert _independence_rank(sys, basis, samples[0]) == 2

    def test_rank_three_resonant(self):
        sys = make_system([2, 1, 3, 6])
        basis = integral_basis(sys)
        rng = random.Random(89)
        samples = [randint_rational_state(rng, 4) for _ in range(10)]
        assert check_independence(sys, basis, samples).passed

    def test_degenerate_locus_detected(self):
        sys = make_system([3, 3, 3])
        basis = integral_basis(sys)
        assert basis.monomials[0].exponents == (1, 1, 1)
        sample = (Fraction(2), Fraction(2), Fraction(2))
        assert _independence_rank(sys, basis, sample) == 1
        assert dense_gradient_rank(sys, basis, sample) == 1
        report = check_independence(sys, basis, [sample])
        assert not report.passed
        assert "rank 1" in report.witness

    def test_empty_sample_set(self):
        sys = make_system([2, 1, 3])
        with pytest.raises(InputError, match="at least one sample point is required"):
            check_independence(sys, integral_basis(sys), [])

    def test_positive_required(self):
        sys = make_system([2, 1, 3])
        with pytest.raises(
            InputError, match="independence samples must be strictly positive"
        ):
            _independence_rank(
                sys, integral_basis(sys), (Fraction(1), Fraction(-1), Fraction(2))
            )

    @pytest.mark.parametrize("system_n, basis_n", [(3, 5), (5, 3)])
    def test_basis_of_another_dimension_is_refused(self, system_n, basis_n):
        sys = make_system([1, 2, 3, 4, 5][:system_n])
        basis = integral_basis(make_system([1, 2, 3, 4, 5][:basis_n]))
        samples = [randint_rational_state(random.Random(5), system_n)]
        refused = "^exponent vector length does not match the system$"
        with pytest.raises(InputError, match=refused):
            check_independence(sys, basis, samples)
        with pytest.raises(InputError, match=refused):
            check_xh_zero(sys, basis.monomials[0])

    def test_linear_only_basis_has_rank_one(self):
        sys = make_system([1, 1, 1, 2])
        basis = integral_basis(sys)
        rng = random.Random(97)
        samples = [randint_rational_state(rng, 4) for _ in range(5)]
        assert check_independence(sys, basis, samples).passed


class TestRankEarlyExit:
    """verify._independence_rank against the full dense RREF rank in helpers."""

    def test_matches_dense_rank_in_every_class(self):
        rng = random.Random(109)
        seen = set()
        for _ in range(60):
            n = rng.randint(2, 12)
            sys = resonant_system(rng, n) if n % 4 == 0 and n >= 4 else random_system(rng, n)
            basis = integral_basis(sys)
            seen.add(basis.classification)
            for _ in range(4):
                point = randint_rational_state(rng, n)
                got = _independence_rank(sys, basis, point)
                assert got == dense_gradient_rank(sys, basis, point)
        assert {Classification.ODD, Classification.EVEN_RESONANT,
                Classification.EVEN_NONRESONANT} <= seen

    def test_deficient_resonant_point_scans_every_column(self):
        # at k = x = (1,1,1,1) the gradients of x1*x3 and x2*x4 sum to H1's
        sys = make_system([1, 1, 1, 1])
        basis = integral_basis(sys)
        assert _independence_rank(sys, basis, (1, 1, 1, 1)) == 2
        assert dense_gradient_rank(sys, basis, (1, 1, 1, 1)) == 2
