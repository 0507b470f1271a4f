"""Generating functions and exact coefficient extraction."""

from __future__ import annotations


import pytest

from triwords.counting import ClassLabel, composition_sum, stepped
from triwords.genfun import (
    RationalGF,
    gf_at,
    gf_coefficients,
    gf_for_class,
    gf_step,
    poly_mul,
    poly_trim,
)
from truth_table import TRUTH

# Two functions whose denominators have constant term -1, neither of them
# a class's normalised function.
UNNORMALISED = (RationalGF((-1, 24, -9, 162), (-1, 27, -27, 729)), RationalGF((1, 2, 3, 4, 5, 6), (-1, 1, 5)))


def series(gf, N):
    """c_0..c_N of P/Q by q_0*c_n = p_n - sum_{j>=1} q_j*c_{n-j}, term by term: a reference sharing no code with genfun."""
    p, q = gf.numerator, gf.denominator
    c = []
    for n in range(N + 1):
        c.append(((p[n] if n < len(p) else 0) - sum(q[j] * c[n - j] for j in range(1, min(n, len(q) - 1) + 1))) // q[0])
    return c


class TestPolyHelpers:
    def test_trim(self):
        assert poly_trim([1, 2, 0, 0]) == (1, 2)
        assert poly_trim([0, 0]) == ()

    def test_mul(self):
        assert poly_mul((1, 1), (-729, 27, -27, 1)) == (-729, -702, 0, -26, 1)
        assert poly_mul((), (1, 2)) == ()

    def test_mul_matches_known_expansion(self):
        # (27x - 1)(27x^2 + 1) = 729x^3 - 27x^2 + 27x - 1
        assert poly_mul((-1, 27), (1, 0, 27)) == (-1, 27, -27, 729)


class TestGfForClass:
    def test_class_a_normalised(self):
        gf = gf_for_class(ClassLabel.A)
        assert gf.numerator == (1, -24, 9, -162)
        assert gf.denominator == (1, -27, 27, -729)

    def test_class_d(self):
        gf = gf_for_class(ClassLabel.D)
        assert gf.numerator == (0, 18)
        assert gf.denominator == (1, -27)

    def test_constant_coefficient_of_a_is_one(self):
        assert gf_coefficients(gf_for_class(ClassLabel.A), 0) == [1]

    def test_shared_denominator_encodes_recurrence(self):
        denominators = {gf_for_class(label).denominator for label in (ClassLabel.A, ClassLabel.B, ClassLabel.C)}
        assert denominators == {(1, -27, 27, -729)}
        # q(x) = 1 - 27x + 27x^2 - 729x^3 <=> x(n) = 27x(n-1) - 27x(n-2) + 729x(n-3)
        q = (1, -27, 27, -729)
        assert [-coef for coef in q[1:]] == [27, -27, 729]


class TestCoefficients:
    def test_class_d_stream(self):
        assert gf_coefficients(gf_for_class(ClassLabel.D), 3) == [0, 18, 486, 13122]

    def test_class_a_stream(self):
        assert gf_coefficients(gf_for_class(ClassLabel.A), 2) == [1, 3, 63]

    def test_class_b_constant(self):
        assert gf_coefficients(gf_for_class(ClassLabel.B), 0) == [0]

    @pytest.mark.parametrize("label", list(ClassLabel))
    def test_streams_match_truth_table(self, label):
        stream = gf_coefficients(gf_for_class(label), 10)
        want = [TRUTH[n][list(ClassLabel).index(label)] for n in range(11)]
        assert stream == want

    def test_streams_match_composition_oracle_to_50(self):
        streams = {label: gf_coefficients(gf_for_class(label), 50) for label in ClassLabel}
        for n in range(51):
            v = composition_sum(n)
            assert (streams[ClassLabel.A][n], streams[ClassLabel.B][n], streams[ClassLabel.C][n],
                    streams[ClassLabel.D][n]) == v.as_tuple()

    def test_streams_sum_to_powers_of_27(self):
        streams = [gf_coefficients(gf_for_class(label), 40) for label in ClassLabel]
        for n in range(41):
            assert sum(s[n] for s in streams) == 27**n

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            gf_coefficients(gf_for_class(ClassLabel.A), -1)


class TestRationalGF:
    def test_trailing_zeros_trimmed(self):
        gf = RationalGF((1, 2, 0), (1, 0, 0))
        assert gf.numerator == (1, 2)
        assert gf.denominator == (1,)

    def test_zero_constant_denominator_rejected(self):
        with pytest.raises(ValueError):
            RationalGF((1,), (0, 1))

    def test_non_unit_constant_term(self):
        with pytest.raises(ValueError, match=r"^denominator constant term is 2, need \+-1$"):
            gf_coefficients(RationalGF((1,), (2, 1)), 3)

    def test_point_route_non_unit_constant_term(self):
        with pytest.raises(ValueError, match=r"^denominator constant term is 2, need \+-1$"):
            gf_at((RationalGF((1,), (2, 1)),), 3)

    @pytest.mark.parametrize("gf", UNNORMALISED, ids=["class-a-unnormalised", "numerator-past-denominator"])
    def test_point_route_with_minus_one_constant_term_matches_stream(self, gf):
        stream = list(stepped(lambda n: gf_at((gf,), n), *gf_step((gf,)), 0, 119))
        assert [gf_at((gf,), n) for n in range(120)] == stream == list(zip(series(gf, 119)))

    def test_point_route_shares_denominators_and_matches_each_stream(self):
        # Four denominators: A, B and C's, D's, and one for each unnormalised
        # function; B comes twice.
        gfs = (*map(gf_for_class, ClassLabel), *UNNORMALISED, gf_for_class(ClassLabel.B))
        assert len({gf.denominator for gf in gfs}) == 4
        want = list(zip(*(series(gf, 119) for gf in gfs)))
        stream = list(stepped(lambda n: gf_at(gfs, n), *gf_step(gfs), 0, 119))
        assert [gf_at(gfs, n) for n in range(120)] == stream == want

    @pytest.mark.parametrize("at", range(7))
    def test_point_route_refuses_a_non_unit_constant_term_anywhere(self, at):
        gfs = (*map(gf_for_class, ClassLabel), *UNNORMALISED)
        with pytest.raises(ValueError, match=r"^denominator constant term is 2, need \+-1$"):
            gf_at((*gfs[:at], RationalGF((1,), (2, 1)), *gfs[at:]), 3)

    def test_minus_one_constant_term_allowed(self):
        # extraction from the un-normalised orientation must give the same stream
        gf = RationalGF((-1, 24, -9, 162), (-1, 27, -27, 729))
        assert gf_coefficients(gf, 4) == [1, 3, 63, 2187, 59535]
