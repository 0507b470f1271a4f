"""Exact arithmetic in Q(i, sqrt3): multiplication table, ring axioms, powers."""

from __future__ import annotations

import copy
import pickle
import random
from decimal import Decimal, DefaultContext, InvalidOperation, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triwords.digits import EXACT
from triwords.ring import I, I_SQRT3, ONE, SQRT3, ZERO, AlgebraicQ3i, i_power, sqrt3_power

X2 = AlgebraicQ3i(0, 0, 0, 3)  # 3*sqrt3*i, one of the two complex recurrence roots


def q(a=0, b=0, c=0, d=0) -> AlgebraicQ3i:
    return AlgebraicQ3i(Fraction(a), Fraction(b), Fraction(c), Fraction(d))


small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=8)
elements = st.builds(AlgebraicQ3i, small_fractions, small_fractions, small_fractions, small_fractions)


class TestBasics:
    def test_basis_addition(self):
        assert q(1) + q(0, 1) == q(1, 1)

    def test_additive_identity(self):
        x = q(2, Fraction(1, 3), -1, 5)
        assert x + ZERO == x

    def test_rational_reduction(self):
        assert q(Fraction(1, 9)) + q(Fraction(2, 9)) == q(Fraction(1, 3))

    def test_multiplication_table(self):
        assert I * I == q(-1)
        assert SQRT3 * SQRT3 == q(3)
        assert I_SQRT3 * I_SQRT3 == q(-3)
        assert SQRT3 * I == I_SQRT3
        assert SQRT3 * I_SQRT3 == 3 * I
        assert I * I_SQRT3 == -SQRT3

    def test_conjugation_flips_imaginary_coordinates(self):
        x = q(1, 2, 3, 4)
        assert x.conjugate() == q(1, 2, -3, -4)
        assert x.conjugate().conjugate() == x

    def test_value_semantics(self):
        # defaults, equality, hash and repr of the coordinates; no coordinate can change
        x = q(1, 2, 3, 4)
        assert AlgebraicQ3i() == AlgebraicQ3i(0, 0, 0, 0) == ZERO and AlgebraicQ3i(5) == AlgebraicQ3i(a=5)
        assert hash(x) == hash(q(1, 2, 3, 4)) == hash((1, 2, 3, 4)) and x != q(1, 2, 3, 5)
        assert (x == (1, 2, 3, 4)) is False
        assert repr(AlgebraicQ3i(1, 0, -2)) == "AlgebraicQ3i(a=1, b=0, c=-2, d=0)"
        with pytest.raises(AttributeError):
            x.a = 0
        with pytest.raises(AttributeError):
            del x.d
        with pytest.raises(AttributeError):
            x.e = 0
        assert copy.copy(x) == pickle.loads(pickle.dumps(x)) == x

    def test_never_equals_a_plain_tuple(self):
        x = q(1, 2, 3, 4)
        t = tuple(x)
        assert (x == t) is False and (t == x) is False
        assert (x != t) is True and (t != x) is True

    def test_has_no_order(self):
        x, t = q(1, 2, 3, 4), (1, 2, 3, 4)
        with pytest.raises(TypeError):
            x < q(5)
        with pytest.raises(TypeError):
            t < x

    def test_plus_is_never_concatenation(self):
        with pytest.raises(TypeError):
            (1, 2) + q(1)

    def test_rebuilds_from_its_coordinates(self):
        x = q(1, 2, 3, 4)
        assert AlgebraicQ3i(*x) == x

    def test_str_smoke(self):
        assert str(ZERO) == "0"
        assert "sqrt3" in str(X2)


class TestPowers:
    def test_x2_squared(self):
        assert X2**2 == q(-27)

    def test_i_fourth_power(self):
        assert I**4 == ONE
        assert all(i_power(n) == I**n for n in range(13))

    def test_x2_cubed(self):
        # (3*sqrt3*i)^3 = 3^(9/2) * i^3 = -81*sqrt3*i, frozen from expanding by hand
        assert X2**3 == q(0, 0, 0, -81)

    def test_pow_zero_is_one(self):
        assert q(5, 1, 2, 3) ** 0 == ONE

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            X2 ** (-1)

    @given(elements, st.integers(0, 20), st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_pow_adds_exponents(self, x, j, k):
        assert x ** (j + k) == (x**j) * (x**k)

    def test_sqrt3_power(self):
        assert sqrt3_power(0) == ONE
        assert sqrt3_power(1) == SQRT3
        assert sqrt3_power(2) == q(3)
        assert sqrt3_power(5) == q(0, 9)
        with pytest.raises(ValueError):
            sqrt3_power(-1)


class TestRingAxioms:
    @given(elements, elements)
    @settings(max_examples=80, deadline=None)
    def test_commutativity(self, x, y):
        assert x + y == y + x
        assert x * y == y * x

    @given(elements, elements, elements)
    @settings(max_examples=80, deadline=None)
    def test_associativity(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)

    @given(elements, elements, elements)
    @settings(max_examples=80, deadline=None)
    def test_distributivity(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(elements)
    @settings(max_examples=40, deadline=None)
    def test_conjugation_is_multiplicative(self, x):
        y = q(2, -1, Fraction(1, 2), 3)
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()


class TestCharacteristicRoots:
    def test_x2_and_conjugate_satisfy_cubic(self):
        for root in (X2, X2.conjugate()):
            assert root**3 - 27 * (root**2 - root + 27) == ZERO

    def test_27_satisfies_cubic(self):
        x = q(27)
        assert x**3 - 27 * (x**2 - x + 27) == ZERO


class TestToInteger:
    def test_plain_integer(self):
        assert q(63).to_integer() == 63

    def test_int_and_fraction_coordinates_are_one_value(self):
        x, twin = AlgebraicQ3i(1, 0, 0, 3), q(1, 0, 0, 3)
        assert x == twin
        assert hash(x) == hash(twin)
        for y in (x, twin):
            value = (y * y.conjugate()).to_integer()
            assert type(value) is int
            assert value == 28

    def test_non_integer_rational_rejected(self):
        with pytest.raises(ValueError, match=r"^7/9 is not an integer$"):
            q(Fraction(7, 9)).to_integer()

    def test_huge_coordinate_is_reported_under_default_int_str_cap(self, default_int_str_cap):
        with pytest.raises(ValueError, match=r"^<5001 digits> \+ 1\*sqrt3 has irrational"):
            AlgebraicQ3i(10**5000, 1).to_integer()

    def test_str_shows_long_numerators_and_denominators_by_size(self):
        assert str(q(Fraction(-3, 2), 2)) == "-3/2 + 2*sqrt3"
        assert str(q(10**40, Fraction(-1, 10**41))) == "<41 digits> - 1/<42 digits>*sqrt3"

    def test_decimal_coordinates(self):
        with localcontext(EXACT):
            x = AlgebraicQ3i(Decimal(2), Decimal(0), Decimal(0), Decimal(3))
            square = Decimal(5) + x * x  # a Decimal on the left promotes too
            assert square == AlgebraicQ3i(-18, 0, 0, 12)
            value = (x * x.conjugate()).to_integer()
        assert isinstance(value, Decimal) and value == 4 + 27

    def test_non_integer_decimal_rejected(self):
        with pytest.raises(ValueError, match=r"^2\.5 is not an integer$"):
            AlgebraicQ3i(Decimal("2.5")).to_integer()

    def test_decimal_rounded_in_the_default_context_rejected(self):
        # 3^1000 has 478 digits, so the default context keeps 28 of them: 1.322...E+477 is no exact integer,
        # and divmod signals DivisionImpossible, an InvalidOperation, before to_integer's own check is reached.
        with localcontext(DefaultContext), pytest.raises(InvalidOperation):
            AlgebraicQ3i(Decimal(3) ** 1000).to_integer()

    def test_imaginary_part_rejected(self):
        with pytest.raises(ValueError, match=r"^1\*i has irrational or imaginary parts$"):
            I.to_integer()

    def test_sqrt3_part_rejected(self):
        with pytest.raises(ValueError, match=r"^4 \+ 1\*sqrt3 has irrational or imaginary parts$"):
            (q(4) + SQRT3).to_integer()


def _to_sympy(x: AlgebraicQ3i):
    import sympy as sp

    s3, i = sp.sqrt(3), sp.I
    return sp.Rational(x.a) + sp.Rational(x.b) * s3 + sp.Rational(x.c) * i + sp.Rational(x.d) * i * s3


def test_against_sympy_oracle():
    """Independent route: the same arithmetic done by a computer algebra system."""
    import sympy as sp

    rng = random.Random(20250810)

    def rand_elem():
        return AlgebraicQ3i(*(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)))

    for _ in range(25):
        x, y = rand_elem(), rand_elem()
        assert sp.expand(_to_sympy(x * y) - _to_sympy(x) * _to_sympy(y)) == 0
        assert sp.expand(_to_sympy(x + y) - (_to_sympy(x) + _to_sympy(y))) == 0
        assert sp.expand(_to_sympy(x**3) - _to_sympy(x) ** 3) == 0
