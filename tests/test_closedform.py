"""Closed forms: ring route, root-basis route and the radical-free route."""

from __future__ import annotations

import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triwords.closedform import (
    X1,
    X2,
    X3,
    case_mod4,
    case_mod4_vector,
    closed_form,
    closed_form_vector,
    root_basis,
    root_basis_vector,
)
from triwords.counting import ClassLabel, composition_sum
from triwords.ring import ZERO
from truth_table import TRUTH

ROUTES = (closed_form, root_basis, case_mod4)
VECTOR_ROUTES = (closed_form_vector, root_basis_vector, case_mod4_vector)


class TestRoots:
    def test_x3_is_conjugate_of_x2(self):
        assert X3 == X2.conjugate()
        assert X1 == 27

    def test_roots_satisfy_characteristic_polynomial(self):
        for root in (X2, X3):
            assert root**3 - 27 * (root**2 - root + 27) == ZERO


class TestKnownValues:
    def test_closed_form_examples(self):
        assert closed_form(ClassLabel.A, 4) == 59535
        assert closed_form(ClassLabel.B, 4) == 58806
        assert closed_form(ClassLabel.D, 2) == 486
        assert closed_form(ClassLabel.C, 1) == 0

    def test_root_basis_examples(self):
        assert root_basis(ClassLabel.A, 1) == 3
        assert root_basis(ClassLabel.B, 1) == 6
        assert root_basis(ClassLabel.D, 1) == 18

    def test_case_mod4_examples(self):
        assert case_mod4(ClassLabel.A, 3) == 2187 == 3**7
        assert case_mod4(ClassLabel.B, 1) == 6
        assert case_mod4(ClassLabel.C, 3) == 3**7 + 3**4 == 2268

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("n", range(1, 11))
    def test_routes_match_truth_table(self, route, n):
        assert tuple(route(label, n) for label in ClassLabel) == TRUTH[n]


class TestDomain:
    @pytest.mark.parametrize("route", ROUTES)
    def test_zero_rejected(self, route):
        # at n = 0 the formulas give 7/9, -2/9, -2/9; they are not extended
        with pytest.raises(ValueError):
            route(ClassLabel.A, 0)

    @pytest.mark.parametrize("route", ROUTES)
    def test_negative_rejected(self, route):
        with pytest.raises(ValueError):
            route(ClassLabel.B, -2)


class TestAgreement:
    def test_triple_agreement_to_60(self):
        for n in range(1, 61):
            for label in ClassLabel:
                a = closed_form(label, n)
                assert a == root_basis(label, n) == case_mod4(label, n)

    @given(st.integers(min_value=1, max_value=20000))
    @settings(max_examples=30, deadline=None)
    def test_vector_routes_agree_at_random_n(self, n):
        closed, roots, mod4 = (route(n) for route in VECTOR_ROUTES)
        assert closed == roots == mod4
        assert closed.n == n
        for route, vector in zip(ROUTES, (closed, roots, mod4)):
            assert tuple(route(label, n) for label in ClassLabel) == vector.as_tuple()

    def test_oscillation_vanishes_for_odd_n(self):
        for n in range(1, 40, 2):
            assert closed_form(ClassLabel.A, n) == 3 ** (3 * n - 2)

    def test_partial_sum_verified_then_asserted(self):
        # against the composition oracle first...
        for n in range(1, 11):
            v = composition_sum(n)
            assert v.a + v.b + v.c == 3 ** (3 * n - 1)
        # ...then for the closed forms on a wider range
        for n in range(1, 61):
            total = sum(closed_form(label, n) for label in (ClassLabel.A, ClassLabel.B, ClassLabel.C))
            assert total == 3 ** (3 * n - 1)


class TestIntegerArithmetic:
    def test_no_fraction_arithmetic(self):
        """Every form is cleared of its denominators, so no code of the fractions module runs."""
        calls = Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_globals.get("__name__") == "fractions":
                calls[frame.f_code.co_name] += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            for n in range(1, 61):
                for label in ClassLabel:
                    for route in ROUTES:
                        route(label, n)
        finally:
            sys.setprofile(previous)
        assert not calls, calls.most_common(5)
