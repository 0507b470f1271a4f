"""Definition-level engines: trinomials, classification, direct sums, oracles."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triwords.closedform import case_mod4
from triwords.counting import (
    ArityMismatch,
    ClassLabel,
    ClassVector,
    InternalError,
    NotDivisibleBy3,
    TooLarge,
    brute_force_words,
    classify,
    composition_sum,
    direct_sum,
    trinomial,
)
from truth_table import TRUTH, definition_counts, enumerate_words, factorial_trinomial

parts = st.integers(min_value=0, max_value=20)


class TestTrinomial:
    def test_empty_word(self):
        assert trinomial(0, 0, 0, 0) == 1

    def test_three_distinct_letters(self):
        assert trinomial(3, 1, 1, 1) == 6

    def test_six_choose_three_three(self):
        # frozen from the factorial quotient 6!/(3! 3! 0!)
        assert trinomial(6, 3, 3, 0) == 20

    def test_negative_arguments_give_zero(self):
        assert trinomial(3, -1, 2, 2) == 0
        assert trinomial(-3, -1, -1, -1) == 0
        assert trinomial(2, 3, -1, 0) == 0

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            trinomial(5, 1, 1, 1)

    @given(parts, parts, parts)
    @settings(max_examples=150, deadline=None)
    def test_matches_factorial_quotient(self, a, b, c):
        assert trinomial(a + b + c, a, b, c) == factorial_trinomial(a + b + c, a, b, c)

    @given(parts, parts, parts)
    @settings(max_examples=150, deadline=None)
    def test_pascal_recurrence(self, a, b, c):
        P = a + b + c
        if P == 0:
            return
        assert trinomial(P, a, b, c) == (
            trinomial(P - 1, a - 1, b, c) + trinomial(P - 1, a, b - 1, c) + trinomial(P - 1, a, b, c - 1)
        )

    @given(parts, parts, parts)
    @settings(max_examples=60, deadline=None)
    def test_permutation_symmetry(self, a, b, c):
        N = a + b + c
        base = trinomial(N, a, b, c)
        assert base == trinomial(N, a, c, b) == trinomial(N, b, a, c)
        assert base == trinomial(N, b, c, a) == trinomial(N, c, a, b) == trinomial(N, c, b, a)


class TestClassify:
    def test_examples(self):
        assert classify((3, 3, 0)) is ClassLabel.A
        assert classify((1, 1, 1)) is ClassLabel.B
        assert classify((0, 1, 2)) is ClassLabel.D
        assert classify((2, 2, 2)) is ClassLabel.C

    def test_not_divisible_by_three(self):
        with pytest.raises(NotDivisibleBy3):
            classify((1, 1, 2))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            classify((-3, 3, 3))

    def test_exactly_one_pattern_applies(self):
        # residues summing to 0 mod 3 are either all equal or all distinct
        for n1 in range(9):
            for n2 in range(9):
                for n3 in range(9):
                    if (n1 + n2 + n3) % 3:
                        continue
                    r = sorted((n1 % 3, n2 % 3, n3 % 3))
                    label = classify((n1, n2, n3))
                    if label is ClassLabel.D:
                        assert r == [0, 1, 2]
                    else:
                        assert r[0] == r[1] == r[2]


class TestDirectSum:
    def test_single_term(self):
        assert direct_sum(ClassLabel.A, 0) == 1

    def test_empty_ranges_give_zero(self):
        assert direct_sum(ClassLabel.B, 0) == 0
        assert direct_sum(ClassLabel.C, 0) == 0
        assert direct_sum(ClassLabel.C, 1) == 0
        assert direct_sum(ClassLabel.D, 0) == 0

    def test_known_values(self):
        assert direct_sum(ClassLabel.A, 2) == 63
        assert direct_sum(ClassLabel.C, 3) == 2268
        assert direct_sum(ClassLabel.D, 1) == 18

    @pytest.mark.parametrize("n", range(7))
    def test_matches_definition_oracle(self, n):
        got = tuple(direct_sum(label, n) for label in ClassLabel)
        assert got == definition_counts(n) == TRUTH[n]

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            direct_sum(ClassLabel.A, -1)


class TestBruteForce:
    def test_empty_word_is_class_a(self):
        assert brute_force_words(0) == ClassVector(0, 1, 0, 0, 0)

    def test_n1(self):
        assert brute_force_words(1).as_tuple() == (3, 6, 0, 18)

    def test_n2(self):
        assert brute_force_words(2).as_tuple() == (63, 90, 90, 486)

    @pytest.mark.parametrize("n", range(4))
    def test_matches_itertools_enumeration(self, n):
        assert brute_force_words(n).as_tuple() == enumerate_words(n)

    def test_guard_against_runaway(self):
        with pytest.raises(TooLarge):
            brute_force_words(6)

    @pytest.mark.parametrize("n", [4, 5])
    def test_matches_truth_table(self, n):
        assert brute_force_words(n).as_tuple() == TRUTH[n]

    @pytest.mark.parametrize("n", range(6))
    def test_every_word_is_classified_once(self, n, monkeypatch):
        """With classify forced to D, all 27^n words land in D: none dropped, none counted twice."""
        seen = []

        def always_d(counts):
            seen.append(counts)
            return ClassLabel.D

        monkeypatch.setattr("triwords.counting.classify", always_d)
        assert brute_force_words(n) == ClassVector(n, 0, 0, 0, 27**n)
        assert seen and all(min(c) >= 0 and sum(c) == 3 * n for c in seen)

    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("label", list(ClassLabel))
    def test_every_word_lands_in_the_forced_class(self, n, label, monkeypatch):
        """D is tallied by subtraction and A, B, C by count: forcing each class in turn exercises both."""
        monkeypatch.setattr("triwords.counting.classify", lambda counts: label)
        counts = dict.fromkeys(ClassLabel, 0)
        counts[label] = 27**n
        assert brute_force_words(n) == ClassVector(n, *counts.values())


class TestCompositionSum:
    def test_n1(self):
        assert composition_sum(1).as_tuple() == (3, 6, 0, 18)

    def test_n4_components(self):
        v = composition_sum(4)
        assert v.a == 59535
        assert v.b == 58806

    @pytest.mark.parametrize("n", range(5))
    def test_agrees_with_brute_force(self, n):
        assert composition_sum(n) == brute_force_words(n)

    def test_agrees_with_brute_force_at_5(self):
        assert composition_sum(5) == brute_force_words(5)

    @pytest.mark.parametrize("n", range(11))
    def test_matches_truth_table(self, n):
        assert composition_sum(n).as_tuple() == TRUTH[n]

    @pytest.mark.parametrize("n", range(8))
    def test_reference_implementation(self, n):
        """The incremental sweep equals a naive classify+trinomial loop."""
        N = 3 * n
        tally = {label: 0 for label in ClassLabel}
        for n1 in range(N + 1):
            for n2 in range(N - n1 + 1):
                n3 = N - n1 - n2
                tally[classify((n1, n2, n3))] += trinomial(N, n1, n2, n3)
        assert composition_sum(n).as_tuple() == tuple(tally[label] for label in ClassLabel)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 25, 40])
    def test_total_is_27_to_n(self, n):
        assert composition_sum(n).total == 27**n

    @pytest.mark.parametrize("n", [50, 97, 150])
    def test_matches_direct_sum(self, n):
        v = composition_sum(n)
        assert [v.component(label) for label in ClassLabel] == [direct_sum(label, n) for label in ClassLabel]

    def test_matches_mod4_closed_form_at_1000(self):
        v = composition_sum(1000)
        assert v.as_tuple() == tuple(case_mod4(label, 1000) for label in ClassLabel)
        assert v.total == 27**1000


class TestClassVector:
    def test_component_lookup(self):
        v = ClassVector(1, 3, 6, 0, 18)
        assert [v.component(label) for label in ClassLabel] == [3, 6, 0, 18]
        assert v.total == 27


def test_internal_errors_share_one_base():
    # cli.main exits 3 for each, as for any exception but a refusal; each stays a ValueError for callers that catch that
    from triwords.genfun import NonUnitConstantTerm
    from triwords.recurrence import NotRelabellingInvariant
    from triwords.ring import NotRationalInteger

    for error in (ArityMismatch, NotDivisibleBy3, NotRationalInteger, NonUnitConstantTerm, NotRelabellingInvariant):
        assert issubclass(error, InternalError) and issubclass(error, ValueError)
