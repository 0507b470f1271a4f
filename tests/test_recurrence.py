"""Coupled and decoupled recurrence engines plus the identity suite."""

from __future__ import annotations

import random
import re
from decimal import Context, Decimal, Inexact, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triwords import recurrence
from triwords.counting import ClassLabel, ClassVector, composition_sum, stepped
from triwords.digits import EXACT
from triwords.recurrence import (
    DECOUPLED,
    QUARTIC_C,
    TRANSITION_MATRIX,
    _six_mul,
    char_poly,
    coupled_at,
    coupled_sequence,
    coupled_step,
    decoupled_at,
    decoupled_d,
    decoupled_third_order,
    quartic_c,
    recurrence_at,
    six_entries,
)
from triwords.relations import char_poly_check, identities, identity_suite, run_validation
from truth_table import TRUTH


class TestTransitionMatrix:
    def test_rows_match_class_moves(self):
        # same letters keep the class (diagonal 3), distinct letters rotate
        # C->A, A->B, B->C (the 6 entries), everything feeds D
        assert TRANSITION_MATRIX[0] == (3, 0, 6, 3)
        assert TRANSITION_MATRIX[1] == (6, 3, 0, 3)
        assert TRANSITION_MATRIX[2] == (0, 6, 3, 3)
        assert TRANSITION_MATRIX[3] == (18, 18, 18, 18)

    def test_columns_sum_to_27(self):
        for col in range(4):
            assert sum(row[col] for row in TRANSITION_MATRIX) == 27


def _full(six):
    """The 4x4 matrix [[circ(a, b, c), e*1], [f*1^T, g]] of a six-entry form."""
    a, b, c, e, f, g = six
    return (*((*((a, b, c)[(j - i) % 3] for j in range(3)), e) for i in range(3)), (f, f, f, g))


def _matmul(x, y):
    return tuple(tuple(sum(p * q for p, q in zip(row, col)) for col in zip(*y)) for row in x)


small = st.integers(min_value=-30, max_value=30)
sixes = st.tuples(small, small, small, small, small, small)


class TestSixEntryForm:
    def test_reads_the_transition_matrix(self):
        assert _full(six_entries(TRANSITION_MATRIX)) == TRANSITION_MATRIX

    @given(sixes, sixes)
    @settings(max_examples=60, deadline=None)
    def test_product_is_the_matrix_product(self, x, y):
        assert _full(_six_mul(x, y)) == _matmul(_full(x), _full(y))

    def test_squaring_takes_16_big_products(self):
        products = []

        class Big(int):
            """An int that counts its products with another Big."""

            def __mul__(self, other):
                if isinstance(other, Big):
                    products.append(1)
                return Big(int(self) * int(other))

            __rmul__ = __mul__

            def __add__(self, other):
                return Big(int(self) + int(other))

            __radd__ = __add__

        x = tuple(map(Big, range(2, 8)))
        assert _six_mul(x, x) == _six_mul(tuple(range(2, 8)), tuple(range(2, 8)))
        assert len(products) == 16

    @given(sixes, st.integers(min_value=0, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_any_invariant_matrix_powers_like_its_stream(self, six, n):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recurrence, "TRANSITION_MATRIX", _full(six))
            assert coupled_at(n) == coupled_sequence(n)[n]

    @pytest.mark.parametrize(
        "i, j", [(1, 1), (2, 0), (0, 3), (2, 3), (3, 1), (3, 2)],
        ids=["a-c-diagonal", "a-c-off-diagonal", "d-column-a", "d-column-c", "d-row-b", "d-row-c"],
    )
    def test_refuses_a_matrix_that_does_not_commute_with_the_relabelling(self, monkeypatch, i, j):
        bad = [list(row) for row in TRANSITION_MATRIX]
        bad[i][j] += 1
        bad = tuple(map(tuple, bad))
        with pytest.raises(ValueError, match=r"does not commute with the relabelling A -> B -> C -> A$"):
            six_entries(bad)

        def powered(x, y):
            raise AssertionError("powered a matrix that failed its check")

        monkeypatch.setattr(recurrence, "TRANSITION_MATRIX", bad)
        monkeypatch.setattr(recurrence, "_six_mul", powered)
        with pytest.raises(ValueError, match=r"does not commute with the relabelling A -> B -> C -> A$"):
            coupled_at(10)


class TestCoupled:
    def test_first_step(self):
        assert coupled_step(ClassVector(0, 1, 0, 0, 0)) == ClassVector(1, 3, 6, 0, 18)

    def test_second_step(self):
        assert coupled_step(ClassVector(1, 3, 6, 0, 18)) == ClassVector(2, 63, 90, 90, 486)

    def test_step_scales_total_by_27(self):
        v = ClassVector(2, 63, 90, 90, 486)
        assert coupled_step(v).total == 27 * v.total

    def test_seed_only(self):
        assert coupled_sequence(0) == [ClassVector(0, 1, 0, 0, 0)]

    def test_known_entries(self):
        seq = coupled_sequence(4)
        assert seq[3].c == 2268
        assert seq[4].b == 58806

    @pytest.mark.parametrize("n", range(11))
    def test_matches_truth_table(self, n):
        assert coupled_sequence(n)[n].as_tuple() == TRUTH[n]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            coupled_sequence(-1)

    def test_class_vector_invariants(self):
        # verified against composition_sum for n <= 10 before asserting wider
        for n in range(1, 11):
            v = composition_sum(n)
            assert v.d == 2 * (v.a + v.b + v.c)
        power = 1
        for v in coupled_sequence(60):
            assert v.total == power
            power *= 27
            if v.n >= 1:
                assert v.d == 2 * (v.a + v.b + v.c)


class TestDecoupled:
    def test_known_values(self):
        assert decoupled_third_order(ClassLabel.A, 4) == 59535
        assert decoupled_third_order(ClassLabel.B, 3) == 2106
        assert decoupled_third_order(ClassLabel.C, 4) == 58806

    def test_seeds(self):
        assert decoupled_third_order(ClassLabel.A, 0) == 1
        assert decoupled_third_order(ClassLabel.B, 0) == 0
        assert decoupled_third_order(ClassLabel.C, 1) == 0

    def test_d_engine(self):
        assert decoupled_d(0) == 0
        assert decoupled_d(1) == 18
        assert decoupled_d(2) == 486
        assert decoupled_d(5) == 18 * 27**4

    def test_d_label_routed_elsewhere(self):
        with pytest.raises(ValueError):
            decoupled_third_order(ClassLabel.D, 3)

    @pytest.mark.parametrize("n", range(11))
    def test_matches_truth_table(self, n):
        got = (
            decoupled_third_order(ClassLabel.A, n),
            decoupled_third_order(ClassLabel.B, n),
            decoupled_third_order(ClassLabel.C, n),
            decoupled_d(n),
        )
        assert got == TRUTH[n]

    @given(
        st.lists(st.sampled_from(ClassLabel), min_size=1, max_size=8),
        st.integers(0, 5000),
        st.sampled_from((int, Decimal)),
    )
    @settings(max_examples=30, deadline=None)
    def test_shared_residue_matches_a_fresh_one(self, labels, n, num):
        # Labels come in any order and repeat, D among them, so one call both
        # shares the cubic's residue across A, B and C and keeps D's apart.
        # coupled_at powers the transition matrix and shares no code with it.
        with localcontext(EXACT):
            got = decoupled_at(tuple(labels), n, num)
            want = tuple(recurrence_at(*DECOUPLED[label], n, num) for label in labels)
            coupled = tuple(map(coupled_at(n, num).component, labels))
        assert all(type(value) is num for value in got)
        assert got == want
        assert got == coupled

    def test_residue_is_not_reused_across_contexts(self):
        # Each call computes in the context active at the call: a short one
        # rounds, an exact one matches the ints, and one that traps raises.
        a, b = decoupled_at((ClassLabel.A, ClassLabel.B), 400)
        with localcontext(Context(prec=20)):
            assert decoupled_at((ClassLabel.A,), 400, Decimal)[0] != a
        with localcontext(EXACT):
            assert decoupled_at((ClassLabel.B,), 400, Decimal)[0] == b
        # Zero seeds give x(n) = 0 exactly from any residue, so only a
        # residue recomputed in the trapping context raises.
        zeros = ((0, 0, 0, 0), DECOUPLED[ClassLabel.A][1])
        with localcontext(Context(prec=20)):
            assert recurrence_at(*zeros, 400, Decimal) == 0
        with localcontext(Context(prec=20, traps=[Inexact])), pytest.raises(Inexact):
            recurrence_at(*zeros, 400, Decimal)

    def test_recurrence_starts_at_four(self):
        # 27*(x(2) - x(1) + 27*x(0)) != x(3) for class A: the n = 0 value
        # sits off the recurrence, which is why four seed values are stored
        a = [TRUTH[n][0] for n in range(4)]
        assert 27 * (a[2] - a[1] + 27 * a[0]) != a[3]


class TestQuarticC:
    def test_seed_values(self):
        assert quartic_c(3) == 2268
        assert quartic_c(4) == 58806

    def test_value_after_seeds(self):
        # frozen from composition_sum(5): first index actually produced by
        # the fourth-order recurrence
        assert quartic_c(5) == 1592136
        assert quartic_c(5) == decoupled_third_order(ClassLabel.C, 5)

    def test_relation_does_not_hold_at_four(self):
        # residual of the fourth-order relation at n = 4 is the third-order
        # residual at n = 3, which is nonzero; hence the fifth seed value
        c = [TRUTH[n][2] for n in range(5)]
        assert 26 * c[3] + 702 * c[1] + 729 * c[0] != c[4]

    @pytest.mark.parametrize("n", range(5, 11))
    def test_relation_holds_from_five(self, n):
        c = [TRUTH[k][2] for k in range(11)]
        assert c[n] == 26 * c[n - 1] + 702 * c[n - 3] + 729 * c[n - 4]

    @pytest.mark.parametrize("n", range(11))
    def test_matches_truth_table(self, n):
        assert quartic_c(n) == TRUTH[n][2]


@pytest.mark.parametrize(
    "point",
    [lambda n: decoupled_third_order(ClassLabel.A, n), decoupled_d, quartic_c],
    ids=["third-order", "d", "quartic-c"],
)
def test_point_wrappers_reject_negative_n(point):
    # islice raises a ValueError of its own for a negative index, so the
    # message is matched to show the wrappers' own check fired
    with pytest.raises(ValueError, match="n must be nonnegative, got -1"):
        point(-1)


class TestCharPoly:
    def test_factorization(self):
        assert char_poly_check() is True

    def test_quartic_roots(self):
        lhs = lambda x: x**4 - 26 * x**3 - 702 * x - 729
        assert lhs(-1) == 0
        assert lhs(27) == (27 + 1) * 0  # 27 is a root of the cubic factor

    def test_cubic_root_27(self):
        assert 27**3 - 27 * (27**2 - 27 + 27) == 0

    @pytest.mark.parametrize(
        "old, new",
        [
            ("702x", "703x"),
            ("26x^3", "27x^3"),
            ("x^2 - x", "x^2 + x"),
            ("729 =", "729 + (x-0)(x-1)(x-2)(x-3)(x-4) ="),
        ],
    )
    def test_mutated_relation_fails(self, monkeypatch, old, new):
        # the check and validate's char-poly line both read the one relation text; the last
        # mutant's left side is a quintic that agrees with the quartic at x = 0..4
        mutant = recurrence.CHAR_POLY_RELATION.replace(old, new, 1)
        assert mutant != recurrence.CHAR_POLY_RELATION
        monkeypatch.setattr(recurrence, "CHAR_POLY_RELATION", mutant)
        assert char_poly_check() is False
        (line,) = (r for r in run_validation(4) if r.name == "char-poly-factorization")
        assert line == (line.name, False, mutant)


def test_validate_prints_the_char_poly_text_it_checked(monkeypatch):
    # a first run reads the shipped text; then only recurrence's text is
    # rebound, and the line must print the mutant the check read, not a copy
    run_validation(4)
    mutant = recurrence.CHAR_POLY_RELATION.replace("26x^3", "25x^3", 1)
    assert mutant != recurrence.CHAR_POLY_RELATION
    monkeypatch.setattr(recurrence, "CHAR_POLY_RELATION", mutant)
    (line,) = (r for r in run_validation(4) if r.name == "char-poly-factorization")
    assert line == (line.name, False, mutant)


def _literal_mutants():
    """Each relation text with one integer literal k changed to k + 1, the check that must fail, and its place."""
    texts = [("char-poly-factorization", None, recurrence.CHAR_POLY_RELATION)]
    texts += [(f"identity/{name}", i, text) for i, (name, text) in enumerate(recurrence.IDENTITY_RELATIONS)]
    for check, index, text in texts:
        for m in re.finditer(r"\d+", text):
            mutant = f"{text[:m.start()]}{int(m[0]) + 1}{text[m.end():]}"
            yield pytest.param(check, index, mutant, id=f"{check}:{m.start()}")


@pytest.mark.parametrize("check, index, mutant", _literal_mutants())
def test_each_literal_mutant_fails_its_own_check(monkeypatch, relation_texts, check, index, mutant):
    if index is None:
        monkeypatch.setattr(recurrence, "CHAR_POLY_RELATION", mutant)
    else:
        relations = list(recurrence.IDENTITY_RELATIONS)
        relations[index] = (relations[index][0], mutant)
        relation_texts(relations)
    results = run_validation(40)
    assert [r.name for r in results if not r.passed] == [check]
    assert mutant in next(r.detail for r in results if r.name == check)


@pytest.mark.parametrize(
    "text, piece",
    [
        ("E(n+1) = A(n)", "E(n+1)"),
        ("2.5*A(n) = B(n)", "2.5"),
        ("A(m) = B(n)", "A(m)"),
        ("A(n)*B(n) = C(n)", "A(n)*B(n)"),
        ('__import__("os") = A(n)', '__import__("os")'),
    ],
)
def test_unreadable_identity_names_text_and_piece(relation_texts, text, piece):
    relation_texts([("bad", text)])
    message = rf"^cannot read {re.escape(repr(piece))} in the (relation|identity) {re.escape(repr(text))}"
    with pytest.raises(ValueError, match=message):
        identity_suite(10)


def test_rebound_identity_text_is_the_one_checked(monkeypatch):
    # a first run reads the shipped texts; a rebound text, set without the
    # relation_texts fixture, must be read on the next run, not a kept copy
    assert identity_suite(10).all_pass
    name, text = recurrence.IDENTITY_RELATIONS[0]
    mutant = re.sub(r"\d+", lambda m: str(int(m[0]) + 1), text, count=1)
    assert mutant != text
    monkeypatch.setattr(recurrence, "IDENTITY_RELATIONS", ((name, mutant), *recurrence.IDENTITY_RELATIONS[1:]))
    (result,) = (r for r in identity_suite(10).results if not r.passed)
    assert (result.name, result.relation) == (name, mutant)


def test_unreadable_char_poly_relation_is_internal_error(monkeypatch):
    monkeypatch.setattr(recurrence, "CHAR_POLY_RELATION", "x^4 = A(n)")
    with pytest.raises(ValueError, match=re.escape("cannot read 'A(n)' in the relation 'x^4 = A(n)'")):
        char_poly_check()


class TestCharPolyFromStep:
    def test_shipped_steps(self):
        for label in (ClassLabel.A, ClassLabel.B, ClassLabel.C):
            assert char_poly(*DECOUPLED[label]) == (-729, 27, -27, 1)
        assert char_poly(*QUARTIC_C) == (-729, -702, 0, -26, 1)
        assert char_poly(*DECOUPLED[ClassLabel.D]) == (-27, 1)

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_fiduccia_matches_iteration(self, low, data):
        # a random monic polynomial (*low, 1) of degree d and d + 1 random
        # seeds; the step is built from the coefficients, not read off them
        d = len(low)
        seeds = tuple(data.draw(st.lists(st.integers(-50, 50), min_size=d + 1, max_size=d + 1)))

        def step(w):
            return -sum(p * w[k - d] for k, p in enumerate(low))

        assert char_poly(seeds, step) == (*low, 1)
        want = list(stepped(seeds.__getitem__, len(seeds), step, 0, 300))
        assert [recurrence_at(seeds, step, n) for n in range(301)] == want


class TestEngineEquivalence:
    def test_all_exact_engines_agree_to_50(self):
        seq = coupled_sequence(50)
        for n in range(51):
            v = composition_sum(n)
            assert v == seq[n]
            assert decoupled_third_order(ClassLabel.A, n) == v.a
            assert decoupled_third_order(ClassLabel.B, n) == v.b
            assert decoupled_third_order(ClassLabel.C, n) == v.c
            assert quartic_c(n) == v.c
            assert decoupled_d(n) == v.d


class _ReadRecorder:
    """A sequence that records the offsets from n of the indices an identity reads, and reads zeros."""

    def __init__(self, n):
        self.n = n
        self.offsets = set()

    def __getitem__(self, k):
        self.offsets.add(k - self.n)
        return ClassVector(k, 0, 0, 0, 0)


class TestIdentitySuite:
    @pytest.mark.parametrize("identity", identities(), ids=lambda identity: identity[0])
    def test_declared_windows_are_the_read_ones(self, identity):
        # the first n whose reads are all >= 0, and the furthest read past n
        _, _, first_valid, lookahead, residual = identity
        view = _ReadRecorder(10)
        residual(view, view.n)
        assert (first_valid, lookahead) == (max(0, -min(view.offsets)), max(0, max(view.offsets)))

    @pytest.mark.parametrize("identity", identities(), ids=lambda identity: identity[0])
    def test_residual_is_right_minus_left_of_the_printed_relation(self, identity):
        # on random sequences, where no identity holds, the relation text is
        # evaluated here with its own lookups, so a residual that checks
        # another relation than the printed one, or with the other sign, differs
        name, relation, first_valid, lookahead, residual = identity
        left, right = (compile(side.strip(), name, "eval") for side in relation.split("="))
        rng = random.Random(name)
        for _ in range(10):
            seq = [ClassVector(n, *(rng.randint(-(10**30), 10**30) for _ in "ABCD")) for n in range(8)]
            lookups = {label: (lambda k, f=label.lower(): getattr(seq[k], f)) for label in "ABCD"}
            for n in range(first_valid, len(seq) - lookahead):
                scope = {**lookups, "n": n}
                assert residual(seq, n) == eval(right, scope) - eval(left, scope), n

    def test_all_pass_to_ten(self):
        report = identity_suite(10)
        assert report.all_pass
        assert len(report.results) == len(identities()) == 9
        assert all(r.checked > 0 for r in report.results)

    def test_d_minus_3c_at_two_by_hand(self):
        # 486 - 3*90 = 216 = 9*(2*3 + 0 + 18)
        assert TRUTH[2][3] - 3 * TRUTH[2][2] == 216 == 9 * (2 * TRUTH[1][0] + TRUTH[1][2] + TRUTH[1][3])

    @pytest.mark.parametrize("corrupt", [lambda a: a + 1, lambda a: 64], ids=["a-plus-1", "a-is-64"])
    def test_corrupted_sequence_is_caught(self, corrupt):
        bad = coupled_sequence(6)
        bad[2] = bad[2]._replace(a=corrupt(bad[2].a))
        report = identity_suite(6, sequence=bad)
        assert not report.all_pass
        failed = [r for r in report.results if not r.passed]
        assert failed and all(r.name and r.first_failure is not None for r in failed)

    def test_huge_residual_is_reported_under_default_int_str_cap(self, default_int_str_cap):
        bad = coupled_sequence(3100)
        bad[3050] = bad[3050]._replace(b=0)
        report = identity_suite(3100, sequence=bad)
        first = next(r for r in report.results if not r.passed)
        assert (first.name, first.first_failure) == ("d-prev-from-ab", 3050)
        assert f"{first.name:<18} FAIL at n=3050  ({first.checked} indices)" in str(report)

    def test_minimum_n(self):
        with pytest.raises(ValueError):
            identity_suite(3)

    def test_report_renders(self):
        text = str(identity_suite(5))
        assert "PASS" in text and "d-minus-3c" in text
