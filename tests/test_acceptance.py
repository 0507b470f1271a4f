"""Acceptance suite: every exit criterion, exact values, stated time budgets.

Each test prints one `criterion N: PASS/FAIL` line (visible with -s).  All
comparisons are exact integer equality; the time budgets are asserted
too, generously sized for a desktop machine.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from triwords.closedform import case_mod4, closed_form, root_basis
from triwords.counting import ClassLabel, brute_force_words, composition_sum, trinomial
from triwords.digits import decimal_digits
from triwords.engines import compute_series, compute_value
from triwords.recurrence import coupled_sequence, quartic_c
from triwords.relations import char_poly_check, identity_suite
from triwords.ring import AlgebraicQ3i, ZERO

LABELS = tuple(ClassLabel)

# Exact values reproduced by every engine on its domain (criterion 1).
KNOWN = {
    ClassLabel.A: {1: 3, 2: 63, 3: 2187, 4: 59535},
    ClassLabel.B: {1: 6, 2: 90, 3: 2106, 4: 58806},
    ClassLabel.C: {1: 0, 2: 90, 3: 2268, 4: 58806},
    ClassLabel.D: {1: 18, 2: 486},
}


class _Budget:
    def __init__(self, number: int, description: str, seconds: float):
        self.number = number
        self.description = description
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.seconds else "FAIL"
        print(f"criterion {self.number} ({self.description}): {status} in {elapsed:.2f}s [budget {self.seconds:g}s]")
        if exc_type is None:
            assert elapsed < self.seconds, f"criterion {self.number} exceeded {self.seconds}s ({elapsed:.2f}s)"
        return False


def test_criterion_1_known_value_reproduction():
    with _Budget(1, "known values, every engine in domain", 1.0):
        series_engines = {
            "brute": compute_series("brute", 4),
            "compsum": compute_series("compsum", 4),
            "coupled": compute_series("coupled", 4),
            "decoupled": compute_series("decoupled", 4),
            "genfun": compute_series("genfun", 4),
        }
        for engine, series in series_engines.items():
            for label, wants in KNOWN.items():
                for n, want in wants.items():
                    assert series[n].component(label) == want, (engine, label, n)
        for engine in ("closed", "rootbasis", "mod4"):
            for label, wants in KNOWN.items():
                for n, want in wants.items():
                    assert compute_value(engine, label, n) == want, (engine, label, n)
        for n, want in KNOWN[ClassLabel.C].items():
            assert quartic_c(n) == want


def test_criterion_2_oracle_equivalence():
    with _Budget(2, "brute = compsum = coupled for n = 0..5", 60.0):
        coupled = coupled_sequence(5)
        for n in range(6):
            b = brute_force_words(n)
            c = composition_sum(n)
            assert b == c == coupled[n], n


def test_criterion_3_six_engine_agreement():
    with _Budget(3, "all engines agree for n = 1..300", 60.0):
        compsum = compute_series("compsum", 300)
        coupled = compute_series("coupled", 300)
        decoupled = compute_series("decoupled", 300)
        genfun = compute_series("genfun", 300)
        for n in range(1, 301):
            reference = compsum[n]
            assert coupled[n] == reference
            assert decoupled[n] == reference
            assert genfun[n] == reference
            assert quartic_c(n) == reference.c
            for label in LABELS:
                want = reference.component(label)
                assert closed_form(label, n) == want, (label, n)
                assert root_basis(label, n) == want, (label, n)
                assert case_mod4(label, n) == want, (label, n)


def test_criterion_4_sum_identity():
    with _Budget(4, "A+B+C+D = 27^n for n = 0..2000", 60.0):
        power = 1
        for v in coupled_sequence(2000):
            assert v.total == power, v.n
            power *= 27


def test_criterion_5_identity_suite():
    with _Budget(5, "elimination identities to n = 200 and char poly", 10.0):
        report = identity_suite(200)
        assert report.all_pass, str(report)
        assert len(report.results) == 9
        assert char_poly_check()


def test_criterion_6_structural_properties():
    with _Budget(6, "Pascal recurrence x1000, ring axioms, conjugate roots", 10.0):
        rng = random.Random(391468)
        for _ in range(1000):
            parts = [rng.randint(0, 20) for _ in range(3)]
            P = sum(parts)
            if P == 0:
                parts[0] = 1
                P = 1
            assert P <= 60
            a, b, c = parts
            assert trinomial(P, a, b, c) == (
                trinomial(P - 1, a - 1, b, c) + trinomial(P - 1, a, b - 1, c) + trinomial(P - 1, a, b, c - 1)
            )

        def rand_elem():
            return AlgebraicQ3i(*(Fraction(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(4)))

        for _ in range(200):
            x, y, z = rand_elem(), rand_elem(), rand_elem()
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert (x + y) + z == x + (y + z)

        x2 = AlgebraicQ3i(0, 0, 0, 3)
        for root in (x2, x2.conjugate()):
            assert root**3 - 27 * (root**2 - root + 27) == ZERO


def test_criterion_7_performance_at_10000():
    with _Budget(7, "decoupled engine at n = 10000", 60.0):
        values = {label: compute_value("decoupled", label, 10_000) for label in LABELS}
        for label, value in values.items():
            assert 14250 <= decimal_digits(value) <= 14350, label
        assert sum(values.values()) == 27**10_000
        assert values[ClassLabel.D] == 2 * 3**29_999


def test_criterion_8_derived_relations():
    with _Budget(8, "derived relations, oracle-checked then asserted to 300", 60.0):
        # Verification pass against the composition oracle, n <= 10.  It
        # pins down the B+C relation's true scope: 2*3^(3n-2) holds for odd
        # n only; at even n the oscillating terms of B and C reinforce
        # instead of cancelling (n = 2: 90 + 90 = 180, not 162).
        for n in range(1, 11):
            v = composition_sum(n)
            if n % 2 == 0:
                assert v.b == v.c
                assert v.b + v.c != 2 * 3 ** (3 * n - 2)
                sign = -1 if (n // 2) % 2 else 1
                assert v.b + v.c == 2 * (3 ** (3 * n - 2) - sign * 3 ** ((3 * n - 2) // 2))
            else:
                assert v.b + v.c == 2 * 3 ** (3 * n - 2)
            assert v.a + v.b + v.c == 3 ** (3 * n - 1)
            assert v.d == 2 * (v.a + v.b + v.c)
        assert composition_sum(2).b + composition_sum(2).c == 180  # not 2*3^4 = 162

        # Assertion pass to n = 300 with the scope the oracle established.
        series = compute_series("decoupled", 300)
        for n in range(1, 301):
            v = series[n]
            if n % 2 == 0:
                assert v.b == v.c, n
                sign = -1 if (n // 2) % 2 else 1
                assert v.b + v.c == 2 * (3 ** (3 * n - 2) - sign * 3 ** ((3 * n - 2) // 2)), n
            else:
                assert v.b + v.c == 2 * 3 ** (3 * n - 2), n
            assert v.a + v.b + v.c == 3 ** (3 * n - 1), n
            assert v.d == 2 * (v.a + v.b + v.c), n
        print("criterion 8 note: B+C = 2*3^(3n-2) holds for odd n; even n carries an extra oscillating term")
