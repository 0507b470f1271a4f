"""Engine registry, domains, series construction and the validation report."""

from __future__ import annotations

import inspect
import math
import random
import tracemalloc
from decimal import Decimal, localcontext
from functools import partial
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triwords import closedform, engines, genfun, recurrence
from triwords.closedform import case_mod4_vector
from triwords.counting import ClassLabel, brute_force_words, composition_sum
from triwords.digits import EXACT, LEAF_BITS, PIECE_DIGITS, STR_BITS, brief, decimal_digits, to_decimal, write_decimal
from triwords.engines import (
    ENGINE_IDS,
    EngineDomainError,
    bench_engine,
    compute_series,
    compute_value,
    series,
)
from triwords.genfun import gf_at, gf_for_class
from triwords.recurrence import coupled_at
from triwords.relations import run_validation
from triwords.ring import AlgebraicQ3i
from truth_table import TRUTH


class TestDomains:
    def test_engine_ids(self):
        assert set(ENGINE_IDS) == {
            "brute", "compsum", "coupled", "decoupled", "quartic-c",
            "closed", "rootbasis", "mod4", "genfun",
        }

    def test_brute_cap(self):
        with pytest.raises(EngineDomainError):
            compute_value("brute", ClassLabel.A, 6)

    def test_closed_needs_positive_n(self):
        for engine in ("closed", "rootbasis", "mod4"):
            with pytest.raises(EngineDomainError):
                compute_value(engine, ClassLabel.A, 0)

    def test_quartic_only_class_c(self):
        assert compute_value("quartic-c", ClassLabel.C, 4) == 58806
        with pytest.raises(EngineDomainError):
            compute_value("quartic-c", ClassLabel.A, 4)

    def test_unknown_engine(self):
        with pytest.raises(EngineDomainError):
            compute_value("magic", ClassLabel.A, 1)

    def test_bench_unknown_engine(self):
        with pytest.raises(EngineDomainError):
            bench_engine("magic", 5)

    def test_series_needs_full_coverage_from_zero(self):
        for engine in ("closed", "rootbasis", "mod4", "quartic-c"):
            with pytest.raises(EngineDomainError):
                compute_series(engine, 5)


class TestValues:
    @pytest.mark.parametrize("engine", ENGINE_IDS)
    def test_engine_against_truth_table(self, engine):
        hi = 4 if engine == "brute" else 8
        labels = (ClassLabel.C,) if engine == "quartic-c" else tuple(ClassLabel)
        lo = 1 if engine in ("closed", "rootbasis", "mod4") else 0
        for n in range(lo, hi + 1):
            for label in labels:
                assert compute_value(engine, label, n) == TRUTH[n][list(ClassLabel).index(label)]

    @pytest.mark.parametrize("engine", ["compsum", "coupled", "decoupled", "genfun"])
    def test_series_match_truth_table(self, engine):
        series = compute_series(engine, 10)
        assert [v.as_tuple() for v in series] == [TRUTH[n] for n in range(11)]
        assert [v.n for v in series] == list(range(11))

    def test_brute_series(self):
        series = compute_series("brute", 3)
        assert [v.as_tuple() for v in series] == [TRUTH[n] for n in range(4)]


class TestSeries:
    @pytest.mark.parametrize("engine, max_n", [("closed", 3), ("quartic-c", 3), ("coupled", -1), ("brute", 6)])
    def test_refuses_on_the_call(self, engine, max_n):
        with pytest.raises(EngineDomainError):
            series(engine, max_n)

    def test_lazy_and_equal_to_list(self):
        vectors = series("decoupled", 12)
        assert not isinstance(vectors, list)
        assert list(vectors) == compute_series("decoupled", 12)

    def test_brute_cap_is_the_enumerators(self):
        from triwords.counting import BRUTE_FORCE_MAX_N
        from triwords.engines import ENGINES

        assert ENGINES["brute"].max_n == BRUTE_FORCE_MAX_N


class TestDecimalSeries:
    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=20, deadline=None)
    def test_text_matches_int_series(self, max_n):
        for engine in ("coupled", "decoupled", "genfun"):
            with localcontext(EXACT):
                got = [(v.n, *map(str, (*v.as_tuple(), v.total))) for v in series(engine, max_n, Decimal)]
            want = [(v.n, *map(str, (*v.as_tuple(), v.total))) for v in compute_series(engine, max_n)]
            assert got == want, engine
        with localcontext(EXACT):
            got = [str(c) for c, in engines.ENGINES["quartic-c"].rows((ClassLabel.C,), 0, max_n, Decimal)]
        assert got == [str(v.c) for v in compute_series("decoupled", max_n)]


class TestMemory:
    def test_coupled_value_holds_constant_vectors(self):
        tracemalloc.start()
        try:
            compute_value("coupled", ClassLabel.D, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


# The engines whose point route is their own, not their stream read at one index.
POINT_ROUTE_ENGINES = ("coupled", "decoupled", "quartic-c", "genfun")


class TestSeek:
    @pytest.mark.parametrize("engine", ENGINE_IDS)
    @given(num=st.sampled_from([int, Decimal]), data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_rows_from_lo_are_the_rows_from_min_n(self, engine, num, data):
        # the one test of a window filled at lo > min_n: the stepping engines fill it from their point route
        info = engines.ENGINES[engine]
        cap = {"brute": info.max_n, "compsum": 100}.get(engine, 3000)
        hi = data.draw(st.integers(min_value=info.min_n, max_value=cap), label="hi")
        lo = data.draw(st.integers(min_value=info.min_n, max_value=hi), label="lo")
        labels = tuple(data.draw(st.lists(st.sampled_from(info.labels), min_size=1, max_size=4), label="labels"))
        with localcontext(EXACT):
            got = list(info.rows(labels, lo, hi, num))
            want = list(islice(info.rows(labels, info.min_n, hi, num), lo - info.min_n, None))
        assert got == want
        assert all(type(v) is num for row in got for v in row)


# Each stepping engine's point function, in its home module.
POINT_FUNCTIONS = {
    "coupled": (recurrence, "coupled_at"),
    "decoupled": (recurrence, "decoupled_at"),
    "quartic-c": (recurrence, "quartic_c"),
    "genfun": (genfun, "gf_at"),
}


class TestSeekCost:
    @pytest.mark.parametrize("engine", POINT_ROUTE_ENGINES)
    @given(lo=st.integers(min_value=0, max_value=3000), span=st.integers(min_value=50, max_value=300), data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_a_seek_costs_one_window_of_point_values(self, engine, lo, span, data):
        info = engines.ENGINES[engine]
        labels = tuple(data.draw(st.lists(st.sampled_from(info.labels), min_size=1, max_size=4), label="labels"))
        home, name = POINT_FUNCTIONS[engine]
        real, points = getattr(home, name), []

        def spy(*args, **kwargs):
            points.append(inspect.signature(real).bind(*args, **kwargs).arguments["n"])
            return real(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(home, name, spy)
            rows = list(info.rows(labels, lo, lo + span))
        order = info.step(home, labels)[0]
        assert len(rows) == span + 1
        assert order <= 5 and points == list(range(lo, lo + order))


class TestPointRoutes:
    @given(st.sampled_from(POINT_ROUTE_ENGINES), st.integers(min_value=0, max_value=2000))
    @settings(max_examples=40, deadline=None)
    def test_point_route_matches_stream(self, engine, n):
        # the row at n stepped from min_n, not a window filled at n, which would be the point route itself;
        # below the window's order that row is a point value too, so the next test checks those n
        info = engines.ENGINES[engine]
        assert info.at(info.labels, n) == next(islice(info.rows(info.labels, info.min_n, n), n - info.min_n, None))

    @pytest.mark.parametrize("engine", POINT_ROUTE_ENGINES)
    def test_point_route_below_the_window_matches_truth_table(self, engine):
        info = engines.ENGINES[engine]
        for n in range(len(TRUTH)):
            assert info.at(info.labels, n) == tuple(TRUTH[n][list(ClassLabel).index(label)] for label in info.labels)

    @pytest.mark.parametrize("n", [10_000, 30_000])
    @pytest.mark.parametrize("engine", POINT_ROUTE_ENGINES)
    def test_point_route_matches_mod4_deep(self, engine, n):
        info = engines.ENGINES[engine]
        want = case_mod4_vector(n)
        assert info.at(info.labels, n) == tuple(map(want.component, info.labels))

    def test_values_and_bench_never_walk_a_stream(self, monkeypatch):
        def walked(*args):
            raise AssertionError("a point request walked a stream")

        monkeypatch.setattr(engines, "stepped", walked)
        for engine in POINT_ROUTE_ENGINES:
            labels = engines.ENGINES[engine].labels
            for n in range(9):
                want = {label: value for label, value in zip(ClassLabel, TRUTH[n]) if label in labels}
                assert bench_engine(engine, n)[1] == want
                assert {label: compute_value(engine, label, n) for label in want} == want


# The engines whose point route computes in the number type it is given.
NUM_ROUTE_ENGINES = ("coupled", "decoupled", "quartic-c", "genfun", "closed", "rootbasis", "mod4")


class TestDecimalPointRoutes:
    @given(st.sampled_from(NUM_ROUTE_ENGINES), st.data())
    @settings(max_examples=60, deadline=None)
    def test_text_matches_int_route(self, engine, data):
        info = engines.ENGINES[engine]
        n = data.draw(st.integers(min_value=info.min_n, max_value=5000), label="n")
        converted = []

        def spy(k):
            converted.append(k)
            return Decimal(k)

        with localcontext(EXACT):
            values = info.at(info.labels, n, spy)
            got = [str(v) for v in values]
        assert all(isinstance(v, Decimal) for v in values)
        assert got == [to_decimal(v) for v in info.at(info.labels, n)]
        # only seeds and constants are converted, never a computed int
        assert converted and all(type(k) is int and abs(k) < 2**64 for k in converted)

    @pytest.mark.parametrize("engine, n", [("brute", 5), ("compsum", 40)])
    def test_registry_converts_the_enumerators_values(self, engine, n):
        info = engines.ENGINES[engine]
        converted = []

        def spy(k):
            converted.append(k)
            return Decimal(k)

        values = info.at(info.labels, n, spy)
        ints = info.at(info.labels, n)
        assert converted == list(ints)
        assert all(type(v) is Decimal for v in values)
        assert values == ints


class TestValidation:
    def test_point_route_mismatch_names_index_and_class(self, monkeypatch):
        real = recurrence.decoupled_at

        def off_by_one(labels, n, num=int):
            return tuple(v + (n == 40 and label is ClassLabel.B) for label, v in zip(labels, real(labels, n, num)))

        monkeypatch.setattr(recurrence, "decoupled_at", off_by_one)
        (result,) = [r for r in run_validation(40) if r.name == "engine/decoupled-vs-coupled"]
        want = compute_value("coupled", ClassLabel.B, 40)
        assert not result.passed
        assert result.detail == f"point route mismatch at n=40 class B: {brief(want + 1)} != {brief(want)}"

    def test_sum_identity_names_the_first_wrong_total(self, monkeypatch):
        # the reference rows stepped with D one too large at n = 7, and so wrong from there on
        real = recurrence.coupled_step

        def corrupted(v):
            w = real(v)
            return w._replace(d=w.d + 1) if w.n == 7 else w

        monkeypatch.setattr(recurrence, "coupled_step", corrupted)
        (result,) = [r for r in run_validation(10) if r.name == "sum-identity"]
        assert result == ("sum-identity", False, "total at n=7 is not 27^7")

    def test_all_checks_pass(self):
        results = run_validation(10)
        assert results
        failed = [r for r in results if not r.passed]
        assert failed == []
        names = [r.name for r in results]
        assert "sum-identity" in names
        assert "char-poly-factorization" in names
        assert sum(name.startswith("engine/") for name in names) == 9
        assert sum(name.startswith("identity/") for name in names) == 9

    def test_each_engine_is_checked_over_its_own_range_past_compsums_cap(self):
        details = {r.name: r.detail for r in run_validation(301) if r.name.startswith("engine/")}
        assert details == {
            "engine/brute-vs-coupled": "n = 0..5",
            "engine/compsum-vs-coupled": "n = 0..300",
            "engine/coupled-point-vs-stream": "n = 0..8 and 301",
            "engine/decoupled-vs-coupled": "n = 0..301",
            "engine/quartic-c-vs-coupled": "n = 0..301",
            "engine/closed-vs-coupled": "n = 1..301",
            "engine/rootbasis-vs-coupled": "n = 1..301",
            "engine/mod4-vs-coupled": "n = 1..301",
            "engine/genfun-vs-coupled": "n = 0..301",
        }

    def test_minimum_max_n(self):
        with pytest.raises(ValueError):
            run_validation(3)


@pytest.mark.parametrize(
    "route",
    [brute_force_words, composition_sum, coupled_at, partial(gf_at, (gf_for_class(ClassLabel.A),))],
    ids=["brute_force_words", "composition_sum", "coupled_at", "gf_at"],
)
def test_negative_n_rejected(route):
    with pytest.raises(ValueError, match="^n must be nonnegative, got -1$"):
        route(-1)


class TestBench:
    def test_values_deterministic_across_engines(self):
        _, coupled = bench_engine("coupled", 40)
        _, decoupled = bench_engine("decoupled", 40)
        assert coupled == decoupled

    def test_rootbasis_takes_one_ring_power(self, monkeypatch):
        # X3^n is X2^n's conjugate, and the four classes share the powers
        exponents = []
        power = AlgebraicQ3i.__pow__

        def counted(self, exponent):
            exponents.append(exponent)
            return power(self, exponent)

        monkeypatch.setattr(AlgebraicQ3i, "__pow__", counted)
        bench_engine("rootbasis", 50)  # which first imports the route's module by one call at min_n = 1, off the clock
        assert exponents == [1, 50]
        compute_value("rootbasis", ClassLabel.B, 50)
        assert exponents == [1, 50, 50]

    @pytest.mark.parametrize(
        "engine, route",
        [("closed", "closed_form_at"), ("rootbasis", "root_basis_at"), ("mod4", "case_mod4_at")],
    )
    def test_closed_forms_compute_one_vector_per_index(self, monkeypatch, engine, route):
        indices = []
        real = getattr(closedform, route)
        monkeypatch.setattr(closedform, route, lambda labels, n, num=int: indices.append(n) or real(labels, n, num))
        bench_engine(engine, 50)  # one call at min_n = 1 imports the route's module, then one call at 50 is timed
        assert indices == [1, 50]

    def test_registry_follows_each_home_modules_current_binding(self, monkeypatch):
        calls = []

        def spy(home, route):
            real = getattr(home, route)
            monkeypatch.setattr(home, route, lambda labels, n, num: calls.append((route, n)) or real(labels, n, num))

        spy(recurrence, "decoupled_at")
        spy(closedform, "case_mod4_at")
        for engine, route, min_n in (("decoupled", "decoupled_at", 0), ("mod4", "case_mod4_at", 1)):
            calls.clear()
            assert compute_value(engine, ClassLabel.B, 9) == TRUTH[9][1]
            assert bench_engine(engine, 8)[1][ClassLabel.D] == TRUTH[8][3]
            assert calls == [(route, 9), (route, min_n), (route, 8)]  # bench's first call is off the clock
        calls.clear()
        assert [v.as_tuple() for v in series("decoupled", 5)] == [TRUTH[n] for n in range(6)]
        assert calls and {route for route, _ in calls} == {"decoupled_at"}

    def test_quartic_only_covers_c(self):
        _, values = bench_engine("quartic-c", 12)
        assert list(values) == [ClassLabel.C]
        assert values[ClassLabel.C] == compute_value("coupled", ClassLabel.C, 12)


class TestDecimalDigits:
    @pytest.mark.parametrize(
        "value,expect",
        [(0, 1), (1, 1), (9, 1), (10, 2), (999, 3), (1000, 4), (-1234, 4), (10**100, 101), (10**100 - 1, 100)],
    )
    def test_small(self, value, expect):
        assert decimal_digits(value) == expect

    @pytest.mark.parametrize("text,expect", [("0", 1), ("9", 1), ("10", 2), ("-1234", 4), ("1" + "0" * 100, 101)])
    def test_decimal(self, text, expect):
        assert decimal_digits(Decimal(text)) == expect

    def test_huge(self):
        assert decimal_digits(10**20000) == 20001
        assert decimal_digits(10**20000 - 1) == 20000
        assert decimal_digits(7 * 10**14312) == 14313


class TestBrief:
    @pytest.mark.parametrize(
        "value,expect",
        [(0, "0"), (-7, "-7"), (10**40 - 1, "9" * 40), (10**40, "<41 digits>"), (-(10**40), "-<41 digits>")],
    )
    def test_full_up_to_forty_digits_then_size(self, value, expect):
        assert brief(value) == expect

    @pytest.mark.parametrize(
        "text,expect",
        [("0", "0"), ("-7", "-7"), ("9" * 40, "9" * 40), ("1" + "0" * 40, "<41 digits>"),
         ("-1" + "0" * 40, "-<41 digits>"), ("2.5", "2.5")],
    )
    def test_decimal(self, text, expect):
        assert brief(Decimal(text)) == expect


class TestToDecimal:
    """to_decimal(n) == str(n); the no_int_str_cap fixture lifts the int-to-str cap that str() would hit."""

    def test_matches_str_at_random_sizes(self, no_int_str_cap):
        # Sizes log-uniform up to 10**6 bits, so most draws are small and the
        # quadratic str() reference stays cheap; this seed draws 13 of the 30
        # past STR_BITS, the largest of 917,366 bits.
        rng = random.Random(1)
        for _ in range(30):
            bits = round(math.exp(rng.uniform(0, math.log(10**6))))
            value = (rng.getrandbits(bits) | 1 << (bits - 1)) * rng.choice((1, -1))
            assert to_decimal(value) == str(value), f"{bits} bits"

    EDGES = {
        "0": 0,
        "1": 1,
        "-1": -1,
        "-(2**STR_BITS+1)": -(2**STR_BITS + 1),
        "10**10000-1": 10**10_000 - 1,
        "10**10000": 10**10_000,
        "10**100000-1": 10**100_000 - 1,
        "10**100000": 10**100_000,
        # 2**k - 1, 2**k and 2**k + 1 where 2**k is the first value rendered
        # in decimal (k = STR_BITS), one bit further, and where the halving
        # of k lands exactly on LEAF_BITS; 10**10000 is past STR_BITS too.
        **{f"2**{k}{d:+d}": 2**k + d for k in (STR_BITS, STR_BITS + 1, 16 * LEAF_BITS) for d in (-1, 0, 1)},
    }

    @pytest.mark.parametrize("value", EDGES.values(), ids=EDGES)
    def test_matches_str_at_edges(self, value, no_int_str_cap):
        assert to_decimal(value) == str(value)

    BIG = {
        "random-100000-bits": random.Random(3).getrandbits(10**5) | 1 << (10**5 - 1),
        # 19,020 bits, 5,726 digits: past the default cap, at a size where
        # str() would still be the faster route.
        "3**12000": 3**12000,
    }

    @pytest.fixture(params=BIG.values(), ids=BIG)
    def big(self, request, no_int_str_cap):
        """A value past the default cap and its str(), taken with the cap lifted, before default_int_str_cap sets it."""
        return request.param, str(request.param)

    def test_needs_no_int_str_cap_lift(self, big, default_int_str_cap):
        value, text = big
        with pytest.raises(ValueError):
            str(value)
        assert to_decimal(value) == text


def _written(value: Decimal) -> list[str]:
    pieces: list[str] = []
    write_decimal(value, pieces.append)
    return pieces


# Digit counts at and next to the sizes where the writer stops splitting or splits once more.
PIECE_EDGES = sorted({1, 2} | {k * PIECE_DIGITS + d for k in (1, 2, 3, 4) for d in (-1, 0, 1)})


@st.composite
def integral_decimals(draw) -> Decimal:
    """A Decimal integer with exponent 0, up to a few pieces long; powers of ten and their neighbours
    (10**k, 10**k - 1, 10**k + 1) and sparse digits put runs of zeros or nines where it splits."""
    size = draw(st.one_of(st.sampled_from(PIECE_EDGES), st.integers(min_value=1, max_value=4 * PIECE_DIGITS + 1)))
    shape = draw(st.sampled_from(["10**k", "10**k-1", "10**k+1", "random", "sparse"]))
    if shape == "10**k":
        return Decimal("1" + "0" * (size - 1))
    if shape == "10**k-1":
        return Decimal("9" * size)
    if shape == "10**k+1":
        return Decimal("1" + "0" * (size - 2) + "1" if size > 1 else "1")
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    digits = "0123456789" if shape == "random" else "0000000009"
    return Decimal(str(rng.randint(1, 9)) + "".join(rng.choices(digits, k=size - 1)))


class TestWriteDecimal:
    @given(st.one_of(st.just(Decimal(0)), integral_decimals()))
    @settings(max_examples=80, deadline=None)
    def test_pieces_join_to_str(self, value):
        # written in the default 28-digit context, which would round the halves: the writer splits in EXACT
        pieces = _written(value)
        assert "".join(pieces) == str(value)
        assert max(map(len, pieces)) <= PIECE_DIGITS
        assert (len(pieces) == 1) == (len(str(value)) <= PIECE_DIGITS)

    OTHERS = {
        "negative": "-5",
        "negative-3-pieces": "-" + "7" * (3 * PIECE_DIGITS),
        "negative-zero": "-0",
        "exponent-5": "1E+5",
        "fraction": "1.5",
        "fraction-3-pieces": "1" * (3 * PIECE_DIGITS) + ".5",
        "nan": "NaN",
        "infinity": "-Infinity",
    }

    @pytest.mark.parametrize("text", OTHERS.values(), ids=OTHERS)
    def test_any_other_value_is_one_str(self, text):
        # a negative value, a nonzero exponent or a special value is not split
        value = Decimal(text)
        assert _written(value) == [str(value)]
