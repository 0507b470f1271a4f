"""Ground-truth counting of 3n-letter words over a three-letter alphabet.

A word of length N = 3n with letter counts (n1, n2, n3) falls into one of
four residue classes:

    A: every ni = 0 (mod 3)      B: every ni = 1 (mod 3)
    C: every ni = 2 (mod 3)      D: the residues are 0, 1, 2 in some order

Because n1 + n2 + n3 = 0 (mod 3), these four patterns are the only ones
possible and exactly one applies to each word.  This module provides the
class counts straight from their definitions (sums of trinomial
coefficients over constrained compositions) plus two brute-force oracles:
full word enumeration, and a sweep over all letter-count compositions.
Everything is exact integer arithmetic.
"""

from __future__ import annotations

from collections import deque, namedtuple
from enum import Enum
from math import comb
from typing import Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")


class InternalError(ValueError):
    """An engine produced or was given something that cannot be right: a bug, not a bad request.

    cli.main exits 3 for it, as for any exception but engines.EngineDomainError, the one refusal.
    """


class ArityMismatch(InternalError):
    """Lower-index arguments of a trinomial coefficient do not sum to the upper index."""


class NotDivisibleBy3(InternalError):
    """Letter counts whose total is not a multiple of three cannot be classified."""


class TooLarge(ValueError):
    """Word enumeration was asked for more words than the guard allows."""


class ClassLabel(Enum):
    """Residue class of a letter-count triple (see module docstring)."""

    A = "A"
    B = "B"
    C = "C"
    D = "D"


#: Composition of a word length into three letter counts.
Composition = tuple[int, int, int]

# Classes A, B, C in residue order; index r maps to the class with all counts = r (mod 3).
_SAME_RESIDUE_CLASS = (ClassLabel.A, ClassLabel.B, ClassLabel.C)

# Per-class k-sum offsets (added to 3*ki) and overall multiplier in the
# definitional sums; the k's run over compositions of n - shift.
_DIRECT_SUM_RULES: dict[ClassLabel, tuple[int, tuple[int, int, int], int]] = {
    ClassLabel.A: (0, (0, 0, 0), 1),
    ClassLabel.B: (1, (1, 1, 1), 1),
    ClassLabel.C: (2, (2, 2, 2), 1),
    ClassLabel.D: (1, (0, 1, 2), 6),
}

# brute_force_words(5) forms and classifies its 3^15 words in 0.03-0.04 s
# (2 vCPUs, CPython 3.11).  The cap stays at 5 for two reasons.  A word's
# code n1*(3n + 1) + n2 is at most 3n*(3n + 1): 240 at n = 5 but 342 at
# n = 6, past the one byte that bytes.translate maps.  And validate prints
# the brute check's range as "n = 0..5".
BRUTE_FORCE_MAX_N = 5
assert 3 * BRUTE_FORCE_MAX_N * (3 * BRUTE_FORCE_MAX_N + 1) < 256, "brute-force word codes must fit in one byte"


# Position of each label's field in a ClassVector, after n.
_FIELD_INDEX = {label: i for i, label in enumerate(ClassLabel, 1)}


class ClassVector(namedtuple("ClassVector", "n a b c d")):
    """The four class counts (C_A, C_B, C_C, C_D) at a given index n."""

    __slots__ = ()

    @property
    def total(self) -> int:
        return self.a + self.b + self.c + self.d

    def component(self, label: ClassLabel) -> int:
        return self[_FIELD_INDEX[label]]  # the field named for the label, read by position

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


def require_nonnegative(n: int, name: str = "n") -> None:
    """Raise ValueError unless the index n, named name in the message, is nonnegative."""
    if n < 0:
        raise ValueError(f"{name} must be nonnegative, got {n}")


def stepped(point: Callable[[int], T], order: int, step: Callable[[deque[T]], T], lo: int, hi: int) -> Iterator[T]:
    """Items lo..hi of a recurrence: point(n) until a window holds `order` of them, then step(window).

    The step must hold from n = order on, so that a run may start at any lo >= 0.
    """
    window = deque(map(point, range(lo, min(lo + order, hi + 1))), maxlen=order)
    yield from window
    for _ in range(lo + order, hi + 1):
        x = step(window)
        window.append(x)
        yield x


def columns(steps: Sequence[Callable[[Sequence[T]], T]]) -> Callable[[Sequence[tuple]], tuple]:
    """The step of a row of independent recurrences, for stepped: step k runs over column k of the window."""
    return lambda w: tuple(step(col) for step, col in zip(steps, zip(*w)))


def trinomial(N: int, n1: int, n2: int, n3: int) -> int:
    """The trinomial coefficient N! / (n1! n2! n3!), exactly.

    Any negative argument yields 0; this matches the summation convention
    used throughout the recurrence derivations, where out-of-range terms
    simply drop out.  Nonnegative arguments must satisfy n1 + n2 + n3 = N.
    """
    if N < 0 or n1 < 0 or n2 < 0 or n3 < 0:
        return 0
    if n1 + n2 + n3 != N:
        raise ArityMismatch(f"trinomial({N}; {n1}, {n2}, {n3}): lower indices sum to {n1 + n2 + n3}")
    return comb(N, n1) * comb(N - n1, n2)


def classify(counts: Composition) -> ClassLabel:
    """Residue class of a letter-count triple whose total is a multiple of 3."""
    n1, n2, n3 = counts
    if n1 < 0 or n2 < 0 or n3 < 0:
        raise ValueError(f"letter counts must be nonnegative, got {counts}")
    if (n1 + n2 + n3) % 3:
        raise NotDivisibleBy3(f"total letter count {n1 + n2 + n3} is not divisible by 3")
    r1, r2, r3 = n1 % 3, n2 % 3, n3 % 3
    if r1 == r2 == r3:
        return _SAME_RESIDUE_CLASS[r1]
    return ClassLabel.D


def _compositions3(total: int):
    """All (k1, k2, k3) with ki >= 0 and k1 + k2 + k3 = total; empty for total < 0."""
    for k1 in range(total + 1):
        for k2 in range(total - k1 + 1):
            yield k1, k2, total - k1 - k2


def direct_sum(label: ClassLabel, n: int) -> int:
    """Class count at index n, straight from its definitional sum.

    C_A(n) sums trinomial(3n; 3k1, 3k2, 3k3) over k1+k2+k3 = n; classes B,
    C shift every lower index by +1 resp. +2 and the k-sum down by 1 resp.
    2; class D uses offsets (0, +1, +2) over k1+k2+k3 = n-1 and multiplies
    by 6 for the permutations of which letter gets which offset.  Empty
    k-ranges give 0, so C_B(0) = C_C(0) = C_D(0) = 0 and C_C(1) = 0.
    """
    require_nonnegative(n)
    shift, offsets, multiplier = _DIRECT_SUM_RULES[label]
    N = 3 * n
    o1, o2, o3 = offsets
    total = 0
    for k1, k2, k3 in _compositions3(n - shift):
        total += trinomial(N, 3 * k1 + o1, 3 * k2 + o2, 3 * k3 + o3)
    return multiplier * total


def brute_force_words(n: int) -> ClassVector:
    """Class counts by forming every one of the 3^(3n) words.

    A word's code spells its letter counts: n1*(3n + 1) + n2, so letter 1
    adds 3n + 1, letter 2 adds 1 and letter 3 adds 0.  No count exceeds 3n,
    so the code decodes uniquely, and below the cap it fits in one byte.
    Every word is a prefix of 3n // 2 letters and a suffix of the rest; the
    codes of all prefixes, and of all suffixes, are each one bytes object,
    grown a letter at a time by bytes.translate.

    classify is asked once for each distinct word code, on its count
    triple.  For each distinct prefix code p, a 256-byte table maps every
    suffix code s to the index of classify's verdict on the code p + s,
    and a second bytes object lists the suffix codes whose word is in D.
    Translating the suffix codes through the table of each prefix in turn
    (duplicates included), deleting those D codes, leaves one class byte
    per A, B or C word: a third of the words.  bytes.count tallies A, B
    and C, and each deleted byte is a D word.  Both run in C.
    """
    require_nonnegative(n)
    if n > BRUTE_FORCE_MAX_N:
        raise TooLarge(f"n = {n} means 3^{3 * n} words; refusing beyond n = {BRUTE_FORCE_MAX_N}")
    length = 3 * n
    base = length + 1
    half = length // 2
    # One table per letter: letters 1, 2 and 3 add base, 1 and 0 to a code.
    shift = [bytes(range(step, 256)) + bytes(step) for step in (base, 1, 0)]
    codes = prefixes = b"\0"
    for k in range(1, length - half + 1):
        codes = b"".join(codes.translate(table) for table in shift)
        if k == half:
            prefixes = codes
    suffixes = codes
    labels = tuple(ClassLabel)
    prefix_codes, suffix_codes = set(prefixes), set(suffixes)
    verdict = {}
    for code in {p + s for p in prefix_codes for s in suffix_codes}:
        n1, n2 = divmod(code, base)
        verdict[code] = labels.index(classify((n1, n2, length - n1 - n2)))
    tables = {}
    for p in prefix_codes:
        table = bytearray(b"\xff" * 256)  # suffix codes that never occur fall outside the four classes
        for s in suffix_codes:
            table[s] = verdict[p + s]
        tables[p] = table, bytes(s for s in suffix_codes if table[s] == 3)  # 3: the index of D
    a = b = c = d = 0
    words = len(suffixes)
    for p in prefixes:
        kept = suffixes.translate(*tables[p])
        a += kept.count(0)
        b += kept.count(1)
        c += kept.count(2)
        d += words - len(kept)
    return ClassVector(n, a, b, c, d)


def composition_sum(n: int) -> ClassVector:
    """Class counts by summing trinomial(3n; n1, n2, n3) over all compositions.

    trinomial(N; n1, n2, n3) = C(N, n1) * C(m, n2) with m = N - n1, so each
    row n1 needs only C(N, n1) and the row's binomial sums by residue of n2,

        S_r(m) = sum of C(m, n2) over n2 = r (mod 3).

    The sweep walks n1 from N down to 0, so m rises from 0; C(N, n1) is
    carried by one exact multiply/divide per row, and the sums by Pascal's
    rule C(m+1, k) = C(m, k) + C(m, k-1):

        S_r(m + 1) = S_r(m) + S_{r-1}(m),    S(0) = (1, 0, 0).

    Classification shortcut: with N = 0 (mod 3) and r1 = n1 mod 3, the
    residues satisfy r3 = -(r1 + r2) mod 3, so all three are equal exactly
    when r2 = r1 (then r3 = -2*r1 = r1 mod 3).  Each row therefore feeds
    C(N, n1) * S_{r1} to the single same-residue class given by r1, and
    C(N, n1) times the other two sums to D.  As n1 = N - m, r1 is -m mod 3,
    so the rows cycle through classes A, C, B; the sweep keeps the three
    sums and four tallies in locals and picks the row's class by m mod 3.
    """
    require_nonnegative(n)
    N = 3 * n
    a = b = c = d = 0
    row = 1  # C(N, n1), from n1 = N
    s0, s1, s2 = 1, 0, 0  # S_0, S_1, S_2 at m = 0
    for m in range(N + 1):
        r = m % 3
        if r == 0:  # n1 = 0 (mod 3): class A
            a += row * s0
            d += row * (s1 + s2)
        elif r == 1:  # n1 = 2 (mod 3): class C
            c += row * s2
            d += row * (s0 + s1)
        else:  # n1 = 1 (mod 3): class B
            b += row * s1
            d += row * (s2 + s0)
        row = row * (N - m) // (m + 1)
        s0, s1, s2 = s0 + s2, s1 + s0, s2 + s1
    return ClassVector(n, a, b, c, d)
