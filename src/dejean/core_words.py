"""Words over small integer alphabets: periods, exponents, repetition scans.

Letters are 1-based integers.  Words over an alphabet of size <= 9 read and
print as contiguous digit strings ("1213"); larger alphabets use
comma-separated letters.  Binary words for the permutation encoding are
stored over {1, 2} and rendered as 0/1 only at I/O boundaries.

A positive integer p is a period of w = w_1 ... w_k if w_{i+p} = w_i for all
1 <= i <= k - p; every p in {|w|, ...} is vacuously a period, so periods are
reported within {1..|w|}.  For each period p, |w|/p is an exponent of w; "the"
exponent of w is |w| over the minimal period.  A word is r-free if no factor
has an exponent >= r, and r+-free if no factor has an exponent > r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Letters = Sequence[int]


class ReportKind(str, Enum):
    PLAIN = "plain"
    KERNEL = "kernel"
    PSI_KERNEL = "psi_kernel"
    STABILIZING = "stabilizing"


@dataclass(frozen=True)
class Word:
    """An immutable word over {1..alphabet_size}."""

    letters: tuple[int, ...]
    alphabet_size: int

    def __post_init__(self) -> None:
        if self.alphabet_size < 1:
            raise ValueError("alphabet size must be >= 1")
        for a in self.letters:
            if not 1 <= a <= self.alphabet_size:
                raise ValueError(f"letter {a} outside 1..{self.alphabet_size}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_word(self)


WordLike = Union[Word, str, Letters]


def word(letters: Iterable[int], alphabet_size: int) -> Word:
    return Word(tuple(letters), alphabet_size)


def parse_word(text: str, alphabet_size: int) -> Word:
    """Parse the text format: digits if alphabet_size <= 9, else comma-separated."""
    if alphabet_size <= 9:
        letters = tuple(int(c) for c in text)
    else:
        letters = tuple(int(part) for part in text.split(",")) if text else ()
    return Word(letters, alphabet_size)


def format_word(w: Word) -> str:
    if w.alphabet_size <= 9:
        return "".join(str(a) for a in w.letters)
    return ",".join(str(a) for a in w.letters)


def parse_binary(text: str) -> Word:
    """Parse a 0/1 string into a word over {1, 2} (0 -> 1, 1 -> 2)."""
    table = {"0": 1, "1": 2}
    try:
        letters = tuple(table[c] for c in text)
    except KeyError as exc:
        raise ValueError(f"not a binary (0/1) word: {text!r}") from exc
    return Word(letters, 2)


def format_binary(w: WordLike) -> str:
    return "".join("01"[a - 1] for a in letters_of(w))


def letters_of(w: WordLike) -> tuple[int, ...]:
    """Letters of a Word, a digit string, or a raw letter sequence."""
    if isinstance(w, Word):
        return w.letters
    if isinstance(w, str):
        return tuple(int(c) for c in w)
    return tuple(w)


def parse_ratio(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"ratio {text!r} has a zero denominator") from None


def format_ratio(r: Fraction) -> str:
    return f"{r.numerator}/{r.denominator}"


@dataclass(frozen=True)
class RepetitionReport:
    """A located repetition: factor at `start` (1-based) of the given length,
    with a period and the exact exponent length/period."""

    start: int
    length: int
    period: int
    exponent: Fraction
    kind: ReportKind
    k: Optional[int] = None  # stabilizing order, only for kind == STABILIZING

    def __post_init__(self) -> None:
        if self.exponent != Fraction(self.length, self.period):
            raise ValueError("report exponent must equal length/period exactly")

    def to_payload(self) -> dict:
        out = {
            "start": self.start,
            "length": self.length,
            "period": self.period,
            "exponent": format_ratio(self.exponent),
            "kind": self.kind.value,
        }
        if self.k is not None:
            out["k"] = self.k
        return out


def periods(w: WordLike) -> list[int]:
    """All periods of w within {1..|w|}, straight from the definition."""
    s = letters_of(w)
    k = len(s)
    return [p for p in range(1, k + 1) if all(s[i] == s[i + p] for i in range(k - p))]


def minimal_period(w: WordLike) -> int:
    s = letters_of(w)
    k = len(s)
    if k == 0:
        raise ValueError("empty word has no period")
    for p in range(1, k + 1):
        if all(s[i] == s[i + p] for i in range(k - p)):
            return p
    raise AssertionError("unreachable: |w| is always a period")


def max_exponent(w: WordLike) -> Fraction:
    """The exponent of w: |w| divided by its minimal period."""
    s = letters_of(w)
    if not s:
        raise ValueError("empty word has no exponent")
    return Fraction(len(s), minimal_period(s))


def letter_counts(w: WordLike, alphabet_size: Optional[int] = None) -> dict[int, int]:
    """Occurrence count of every letter 1..alphabet_size (zeros included)."""
    if alphabet_size is None:
        if not isinstance(w, Word):
            raise ValueError("alphabet_size required unless w is a Word")
        alphabet_size = w.alphabet_size
    s = letters_of(w)
    counts = {a: 0 for a in range(1, alphabet_size + 1)}
    for a in s:
        counts[a] += 1
    return counts


def repetition_threshold(n: int) -> Fraction:
    """Repetition threshold RT(n) for an n-letter alphabet."""
    if n < 2:
        raise ValueError("repetition threshold needs n >= 2")
    if n == 2:
        return Fraction(2)
    if n == 3:
        return Fraction(7, 4)
    if n == 4:
        return Fraction(7, 5)
    return Fraction(n, n - 1)


def _min_violating_length(p: int, r: Fraction, strict: bool) -> int:
    """Shortest L admitting a period-p factor of exponent >= r (> r if strict)."""
    rp = r * p
    need = math.floor(rp) + 1 if strict else math.ceil(rp)
    return max(need, p)


def _has_period_range(s: Letters, start: int, length: int, p: int) -> bool:
    return all(s[i] == s[i + p] for i in range(start, start + length - p))


def find_forbidden_factor(
    w: WordLike, r: Fraction, strict: bool = False
) -> Optional[RepetitionReport]:
    """Leftmost, then shortest, factor with an exponent >= r (> r if strict).

    Returns None when w is r-free (r+-free if strict).  The reported period is
    the minimal period of the returned factor.
    """
    if r <= 0:
        raise ValueError("exponent bound must be positive")
    s = letters_of(w)
    k = len(s)
    for start in range(k):
        avail = k - start
        best_len = None
        best_p = None
        for p in range(1, avail + 1):
            need = _min_violating_length(p, r, strict)
            if need > avail or (best_len is not None and need >= best_len):
                break  # need is nondecreasing in p
            if _has_period_range(s, start, need, p):
                best_len, best_p = need, p
        if best_len is not None:
            return RepetitionReport(
                start=start + 1,
                length=best_len,
                period=best_p,
                exponent=Fraction(best_len, best_p),
                kind=ReportKind.PLAIN,
            )
    return None


def has_suffix_violation(s: Letters, r: Fraction, strict: bool) -> bool:
    """Whether some factor ending at the last position has exponent >= r (> if strict).

    This is the incremental check used when growing words letter by letter:
    appending a letter can only create violations in factors that end at the
    appended position.
    """
    k = len(s)
    for p in range(1, k + 1):
        need = _min_violating_length(p, r, strict)
        if need > k:
            break  # nondecreasing in p
        if _has_period_range(s, k - need, need, p):
            return True
    return False


def is_free(w: WordLike, r: Fraction, strict: bool = False) -> bool:
    """r-freeness (r+-freeness if strict) of the whole word."""
    return find_forbidden_factor(w, r, strict) is None
