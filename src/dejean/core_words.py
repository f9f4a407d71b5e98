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

from array import array
from bisect import bisect_right
from enum import Enum
from fractions import Fraction
from itertools import islice
from typing import Hashable, Iterable, Iterator, Optional, Sequence, Union

from ._util import Record

Letters = Sequence[int]


class ReportKind(str, Enum):
    PLAIN = "plain"
    KERNEL = "kernel"
    PSI_KERNEL = "psi_kernel"
    STABILIZING = "stabilizing"


class Word(Record):
    """An immutable word over {1..alphabet_size}: a tuple of letters and
    the alphabet size."""

    __slots__ = ("letters", "alphabet_size")

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


class RepetitionReport(Record):
    """A located repetition: factor at `start` (1-based) of the given length,
    with a period, the exact exponent length/period and a ReportKind; k is
    the stabilizing order, set only for kind == STABILIZING."""

    __slots__ = ("start", "length", "period", "kind", "k")
    _defaults = {"k": None}

    @property
    def exponent(self) -> Fraction:
        return Fraction(self.length, self.period)

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


def kernel_signatures(letters: Iterable[int], sig: int = 0) -> list[int]:
    """Prefix letter counts mod 4, packed two bits per letter (letter a in
    bits 2a-2 and 2a-1), for positive integer letters: out[0] = sig and
    out[i] the signature after the first i letters.

    Passing the signature of a prefix as sig resumes the scan after it.
    Two equal signatures out[i] == out[j] mark a factor letters[i:j] whose
    letter counts are all divisible by 4, a kernel word.
    """
    out = [sig]
    append = out.append
    for a in letters:
        sh = 2 * a - 2
        sig = (sig & ~(3 << sh)) | ((((sig >> sh) + 1) & 3) << sh)
        append(sig)
    return out


def equal_signature_pairs(sigs: Iterable[Hashable]) -> Iterator[tuple[int, int]]:
    """Every pair i < j with sigs[i] == sigs[j], grouped by signature in
    order of first occurrence, then by i, then by j."""
    groups: dict = {}
    for i, sg in enumerate(sigs):
        groups.setdefault(sg, []).append(i)
    for g in groups.values():
        for a in range(len(g) - 1):
            i = g[a]
            for j in islice(g, a + 1, None):
                yield i, j


def first_kernel_repetition(
    letters: Sequence, sigs: Iterable[Hashable], need: Sequence[int], kind: ReportKind
) -> Optional[RepetitionReport]:
    """Leftmost, then shortest, factor letters[t : t + need[q]] with period q
    whose first window is a kernel window, sigs[t] == sigs[t + q]; of two
    periods with the same need, the smaller.  sigs holds the len(letters)+1
    prefix signatures, and the caller keeps this contract:
    - need[q] >= q, need is nondecreasing, and it is tabulated for every
      q <= len(letters); so the first period that passes from a start gives
      the shortest report there, and none fits past t + need[q] > L.
    - sigs[i+1] is an injective function of sigs[i] for each letter.  Then,
      inside a q-periodic stretch, every window is a kernel window exactly
      when the first one is, so a repetition is found at its own start.
    Kernel signatures meet it, and so do Pansiot's prefix inverses Q_j,
    since each letter rotates Q by a fixed slice.

    One pass links each position to the next one with an equal signature;
    then each start follows its links in order.
    """
    L = len(letters)
    nxt = array("i", [0]) * (L + 1)  # 0: no later equal signature
    last: dict = {}
    for i, sg in enumerate(sigs):
        prev = last.get(sg)
        if prev is not None:
            nxt[prev] = i
        last[sg] = i
    for t in range(L):
        j = nxt[t]
        while j:
            q = j - t
            end = t + need[q]
            if end > L:
                break
            e = j
            while e < end and letters[e] == letters[e - q]:
                e += 1
            if e == end:
                return RepetitionReport(start=t + 1, length=need[q], period=q, kind=kind)
            j = nxt[j]
    return None


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
    q, rem = divmod(r.numerator * p, r.denominator)
    return max(q + 1 if strict or rem else q, p)


def _scan_sequence(s: Letters) -> Sequence:
    """s as bytes when every letter fits in one, so slices compare at C
    speed; otherwise as a tuple."""
    if all(0 <= a < 256 for a in s):
        return bytes(s)
    return tuple(s)


def _letter_positions(seq: Sequence) -> dict:
    """letter -> array of its positions in seq, ascending."""
    positions: dict = {}
    for i, a in enumerate(seq):
        positions.setdefault(a, array("i")).append(i)
    return positions


def _longest_repeat(seq: Sequence, positions: dict, cap: int) -> int:
    """min(R, cap) for R the length of the longest factor of seq occurring
    at least twice (0 if none), for cap >= 1.

    Repeats are closed under prefixes, so R is found by galloping over m up
    to cap, then bisecting.  Each test of m holds the hashes of the length-m
    slices of one first-letter bucket at a time, so memory stays linear in
    the bucket; a hash collision can only overstate the result, which keeps
    it an upper bound.
    """
    k = len(seq)

    def repeats(m: int) -> bool:
        for pos in positions.values():
            c = bisect_right(pos, k - m)  # starts of a whole length-m factor
            if c > 1 and len({hash(seq[i : i + m]) for i in islice(pos, c)}) < c:
                return True
        return False

    lo, hi = 0, 1
    while hi < cap and repeats(hi):
        lo, hi = hi, 2 * hi
    if hi >= cap:
        if repeats(cap):
            return cap
        hi = cap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if repeats(mid):
            lo = mid
        else:
            hi = mid
    return lo


def find_forbidden_factor(
    w: WordLike, r: Fraction, strict: bool = False
) -> Optional[RepetitionReport]:
    """Leftmost, then shortest, factor with an exponent >= r (> r if strict).

    Returns None when w is r-free (r+-free if strict).  The reported period is
    the minimal period of the returned factor.

    A period-p violation at start i is a factor of length need(p), the least
    length of exponent >= r (> r), and it holds exactly when the overhang
    h(p) = need(p) - p letters at i equal those at i + p.  That overhang then
    occurs twice, so h(p) <= R, the length of the longest repeated factor.
    For r > 1 (and r = 1 strict) h is at least 1 and nondecreasing in p, so
    only the periods up to pmax = max{p : h(p) <= R} can occur, and each is
    the distance from i to a later occurrence of the letter at i.  The scan
    walks the starts left to right and, for each, the later occurrences of
    its letter up to pmax, testing each period with one slice comparison;
    need(p) is nondecreasing, so the first hit is the report.

    R is searched only up to the overhang of the longest period that fits in
    the word, beyond which it prunes nothing.  Over k letters and n distinct
    letters that is O(k log R) slice hashes of length <= R to find R, plus
    about k * pmax / n slice comparisons.  On threshold words R is small,
    and the scan is near-linear: on 2 cores, Python 3.11.7, 10,000-letter
    threshold words over 3, 4 and 5 letters, drawn by random backtracking,
    take 0.45-0.9 s, where the all-periods scan it replaced took 12.3 s on
    3,000 letters.  On a word whose longest repeat grows with its length,
    such as a prefix of the Thue-Morse word, pmax grows too and the scan
    stays quadratic.
    """
    if r <= 0:
        raise ValueError("exponent bound must be positive")
    r = Fraction(r)
    seq = _scan_sequence(letters_of(w))
    k = len(seq)
    if not k:
        return None
    if _min_violating_length(1, r, strict) == 1:
        # r <= 1 (r < 1 if strict): a single letter, of exponent 1, violates
        return RepetitionReport(1, 1, 1, ReportKind.PLAIN)
    # the longest period a violation of at most k letters can have; a repeat
    # longer than its overhang prunes nothing more
    ptop = bisect_right(
        range(1, k + 1), k, key=lambda p: _min_violating_length(p, r, strict)
    )
    if not ptop:
        return None
    positions = _letter_positions(seq)
    cap = _min_violating_length(ptop, r, strict) - ptop
    longest = _longest_repeat(seq, positions, cap)
    over = [0]  # over[p] = h(p) for the periods 1..pmax
    for p in range(1, ptop + 1):
        h = _min_violating_length(p, r, strict) - p
        if h > longest:
            break
        over.append(h)
    pmax = len(over) - 1
    for start in range(k):
        pos = positions[seq[start]]
        avail = k - start
        for j in islice(pos, bisect_right(pos, start), None):
            p = j - start
            if p > pmax:
                break
            h = over[p]
            if p + h > avail:
                break  # need(p) is nondecreasing in p
            if seq[start : start + h] == seq[j : j + h]:
                return RepetitionReport(
                    start=start + 1,
                    length=p + h,
                    period=p,
                    kind=ReportKind.PLAIN,
                )
    return None


def period_table(max_length: int, r: Fraction, strict: bool) -> tuple[tuple[int, int], ...]:
    """The pairs (p, need(p)), need(p) the shortest length of a period-p
    factor with exponent >= r (> r if strict), for every period p with
    need(p) <= max_length, in increasing p.

    need(p) is nondecreasing in p, so the table of a longer bound extends
    that of a shorter one, and a caller checking a word of length k may stop
    at the first entry with need > k.
    """
    table = []
    for p in range(1, max_length + 1):
        need = _min_violating_length(p, r, strict)
        if need > max_length:
            break
        table.append((p, need))
    return tuple(table)


def suffix_violates(s: Letters, periods: Sequence[tuple[int, int]]) -> bool:
    """Whether some factor ending at the last position of s has a tabulated
    period p and need(p) letters, for periods a `period_table`.

    Only entries with need(p) <= len(s) are tried, so one table built for
    the longest word serves every shorter one; the check is complete for s
    when the table's bound is at least len(s).
    """
    k = len(s)
    for p, need in periods:
        if need > k:
            break
        if s[k - need : k - p] == s[k - need + p : k]:
            return True
    return False


def is_free(w: WordLike, r: Fraction, strict: bool = False) -> bool:
    """r-freeness (r+-freeness if strict) of the whole word."""
    return find_forbidden_factor(w, r, strict) is None
