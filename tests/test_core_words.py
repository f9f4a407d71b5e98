import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dejean.core_words import (
    RepetitionReport,
    ReportKind,
    Word,
    _letter_positions,
    _longest_repeat,
    _scan_sequence,
    find_forbidden_factor,
    first_kernel_repetition,
    format_ratio,
    format_word,
    is_free,
    kernel_signatures,
    letters_of,
    max_exponent,
    minimal_period,
    parse_binary,
    parse_ratio,
    parse_word,
    period_table,
    repetition_threshold,
    suffix_violates,
    word,
)
from dejean.carpi import min_psi_repetition_length
from dejean.pansiot import _inverse_prefixes

# ---------------------------------------------------------------- oracles


def oracle_periods(s):
    k = len(s)
    return [p for p in range(1, k + 1) if all(s[i + p] == s[i] for i in range(k - p))]


def oracle_find(s, num, den, strict):
    """Enumerate every factor and every period; compare by cross-multiplication.

    Returns (start, length, min_period) of the leftmost-then-shortest factor
    having some exponent >= num/den (> if strict), else None.
    """
    k = len(s)
    for start in range(k):
        for length in range(1, k - start + 1):
            f = s[start : start + length]
            ps = oracle_periods(f)
            hit = any(
                (length * den > num * p) if strict else (length * den >= num * p)
                for p in ps
            )
            if hit:
                return (start + 1, length, ps[0])
    return None


def oracle_need(p, r, strict):
    rp = r * p
    return max(math.floor(rp) + 1 if strict else math.ceil(rp), p)


def quadratic_find(s, r, strict):
    """The all-periods scan that find_forbidden_factor replaced: for each
    start, try every period in turn until the length it needs runs past the
    word.  Returns (start, length, period) or None."""
    k = len(s)
    for start in range(k):
        avail = k - start
        best_len = None
        best_p = None
        for p in range(1, avail + 1):
            need = oracle_need(p, r, strict)
            if need > avail or (best_len is not None and need >= best_len):
                break  # need is nondecreasing in p
            if all(s[i] == s[i + p] for i in range(start, start + need - p)):
                best_len, best_p = need, p
        if best_len is not None:
            return (start + 1, best_len, best_p)
    return None


def oracle_suffix_violation(s, r, strict):
    k = len(s)
    for p in range(1, k + 1):
        need = oracle_need(p, r, strict)
        if need > k:
            break
        if all(s[i] == s[i + p] for i in range(k - need, k - p)):
            return True
    return False


def has_suffix_violation(s, r, strict):
    """Whether some factor ending at the last position has exponent >= r (> if strict).

    This is the incremental check used when growing words letter by letter:
    appending a letter can only create violations in factors that end at the
    appended position.
    """
    return suffix_violates(s, period_table(len(s), r, strict))


def oracle_longest_repeat(s):
    k = len(s)
    return max(
        (m for m in range(1, k)
         if len({tuple(s[i : i + m]) for i in range(k - m + 1)}) < k - m + 1),
        default=0,
    )


def all_words(alphabet, max_len):
    for k in range(max_len + 1):
        yield from itertools.product(range(1, alphabet + 1), repeat=k)


# ---------------------------------------------------------------- frozen values


def test_periods_examples():
    assert oracle_periods("1213121") == [4, 6, 7]
    assert oracle_periods("1111") == [1, 2, 3, 4]
    assert oracle_periods("") == []
    assert oracle_periods("1") == [1]
    assert oracle_periods("1212") == [2, 4]


def test_max_exponent_examples():
    assert max_exponent("1213121") == Fraction(7, 4)
    assert max_exponent("11") == Fraction(2)
    assert max_exponent("121") == Fraction(3, 2)
    assert max_exponent("123") == Fraction(1)
    with pytest.raises(ValueError):
        max_exponent("")


def test_find_forbidden_factor_examples():
    rep = find_forbidden_factor("1212", Fraction(7, 4), strict=True)
    assert rep == RepetitionReport(1, 4, 2, ReportKind.PLAIN)
    assert find_forbidden_factor("121", Fraction(7, 4), strict=True) is None
    # exponent exactly 2 is allowed under a strict bound of 2
    assert find_forbidden_factor("11", Fraction(2), strict=True) is None
    assert find_forbidden_factor("11", Fraction(2), strict=False) is not None


def test_repetition_threshold_table():
    assert repetition_threshold(2) == Fraction(2)
    assert repetition_threshold(3) == Fraction(7, 4)
    assert repetition_threshold(4) == Fraction(7, 5)
    assert repetition_threshold(5) == Fraction(5, 4)
    assert repetition_threshold(27) == Fraction(27, 26)
    with pytest.raises(ValueError):
        repetition_threshold(1)


def test_word_validation_and_formats():
    with pytest.raises(ValueError):
        word([0], 3)
    with pytest.raises(ValueError):
        word([4], 3)
    w = parse_word("1213", 3)
    assert format_word(w) == "1213"
    big = word([1, 12, 27], 27)
    assert format_word(big) == "1,12,27"
    assert parse_word("1,12,27", 27) == big
    assert parse_word("", 3).letters == ()
    b = parse_binary("0110")
    assert b.letters == (1, 2, 2, 1)
    with pytest.raises(ValueError):
        parse_binary("012")


def test_ratio_roundtrip():
    assert parse_ratio("7/4") == Fraction(7, 4)
    assert format_ratio(Fraction(2)) == "2/1"
    assert format_ratio(Fraction(30, 29)) == "30/29"


def test_report_invariant_enforced():
    assert RepetitionReport(1, 4, 2, ReportKind.PLAIN).exponent == Fraction(2)


# ---------------------------------------------------------------- properties

BOUNDS = [
    (Fraction(7, 4), True),
    (Fraction(7, 4), False),
    (Fraction(2), True),
    (Fraction(3, 2), False),
    (Fraction(27, 26), True),
]


def check_against_oracle(s, r, strict):
    rep = find_forbidden_factor(s, r, strict)
    expect = oracle_find(s, r.numerator, r.denominator, strict)
    if expect is None:
        assert rep is None
    else:
        assert rep is not None
        assert (rep.start, rep.length, rep.period) == expect
        assert rep.exponent == Fraction(rep.length, rep.period)


def test_find_matches_oracle_exhaustive_ternary():
    for s in all_words(3, 7):
        for r, strict in BOUNDS:
            check_against_oracle(s, r, strict)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(1, 3), max_size=14).map(tuple),
    st.sampled_from(BOUNDS),
)
def test_find_matches_oracle_sampled(s, bound):
    check_against_oracle(s, *bound)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=12).map(tuple))
def test_periods_match_oracle_and_square_exponent(s):
    assert minimal_period(s) == oracle_periods(s)[0]
    assert max_exponent(s) >= 1
    assert max_exponent(s + s) >= 2


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=6).map(tuple),
    st.integers(2, 4),
)
def test_factors_inherit_periods(seed, reps):
    w = (seed * reps)[: len(seed) * reps]
    p = len(seed)
    for i in range(len(w)):
        for j in range(i + p, len(w) + 1):
            assert max_exponent(w[i:j]) >= Fraction(j - i, p)


def test_free_implies_plus_free_exhaustive():
    r = Fraction(7, 4)
    for s in all_words(3, 7):
        if find_forbidden_factor(s, r, strict=False) is None:
            assert find_forbidden_factor(s, r, strict=True) is None


def incremental_is_free(s, r, strict):
    for k in range(1, len(s) + 1):
        if has_suffix_violation(s[:k], r, strict):
            return False
    return True


def test_incremental_soundness_exhaustive_ternary():
    r = Fraction(7, 4)
    for s in all_words(3, 8):
        assert incremental_is_free(s, r, True) == is_free(s, r, True)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 3), max_size=12).map(tuple),
    st.sampled_from(BOUNDS),
)
def test_incremental_soundness_sampled(s, bound):
    r, strict = bound
    assert incremental_is_free(s, r, strict) == is_free(s, r, strict)


def test_minimal_period_and_letters_of():
    assert minimal_period("1213121") == 4
    assert letters_of("1213") == (1, 2, 1, 3)
    assert letters_of(Word((1, 2), 2)) == (1, 2)
    assert letters_of([3, 1]) == (3, 1)


# ---------------------------------------------------------------- the scan


SCAN_RATIOS = [Fraction(7, 4), Fraction(7, 5), Fraction(5, 4), Fraction(33, 32),
               Fraction(2), Fraction(3)]
SCAN_BOUNDS = [(r, strict) for r in SCAN_RATIOS for strict in (True, False)]
LOW_BOUNDS = [(r, strict) for r in (Fraction(1, 3), Fraction(9, 10), Fraction(1))
              for strict in (True, False)]


def scan_triple(w, r, strict):
    rep = find_forbidden_factor(w, r, strict)
    if rep is None:
        return None
    assert rep.exponent == Fraction(rep.length, rep.period)
    assert rep.kind == ReportKind.PLAIN
    return (rep.start, rep.length, rep.period)


def check_scan(s, r, strict, definition=True):
    got = scan_triple(s, r, strict)
    assert got == quadratic_find(s, r, strict)
    if definition:
        assert got == oracle_find(s, r.numerator, r.denominator, strict)
    return got


def near_periodic(draw_alphabet):
    """A periodic word over the drawn alphabet with at most one letter changed."""
    @st.composite
    def build(draw):
        n = draw(draw_alphabet)
        base = draw(st.lists(st.integers(1, n), min_size=1, max_size=6))
        length = draw(st.integers(0, 48))
        s = [base[i % len(base)] for i in range(length)]
        if s and draw(st.booleans()):
            s[draw(st.integers(0, length - 1))] = draw(st.integers(1, n))
        return tuple(s)
    return build()


alphabets = st.sampled_from([1, 2, 3, 4, 5, 33])
random_words = alphabets.flatmap(
    lambda n: st.lists(st.integers(1, n), max_size=40).map(tuple))


@settings(max_examples=300, deadline=None)
@given(random_words, st.sampled_from(SCAN_BOUNDS + LOW_BOUNDS))
def test_scan_matches_quadratic_oracle(s, bound):
    check_scan(s, *bound, definition=len(s) <= 14)


@settings(max_examples=300, deadline=None)
@given(near_periodic(alphabets), st.sampled_from(SCAN_BOUNDS))
def test_scan_matches_oracle_near_periodic(s, bound):
    check_scan(s, *bound, definition=len(s) <= 14)


def test_scan_matches_oracle_exhaustive_binary_and_4_letters():
    for s in itertools.chain(all_words(2, 10), all_words(4, 5)):
        for r, strict in SCAN_BOUNDS + LOW_BOUNDS:
            check_scan(s, r, strict, definition=False)


@settings(max_examples=100, deadline=None)
@given(random_words, st.sampled_from(SCAN_BOUNDS + LOW_BOUNDS))
def test_scan_letters_beyond_a_byte(s, bound):
    # letters >= 256 cannot go into bytes; the scan falls back to a tuple
    big = Word(tuple(a + 300 for a in s), 333)
    assert not s or not isinstance(_scan_sequence(big.letters), bytes)
    assert scan_triple(big, *bound) == scan_triple(s, *bound) == quadratic_find(s, *bound)


def test_scan_empty_word():
    for r, strict in SCAN_BOUNDS + LOW_BOUNDS:
        assert find_forbidden_factor((), r, strict) is None
        assert find_forbidden_factor("", r, strict) is None
        assert find_forbidden_factor(Word((), 3), r, strict) is None


def test_scan_exponent_at_most_one():
    # need(1) == 1: the overhang is 0, so the first letter is the report
    for s in [(1,), (2, 1), (1, 2, 3), (3, 3)]:
        for r, strict in LOW_BOUNDS:
            got = check_scan(s, r, strict)
            if r < 1 or (r == 1 and not strict):
                assert got == (1, 1, 1)
    # r = 1 strict asks for an overhang of 1: a repeated letter
    assert scan_triple((1, 2, 3), Fraction(1), True) is None
    assert scan_triple((1, 2, 3, 2), Fraction(1), True) == (2, 3, 2)
    with pytest.raises(ValueError):
        find_forbidden_factor((1, 2), Fraction(0))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 40),
    st.sampled_from(SCAN_BOUNDS + [(Fraction(1), True)]),
    st.integers(0, 4),
    st.sampled_from([0, 300]),
)
def test_scan_longest_repeat_at_pruning_boundary(p, bound, lead, offset):
    """A period-p factor of the least violating length over distinct letters:
    its overhang is the longest repeat, so pruning with one less misses it."""
    r, strict = bound
    need = oracle_need(p, r, strict)
    u = [offset + a for a in range(1, p + 1)]
    fresh = [offset + p + a for a in range(1, lead + 1)]
    s = tuple(fresh + [u[i % p] for i in range(need)])
    assert oracle_longest_repeat(s) == need - p
    assert scan_triple(s, r, strict) == quadratic_find(s, r, strict) == (lead + 1, need, p)
    # one letter shorter, the longest repeat is one less and the word is free
    assert scan_triple(s[:-1], r, strict) is None


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_words, near_periodic(alphabets)))
def test_longest_repeat_matches_definition(s):
    seq = _scan_sequence(s)
    positions = _letter_positions(seq)
    want = oracle_longest_repeat(s)
    for cap in range(1, len(s) + 1):
        assert _longest_repeat(seq, positions, cap) == min(want, cap)


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_words, near_periodic(alphabets)),
       st.sampled_from(SCAN_BOUNDS + LOW_BOUNDS))
def test_suffix_violation_matches_oracle(s, bound):
    assert has_suffix_violation(s, *bound) == oracle_suffix_violation(s, *bound)


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_words, near_periodic(alphabets)),
       st.sampled_from(SCAN_BOUNDS + LOW_BOUNDS), st.integers(0, 8))
def test_suffix_check_with_a_longer_table(s, bound, extra):
    # one table built for the longest word serves every shorter one
    table = period_table(len(s) + extra, *bound)
    assert suffix_violates(s, table) == oracle_suffix_violation(s, *bound)


def test_suffix_check_past_the_last_tabulated_period():
    # at 7/4 strict the table for k = 10 ends at (5, 9), so a word of ten
    # letters runs off the end of the table; a violation of that last
    # period is still found
    r = Fraction(7, 4)
    table = period_table(10, r, True)
    assert table[-1] == (5, 9)
    words = [w + (a,) for w in all_words(3, 9) if len(w) == 9 and is_free(w, r, True)
             for a in (1, 2, 3)]
    assert words
    for s in words:
        assert suffix_violates(s, table) == oracle_suffix_violation(s, r, True)
    last = (5, 1, 2, 3, 4, 5, 1, 2, 3, 4)  # 9 letters of period 5 end it
    assert oracle_suffix_violation(last, r, True)
    assert suffix_violates(last, table) and not suffix_violates(last, table[:-1])


# ---------------------------------------------------------------- kernel repetitions


def brute_kernel_repetition(letters, sigs, need):
    """(start, length, period) of the first factor, by start, then length,
    then period, that has the period, at least need[period] letters and a
    kernel window sigs[i] == sigs[i + period] anywhere inside it."""
    L = len(letters)
    for t in range(L):
        for length in range(1, L - t + 1):
            for q in range(1, length + 1):
                if length < need[q]:
                    continue
                if any(letters[i] != letters[i + q] for i in range(t, t + length - q)):
                    continue
                if any(sigs[i] == sigs[i + q] for i in range(t, t + length - q + 1)):
                    return (t + 1, length, q)
    return None


@st.composite
def need_tables(draw, size):
    """need[0..size], nondecreasing with need[q] >= q."""
    need = [0]
    for q in range(1, size + 1):
        need.append(max(q, need[-1] + draw(st.integers(0, 2))))
    return need


@st.composite
def planted_words(draw, alphabet, max_size):
    """A word with a block repeated in it, so that periodic runs are common."""
    part = st.lists(st.sampled_from(alphabet), max_size=max_size // 3)
    block = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=8))
    reps = draw(st.integers(0, 4))
    return tuple(draw(part) + block * reps + block[: draw(st.integers(0, 8))] + draw(part))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_first_kernel_repetition_matches_brute_force(data):
    if data.draw(st.booleans()):
        letters = data.draw(planted_words((1, 2, 3), 24))
        sigs = kernel_signatures(letters)
        kind = ReportKind.PSI_KERNEL
    else:
        n = data.draw(st.integers(2, 6))
        letters = data.draw(planted_words((1, 2), 24))
        sigs = list(_inverse_prefixes(n, letters))
        kind = ReportKind.KERNEL
    need = data.draw(need_tables(len(letters)))
    rep = first_kernel_repetition(letters, sigs, need, kind)
    got = None if rep is None else (rep.start, rep.length, rep.period)
    assert got == brute_kernel_repetition(letters, sigs, need)
    if rep is not None:
        assert rep.kind is kind and rep.length == need[rep.period]


class CountingLetters(tuple):
    """A letter tuple that counts its reads by index."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


def test_first_kernel_repetition_stops_at_the_first_start():
    # at order 5 the kernel window 12121212 of period 8 breaks at the ninth
    # letter, and 121212123333 with 12 after it repeats with period 12
    rng = random.Random(19)
    head = (1, 2) * 4 + (3,) * 4 + (1, 2)
    letters = CountingLetters(head + tuple(rng.choice((1, 2, 3, 4)) for _ in range(19_986)))
    sigs = kernel_signatures(letters)
    need = [min_psi_repetition_length(5, q) for q in range(len(letters) + 1)]
    assert (need[8], need[12]) == (9, 14)
    rep = first_kernel_repetition(letters, sigs, need, ReportKind.PSI_KERNEL)
    assert (rep.start, rep.length, rep.period) == (1, 14, 12)
    assert letters.reads < 1_000
