"""Tests for exact language counting and growth estimation.

The counting oracle here is vectorized and whole-language: every word of a
given length is materialized as a row of base-n digits and scanned for
periodic windows with numpy, with no shared code or search strategy with the
frontier enumeration under test.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dejean import growth
from dejean.constructions import z4_factors, z4_language, zm_count, zm_is_member
from dejean.core_words import is_free, parse_word, repetition_threshold
from dejean.growth import (
    DEFAULT_BUDGET,
    build_growth_table,
    count_language,
    count_threshold_words,
    decimal_kth_root,
    decimal_ratio,
    growth_estimate,
    table_to_csv,
    theorem2_lower_bound,
    _int_kth_root,
)
from dejean._util import split_chunks

from test_core_words import has_suffix_violation

T3_COUNTS = [3, 6, 12, 18, 30, 42, 60, 78, 108, 144, 186, 240]
T2_COUNTS = [2, 4, 6, 10, 14, 20, 24, 30, 36, 44, 48, 60]


def oracle_free_count(alphabet: int, length: int, r: Fraction, strict: bool) -> int:
    """Count r-free (or r+-free) words of a length by scanning every word.

    Words are rows of a digit matrix; a word is banned iff for some period p
    it contains a window of the minimal violating length with that period.
    """
    total = alphabet**length
    digits = (
        np.arange(total, dtype=np.int64)[:, None]
        // alphabet ** np.arange(length - 1, -1, -1, dtype=np.int64)
    ) % alphabet
    banned = np.zeros(total, dtype=bool)
    for p in range(1, length + 1):
        if strict:
            need = (r * p).__floor__() + 1
        else:
            need = (r * p).__ceil__()
            if Fraction(need, p) == r:
                need += 0  # length need already reaches exponent r
        if need <= p:
            need = p + 1
        if need > length:
            continue
        eq = digits[:, p:] == digits[:, :-p]
        run = need - p
        windows = np.lib.stride_tricks.sliding_window_view(eq, run, axis=1)
        banned |= windows.all(axis=2).any(axis=1)
    return int((~banned).sum())


def oracle_expand_chunk(args: tuple) -> list:
    chunk, n, r, strict, symmetry = args
    out = []
    for w in chunk:
        top = n if not symmetry else min(n, (max(w) if w else 0) + 1)
        for a in range(1, top + 1):
            ext = w + (a,)
            if not has_suffix_violation(ext, r, strict):
                out.append(ext)
    return out


def oracle_threshold_table(n, max_length, budget=DEFAULT_BUDGET, symmetry=False, r=None):
    """count_threshold_words as a level-synchronous loop, with the cumulative
    cost of every length it charged to the budget.

    Each length first charges its candidate extensions to the budget, then
    extends the whole frontier by one letter, checking each candidate with
    has_suffix_violation.  r overrides the repetition threshold.
    """
    r = repetition_threshold(n) if r is None else r
    params = {"alphabet": n, "threshold": f"{r.numerator}/{r.denominator}",
              "strict": True, "symmetry": symmetry}
    counts, cumulative = [], []
    truncated_at = None
    frontier = [()]
    examined = 0
    for length in range(1, max_length + 1):
        cost = sum(
            (n if not symmetry else min(n, (max(w) if w else 0) + 1))
            for w in frontier
        )
        cumulative.append(examined + cost)
        if examined + cost > budget:
            truncated_at = length
            break
        examined += cost
        frontier = oracle_expand_chunk((frontier, n, r, True, symmetry))
        if symmetry:
            counts.append(sum(math.perm(n, len(set(w))) for w in frontier))
        else:
            counts.append(len(frontier))
        if not frontier:
            counts.extend(0 for _ in range(max_length - length))
            break
    table = build_growth_table(f"threshold-words-{n}", params, counts, truncated_at)
    return table, cumulative


def serial_shards(monkeypatch, per_word=False, split_work=40):
    """Run the shards of count_threshold_words in this process, with
    SPLIT_WORK set to split_work, split as for the given jobs, or one shard
    per word if per_word; returns the lengths of the frontiers that were
    split."""
    split_lengths = []

    def split(items, jobs):
        split_lengths.append(len(items[0]))
        return [[w] for w in items] if per_word else split_chunks(items, jobs)

    monkeypatch.setattr(growth, "SPLIT_WORK", split_work)
    monkeypatch.setattr(growth, "split_chunks", split)
    monkeypatch.setattr(growth, "parallel_map", lambda fn, items, jobs: [fn(x) for x in items])
    return split_lengths


def assert_matches_oracle(n, max_length, symmetry, r=None):
    """Every jobs in 1..3 gives the oracle's table, at the default budget and
    at, one below and one above the cumulative cost of each length."""
    full, cumulative = oracle_threshold_table(n, max_length, symmetry=symmetry, r=r)
    budgets = sorted({DEFAULT_BUDGET} | {c + d for c in cumulative for d in (-1, 0, 1)})
    for budget in budgets:
        want = full if budget == DEFAULT_BUDGET else oracle_threshold_table(
            n, max_length, budget, symmetry, r)[0]
        for jobs in (1, 2, 3):
            got = count_threshold_words(n, max_length, budget, symmetry, jobs)
            assert got == want, (n, max_length, symmetry, budget, jobs)


# sizes whose frontier is split for every jobs in 1..3, before max_length
SHARDED_SIZES = [
    (2, 18, False), (2, 18, True), (3, 16, False), (3, 16, True),
    (4, 14, False), (4, 18, True), (5, 10, False), (5, 16, True),
    (6, 8, False), (6, 14, True),
]


@pytest.mark.parametrize("split_work", [1, 40])
@pytest.mark.parametrize("n, max_length, symmetry", SHARDED_SIZES)
def test_sharded_count_matches_level_loop(monkeypatch, n, max_length, symmetry, split_work):
    split_lengths = serial_shards(monkeypatch, split_work=split_work)
    assert_matches_oracle(n, max_length, symmetry)
    # the shard path ran for each jobs value at the default budget
    assert max(split_lengths) < max_length
    assert len(split_lengths) >= 3


@pytest.mark.parametrize("n, max_length", [(3, 16), (4, 18), (6, 14)])
def test_one_shard_per_word_matches_level_loop(monkeypatch, n, max_length):
    # single-word shards end at different lengths: at (3, 16) some subtrees
    # die at length 11 and at (4, 18) at lengths 12 and 13, while the rest
    # reach max_length
    serial_shards(monkeypatch, per_word=True)
    assert_matches_oracle(n, max_length, True)


def test_empty_table_matches_level_loop(monkeypatch):
    serial_shards(monkeypatch)
    for symmetry in (False, True):
        assert_matches_oracle(3, 0, symmetry)


@pytest.mark.parametrize("n, r, max_length, sharded", [
    (2, Fraction(3, 2), 6, False), (3, Fraction(3, 2), 14, True),
])
def test_dying_language_matches_level_loop(monkeypatch, n, r, max_length, sharded):
    # no threshold language is finite, so a lower bound stands in for one;
    # the binary one dies before its frontier is split, and the single-word
    # shards of the ternary one die at lengths 10 and 11
    split_lengths = serial_shards(monkeypatch, per_word=True)
    monkeypatch.setattr(growth, "repetition_threshold", lambda _: r)
    for symmetry in (False, True):
        assert_matches_oracle(n, max_length, symmetry, r)
    table = count_threshold_words(n, max_length)
    assert table.counts[-1] == 0 and table.truncated_at is None
    assert bool(split_lengths) == sharded


def record_splits(monkeypatch):
    """Lengths of the frontiers count_threshold_words splits, with the real
    split_chunks and parallel_map."""
    split_lengths = []

    def split(items, jobs):
        split_lengths.append(len(items[0]))
        return split_chunks(items, jobs)

    monkeypatch.setattr(growth, "split_chunks", split)
    return split_lengths


@pytest.mark.parametrize("n, max_length, symmetry", [(3, 16, False), (4, 18, True)])
def test_worker_pools_match_level_loop(monkeypatch, n, max_length, symmetry):
    monkeypatch.setattr(growth, "SPLIT_WORK", 40)
    split_lengths = record_splits(monkeypatch)
    full, cumulative = oracle_threshold_table(n, max_length, symmetry=symmetry)
    budget = cumulative[-3]  # cuts two lengths short, after every split
    cut = oracle_threshold_table(n, max_length, budget, symmetry)[0]
    assert cut.truncated_at == max_length - 1
    for jobs in (2, 3):
        assert count_threshold_words(n, max_length, symmetry=symmetry, jobs=jobs) == full
        assert count_threshold_words(n, max_length, budget, symmetry, jobs) == cut
    assert len(split_lengths) == 4 and max(split_lengths) < max_length - 2


def test_small_counts_stay_in_process(monkeypatch):
    # the work left after any length of these tables stays under SPLIT_WORK
    # (at most 17,580 candidates, after length 31 of (6, 36)), so no pool starts
    split_lengths = record_splits(monkeypatch)
    monkeypatch.setattr(growth, "parallel_map", None)
    for n, max_length in ((3, 28), (4, 34), (6, 36), (3, 32)):
        count_threshold_words(n, max_length, symmetry=True, jobs=3)
    assert split_lengths == []


def test_split_at_first_length_leaving_split_work(monkeypatch):
    # at (3, 36) with symmetry, length 29 costs 5,712 candidates, and
    # 5,712 * 7 = 39,984 falls short of SPLIT_WORK = 40,000; length 30
    # costs 7,182, and 7,182 * 6 = 43,092 reaches it
    split_lengths = record_splits(monkeypatch)
    monkeypatch.setattr(growth, "parallel_map", lambda fn, items, jobs: [fn(x) for x in items])
    table = count_threshold_words(3, 36, symmetry=True, jobs=2)
    assert split_lengths == [30]
    assert table == count_threshold_words(3, 36, 10**9, symmetry=True, jobs=1)


def test_threshold_counts_ternary_frozen():
    table = count_threshold_words(3, 12)
    assert list(table.counts) == T3_COUNTS
    assert table.truncated_at is None
    assert table.parameters["threshold"] == "7/4"


def test_threshold_counts_ternary_vs_vector_oracle():
    table = count_threshold_words(3, 12)
    for k in range(1, 13):
        assert table.counts[k - 1] == oracle_free_count(3, k, Fraction(7, 4), True)


def test_threshold_counts_binary_overlap_free():
    table = count_threshold_words(2, 12)
    assert list(table.counts) == T2_COUNTS
    for k in range(1, 13):
        assert table.counts[k - 1] == oracle_free_count(2, k, Fraction(2), True)


def test_threshold_counts_quaternary_vs_pure_oracle():
    table = count_threshold_words(4, 7)
    r = Fraction(7, 5)
    for k in range(1, 8):
        brute = sum(
            1
            for w in np.ndindex(*(4,) * k)
            if is_free(parse_word("".join(str(a + 1) for a in w), 4), r, True)
        )
        assert table.counts[k - 1] == brute


def test_symmetry_mode_reproduces_counts():
    for n in (2, 3, 4):
        plain = count_threshold_words(n, 10)
        folded = count_threshold_words(n, 10, symmetry=True)
        assert folded.counts == plain.counts
        assert folded.parameters["symmetry"] is True


def test_jobs_do_not_change_counts():
    assert (
        count_threshold_words(3, 10, jobs=4).counts
        == count_threshold_words(3, 10).counts
    )


def test_budget_truncation_is_a_prefix():
    full = count_threshold_words(3, 12)
    cut = count_threshold_words(3, 12, budget=20)
    assert cut.truncated_at == 3
    assert cut.counts == full.counts[:2]
    assert count_threshold_words(3, 12, budget=10**9).truncated_at is None


def test_threshold_guards():
    with pytest.raises(ValueError):
        count_threshold_words(1, 5)
    with pytest.raises(ValueError):
        count_threshold_words(3, -1)
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        count_threshold_words(3, 5, budget=-5)
    assert count_threshold_words(3, 0).counts == ()
    assert count_threshold_words(3, 5, budget=0).truncated_at == 1


def test_tightening_threshold_cannot_gain_words():
    loose = count_language(
        lambda w: is_free(w, Fraction(7, 4), True), 3, 10, prefix_closed=True
    )
    tight = count_language(
        lambda w: is_free(w, Fraction(3, 2), True), 3, 10, prefix_closed=True
    )
    assert all(t <= l for t, l in zip(tight.counts, loose.counts))


def test_count_language_requires_closure_declaration():
    with pytest.raises(ValueError):
        count_language(lambda w: True, 3, 4)


def test_count_language_all_words():
    table = count_language(lambda w: True, 3, 4, prefix_closed=True)
    assert list(table.counts) == [3, 9, 27, 81]


def test_count_language_zm():
    table = count_language(
        lambda w: zm_is_member(5, w), 5, 8, prefix_closed=True, name="zm"
    )
    assert table.counts[7] == 4 == zm_count(8)
    assert list(table.counts) == [zm_count(k) for k in range(1, 9)]


def test_count_language_z4_matches_factor_sets():
    engine = z4_language(12)
    table = count_language(
        lambda w: engine.is_factor(w), 4, 10, prefix_closed=True, name="z4"
    )
    flat = z4_factors(10, engine)
    by_length = [sum(1 for f in flat if len(f) == k) for k in range(1, 11)]
    assert list(table.counts) == by_length


def test_count_language_level_filter_agrees_with_pruning():
    pruned = count_language(lambda w: zm_is_member(5, w), 5, 6, prefix_closed=True)
    filtered = count_language(lambda w: zm_is_member(5, w), 5, 6, prefix_closed=False)
    assert pruned.counts == filtered.counts


def test_count_language_dead_language_pads_zeros():
    table = count_language(lambda w: False, 2, 5, prefix_closed=True)
    assert list(table.counts) == [0, 0, 0, 0, 0]
    assert table.kth_roots[0] == "0.000000"
    assert table.ratios[0] is None


def test_decimal_helpers():
    assert decimal_ratio(1, 3) == "0.333333"
    assert decimal_ratio(2, 1) == "2.000000"
    assert decimal_kth_root(2, 2) == "1.414213"
    assert decimal_kth_root(1000000, 1) == "1000000.000000"
    with pytest.raises(ValueError):
        decimal_ratio(1, 0)


@given(st.integers(min_value=0, max_value=10**24), st.integers(min_value=1, max_value=12))
@settings(max_examples=200)
def test_int_kth_root_brackets(x, k):
    y = _int_kth_root(x, k)
    assert y**k <= x < (y + 1) ** k


def test_build_table_examples():
    t = build_growth_table("x", {}, [3, 6, 12])
    assert t.ratios == ("2.000000", "2.000000")
    assert t.kth_roots[0] == "3.000000"
    flat = build_growth_table("x", {}, [1, 1, 1])
    assert set(flat.kth_roots) == {"1.000000"}
    with pytest.raises(ValueError):
        build_growth_table("x", {}, [-1])


def test_growth_estimate_fields():
    est = growth_estimate(build_growth_table("x", {}, [3, 6, 12]))
    assert est["last_ratio"] == "2.000000"
    assert est["ratios_nonincreasing"] is True
    assert est["roots_nonincreasing"] is True
    assert est["fekete_violations"] == []
    flat = growth_estimate(build_growth_table("x", {}, [1, 1, 1]))
    assert flat["last_kth_root"] == "1.000000"
    with pytest.raises(ValueError):
        growth_estimate(build_growth_table("x", {}, []))


def test_growth_estimate_flags_fekete_violation():
    est = growth_estimate(build_growth_table("x", {}, [1, 3]))
    assert est["fekete_violations"] == [{"j": 1, "k": 1, "count": 3, "bound": 1}]
    assert est["ratios_nonincreasing"] is True


def test_ternary_growth_rate_bracket():
    table = count_threshold_words(3, 20)
    est = growth_estimate(table)
    root = float(est["last_kth_root"])
    assert 1.0 <= root <= 1.5
    assert est["fekete_violations"] == []
    assert est["roots_nonincreasing"] is True


def test_theorem2_frozen_parameters():
    high = theorem2_lower_bound(33, 2176)
    assert (high["base"], high["divisor"]) == (2, 2176)
    assert high["value"] == "2.000000"
    mid = theorem2_lower_bound(27, 0)
    assert (mid["base"], mid["divisor"]) == (4, 29484)
    assert mid["value"] == "1.000000"
    assert theorem2_lower_bound(34, 0)["divisor"] == 4 * 33 * 18
    assert theorem2_lower_bound(32, 0)["divisor"] == 81 * 31 * 17
    with pytest.raises(ValueError):
        theorem2_lower_bound(26, 100)
    with pytest.raises(ValueError):
        theorem2_lower_bound(33, -1)


def test_theorem2_value_growth():
    lo = theorem2_lower_bound(33, 100)
    hi = theorem2_lower_bound(33, 2000)
    assert 1.0 < float(lo["value"]) < float(hi["value"]) < 2.0


def test_csv_rendering():
    text = table_to_csv(build_growth_table("x", {}, [3, 6, 12]))
    lines = text.strip().split("\n")
    assert lines[0] == "k,count,ratio,kth_root"
    assert lines[1] == "1,3,2.000000,3.000000"
    assert lines[3] == "3,12,,2.289428"


def test_table_payload_roundtrip():
    t = count_threshold_words(3, 5)
    payload = t.to_payload()
    assert payload["counts"] == [3, 6, 12, 18, 30]
    assert payload["truncated_at"] is None
    assert payload["name"] == "threshold-words-3"
