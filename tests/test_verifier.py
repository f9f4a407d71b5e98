"""Tests for the exhaustive checks.

White-box oracles here re-enumerate factors directly from definitions; the
golden file pins the full 200-entry maximal-repetition set verbatim.
"""

import heapq
import inspect
import json
import typing
from itertools import groupby, product
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Iterator
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dejean.carpi import (
    apply_morphism,
    find_psi_kernel_repetition,
    in_psi_kernel,
    make_table,
    min_psi_repetition_length,
)
from dejean.constructions import (
    _HIGH,
    _LOW,
    Z4Language,
    _int_sigs,
    _walk_kernel_candidates,
    g_apply,
    g_expand,
    zm_samples,
)
from dejean.core_words import equal_signature_pairs, kernel_signatures, letters_of
from dejean._util import split_chunks
from dejean import constructions, verifier
from dejean.pansiot import shortest_k_stabilizing_factor
from dejean.verifier import (
    MaximalKernelRepetition,
    VerificationReport,
    _max_kernel_period_run,
    _w_candidates,
    binary_avoidance_longest,
    check_lemma6,
    check_prop7_desk,
    compute_W,
    n26_stabilizing_check,
    verify_Ew,
    verify_short_elimination,
    w_breakdown,
)

GOLDEN = Path(__file__).parent / "golden" / "w_set.json"


def kernel_periods(v):
    """Periods p of v whose length-p prefix is a kernel word."""
    s = letters_of(v)
    k = len(s)
    out = []
    for p in range(1, k + 1):
        if all(s[i] == s[i + p] for i in range(k - p)) and in_psi_kernel(s[:p]):
            out.append(p)
    return out


digit_words = st.text(alphabet="1234", max_size=60)
# concatenated short kernel words and single letters, rich in periodic runs
kernel_rich_words = st.lists(
    st.sampled_from(["1", "2", "3", "11", "1111", "1212", "2112", "1221"]),
    max_size=12,
).map("".join)


# ---------------------------------------------------------------- scan core


@given(
    st.text(alphabet="12345", max_size=80),
    st.lists(st.integers(1, 12), max_size=80),
)
def test_int_sigs_match_direct_counts(s, u):
    sigs = _int_sigs(s)
    for i in range(len(s) + 1):
        want = 0
        for c in set(s[:i]):
            want |= (s[:i].count(c) % 4) << ((ord(c) - 49) * 2)
        assert sigs[i] == want
    # integer letters past 9, as in the source alphabets from n = 63 on
    sigs = kernel_signatures(u)
    for i in range(len(u) + 1):
        want = 0
        for a in set(u[:i]):
            want |= (u[:i].count(a) % 4) << ((a - 1) * 2)
        assert sigs[i] == want
    # resuming from the signature of a prefix continues the same scan
    cut = len(u) // 2
    assert sigs[:cut] + kernel_signatures(u[cut:], sigs[cut]) == sigs


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 6), max_size=60))
def test_equal_signature_pairs_are_the_kernel_factors(u):
    pairs = list(equal_signature_pairs(kernel_signatures(u)))
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == {
        (i, j)
        for i in range(len(u) + 1)
        for j in range(i + 1, len(u) + 1)
        if in_psi_kernel(u[i:j])
    }


# the per-letter walk that the engine's one block walk replaced, kept as
# its oracle


def _common_prefix_length(a: str, b: str) -> int:
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if b.startswith(a[:mid]):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _prefix_candidates(
    sorted_strings: Iterable[str], cap: int
) -> Iterator[tuple[str, int, int]]:
    """Yield (s, q, lmax) for each string s, cut to cap letters, and each q
    with s[:q] a kernel word; lmax = min(q + 3, the end of the run of period q
    in s).  Signatures are recomputed only past the common prefix with the
    previous string, so sorted input walks each distinct prefix once; a string
    equal to the previous one yields nothing new and is skipped."""
    prev = ""
    sigs = [0]
    for s in sorted_strings:
        s = s[:cap]
        if s == prev:
            continue
        c = _common_prefix_length(prev, s)
        sigs[c:] = _int_sigs(s[c:], sigs[c])
        n = len(s)
        # periods up to c were yielded for the previous string, but those
        # from c - 2 on extend past the common prefix; a kernel word has
        # every letter count divisible by 4, so its length is too
        for q in range(max(4, (c + 1) & ~3), n + 1, 4):
            if sigs[q] == 0:
                lim = min(n, q + 3)
                e = q
                while e < lim and s[e] == s[e - q]:
                    e += 1
                yield s, q, e
        prev = s


def _tail_candidates(s: str, cap: int):
    """The all-starts scan the sorted prefix walk replaced, kept as its
    oracle: (start, kernel_period, max_length) for factors of s with a kernel
    period q and length up to min(q + 3, cap, extension run)."""
    sigs = _int_sigs(s)
    groups: dict[int, list[int]] = {}
    for i, sg in enumerate(sigs):
        groups.setdefault(sg, []).append(i)
    L = len(s)
    for g in groups.values():
        for a in range(len(g) - 1):
            i = g[a]
            for b in range(a + 1, len(g)):
                q = g[b] - i
                if q > cap:
                    break
                e = i + q
                while e < L and s[e] == s[e - q]:
                    e += 1
                yield i, q, min(e - i, q + 3, cap)


def oracle_tail_candidates(s, cap):
    out = set()
    L = len(s)
    for i in range(L + 1):
        for q in range(1, min(cap, L - i) + 1):
            if in_psi_kernel(s[i : i + q]):
                e = i + q
                while e < L and s[e] == s[e - q]:
                    e += 1
                out.add((i, q, min(e - i, q + 3, cap)))
    return out


@settings(max_examples=200, deadline=None)
@given(digit_words, st.sampled_from([5, 20, 155]))
def test_tail_candidates_match_oracle(s, cap):
    assert set(_tail_candidates(s, cap)) == oracle_tail_candidates(s, cap)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.text(alphabet="12345", max_size=40), kernel_rich_words),
             max_size=4),
    st.sampled_from([4, 9, 20, 155]),
)
def test_prefix_walk_matches_all_starts_scan(strings, cap):
    # walking the sorted suffixes reaches every factor at every start
    suffixes = sorted(w[i:] for w in strings for i in range(len(w)))
    walked = {(s[:q], q, lmax) for s, q, lmax in _prefix_candidates(suffixes, cap)}
    scanned = {
        (w[i : i + q], q, lmax)
        for w in strings
        for i, q, lmax in _tail_candidates(w, cap)
    }
    assert walked == scanned


def walk_strings(strings):
    """_walk_kernel_candidates on strings over the letters 1-9, packed as
    the engine packs its factors."""
    return _walk_kernel_candidates([int(s or "0", 16) for s in strings])


def cut_walk(strings, walk, cap):
    """The block walk of the strings cut to cap, in the form of the
    oracle's (s[:q], q, lmax)."""
    return {(strings[i][:q], q, min(e, cap)) for i, q, e in walk if q <= cap}


def oracle_walk(strings, cap):
    return {(s[:q], q, lmax) for s, q, lmax in _prefix_candidates(strings, cap)}


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.text(alphabet="12345", max_size=40), kernel_rich_words),
             max_size=4),
    st.sampled_from([4, 9, 20, 155]),
)
def test_block_walk_matches_letter_walk(strings, cap):
    # mixed lengths, some longer than the cap
    suffixes = sorted(w[i:] for w in strings for i in range(len(w)))
    walked = cut_walk(suffixes, walk_strings(suffixes), cap)
    assert walked == oracle_walk(suffixes, cap)
    assert walked == {
        (w[i : i + q], q, lmax)
        for w in strings
        for i, q, lmax in _tail_candidates(w, cap)
    }
    # uncut, the two walks visit the same strings in the same order
    width = max(map(len, suffixes), default=0)
    assert [
        (suffixes[i], q, e) for i, q, e in walk_strings(suffixes)
    ] == list(_prefix_candidates(suffixes, width))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(alphabet="123456789", max_size=80), kernel_rich_words))
def test_block_delta_addition_matches_kernel_signatures(s):
    want = _int_sigs(s)
    sig = 0
    for j in range(4, len(s) + 1, 4):
        d = _int_sigs(s[j - 4 : j])[-1]
        sig = ((sig & _LOW) + (d & _LOW)) ^ ((sig ^ d) & _HIGH)
        assert sig == want[j], j
    # the walk of one string reads its signature at every multiple of 4
    assert [q for _, q, _ in walk_strings([s])] == [
        q for q in range(4, len(s) + 1, 4) if want[q] == 0
    ]


def oracle_max_run(s, period):
    best = 0
    for i in range(len(s)):
        for j in range(i + period, len(s) + 1):
            v = s[i:j]
            if all(v[x] == v[x + period] for x in range(len(v) - period)):
                if in_psi_kernel(v[:period]):
                    best = max(best, len(v))
    return best


@settings(max_examples=200, deadline=None)
@given(digit_words, st.sampled_from([4, 8, 12]))
def test_max_kernel_period_run_matches_oracle(s, period):
    assert _max_kernel_period_run(s, period) == oracle_max_run(s, period)


def whole_word_max_run(s, period):
    """The E_w run scan before the sliding window: prefix signatures over
    every letter of s, and the run length of the period at every position."""
    L = len(s)
    if period > L:
        return 0
    sigs = _int_sigs(s)
    runlen = [0] * (L + 1)
    for x in range(L - 1, period - 1, -1):
        runlen[x] = runlen[x + 1] + 1 if s[x] == s[x - period] else 0
    best = 0
    for i in range(L - period + 1):
        if sigs[i] == sigs[i + period]:
            best = max(best, period + runlen[i + period])
    return best


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(alphabet="1234", max_size=80), kernel_rich_words,
                 kernel_rich_words.map(lambda w: w * 3)))
def test_sliding_run_scan_matches_whole_word_scan(s):
    for period in range(1, len(s) + 2):
        assert _max_kernel_period_run(s, period) == whole_word_max_run(s, period), period


def test_split_partitions():
    items = list(range(17))
    for jobs in (1, 2, 4, 30):
        parts = split_chunks(items, jobs)
        flat = [x for part in parts for x in part]
        assert flat == items


# ---------------------------------------------------------------- types


def test_maximal_kernel_repetition_validation():
    r = MaximalKernelRepetition("11111111", 4)
    assert r.tail_length == 4
    assert r.to_payload()["length"] == 8
    with pytest.raises(ValueError):
        MaximalKernelRepetition("1112", 4)  # prefix counts not divisible by 4
    with pytest.raises(ValueError):
        MaximalKernelRepetition("11121113", 4)  # period does not hold
    with pytest.raises(ValueError):
        MaximalKernelRepetition("1111", 5)


def test_report_status():
    assert VerificationReport("x", "pass").passed
    assert not VerificationReport("x", "fail").passed
    assert not VerificationReport("x", "unavailable").passed
    assert VerificationReport("x", "pass", {"k": 1}).to_payload()["k"] == 1


# ---------------------------------------------------------------- elimination


def test_elimination_tiny_cutoff_clean():
    rep = verify_short_elimination(max_length=4, engine=Z4Language(4))
    assert rep.passed
    assert rep.payload["violations"] == []


def injected(engine, extra, max_length):
    """A stand-in engine whose sorted factors are the real engine's plus
    every suffix of the injected strings, so each factor of those is walked;
    a sorted walk over the merged list yields the union of walking each.
    It keeps them as strings: the checks read only the index's length and
    factor(i)."""
    suffixes = [p[i:] for p in extra for i in range(len(p))]
    strings = sorted([*engine.factors(engine.max_factor_length), *suffixes])
    return SimpleNamespace(
        max_factor_length=max_length,
        index=strings,
        factor=strings.__getitem__,
        kernel_candidates=walk_strings(strings),
    )


def test_elimination_injection_flagged():
    rep = verify_short_elimination(
        max_length=10, engine=injected(Z4Language(10), ["1111"], 10)
    )
    assert not rep.passed
    words = {(v["word"], v["order"]) for v in rep.payload["violations"]}
    assert {("1111", n) for n in range(27, 33)} <= words


@settings(max_examples=100, deadline=None)
@given(st.lists(kernel_rich_words, max_size=3), st.sampled_from([8, 12, 30]))
def test_elimination_injection_matches_all_starts_scan(extra, max_length):
    orders = range(27, 33)
    engine = injected(Z4Language(12), extra, max_length)
    rep = verify_short_elimination(max_length=max_length, engine=engine)
    # the language has no kernel factor this short, so every violation
    # comes from the injected strings
    want = sorted(
        (w[i : i + lmax], q, lmax, n)
        for w in extra
        for i, q, lmax in _tail_candidates(w, max_length)
        for n in orders
        if (n - 1) * (lmax + 1) >= n * q - 3
    )
    got = [(v["word"], v["kernel_period"], v["length"], v["order"])
           for v in rep.payload["violations"]]
    assert got == sorted(set(want))
    assert rep.payload["pieces_scanned"] == len(engine.index)


# ---------------------------------------------------------------- W set


def test_w_set_matches_golden(w_set):
    golden = json.loads(GOLDEN.read_text())
    assert golden["count"] == 200
    got = [{"word": r.word, "kernel_period": r.kernel_period} for r in w_set]
    assert got == golden["entries"]


def test_w_set_breakdown(w_set):
    assert w_breakdown(w_set) == {(76, 77): 160, (92, 93): 36, (112, 114): 4}


def test_w_set_revalidates(w_set, engine157):
    for r in w_set:
        assert r.kernel_period % 4 == 0
        assert 0 <= r.tail_length <= 3
        assert r.kernel_period <= 152
        assert r.kernel_period <= 31 * (r.tail_length + 2)
        assert r.kernel_period in kernel_periods(r.word)
        v, q = r.word, r.kernel_period
        assert not engine157.is_factor(v[q - 1] + v)
        assert not engine157.is_factor(v + v[len(v) - q])


def test_w_set_canonically_sorted(w_set):
    keys = [(len(r.word), r.word, r.kernel_period) for r in w_set]
    assert keys == sorted(keys)


def test_w_bound_filter_semantics():
    # at cutoff 64 the only possible tail-0..3 kernel period is 64 itself,
    # which the 31(tail+2) bound excludes
    eng = Z4Language(66)
    assert compute_W(64, engine=eng, bound_filter=True) == []
    loose = compute_W(64, engine=eng, bound_filter=False)
    assert len(loose) == 20
    assert {(r.kernel_period, len(r.word)) for r in loose} == {(64, 64)}


class LevelwiseEngine:
    """Alternative factor enumeration: iterate the window map level by level
    until two consecutive window sets agree, then serve the same interface as
    the worklist engine, with its index kept as strings."""

    def __init__(self, max_factor_length):
        self.max_factor_length = L = max_factor_length
        self.window_length = win = -(-L // 3) + 1
        level_words, k = {"1"}, 0
        pieces = set(level_words)
        while len(next(iter(level_words))) < win:
            level_words = g_apply(level_words)
            k += 1
            pieces |= level_words
        windows = {
            w[i : i + win] for w in level_words for i in range(len(w) - win + 1)
        }
        while True:
            new_windows = set()
            for x in windows:
                for bw in g_expand(x):
                    for i in range(len(bw) - L + 1):
                        pieces.add(bw[i : i + L])
                    for i in range(len(bw) - win + 1):
                        new_windows.add(bw[i : i + win])
            assert new_windows >= windows
            if new_windows == windows:
                break
            windows = new_windows
        self.pieces = frozenset(pieces)
        self.index = tuple(sorted(p for p in pieces if len(p) == L))
        self.factor = self.index.__getitem__
        self.kernel_candidates = walk_strings(self.index)
        self._haystack = "#".join(sorted(pieces))

    def is_factor(self, w):
        s = "".join(str(a) for a in w) if not isinstance(w, str) else w
        return s in self._haystack


def test_w_set_independent_of_enumeration_strategy():
    worklist = Z4Language(66)
    levelwise = LevelwiseEngine(66)
    long_pieces = {p for p in levelwise.pieces if len(p) == 66}
    assert set(worklist.factors(66)) == long_pieces
    for flag in (True, False):
        a = compute_W(64, engine=worklist, bound_filter=flag)
        b = compute_W(64, engine=levelwise, bound_filter=flag)
        assert a == b


def old_w_candidates(pieces, max_length, bound_filter):
    """compute_W's candidate scan before the prefix walk: every start of
    every piece."""
    cands = set()
    for piece in pieces:
        for i, q, lmax in _tail_candidates(piece, max_length):
            if q > 152:
                continue
            for ln in range(q, lmax + 1):
                if bound_filter and q > 31 * (ln - q + 2):
                    continue
                cands.add((piece[i : i + ln], q))
    return cands


@pytest.mark.parametrize("cutoff", [20, 66, 100])
def test_w_candidates_match_all_starts_scan(cutoff):
    # the old pieces: the level words and every cutoff-length window
    old_pieces = LevelwiseEngine(cutoff).pieces
    engine = Z4Language(cutoff)
    for flag in (True, False):
        want = old_w_candidates(old_pieces, cutoff - 2, flag)
        assert _w_candidates(engine, cutoff - 2, flag) == want, flag


def _windows_at(run, offset, length):
    end = offset + length
    for p in run:
        if len(p) >= end:
            yield p[offset:end]


def _sorted_windows(pieces, length):
    """The walk before the sorted factor index, kept as its oracle: every
    window of the given length of the sorted pieces, in sorted order with
    repeats.  Pieces that share their first o letters form a contiguous run
    already sorted by p[o:], so each run gives its windows at offset o in
    order, and one merge of the runs orders them all."""
    top = max(map(len, pieces), default=0)
    return heapq.merge(
        *(
            _windows_at(list(run), o, length)
            for o in range(top - length + 1)
            for _, run in groupby(pieces, key=itemgetter(slice(0, o)))
        )
    )


def distinct(strings):
    return [k for k, _ in groupby(strings)]


@pytest.mark.parametrize("cutoff", [20, 66, 100, 157])
def test_walk_matches_sorted_windows(cutoff, request):
    engine = request.getfixturevalue("engine157") if cutoff == 157 else Z4Language(cutoff)
    windows = distinct(_sorted_windows(sorted(engine.pieces), cutoff))
    if cutoff == 157:
        assert len(windows) == 68032
    win = engine.window_length
    walked = engine.factors(cutoff)
    assert walked == windows
    for cap in sorted({1, 2, 7, win - 1, win, win + 1, cutoff - 2, cutoff}):
        want = distinct(w[:cap] for w in windows)
        assert distinct(s[:cap] for s in walked) == want, cap


def test_small_cap_walks_factors_of_cap_length(engine157):
    """A cap up to the window length walks the cutoff-length factors cut to
    the cap, which are the factors of that length, as are the cap-letter
    prefixes of the cutoff-length windows of the pieces."""
    win = engine157.window_length
    pieces = sorted(engine157.pieces)
    prefixes = {w[:win] for w in _sorted_windows(pieces, engine157.max_factor_length)}
    for cap in (1, 2, 7, win - 1, win):
        walked = distinct(s[:cap] for s in engine157.factors(157))
        assert walked == sorted({w[:cap] for w in prefixes})
        assert walked == engine157.factors(cap)


@pytest.mark.parametrize("cutoff", [20, 66, 100, 157])
def test_engine_walk_cut_matches_letter_walk(cutoff, request):
    engine = request.getfixturevalue("engine157") if cutoff == 157 else Z4Language(cutoff)
    strings = engine.factors(cutoff)
    assert [(strings[i], q, e) for i, q, e in engine.kernel_candidates] == list(
        _prefix_candidates(strings, cutoff)
    )
    win = engine.window_length
    caps = {1, 2, 7, win - 1, win, win + 1, 76, 77, 100, 130, 155}
    for cap in sorted(c for c in caps if c <= cutoff):
        got = cut_walk(strings, engine.kernel_candidates, cap)
        assert got == oracle_walk(strings, cap), cap


def test_engine_walk_distinct_candidates(engine157):
    counts = {
        cap: len(cut_walk(engine157.factors(157), engine157.kernel_candidates, cap))
        for cap in (60, 100, 130, 155)
    }
    assert counts == {60: 0, 100: 1540, 130: 2556, 155: 4604}


def test_w_set_and_elimination_walk_the_engine_once():
    walk = mock.Mock(wraps=_walk_kernel_candidates)
    with mock.patch.object(constructions, "_walk_kernel_candidates", walk):
        engine = Z4Language(157)
        # as in a traced certify pass: compute_W gets a wrapper that forwards
        # the engine's attributes, and elimination the cached engine itself
        class Forwarding:
            def __getattr__(self, name):
                return getattr(engine, name)

        w = compute_W(155, engine=Forwarding())
        with mock.patch.dict(constructions._Z4_CACHE, {157: engine}, clear=True):
            rep = verify_short_elimination(130)
    assert walk.call_count == 1
    assert len(w) == 200
    assert rep.passed


# 54 is the window length of the 157 engine
@pytest.mark.parametrize("max_length", [3, 20, 54, 55])
def test_small_caps_independent_of_cached_engine(engine157, max_length):
    def run():
        rep = verify_short_elimination(max_length)
        return rep.status, rep.payload["violations"], compute_W(max_length)

    with mock.patch.dict(constructions._Z4_CACHE, clear=True):
        fresh = run()
    with mock.patch.dict(constructions._Z4_CACHE, {157: engine157}, clear=True):
        cached = run()
    assert cached == fresh


def test_checks_refuse_engine_below_cutoff(w_set):
    with pytest.raises(ValueError):
        verify_short_elimination(60, engine=Z4Language(20))
    with pytest.raises(ValueError):
        compute_W(64, engine=Z4Language(64))
    # E_w reads two letters past the longest W word
    with pytest.raises(ValueError):
        verify_Ew(w_set[:1], engine=Z4Language(len(w_set[0].word) + 1))


@pytest.mark.parametrize("max_length", [0, -1])
def test_checks_refuse_nonpositive_max_length(max_length):
    with pytest.raises(ValueError, match="max_length must be positive"):
        compute_W(max_length)
    with pytest.raises(ValueError, match="max_length must be positive"):
        verify_short_elimination(max_length)


# ---------------------------------------------------------------- E_w


def test_ew_on_representatives(w_set, engine157):
    sample = [w_set[0], w_set[160], w_set[196]]
    assert [(r.kernel_period, len(r.word)) for r in sample] == [
        (76, 77),
        (92, 93),
        (112, 114),
    ]
    rep = verify_Ew(sample, engine=engine157)
    assert rep.passed
    got = [(e["p"], e["q"], e["margin"]) for e in rep.payload["entries"]]
    assert got == [(76, 233, 11), (92, 281, 59), (112, 344, 26)]
    for e in rep.payload["entries"]:
        assert 3 * e["p"] <= e["q"] <= 3 * len(e["word"]) + 4
        assert e["contexts"] >= 1


def test_ew_vacuous_on_empty():
    rep = verify_Ew([])
    assert rep.passed
    assert rep.payload["checked"] == 0


def test_ew_jobs_parity(w_set, engine157):
    sample = w_set[:3]
    a = verify_Ew(sample, engine=engine157)
    b = verify_Ew(sample, engine=engine157, jobs=2)
    assert a.payload == b.payload


# ---------------------------------------------------------------- binary DFS


def suffix_dfs_longest(n, depth_cap=64):
    """The incremental search binary_avoidance_longest replaced: each child
    keeps its prefix signatures on a stack and tests only the repetitions
    ending at its last letter, with periods a multiple of 4."""
    s = []
    sigs = [0]
    best = [0, ""]

    def suffix_repetition():
        L = len(s)
        for q in range(4, L + 1, 4):
            r = 0
            while r < L - q and s[L - 1 - r] == s[L - 1 - r - q]:
                r += 1
            lo = min_psi_repetition_length(n, q)
            for ln in range(lo, q + r + 1):
                if sigs[L - ln] == sigs[L - ln + q]:
                    return True
        return False

    def dfs():
        depth = len(s)
        if depth > best[0]:
            best[0], best[1] = depth, "".join(s)
        if depth >= depth_cap:
            raise RuntimeError("depth cap reached")
        for c in "12":
            s.append(c)
            sigs.append(_int_sigs(c, sigs[-1])[1])
            if not suffix_repetition():
                dfs()
            s.pop()
            sigs.pop()

    dfs()
    return best[0], best[1]


@pytest.mark.parametrize("n", range(9, 41))
def test_binary_avoidance_matches_suffix_search(n):
    assert binary_avoidance_longest(n) == suffix_dfs_longest(n)


def test_binary_avoidance_result():
    length, witness = binary_avoidance_longest(26)
    assert length == 15
    assert len(witness) == 15
    assert find_psi_kernel_repetition(26, witness) is None


def test_binary_avoidance_brute_force_agrees():
    # full enumeration with the standalone scanner; once a length has no
    # clean word none longer can have one (prefixes of clean words are clean)
    longest = 0
    for L in range(1, 17):
        if any(
            find_psi_kernel_repetition(26, "".join(t)) is None
            for t in product("12", repeat=L)
        ):
            longest = L
        else:
            break
    assert longest == binary_avoidance_longest(26)[0] == 15


def test_binary_avoidance_depth_cap_error():
    # a clean word as long as the cap leaves finiteness uncertified
    with pytest.raises(RuntimeError):
        binary_avoidance_longest(26, depth_cap=15)
    assert binary_avoidance_longest(26, depth_cap=16) == (15, "111211121112111")


def test_binary_avoidance_order_guard():
    with pytest.raises(ValueError):
        binary_avoidance_longest(8)


# ---------------------------------------------------------------- lemma 6


def test_lemma6_sampled_members():
    seen = set()
    for z in zm_samples(5, 2048, 3, seed=11):
        rep = check_lemma6(5, z)
        assert rep.passed
        assert rep.payload["modulus"] == 256
        seen.update(rep.payload["kernel_lengths"])
    assert seen
    assert all(x % 256 == 0 for x in seen)


def test_lemma6_vacuous_short_member():
    rep = check_lemma6(5, "1123")
    assert rep.passed
    assert rep.payload["kernel_factors"] == 0
    assert rep.payload["kernel_lengths"] == []


@pytest.mark.parametrize("length", [1, 40, 256, 257, 300])
def test_lemma6_counts_every_kernel_factor(length):
    # brute force over every factor of short members, past the first length
    # (256) where kernel factors appear: count the letters of z[i:j] for
    # each start i and each end j
    found = 0
    for z in zm_samples(5, length, 3, seed=2):
        factors = []
        for i in range(length):
            counts = dict.fromkeys("12345", 0)
            for j in range(i, length):
                counts[z[j]] += 1
                if all(c % 4 == 0 for c in counts.values()):
                    factors.append(j + 1 - i)
        rep = check_lemma6(5, z)
        assert rep.payload["kernel_factors"] == len(factors)
        assert rep.payload["kernel_lengths"] == sorted(set(factors))
        found += len(factors)
    assert bool(found) == (length >= 256)


def test_lemma6_preconditions():
    with pytest.raises(ValueError):
        check_lemma6(4, "1223")
    with pytest.raises(ValueError):
        check_lemma6(5, "1111")


# ---------------------------------------------------------------- prop 7


def test_prop7_desk_passes():
    rep = check_prop7_desk(5, 33, length=2048, samples=3, seed=0)
    assert rep.passed
    assert rep.payload["findings"] == []
    assert rep.payload["seed"] == 0


def test_prop7_desk_short_trivial():
    assert check_prop7_desk(5, 33, length=4, samples=1, seed=99).passed


def test_prop7_desk_deterministic():
    a = check_prop7_desk(5, 33, length=256, samples=5, seed=4)
    b = check_prop7_desk(5, 33, length=256, samples=5, seed=4)
    assert a.payload == b.payload


def test_prop7_desk_preconditions():
    with pytest.raises(ValueError):
        check_prop7_desk(5, 27, length=64, samples=1)  # order belongs to m=4
    with pytest.raises(ValueError):
        check_prop7_desk(4, 27, length=64, samples=1)
    with pytest.raises(ValueError):
        check_prop7_desk(5, 33, words=["1111"])
    with pytest.raises(ValueError):
        check_prop7_desk(5, 33)
    # any order from 33 up is allowed regardless of the m it implies
    assert check_prop7_desk(5, 39, length=64, samples=1).passed


# ---------------------------------------------------------------- order 26


def test_n26_check_unavailable_without_table():
    rep = n26_stabilizing_check(None)
    assert rep.status == "unavailable"
    assert not rep.passed


def test_n26_check_rejects_wrong_order():
    t = make_table(9, {1: "0" * 40})
    with pytest.raises(ValueError):
        n26_stabilizing_check(t)


def test_stabilizing_witness_scan_toy():
    t = make_table(3, {1: "00"})
    image = apply_morphism(t, "1")
    rep = shortest_k_stabilizing_factor(t.n, image, 2, max_length=10)
    assert rep is not None
    assert (rep.start, rep.length, rep.k) == (1, 2, 2)
    assert shortest_k_stabilizing_factor(t.n, image, 2, max_length=1) is None


def test_public_annotations_resolve():
    public = [
        obj
        for name, obj in vars(verifier).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == verifier.__name__
    ]
    assert binary_avoidance_longest in public
    for obj in public:
        typing.get_type_hints(obj)
