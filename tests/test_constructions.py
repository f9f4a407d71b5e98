"""Tests for the source-word families.

The factor-language oracle below iterates the window map level by level and
stops only when two consecutive window sets are equal; monotonicity then
certifies the fixpoint, so it is a complete reference for the engine.  The
worklist fixpoint the engine ran before its recursion on factor length is
kept as the reference for the engine's windows and index.  Plain level
enumeration is also used where it is provably complete (short lengths).
"""

import itertools
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dejean.carpi import in_psi_kernel
from dejean.constructions import (
    G_RULE,
    Z4Language,
    _factors_of_length,
    _windows,
    alpha_prefix,
    beta_prefix,
    free_positions,
    g_apply,
    g_expand,
    g_level,
    z4_factors,
    z4_is_factor,
    z4_language,
    zm_count,
    zm_enumerate,
    zm_is_member,
    zm_sample,
    zm_samples,
)

# ---------------------------------------------------------------- oracles


def oracle_factors_upto(max_len, max_levels=40, lengths=None):
    """Factors of every iteration level, by certified window fixpoint, of
    each length in lengths (by default 1..max_len)."""
    if lengths is None:
        lengths = range(1, max_len + 1)
    win = -(-max_len // 3) + 1
    level_words, k = {"1"}, 0
    harvested = set(level_words)
    while len(next(iter(level_words))) < win:
        level_words = g_apply(level_words)
        k += 1
        harvested |= level_words
        assert k <= 5
    windows = {w[i : i + win] for w in level_words for i in range(len(w) - win + 1)}
    rounds = 0
    while True:
        new_windows = set()
        rounds += 1
        assert rounds < max_levels
        for x in windows:
            for bw in g_expand(x):
                L = len(bw)
                for i in range(L - max_len + 1):
                    harvested.add(bw[i : i + max_len])
                for i in range(L - win + 1):
                    new_windows.add(bw[i : i + win])
        assert new_windows >= windows
        if new_windows == windows:
            break
        windows = new_windows
    out = {ln: set() for ln in lengths}
    for p in harvested:
        for ln in lengths:
            for i in range(len(p) - ln + 1):
                out[ln].add(p[i : i + ln])
    return out


def fixpoint_windows(max_len):
    """The closed windows by worklist fixpoint: seed with every window of
    length ceil(L/3)+1 of the first level long enough to contain one, then
    repeatedly apply g to known windows and take the windows of the branch
    words, until nothing new appears."""
    win = -(-max_len // 3) + 1
    k0, size = 0, 1
    while size < win:
        size *= 3
        k0 += 1
    frontier = {w[i : i + win] for w in g_level(k0) for i in range(len(w) - win + 1)}
    seen = set(frontier)
    while frontier:
        x = frontier.pop()
        for bw in g_expand(x):
            for i in range(len(bw) - win + 1):
                y = bw[i : i + win]
                if y not in seen:
                    seen.add(y)
                    frontier.add(y)
    return seen


def fixpoint_index(max_len, level_words):
    """The sorted factors of length max_len cut from the level words and the
    branch words of the fixpoint windows, and the sorted windows."""
    windows = fixpoint_windows(max_len)
    index = {
        p[i : i + max_len]
        for p in itertools.chain(g_apply(windows), level_words)
        for i in range(len(p) - max_len + 1)
    }
    return tuple(sorted(index)), tuple(sorted(windows))


def string_index(engine):
    """The engine's index as it was built before packing: the distinct
    windows of cutoff length of the branch words of its windows and of its
    level words, as sorted strings."""
    branch_words = itertools.chain.from_iterable(map(g_expand, engine.windows))
    words = itertools.chain(branch_words, engine.level_words)
    return tuple(sorted(_windows(words, engine.max_factor_length)))


class JoinedPiecesOracle:
    """The engine's factor queries answered by substring search in the
    '#'-joined pieces, the reference for the sorted prefix index."""

    def __init__(self, engine):
        self.haystack = "#".join(sorted(engine.pieces))

    def is_factor(self, s):
        return s in self.haystack

    def factors(self, length):
        h = self.haystack
        windows = {h[i : i + length] for i in range(len(h) - length + 1)}
        return sorted(w for w in windows if "#" not in w)


def one_letter_mutants(words, rng):
    out = []
    for w in words:
        i = rng.randrange(len(w))
        out.append(w[:i] + rng.choice("1234".replace(w[i], "")) + w[i + 1 :])
    return out


def level_factors(level, length):
    return {
        w[i : i + length] for w in g_level(level) for i in range(len(w) - length + 1)
    }


# ---------------------------------------------------------------- beta/alpha


def test_beta_prefix_frozen():
    assert beta_prefix(9) == "121122121"
    assert beta_prefix(0) == ""
    assert beta_prefix(1) == "1"


def test_beta_recursion_and_base():
    b = beta_prefix(243)
    for i in range(1, 244):
        if i % 3 == 1:
            assert b[i - 1] == "1"
        elif i % 3 == 2:
            assert b[i - 1] == "2"
        else:
            assert b[i - 1] == b[i // 3 - 1]


@given(st.integers(0, 200), st.integers(0, 200))
def test_beta_prefix_coherent(j, k):
    lo, hi = sorted((j, k))
    assert beta_prefix(hi)[:lo] == beta_prefix(lo)


def test_alpha_prefix_frozen():
    assert alpha_prefix(4, 8) == "12231213"
    assert alpha_prefix(4, 16) == "1223121322231224"
    assert alpha_prefix(5, 2) == "12"
    assert alpha_prefix(5, 16) == alpha_prefix(4, 16)
    # the cap first matters at position 64, where the valuation pushes past 4
    assert alpha_prefix(4, 64)[63] == "4"
    assert alpha_prefix(5, 64)[63] == "5"


def test_alpha_prefix_validation():
    with pytest.raises(ValueError):
        alpha_prefix(3, 5)
    with pytest.raises(ValueError):
        alpha_prefix(4, -1)
    # for m >= 10 the letter 10 first falls at position 4^8 = 65,536
    assert len(alpha_prefix(10, 65535)) == 65535
    assert len(alpha_prefix(9, 65536)) == 65536
    with pytest.raises(ValueError):
        alpha_prefix(10, 65536)
    with pytest.raises(ValueError):
        zm_samples(12, 65536, 1)


def test_alpha_positions():
    m, k = 5, 300
    a = alpha_prefix(m, k)
    b = beta_prefix((k + 1) // 2)
    for i in range(1, k + 1):
        if i % 2 == 1:
            assert a[i - 1] == b[(i + 1) // 2 - 1]
        else:
            v, x = 0, i
            while x % 4 == 0:
                x //= 4
                v += 1
            assert a[i - 1] == str(min(m, v + 2))


# ---------------------------------------------------------------- Z_m


def test_free_positions():
    assert free_positions(10) == [2, 6, 10]
    for k in range(0, 60):
        assert len(free_positions(k)) == (k + 2) // 4


def test_zm_membership():
    a = alpha_prefix(5, 40)
    assert zm_is_member(5, a)
    flipped = list(a)
    flipped[1] = "1"  # free slot, letter in {1, 2}
    assert zm_is_member(5, "".join(flipped))
    flipped[1] = "3"  # free slot but letter outside {1, 2}
    assert not zm_is_member(5, "".join(flipped))
    wrong = list(a)
    wrong[2] = "1" if wrong[2] != "1" else "2"  # constrained slot
    assert not zm_is_member(5, "".join(wrong))


def test_zm_enumerate_frozen():
    assert zm_enumerate(5, 4) == ["1123", "1223"]
    assert zm_enumerate(5, 1) == ["1"]
    assert zm_enumerate(5, 0) == [""]


def test_zm_enumerate_counts_and_order():
    for k in range(0, 11):
        members = zm_enumerate(5, k)
        assert len(members) == zm_count(k) == 2 ** ((k + 2) // 4)
        assert members == sorted(members)
        assert len(set(members)) == len(members)
        assert all(zm_is_member(5, w) for w in members)


def test_zm_enumerate_limit():
    full = zm_enumerate(4, 16)
    assert len(full) == 16
    assert zm_enumerate(4, 16, limit=5) == full[:5]
    assert zm_enumerate(4, 16, limit=0) == []
    with pytest.raises(ValueError, match="limit must be nonnegative"):
        zm_enumerate(4, 16, limit=-1)
    # k = 82 has 2^21 members: listed only up to a limit
    with pytest.raises(ValueError, match="without a limit"):
        zm_enumerate(4, 82)
    assert len(zm_enumerate(4, 82, limit=2)) == 2


def test_zm_count_frozen():
    assert [zm_count(k) for k in (0, 1, 2, 4, 6, 16)] == [1, 1, 2, 2, 4, 16]


def test_zm_sampling_deterministic():
    a = zm_samples(5, 80, 5, seed=7)
    b = zm_samples(5, 80, 5, seed=7)
    assert a == b
    assert all(zm_is_member(5, w) and len(w) == 80 for w in a)
    rng = random.Random(7)
    assert [zm_sample(5, 80, rng) for _ in range(5)] == a


# ---------------------------------------------------------------- g levels


def test_g_rule_shape():
    assert G_RULE[1] == ("112",)
    assert G_RULE[2] == ("114",)
    assert G_RULE[3] == ("113",)
    assert G_RULE[4] == ("123", "213")
    assert all(len(img) == 3 for imgs in G_RULE.values() for img in imgs)


def test_g_expand_order_and_count():
    assert list(g_expand("4")) == ["123", "213"]
    assert list(g_expand("14")) == ["112123", "112213"]
    assert list(g_expand("")) == [""]
    assert len(list(g_expand("44214"))) == 8
    assert len(list(g_expand("44"))) == 4


def test_g_level_sizes():
    assert [len(g_level(k)) for k in range(6)] == [1, 1, 1, 2, 8, 1024]
    with pytest.raises(ValueError):
        g_level(6)
    with pytest.raises(ValueError):
        g_level(-1)


def test_g_level_letter_counts():
    # every word of a level has the same letter counts
    want = [(1, 0, 0, 0), (2, 1, 0, 0), (6, 2, 0, 1),
            (17, 7, 1, 2), (52, 19, 3, 7), (155, 59, 10, 19)]
    for k in range(6):
        assert {tuple(w.count(c) for c in "1234") for w in g_level(k)} == {want[k]}


def test_g_level_prefix_monotone():
    for k in range(5):
        nxt = g_level(k + 1)
        for w in g_level(k):
            assert any(v.startswith(w) for v in nxt)


def test_g_level_alignment_rigidity():
    # third letter of every image block is 2, 3 or 4; the first two are 1 or 2
    for k in range(5):
        for w in g_level(k):
            for i, c in enumerate(w):
                assert c in ("234" if i % 3 == 2 else "12")


def test_g_level_stationary_frequencies():
    counts = [g_level(5)[0].count(c) for c in "1234"]
    total = sum(counts)
    for got, want in zip(counts, (0.64, 0.24, 0.04, 0.08)):
        assert abs(got / total - want) < 0.005


def test_kernel_membership_lifts_through_g():
    # exhaustive over A_4 words of length <= 5
    stack = [""]
    while stack:
        w = stack.pop()
        for bw in g_expand(w):
            assert in_psi_kernel(bw) == in_psi_kernel(w), w
        if len(w) < 5:
            stack.extend(w + c for c in "1234")


def parikh(w):
    return [w.count(c) for c in "1234"]


def determinant(m):
    return sum(
        (-1) ** sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4))
        * m[0][p[0]] * m[1][p[1]] * m[2][p[2]] * m[3][p[3]]
        for p in itertools.permutations(range(4))
    )


def test_kernel_lift_at_every_length():
    """The letter counts of any branch of g(w) are M times those of w, where
    column a of M counts the letters of g(a).  det M = -3 is odd, so M is
    invertible mod 4, and a branch has every count divisible by 4 exactly
    when w has: g lifts kernel membership at every length.  The brute-force
    lift above and acceptance criterion 09 are its oracle at short lengths."""
    images = {a: {tuple(parikh(img)) for img in G_RULE[a]} for a in G_RULE}
    # both images of 4 have the same letter counts
    assert images == {1: {(2, 1, 0, 0)}, 2: {(2, 0, 0, 1)},
                      3: {(2, 0, 1, 0)}, 4: {(1, 1, 1, 0)}}
    m = [[next(iter(images[a]))[r] for a in (1, 2, 3, 4)] for r in range(4)]
    assert determinant(m) == -3
    # invertible mod 4: only the zero vector maps to zero
    for v in itertools.product(range(4), repeat=4):
        image = [sum(m[r][c] * v[c] for c in range(4)) % 4 for r in range(4)]
        assert (not any(image)) == (not any(v)), v


@given(st.text(alphabet="1234", max_size=60))
def test_branch_letter_counts_are_linear(w):
    m = [[parikh(G_RULE[a][0])[r] for a in (1, 2, 3, 4)] for r in range(4)]
    want = [sum(m[r][c] * n for c, n in enumerate(parikh(w))) for r in range(4)]
    for bw in itertools.islice(g_expand(w), 16):
        assert parikh(bw) == want
        assert in_psi_kernel(bw) == in_psi_kernel(w)


# ---------------------------------------------------------------- Z4 engine


def test_engine_matches_certified_oracle():
    oracle = oracle_factors_upto(12)
    eng = Z4Language(12)
    for ln in range(1, 13):
        assert set(eng.factors(ln)) == oracle[ln], ln


@pytest.mark.parametrize("cutoff", [*range(1, 61), 66, 80, 100])
def test_length_recursion_matches_window_fixpoint(cutoff):
    eng = Z4Language(cutoff)
    want = fixpoint_index(cutoff, eng.level_words)
    assert (tuple(eng.factors(cutoff)), eng.windows) == want
    oracle = oracle_factors_upto(cutoff, lengths=[cutoff])
    assert set(eng.factors(cutoff)) == oracle[cutoff]


def test_session_engine_matches_window_fixpoint(engine157):
    want = fixpoint_index(157, engine157.level_words)
    assert (tuple(engine157.factors(157)), engine157.windows) == want
    assert (len(engine157.factors(157)), len(engine157.windows)) == (68032, 1209)


def check_packed_index(eng):
    strings = string_index(eng)
    index = eng.index
    assert all(type(v) is int for v in index)
    assert list(index) == sorted(set(index))
    assert tuple(format(v, f"0{eng.max_factor_length}x") for v in index) == strings
    assert tuple(eng.factor(i) for i in range(len(index))) == strings
    assert all(int(eng.factor(i), 16) == v for i, v in enumerate(index))
    assert tuple(eng.factors(eng.max_factor_length)) == strings


@pytest.mark.parametrize("cutoff", [*range(1, 61), 66, 80, 100])
def test_packed_index_matches_string_build(cutoff):
    check_packed_index(Z4Language(cutoff))


def test_packed_index_matches_string_build_on_session_engine(engine157):
    check_packed_index(engine157)


def test_packed_index_size(engine157):
    """One int per cutoff-length factor: about 7.9 MB at cutoff 157, where
    the same factors as strings take about 14.6 MB."""
    index = engine157.index
    assert len(index) == 68032
    size = sys.getsizeof(index) + sum(map(sys.getsizeof, index))
    assert size < 9_000_000, size


def test_is_factor_probes_outside_the_alphabet():
    """The letters 0 and 5-9 are hex digits that no factor holds, and the
    hex-only spellings int(s, 16) would also accept stay errors."""
    for cutoff in (1, 12, 66):
        eng = Z4Language(cutoff)
        oracle = set(string_index(eng))
        rng = random.Random(cutoff)
        for _ in range(300):
            ln = rng.randint(1, cutoff)
            w = rng.choice(eng.factors(ln))
            i = rng.randrange(ln)
            for c in "056789":
                probe = w[:i] + c + w[i + 1 :]
                assert not eng.is_factor(probe), probe
                assert not eng.is_factor(tuple(map(int, probe))), probe
            assert eng.is_factor(w) == any(s.startswith(w) for s in oracle)
        assert not eng.is_factor("0")
        assert not eng.is_factor("0" * cutoff)
    eng = Z4Language(12)
    for bad in ("12a", "a", "1f", "0x1", "1_2", " 1", "1 ", "+1", "-1", "A"):
        with pytest.raises(ValueError):
            eng.is_factor(bad)
    # raw letters that spell no digit are no factor, as before packing
    assert eng.is_factor((1,))
    assert not eng.is_factor((-1,))
    assert not eng.is_factor((1, -1))


def test_factors_of_length_matches_index():
    # t = 1 and 2 are the closures, t = 3 the first step of the recursion
    eng = Z4Language(66)
    for t in range(1, 67):
        assert sorted(_factors_of_length(t, eng.level_words)) == eng.factors(t), t


def test_engine_factor_counts_frozen():
    eng = Z4Language(12)
    assert [len(eng.factors(ln)) for ln in range(1, 13)] == [
        4, 9, 15, 21, 27, 33, 40, 48, 58, 68, 79, 90,
    ]


def test_engine_vs_plain_level_enumeration_short():
    # level 5 is exhaustive for factors up to length 7 (not beyond: deeper
    # levels contribute new length-8 factors)
    eng = Z4Language(12)
    for ln in range(1, 8):
        assert set(eng.factors(ln)) == level_factors(5, ln)
    assert set(eng.factors(8)) > level_factors(5, 8)


def test_engine_is_factor_consistent_with_enumeration():
    eng = Z4Language(8)
    for ln in (1, 2, 3, 8):
        listed = set(eng.factors(ln))
        stack = [""]
        while stack:
            w = stack.pop()
            if len(w) == ln:
                assert eng.is_factor(w) == (w in listed), w
            else:
                stack.extend(w + c for c in "1234")


# the lengths include those of the short level words kept as pieces (1, 3, 9,
# 27; 81 on the session engine), whose factors the index holds as prefixes
@pytest.mark.parametrize(
    "cutoff, lengths",
    [
        (8, list(range(1, 9))),
        (12, list(range(1, 13))),
        (66, [1, 2, 3, 4, 8, 9, 10, 26, 27, 28, 40, 64, 65, 66]),
    ],
)
@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_factor_index_matches_joined_pieces(cutoff, lengths, order):
    rng = random.Random(cutoff)
    if order == "descending":
        lengths = lengths[::-1]
    elif order == "shuffled":
        lengths = rng.sample(lengths, len(lengths))
    eng = Z4Language(cutoff)
    oracle = JoinedPiecesOracle(eng)
    for ln in lengths:
        # alternate the call that comes first
        if ln % 2:
            listed = eng.factors(ln)
        want = oracle.factors(ln)
        sample = rng.sample(want, min(len(want), 120))
        for w in sample + one_letter_mutants(sample, rng):
            assert eng.is_factor(w) == oracle.is_factor(w), (ln, w)
        if not ln % 2:
            listed = eng.factors(ln)
        assert listed == want, ln
    assert eng.is_factor("")


def test_factor_index_on_session_engine(engine157):
    oracle = JoinedPiecesOracle(engine157)
    rng = random.Random(157)
    pieces = sorted(engine157.pieces)
    for ln in (116, 82, 81, 28, 27, 9, 3):
        sample = []
        for p in rng.sample(pieces, 8):
            if len(p) >= ln:
                i = rng.randrange(len(p) - ln + 1)
                sample.append(p[i : i + ln])
        for w in sample + one_letter_mutants(sample, rng):
            assert engine157.is_factor(w) == oracle.is_factor(w), (ln, w)
    assert engine157.factors(3) == oracle.factors(3)


def test_short_lengths_on_session_engine(engine157):
    # short prefixes of the long index are the factors a small engine lists
    small = Z4Language(12)
    for ln in range(1, 13):
        assert engine157.factors(ln) == small.factors(ln), ln


@pytest.mark.parametrize("cutoff", [1, 2, 8, 12, 66, 157])
def test_prefix_index_matches_joined_pieces(cutoff, request):
    # cutoffs 1 and 2 are at most the window length, so the index is cut
    # from branch words three times as long as a window
    # (the index itself is checked against the pieces' windows of length 157
    # by test_walk_matches_sorted_windows)
    if cutoff == 157:
        eng, lengths = request.getfixturevalue("engine157"), [82, 3]
    else:
        eng, lengths = Z4Language(cutoff), range(1, cutoff + 1)
    oracle = JoinedPiecesOracle(eng)
    index = eng.factors(cutoff)
    assert index == sorted(set(index))
    assert all(len(p) == cutoff for p in index)
    rng = random.Random(cutoff)
    for ln in lengths:
        want = oracle.factors(ln)
        assert eng.factors(ln) == want, ln
        # a probe of length ln is in the haystack exactly when it is one
        # of the haystack's windows of that length
        present = set(want)
        sample = rng.sample(want, min(len(want), 200))
        probes = sample + one_letter_mutants(sample, rng)
        if ln <= 4:
            probes = ["".join(t) for t in itertools.product("1234", repeat=ln)]
        for w in probes:
            assert eng.is_factor(w) == (w in present), (ln, w)
            assert eng.is_factor(tuple(map(int, w))) == (w in present), (ln, w)


def test_is_factor_input_handling():
    eng = Z4Language(12)
    assert eng.is_factor("")
    assert eng.is_factor(()) and eng.is_factor([])
    assert eng.is_factor("1121") and eng.is_factor((1, 1, 2, 1))
    # non-ASCII digits are read as their values, like the letters of a tuple
    assert eng.is_factor("\u0661\u0662") == eng.is_factor("12") is True
    assert eng.is_factor("\uff14\uff14") == eng.is_factor("44") is False
    for bad in ("12a", "1 2", "-1", "\u00b2"):
        with pytest.raises(ValueError):
            eng.is_factor(bad)
    # a letter past 9 is spelled with two digits, so it is probed as two letters
    assert eng.is_factor((11, 2)) == eng.is_factor("112")
    with pytest.raises(ValueError):
        eng.is_factor("1" * 13)
    with pytest.raises(ValueError):
        eng.is_factor((1,) * 13)


def test_engine_keeps_closed_windows():
    eng = Z4Language(66)
    win = eng.window_length
    assert all(len(x) == win for x in eng.windows)
    assert set(eng.windows) == set(eng.factors(win))
    # the pieces are the level words and the branch words of the windows
    assert eng.pieces == sorted(set(eng.level_words) | g_apply(eng.windows))


def test_engine_known_non_factors():
    eng = Z4Language(12)
    for w in ("111", "44", "33", "241", "341", "424"):
        assert not eng.is_factor(w), w
    for w in ("", "1", "112112114", "4112", "31121", "22", "131"):
        assert eng.is_factor(w), w


def test_engine_probe_length_guard():
    eng = Z4Language(5)
    with pytest.raises(ValueError):
        eng.is_factor("1" * 6)
    with pytest.raises(ValueError):
        eng.factors(6)
    with pytest.raises(ValueError):
        eng.factors(0)
    with pytest.raises(ValueError):
        Z4Language(0)


def test_engine_deterministic():
    a, b = Z4Language(12), Z4Language(12)
    assert all(a.factors(ln) == b.factors(ln) for ln in range(1, 13))
    assert Z4Language(12).pieces == Z4Language(12).pieces


def test_z4_language_cache_reuse():
    big = z4_language(13)
    assert z4_language(11) is big
    assert z4_language(13) is big
    assert big.max_factor_length >= 13


def test_z4_factor_helpers():
    eng = Z4Language(6)
    listing = z4_factors(3, eng)
    assert listing == eng.factors(1) + eng.factors(2) + eng.factors(3)
    assert listing[:4] == ["1", "2", "3", "4"]
    assert z4_is_factor("112", eng)
    assert not z4_is_factor("441", eng)


def test_engine_seed_parameters():
    eng = Z4Language(12)
    assert eng.window_length == 5
    assert eng.seed_level == 2
    assert Z4Language(157).window_length == 54
