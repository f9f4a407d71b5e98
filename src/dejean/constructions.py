"""Source-word families fed into the permutation encoding.

Two families live here, both given as plain digit strings so they interoperate
with letters_of and the scanners.

Family one is deterministic with controlled freedom: a recursive binary word
(beta_prefix), an interleaving over A_m driven by 4-adic valuations
(alpha_prefix), and the language Z_m of words agreeing with that interleaving
except at positions congruent to 2 mod 4, which range freely over {1, 2}.

Family two is the factor language of iterating a nondeterministic substitution
g on A_4 (images of length 3; the letter 4 has two images).  Members of
interest are factors of g^k(1) for some k.  Direct iteration is exponential in
branch count, so the Z4Language engine computes the factors by recursion on
their length: a factor of length t of g^k(1), k >= 1, lies in g(x) for a
factor x of g^(k-1)(1) of length ceil(t/3)+1, unless g^(k-1)(1) is shorter
than that and the factor lies in a short level word.  So the factors of
length t are the windows of g applied to the factors of length ceil(t/3)+1,
plus those of the short level words, and only lengths 1 and 2 need a closure.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from functools import cached_property
from itertools import chain, groupby, product
from typing import Iterable, Iterator, Optional

from .core_words import WordLike, kernel_signatures, letters_of

# ---------------------------------------------------------------- family one


def beta_prefix(k: int) -> str:
    """First k letters of the binary word with b_i = 1, 2, b_{i/3} according
    to i mod 3 = 1, 2, 0."""
    if k < 0:
        raise ValueError("length must be nonnegative")
    b = [0] * (k + 1)
    for i in range(1, k + 1):
        r = i % 3
        if r == 1:
            b[i] = 1
        elif r == 2:
            b[i] = 2
        else:
            b[i] = b[i // 3]
    return "".join(str(x) for x in b[1:])


def _even_position_letter(m: int, i: int) -> int:
    # valuation: largest a with 4^a dividing i, capped so letters stay in A_m
    v = 0
    while i % 4 == 0:
        i //= 4
        v += 1
    return min(m, v + 2)


def alpha_prefix(m: int, k: int) -> str:
    """First k letters over A_m: odd positions follow beta, even position i
    carries min(m, v + 2) where v is the number of times 4 divides i.

    The word is a digit string, so a letter above 9 raises ValueError: for
    m >= 10 the first one is the letter 10 at position 4^8 = 65,536.
    """
    if m < 4:
        raise ValueError("alphabet size must be at least 4")
    if k < 0:
        raise ValueError("length must be nonnegative")
    beta = beta_prefix((k + 1) // 2)
    out = []
    for i in range(1, k + 1):
        if i % 2 == 1:
            out.append(beta[(i + 1) // 2 - 1])
        else:
            a = _even_position_letter(m, i)
            if a > 9:
                raise ValueError(f"letter {a} at position {i} does not fit in one digit")
            out.append(str(a))
    return "".join(out)


def free_positions(k: int) -> list[int]:
    """1-based positions congruent to 2 mod 4, the slots left open in Z_m."""
    return list(range(2, k + 1, 4))


def zm_is_member(m: int, w: WordLike) -> bool:
    """Does w agree with the alpha word except at the free slots, where any
    letter of {1, 2} is allowed?"""
    s = letters_of(w)
    alpha = alpha_prefix(m, len(s))
    for i, a in enumerate(s, start=1):
        if i % 4 == 2:
            if a not in (1, 2):
                return False
        elif str(a) != alpha[i - 1]:
            return False
    return True


def zm_count(k: int) -> int:
    """Number of members of length k: one binary choice per free slot."""
    if k < 0:
        raise ValueError("length must be nonnegative")
    return 2 ** ((k + 2) // 4)


def zm_enumerate(m: int, k: int, limit: Optional[int] = None) -> list[str]:
    """Members of length k in lexicographic order, optionally truncated;
    more than 2^20 members (k >= 82) are listed only up to a limit."""
    if limit is not None and limit < 0:
        raise ValueError("limit must be nonnegative")
    base = list(alpha_prefix(m, k))
    slots = [i - 1 for i in free_positions(k)]
    total = 2 ** len(slots)
    if limit is not None:
        total = min(total, limit)
    elif total > 2**20:
        raise ValueError(f"length {k} has {total} members, too many without a limit")
    out = []
    for mask in range(total):
        for bit, j in enumerate(reversed(slots)):
            base[j] = "2" if (mask >> bit) & 1 else "1"
        out.append("".join(base))
    return out


def zm_sample(m: int, k: int, rng: random.Random) -> str:
    """One member of length k with free slots drawn uniformly from rng."""
    base = list(alpha_prefix(m, k))
    for j in free_positions(k):
        base[j - 1] = rng.choice("12")
    return "".join(base)


def zm_samples(m: int, k: int, count: int, seed: int = 0) -> list[str]:
    rng = random.Random(seed)
    return [zm_sample(m, k, rng) for _ in range(count)]


# ---------------------------------------------------------------- family two


G_RULE: dict[int, tuple[str, ...]] = {
    1: ("112",),
    2: ("114",),
    3: ("113",),
    4: ("123", "213"),
}


def g_expand(w: WordLike) -> Iterator[str]:
    """All branch words of g(w), in image-table order."""
    choices = [G_RULE[a] for a in letters_of(w)]
    for combo in product(*choices):
        yield "".join(combo)


def g_apply(words: Iterable[WordLike]) -> set[str]:
    out: set[str] = set()
    for w in words:
        out.update(g_expand(w))
    return out


_LEVEL_COUNT_CAP = 5  # |g^6(1)| is about 5.4e8 words; refuse beyond this


def g_level(k: int) -> list[str]:
    """The set g^k(1), sorted.  Levels past 5 are astronomically large and
    rejected; use Z4Language for factor questions at any depth."""
    if k < 0:
        raise ValueError("level must be nonnegative")
    if k > _LEVEL_COUNT_CAP:
        raise ValueError(f"level {k} has too many branch words to enumerate")
    words = {"1"}
    for _ in range(k):
        words = g_apply(words)
    return sorted(words)


def _windows(words: Iterable[str], t: int) -> set[str]:
    return {w[i : i + t] for w in words for i in range(len(w) - t + 1)}


def _packed_windows(words: Iterable[str], t: int) -> set[int]:
    """The windows of length t of the words, each read as a base-16 integer
    and cut from the word's integer by shift and mask."""
    mask = (1 << 4 * t) - 1
    out: set[int] = set()
    add = out.add
    for w in words:
        if len(w) >= t:
            v = int(w, 16)
            for shift in range(0, 4 * (len(w) - t) + 1, 4):
                add(v >> shift & mask)
    return out


def _factors_of_length(t: int, level_words: tuple[str, ...]) -> set[str]:
    """The factors of length t, given every level word g^k(1) shorter than
    3 * (ceil(t/3)+1).

    A factor of length t in none of those level words lies in g(x) for a
    factor x of length m = ceil(t/3)+1, and for t >= 3 m is below t, so the
    factors of length m come first.  For t <= 2 the factor spans at most t
    letters of the level it comes from, so the factors of length t are the
    level words' windows closed under (apply g, take windows)."""
    found = _windows(level_words, t)
    m = -(-t // 3) + 1
    if m < t:
        return found | _windows(g_apply(_factors_of_length(m, level_words)), t)
    frontier = set(found)
    while frontier:
        new = _windows(g_expand(frontier.pop()), t) - found
        found |= new
        frontier |= new
    return found


_DIGIT_LETTERS = bytes.maketrans(b"0123456789", bytes(range(10)))


def _int_sigs(s: str, sig: int = 0) -> list[int]:
    """kernel_signatures of a digit string, resumed from sig."""
    return kernel_signatures(s.encode().translate(_DIGIT_LETTERS), sig)


# the low and high bit of each two-bit field of a signature
_LOW = int("01" * 32, 2)
_HIGH = _LOW << 1


def _walk_kernel_candidates(
    packed: Iterable[int],
) -> tuple[tuple[int, int, int], ...]:
    """(i, q, e) for each distinct string s, the i-th of the packed ones, and
    each q with s[:q] a kernel word, where e = min(q + 3, the end of the run
    of period q in s).  Each string is over the letters 1-9 and comes packed
    as int(s, 16), so its first hex digit is nonzero and its length is its
    number of hex digits.  The strings may differ in length, and each is
    decoded only while the walk reads it.

    A kernel word has every letter count divisible by 4, so its length is
    too, and the prefix signatures are kept only at multiples of 4: sigs[b]
    is the signature of s[:4b], advanced one 4-letter block at a time by
    adding the block's letter counts field by field mod 4.  Sorted input
    shares long prefixes, so each string resumes from the last block inside
    its common prefix c with the previous one.  The periods up to c were
    yielded for the previous string, but those from c - 2 on extend past the
    common prefix, so q starts at the multiple of 4 at or below c + 1.

    The walk of the strings cut to cap letters is then the cut of this one:
    (s[:min(e, cap)], q) for each (i, q, e) with q <= cap.
    """
    low, high = _LOW, _HIGH
    deltas: dict[str, int] = {}
    out = []
    width = 0
    prev = 0
    sigs = [0]
    push = sigs.append
    for i, v in enumerate(packed):
        n = (v.bit_length() + 3) >> 2
        if n > width:
            prev <<= 4 * (n - width)
            width = n
        # strings left-aligned at the longest length so far: the first
        # differing letter is the highest nonzero hex digit of their xor,
        # and a prefix differs at its end, where it is padded with zeros
        cur = v << 4 * (width - n)
        x = cur ^ prev
        if not x:
            continue
        prev = cur
        s = "%x" % v
        c = (4 * width - x.bit_length()) >> 2
        b = c >> 2
        del sigs[b + 1 :]
        sig = sigs[b]
        if b and c & 3 != 3 and not sig:
            out.append((i, 4 * b, _run_end(s, 4 * b)))
        for j in range(4 * b + 4, n + 1, 4):
            block = s[j - 4 : j]
            d = deltas.get(block)
            if d is None:
                d = deltas[block] = _int_sigs(block)[-1]
            sig = ((sig & low) + (d & low)) ^ ((sig ^ d) & high)
            push(sig)
            if not sig:
                out.append((i, j, _run_end(s, j)))
    return tuple(out)


def _run_end(s: str, q: int) -> int:
    """min(q + 3, the end of the run of period q in s)."""
    lim = min(len(s), q + 3)
    e = q
    while e < lim and s[e] == s[e - q]:
        e += 1
    return e


class Z4Language:
    """All factors of union_k g^k(1) up to a fixed length L.

    The constructor keeps the level words g^k(1) up to the seed level, the
    first long enough to hold a window of length ceil(L/3)+1, and the
    windows: the factors of that length, found by recursion on factor length
    (see _factors_of_length).  Every factor of length at most L lies in a
    branch word g(x) of a window x or in a level word.

    Factor queries go through one index, `index`: the distinct factors of
    length L, sorted, each packed into one integer by reading its letters as
    base-16 digits (the letters 1-4 are hex digits, and at a fixed length
    the integer order is the string order).  Every factor extends to the
    right, so the factors of any shorter length l are exactly the prefixes
    of the index, the integers shifted right by 4(L - l) bits.
    """

    def __init__(self, max_factor_length: int):
        if max_factor_length < 1:
            raise ValueError("factor length cutoff must be positive")
        self.max_factor_length = L = max_factor_length
        self.window_length = win = -(-L // 3) + 1
        k0 = 0
        size = 1
        while size < win:
            size *= 3
            k0 += 1
        if k0 > _LEVEL_COUNT_CAP:
            raise ValueError("factor length cutoff too large for the seed level")
        self.seed_level = k0

        levels = [g_level(k) for k in range(k0 + 1)]
        self.level_words: tuple[str, ...] = tuple(sorted(set(chain(*levels))))
        self.windows: tuple[str, ...] = tuple(
            sorted(_factors_of_length(win, self.level_words))
        )
        self.index: tuple[int, ...] = tuple(
            sorted(_packed_windows(chain(self._branch_words(), self.level_words), L))
        )

    def factor(self, i: int) -> str:
        """The i-th factor of cutoff length in sorted order, decoded from
        the index (its first letter is nonzero, so it needs no padding)."""
        return "%x" % self.index[i]

    @cached_property
    def kernel_candidates(self) -> tuple[tuple[int, int, int], ...]:
        """The kernel-period prefixes of the sorted factors of cutoff length,
        walked once on first use: (i, q, e) triples as
        _walk_kernel_candidates yields them from the index, decoding one
        factor at a time, with i an index position.  Every factor with a
        kernel period q extends to the right, so it is a prefix of a
        cutoff-length factor, and each check cuts this walk to its own
        length."""
        return _walk_kernel_candidates(self.index)

    def _branch_words(self) -> Iterator[str]:
        for x in self.windows:
            yield from g_expand(x)

    @property
    def pieces(self) -> list[str]:
        """The level words and every branch word of a closed window, sorted.
        Rebuilt from the windows on each access; every factor of length at
        most the cutoff is a factor of one of them."""
        return sorted(chain(self.level_words, self._branch_words()))

    def is_factor(self, w: WordLike) -> bool:
        if isinstance(w, str) and w.isascii() and w.isdigit():
            s = w
        else:
            s = "".join(str(a) for a in letters_of(w))
        L = self.max_factor_length
        if len(s) > L:
            raise ValueError(f"probe of length {len(s)} exceeds cutoff {L}")
        # a prefix of the index is len(s) hex digits, each 1-4: a probe
        # holding a letter 0 or 5-9 matches none, nor does one that int()
        # reads as fewer digits or cannot read (a raw letter such as -1)
        try:
            v = int(s or "0", 16)
        except ValueError:
            return False
        shift = 4 * (L - len(s))
        index = self.index
        i = bisect_left(index, v << shift)
        return i < len(index) and index[i] >> shift == v

    def factors(self, length: int) -> list[str]:
        if not 0 < length <= self.max_factor_length:
            raise ValueError("length out of range")
        shift = 4 * (self.max_factor_length - length)
        return ["%x" % k for k, _ in groupby(v >> shift for v in self.index)]


_Z4_CACHE: dict[int, Z4Language] = {}


def z4_language(max_factor_length: int) -> Z4Language:
    """Cached engine able to answer factor queries up to the given length."""
    best = None
    for built, engine in _Z4_CACHE.items():
        if built >= max_factor_length and (best is None or built < best):
            best = built
    if best is not None:
        return _Z4_CACHE[best]
    engine = Z4Language(max_factor_length)
    _Z4_CACHE[max_factor_length] = engine
    return engine


def z4_is_factor(w: WordLike, engine: Optional[Z4Language] = None) -> bool:
    s = letters_of(w)
    if engine is None:
        engine = z4_language(max(len(s), 1))
    return engine.is_factor(s)


def z4_factors(max_length: int, engine: Optional[Z4Language] = None) -> list[str]:
    """Every factor of length 1..max_length, sorted by length then value."""
    if engine is None:
        engine = z4_language(max_length)
    out: list[str] = []
    for length in range(1, max_length + 1):
        out.extend(engine.factors(length))
    return out
