"""Reference computations the benchmark checks results against.

Nothing here imports the package under test: each function restates a
definition directly, with plain integer arithmetic, so that a fault in a
library layer cannot hide behind the same fault in its check.  They run on
the inputs and outputs of a pass, never inside a timed region.
"""

from __future__ import annotations

import random


def need_length(p: int, num: int, den: int) -> int:
    """Shortest length of a period-p factor whose exponent exceeds num/den."""
    return max(num * p // den + 1, p)


def has_period(s, start: int, length: int, p: int) -> bool:
    return all(s[i] == s[i + p] for i in range(start, start + length - p))


def suffix_violates(s, num: int, den: int) -> bool:
    """Does some suffix of s have an exponent above num/den?"""
    k = len(s)
    for p in range(1, k + 1):
        need = need_length(p, num, den)
        if need > k:
            return False
        if has_period(s, k - need, need, p):
            return True
    return False


def threshold_word(n: int, length: int, num: int, den: int, rng: random.Random) -> tuple:
    """A word over 1..n of the given length with no exponent above num/den,
    found by depth-first backtracking with letters tried in random order."""
    word: list[int] = []
    options: list[list[int]] = []
    while len(word) < length:
        if len(options) == len(word):
            letters = list(range(1, n + 1))
            rng.shuffle(letters)
            options.append(letters)
        if not options[-1]:
            options.pop()
            if not word:
                raise ValueError("no word of that length exists")
            word.pop()
            continue
        word.append(options[-1].pop())
        if suffix_violates(word, num, den):
            word.pop()
    return tuple(word)


def brute_threshold_counts(n: int, max_length: int, num: int, den: int) -> list[int]:
    """Number of words over 1..n of each length 1..max_length with no factor
    of exponent above num/den, by exhaustive depth-first extension (the
    language is factor closed, so every member extends a member)."""
    counts = [0] * max_length
    stack = [()]
    while stack:
        w = stack.pop()
        for a in range(1, n + 1):
            ext = w + (a,)
            if not suffix_violates(ext, num, den):
                counts[len(ext) - 1] += 1
                if len(ext) < max_length:
                    stack.append(ext)
    return counts


def planted_copy(word: tuple, rng: random.Random, tail: int) -> tuple[tuple, int]:
    """Copy of a clean word with one letter replaced by its predecessor, at a
    position drawn from the last `tail` letters.  Returns (copy, position)."""
    j = len(word) - 1 - rng.randrange(tail)
    copy = word[:j] + (word[j - 1],) + word[j + 1 :]
    return copy, j


def leftmost_violation_start(word: tuple, j: int, num: int, den: int) -> int:
    """1-based start of the leftmost factor with exponent above num/den in a
    word that is clean except for the letter at 0-based position j.

    Every such factor has period p and covers j, so it lies in a maximal run
    of equalities word[x] == word[x + p] that contains x = j or x = j - p;
    only those runs are extended.
    """
    k = len(word)
    best = None
    for p in range(1, k):
        need = need_length(p, num, den)
        if need > k:
            break
        for x in (j - p, j):
            if not (0 <= x < k - p and word[x] == word[x + p]):
                continue
            lo = x
            while lo > 0 and word[lo - 1] == word[lo - 1 + p]:
                lo -= 1
            hi = x
            while hi + 1 < k - p and word[hi + 1] == word[hi + 1 + p]:
                hi += 1
            if hi + p - lo + 1 >= need and (best is None or lo < best):
                best = lo
    if best is None:
        raise ValueError("the planted letter created no violation")
    return best + 1


def has_exponent_above(s, num: int, den: int) -> bool:
    """Whether some factor of s has an exponent above num/den, by maximal
    runs of s[x] == s[x + p] for every period p."""
    k = len(s)
    for p in range(1, k):
        run = 0
        for x in range(k - p):
            if s[x] == s[x + p]:
                run += 1
                if (run + p) * den > num * p:
                    return True
            else:
                run = 0
    return False


def pansiot_code(word: tuple, n: int) -> tuple:
    """Binary code (letters 1, 2) of a word over 1..n in which every n - 1
    consecutive letters differ: letter i is 1 when word[i + n - 1] repeats
    word[i] and 2 when it is the letter missing from the window."""
    return tuple(1 if word[i + n - 1] == word[i] else 2 for i in range(len(word) - n + 1))


def perm_of(n: int, letters) -> list[int]:
    """Right-action permutation of a binary word: letter 1 cycles the points
    1..n-1 and fixes n, letter 2 cycles 1..n.  perm[i] is the image of i+1."""
    perm = list(range(1, n + 1))
    for a in letters:
        top = n - 1 if a == 1 else n
        perm = [v % top + 1 if v <= top else v for v in perm]
    return perm


def gamma_letters(n: int, letters) -> list[int]:
    """Letter i of the decoding is the point the length-i prefix permutation
    sends to 1."""
    perm = list(range(1, n + 1))
    out = []
    for a in letters:
        top = n - 1 if a == 1 else n
        perm = [v % top + 1 if v <= top else v for v in perm]
        out.append(perm.index(1) + 1)
    return out


def prop32_report_holds(n: int, code, report) -> bool:
    """Re-derive a scan_prop32 report from its definition on the code."""
    start = report.start - 1
    v = code[start : start + report.length]
    if len(v) != report.length:
        return False
    kind = report.kind.value
    if kind == "stabilizing":
        perm = perm_of(n, v)
        k = report.k
        return all(perm[i] == i + 1 for i in range(k)) and len(v) < k * (n - 1)
    if kind != "kernel":
        return False
    p = report.period
    if not has_period(v, 0, len(v), p):
        return False
    if (n - 1) * len(v) <= n * p - (n - 1) * (n - 1):
        return False
    identity = list(range(1, n + 1))
    return any(perm_of(n, v[i : i + p]) == identity for i in range(len(v) - p + 1))


def psi_kernel_repetition_free(word: str, n: int) -> bool:
    """No factor v with a period q whose length-q prefix has every letter
    count divisible by 4 and (n-1)(|v|+1) >= nq - 3 (checked exhaustively)."""
    k = len(word)
    for start in range(k):
        for q in range(1, k - start + 1):
            prefix = word[start : start + q]
            if any(prefix.count(c) % 4 for c in set(prefix)):
                continue
            end = start + q
            while end < k and word[end] == word[end - q]:
                end += 1
            if (n - 1) * (end - start + 1) >= n * q - 3:
                return False
    return True


def kernel_pair_count(word: str) -> int:
    """Pairs of prefixes with equal letter counts mod 4, i.e. kernel factors."""
    sig = {}
    seen = {(): 1}
    for ch in word:
        sig[ch] = (sig.get(ch, 0) + 1) & 3
        key = tuple(sorted(item for item in sig.items() if item[1]))
        seen[key] = seen.get(key, 0) + 1
    return sum(c * (c - 1) // 2 for c in seen.values())


def period_holds(s, start: int, length: int, period: int) -> bool:
    return start >= 0 and start + length <= len(s) and has_period(s, start, length, period)

