"""Permutation encoding of words avoiding exponents just above n/(n-1).

A binary word u (over {0,1}, stored as letters {1,2}) drives a walk in the
symmetric group S_n: letter 0 applies the cycle (1 2 ... n-1) fixing n,
letter 1 applies the full cycle (1 2 ... n).  Permutations act on the right,
so phi(uv) applies phi(u) first.  The decoding gamma(u) records, after each
prefix, which point the prefix permutation sends to 1.

The walk is kept as inverses.  For the permutation P_j of the length-j
prefix, Q_j[c-1] is the point that P_j sends to c, stored as `bytes` when
n <= 255 and as a tuple above that.  Letter 1 rotates all of Q right by one
place and letter 0 rotates its first n-1 entries, so each step is two or
three slices.  Letter j of gamma(u) is Q_j[0], and since the factor between
positions i < j has permutation P_i^-1 P_j, it fixes c exactly when
Q_i[c-1] == Q_j[c-1]: the factor fixes 1..k exactly when Q_i and Q_j share
their first k entries, and it is the identity exactly when Q_i == Q_j.

A factor v of u is a kernel repetition of order n if it has a period p, some
length-p factor of v maps to the identity, and (n-1)|v| > np - (n-1)^2
(the exact integer form of |v| > np/(n-1) - (n-1)).  A word v is
k-stabilizing if phi(v) fixes every point in 1..k.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Iterator, Optional, Sequence, Union

from .core_words import (
    RepetitionReport,
    ReportKind,
    Word,
    first_kernel_repetition,
    minimal_period,
    parse_binary,
)

BinaryLike = Union[Word, str, tuple[int, ...]]


def as_binary_letters(u: BinaryLike) -> tuple[int, ...]:
    """Letters {1,2} of a binary word given as Word, 0/1 string, or tuple."""
    if isinstance(u, Word):
        letters = u.letters
    elif isinstance(u, str):
        letters = parse_binary(u).letters
    else:
        letters = tuple(u)
    for a in letters:
        if a not in (1, 2):
            raise ValueError(f"not a binary letter: {a}")
    return letters


def _code_letters(n: int, u: BinaryLike) -> tuple[int, ...]:
    """The letters of u as a code word for S_n, checking n before the word."""
    if n < 2:
        raise ValueError("encoding needs n >= 2")
    return as_binary_letters(u)


def _inverse_prefixes(n: int, letters: tuple[int, ...]) -> Iterator[Sequence[int]]:
    """Q_0, ..., Q_|letters|, the inverses of the prefix permutations."""
    q = bytes(range(1, n + 1)) if n <= 255 else tuple(range(1, n + 1))
    yield q
    for a in letters:
        if a == 2:
            q = q[-1:] + q[:-1]
        else:
            q = q[n - 2 : n - 1] + q[: n - 2] + q[n - 1 :]
        yield q


def gamma(n: int, u: BinaryLike) -> Word:
    """Decode u into a word over {1..n}: letter i is the preimage of 1 under
    the length-i prefix permutation."""
    qs = _inverse_prefixes(n, _code_letters(n, u))
    return Word(tuple(q[0] for q in islice(qs, 1, None)), n)


def _stabilizing_report(letters: tuple[int, ...], start0: int, length: int, k: int) -> RepetitionReport:
    f = letters[start0 : start0 + length]
    p0 = minimal_period(f)
    return RepetitionReport(
        start=start0 + 1,
        length=length,
        period=p0,
        kind=ReportKind.STABILIZING,
        k=k,
    )


def find_stabilizing_violation(n: int, u: BinaryLike) -> Optional[RepetitionReport]:
    """Leftmost-then-shortest factor v that is k-stabilizing with
    0 < |v| < k(n-1) for some 1 <= k <= n-1.

    Such a factor is shorter than (n-1)^2, so only the inverses of the next
    (n-1)^2 - 1 prefixes are held; a factor of length d qualifies exactly
    when its inverses share their first d // (n-1) + 1 entries.
    """
    letters = _code_letters(n, u)
    m = n - 1
    qs = _inverse_prefixes(n, letters)
    ahead = deque(islice(qs, m * m))  # Q_i and the m*m - 1 after it
    for i in range(len(letters)):
        qi = ahead.popleft()
        for d, qj in enumerate(ahead, 1):
            k = d // m + 1
            if qi[:k] == qj[:k]:
                # the factor fixes 1..fixed; fixing n - 1 points, it fixes all
                fixed = next((c for c in range(k, m) if qi[c] != qj[c]), m)
                return _stabilizing_report(letters, i, d, fixed)
        ahead.extend(islice(qs, 1))
    return None


def find_kernel_repetition(n: int, u: BinaryLike) -> Optional[RepetitionReport]:
    """Leftmost-then-shortest kernel repetition of order n in u.

    Identity factors lie between two equal prefix inverses, and each letter
    rotates Q by a fixed slice, so core_words.first_kernel_repetition finds
    each repetition at the pair of equal inverses that starts it.
    """
    letters = _code_letters(n, u)
    m = n - 1
    need = [max(p, (n * p - m * m) // m + 1) for p in range(len(letters) + 1)]
    return first_kernel_repetition(
        letters, _inverse_prefixes(n, letters), need, ReportKind.KERNEL
    )


def scan_prop32(n: int, u: BinaryLike) -> Optional[RepetitionReport]:
    """Scan for a factor blocking exponent-(n/(n-1))+ freeness of gamma(u):
    first a short stabilizing factor, then a kernel repetition."""
    rep = find_stabilizing_violation(n, u)
    if rep is not None:
        return rep
    return find_kernel_repetition(n, u)


def shortest_k_stabilizing_factor(
    n: int, u: BinaryLike, k: int, max_length: Optional[int] = None
) -> Optional[RepetitionReport]:
    """Shortest (then leftmost) k-stabilizing factor, optionally length-bounded:
    the shortest distance between two prefix inverses with equal k-prefixes."""
    letters = _code_letters(n, u)
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be within 1..{n - 1}")
    heads = [q[:k] for q in _inverse_prefixes(n, letters)]
    L = len(letters)
    top = L if max_length is None else min(L, max_length)
    for length in range(1, top + 1):
        for i, (a, b) in enumerate(zip(heads, islice(heads, length, None))):
            if a == b:
                return _stabilizing_report(letters, i, length, k)
    return None
