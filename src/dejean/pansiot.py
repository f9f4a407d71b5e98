"""Permutation encoding of words avoiding exponents just above n/(n-1).

A binary word u (over {0,1}, stored as letters {1,2}) drives a walk in the
symmetric group S_n: letter 0 applies the cycle (1 2 ... n-1) fixing n,
letter 1 applies the full cycle (1 2 ... n).  Permutations act on the right,
so phi(uv) applies phi(u) first.  The decoding gamma(u) records, after each
prefix, which point the prefix permutation sends to 1.

Permutations are tuples: perm[i] is the image of point i+1, values in 1..n.

A factor v of u is a kernel repetition of order n if it has a period p, some
length-p factor of v maps to the identity, and (n-1)|v| > np - (n-1)^2
(the exact integer form of |v| > np/(n-1) - (n-1)).  A word v is
k-stabilizing if phi(v) fixes every point in 1..k.
"""

from __future__ import annotations

from typing import Optional, Union

from .core_words import (
    RepetitionReport,
    ReportKind,
    Word,
    equal_signature_pairs,
    minimal_period,
    parse_binary,
)

Perm = tuple[int, ...]
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


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(p: Perm, q: Perm) -> Perm:
    """Right-action product: apply p first, then q."""
    return tuple(q[a - 1] for a in p)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, a in enumerate(p):
        inv[a - 1] = i + 1
    return tuple(inv)


def phi_letter(n: int, letter: int) -> Perm:
    """Image of one binary letter: 1 (ascii 0) -> (1..n-1) fixing n, 2 -> (1..n)."""
    if n < 2:
        raise ValueError("encoding needs n >= 2")
    if letter == 1:
        return tuple(list(range(2, n)) + [1, n])
    if letter == 2:
        return tuple(list(range(2, n + 1)) + [1])
    raise ValueError(f"not a binary letter: {letter}")


def prefix_permutations(n: int, u: BinaryLike) -> list[Perm]:
    """P[0..|u|] with P[j] the permutation of the length-j prefix."""
    out = [identity(n)]
    for a in as_binary_letters(u):
        out.append(compose(out[-1], phi_letter(n, a)))
    return out


def gamma(n: int, u: BinaryLike) -> Word:
    """Decode u into a word over {1..n}: letter i is the preimage of 1 under
    the length-i prefix permutation."""
    perm = identity(n)
    out = []
    for a in as_binary_letters(u):
        perm = compose(perm, phi_letter(n, a))
        out.append(perm.index(1) + 1)
    return Word(tuple(out), n)


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


def _leading_fixed_count(pj: Perm, inv_i: Perm, n: int) -> int:
    """Leading fixed points of the factor permutation between prefix perms
    P[i] and P[j]: the factor fixes c iff P[j] maps the preimage of c under
    P[i] back to c."""
    c = 1
    while c <= n and pj[inv_i[c - 1] - 1] == c:
        c += 1
    return c - 1


def find_stabilizing_violation(n: int, u: BinaryLike) -> Optional[RepetitionReport]:
    """Leftmost-then-shortest factor v that is k-stabilizing with
    0 < |v| < k(n-1) for some 1 <= k <= n-1."""
    letters = as_binary_letters(u)
    L = len(letters)
    P = prefix_permutations(n, letters)
    window = (n - 1) * (n - 1) - 1  # |v| < k(n-1) <= (n-1)^2
    for i in range(L):
        inv_i = inverse(P[i])
        for j in range(i + 1, min(i + window, L) + 1):
            fixed = min(_leading_fixed_count(P[j], inv_i, n), n - 1)
            if fixed >= 1 and (j - i) < fixed * (n - 1):
                return _stabilizing_report(letters, i, j - i, fixed)
    return None


def find_kernel_repetition(n: int, u: BinaryLike) -> Optional[RepetitionReport]:
    """Leftmost-then-shortest kernel repetition of order n in u.

    Identity factors appear as pairs of equal prefix permutations; each pair
    (t, t+p) is extended to the maximal run with period p around it, then the
    length constraint is applied.
    """
    letters = as_binary_letters(u)
    L = len(letters)
    best = None  # (start0, length, p)
    for t, j in equal_signature_pairs(prefix_permutations(n, letters)):
        p = j - t
        # maximal run of letters[x] == letters[x+p] around [t, t+p)
        a = t
        while a > 0 and letters[a - 1] == letters[a - 1 + p]:
            a -= 1
        e = t
        while e + p < L and letters[e] == letters[e + p]:
            e += 1
        max_len = e + p - a
        lmin = max(p, (n * p - (n - 1) * (n - 1)) // (n - 1) + 1)
        if lmin > max_len:
            continue
        cand = (a, max(lmin, j - a), p)
        if best is None or cand < best:
            best = cand
    if best is None:
        return None
    a, length, p = best
    return RepetitionReport(
        start=a + 1,
        length=length,
        period=p,
        kind=ReportKind.KERNEL,
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
    """Shortest (then leftmost) k-stabilizing factor, optionally length-bounded."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be within 1..{n - 1}")
    letters = as_binary_letters(u)
    L = len(letters)
    P = prefix_permutations(n, letters)
    inverses = [inverse(perm) for perm in P]
    top = L if max_length is None else min(L, max_length)
    for length in range(1, top + 1):
        for i in range(L - length + 1):
            if _leading_fixed_count(P[i + length], inverses[i], n) >= k:
                return _stabilizing_report(letters, i, length, k)
    return None
