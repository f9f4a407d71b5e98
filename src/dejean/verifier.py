"""Exhaustive and sampled checks over the source-word languages.

The heavy searches all rest on kernel_signatures in core_words: two equal
prefix signatures (letter counts mod 4) mark a kernel factor.  The carpi
scanner and binary_avoidance_longest take the leftmost, then shortest,
repetition from core_words.first_kernel_repetition, as the pansiot scanner
does over the inverse prefix permutations, and check_lemma6 counts every
signature-equal pair from equal_signature_pairs.  The W set
and short elimination take the prefixes s[:q] of signature 0, so s[:q] is a
kernel word and q a kernel period of every prefix of s on which the period
holds.  Every factor of the language extends to the right, so each factor
with a kernel period is a prefix of some distinct factor of the engine's
cutoff length.  The engine holds those factors packed, one integer each
(Z4Language.index), and walks them once, in sorted order, on first use
(Z4Language.kernel_candidates), decoding one factor at a time: the prefix
signatures advance four letters a step, since a kernel word's length is a
multiple of 4, and are recomputed only past the common prefix with the
previous factor.  Both checks read that one walk cut to their own length:
a candidate (i, q, e) on the sorted factor s = engine.factor(i) stands for
the factor s[:min(e, cap)] when q <= cap, and only those candidates'
factors are decoded again.

Each check returns a VerificationReport: a status string plus a payload of
counts and verbatim witnesses, so results can be pinned by golden files.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Optional, Sequence

from ._util import Record, parallel_map
from .carpi import (
    MorphismTable,
    apply_morphism,
    find_psi_kernel_repetition,
    in_psi_kernel,
    min_psi_repetition_length,
)
from .constructions import (
    Z4Language,
    g_expand,
    z4_language,
    zm_is_member,
    zm_samples,
)
from .core_words import (
    ReportKind,
    WordLike,
    equal_signature_pairs,
    first_kernel_repetition,
    kernel_signatures,
    letters_of,
)
from .pansiot import shortest_k_stabilizing_factor


class MaximalKernelRepetition(Record):
    """A factor of the A_4 language with a kernel period, unextendable on
    either side without breaking the period or leaving the language."""

    __slots__ = ("word", "kernel_period")

    def __post_init__(self) -> None:
        p = self.kernel_period
        if not 0 < p <= len(self.word):
            raise ValueError("kernel period out of range")
        if any(self.word[i] != self.word[i + p] for i in range(len(self.word) - p)):
            raise ValueError("stated period does not hold")
        if not in_psi_kernel(self.word[:p]):
            raise ValueError("length-p prefix is not a kernel word")

    @property
    def tail_length(self) -> int:
        return len(self.word) - self.kernel_period

    def to_payload(self) -> dict:
        return {
            "word": self.word,
            "kernel_period": self.kernel_period,
            "length": len(self.word),
            "tail_length": self.tail_length,
        }


class VerificationReport(Record):
    """A named check's outcome: status is "pass", "fail" or "unavailable",
    and payload (a fresh dict by default) holds what the check found."""

    __slots__ = ("name", "status", "payload")
    _defaults = {"payload": dict}

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_payload(self) -> dict:
        return {"name": self.name, "status": self.status, **self.payload}


# ------------------------------------------------------------ scan core


def _cut_candidates(engine, cap: int) -> Iterator[tuple[str, int, int]]:
    """(s, q, lmax) for each of the engine's kernel candidates (i, q, e) with
    q <= cap, where s = engine.factor(i), the i-th sorted factor decoded
    from the packed index, and lmax = min(e, cap): the factor s[:lmax] has
    kernel period q and is as long as its run allows within cap and q + 3
    letters."""
    factor = engine.factor
    for i, q, e in engine.kernel_candidates:
        if q <= cap:
            yield factor(i), q, min(e, cap)


def _engine_for(engine: Optional[Z4Language], cutoff: int) -> Z4Language:
    """The engine a check reads factors of up to cutoff letters from: the
    cached one unless the caller gave one, which must reach the cutoff."""
    if engine is None:
        return z4_language(cutoff)
    if engine.max_factor_length < cutoff:
        raise ValueError(
            f"engine cutoff {engine.max_factor_length} is below the "
            f"{cutoff} letters this check reads"
        )
    return engine


def _max_kernel_period_run(s: str, period: int) -> int:
    """Length of the longest factor of s with the given kernel period, or 0.

    Only the starts i <= len(s) - period can begin one, so the letter counts
    of s[i:i+period] are slid over those starts, and a run of the period is
    extended from each start whose window is a kernel word.  A run reached
    from one start covers every later start inside it, so the end e only
    moves forward."""
    L = len(s)
    if period > L:
        return 0
    counts = Counter(s[:period])
    best = 0
    e = period
    for i in range(L - period + 1):
        if i:
            counts[s[i - 1]] -= 1
            counts[s[i + period - 1]] += 1
        if not any(c & 3 for c in counts.values()):
            e = max(e, i + period)
            while e < L and s[e] == s[e - period]:
                e += 1
            best = max(best, e - i)
    return best


# ------------------------------------------------------------ elimination


_ELIMINATION_ORDERS = range(27, 33)


def verify_short_elimination(
    max_length: int = 130,
    engine: Optional[Z4Language] = None,
) -> VerificationReport:
    """Search every factor of length at most max_length for a kernel period
    q >= length - 3 making it a psi-kernel repetition at any order 27..32.

    The length condition grows with the factor, so only the longest extension
    of each (start, period) pair is tested.  The engine's factors are read
    as prefixes of its sorted factors of cutoff length, so a factor is
    reported at its longest extension inside one of them.
    """
    if max_length < 1:
        raise ValueError("max_length must be positive")
    engine = _engine_for(engine, max_length)
    found = set()
    for s, q, lmax in _cut_candidates(engine, max_length):
        for n in _ELIMINATION_ORDERS:
            if (n - 1) * (lmax + 1) >= n * q - 3:
                found.add((s[:lmax], q, lmax, n))
    violations = [
        {"word": w, "kernel_period": q, "length": ln, "order": n}
        for w, q, ln, n in sorted(found)
    ]
    status = "pass" if not violations else "fail"
    return VerificationReport(
        "short-elimination",
        status,
        {
            "max_length": max_length,
            "orders": list(_ELIMINATION_ORDERS),
            "pieces_scanned": len(engine.index),
            "violations": violations,
        },
    )


# ------------------------------------------------------------ the W set


def _w_candidates(engine, max_length: int, bound_filter: bool) -> set[tuple[str, int]]:
    """Every (v, q) with v a factor of length at most max_length, kernel
    period q <= 152 and |v| - q <= 3, q <= 31(|v| - q + 2) if filtered."""
    cands = set()
    for s, q, lmax in _cut_candidates(engine, max_length):
        if q > 152:
            continue
        for ln in range(q, lmax + 1):
            if bound_filter and q > 31 * (ln - q + 2):
                continue
            cands.add((s[:ln], q))
    return cands


def compute_W(
    max_length: int = 155,
    engine: Optional[Z4Language] = None,
    bound_filter: bool = True,
) -> list[MaximalKernelRepetition]:
    """All maximal kernel repetitions (v, q) in the A_4 factor language with
    |v| <= max_length, |v| - q <= 3, q <= 152 and, unless disabled,
    q <= 31(|v| - q + 2).

    Maximality is single-letter and two-sided: the unique letters that would
    extend the period (v[q-1] on the left, v[|v|-q] on the right) must yield
    words outside the language.  Sorted by length, then value, then period.
    """
    if max_length < 1:
        raise ValueError("max_length must be positive")
    if engine is None:
        # verify_Ew reads two letters past the longest W word; building that
        # far here lets the cache hand it the same engine
        engine = z4_language(max_length + 2)
    engine = _engine_for(engine, max_length + 1)
    out = []
    for v, q in _w_candidates(engine, max_length, bound_filter):
        if engine.is_factor(v[q - 1] + v):
            continue
        if engine.is_factor(v + v[len(v) - q]):
            continue
        out.append(MaximalKernelRepetition(word=v, kernel_period=q))
    out.sort(key=lambda r: (len(r.word), r.word, r.kernel_period))
    return out


def w_breakdown(w_set: Iterable[MaximalKernelRepetition]) -> dict[tuple[int, int], int]:
    """Histogram of (kernel_period, length) pairs."""
    out: dict[tuple[int, int], int] = {}
    for r in w_set:
        key = (r.kernel_period, len(r.word))
        out[key] = out.get(key, 0) + 1
    return out


# ------------------------------------------------------------ E_w check


def _ew_single(args: tuple) -> dict:
    word, p, contexts = args
    period = 3 * p
    q_w = 0
    for s in contexts:
        for bw in g_expand(s):
            run = _max_kernel_period_run(bw, period)
            if run > q_w:
                q_w = run
    margin = 3 * p - 31 * (q_w - 3 * p + 2)
    return {
        "word": word,
        "p": p,
        "q": q_w,
        "margin": margin,
        "contexts": len(contexts),
    }


def verify_Ew(
    w_set: Sequence[MaximalKernelRepetition],
    engine: Optional[Z4Language] = None,
    jobs: int = 1,
) -> VerificationReport:
    """For each maximal repetition w with kernel period p, scan every image
    g(awb) with awb in the language, find the longest factor with kernel
    period 3p (q_w, or 0 if none), and require 3p > 31(q_w - 3p + 2)."""
    engine = _engine_for(engine, max((len(r.word) for r in w_set), default=1) + 2)
    tasks = []
    for r in w_set:
        contexts = [
            a + r.word + b
            for a in "1234"
            for b in "1234"
            if engine.is_factor(a + r.word + b)
        ]
        tasks.append((r.word, r.kernel_period, contexts))
    entries = parallel_map(_ew_single, tasks, jobs)
    failures = [e for e in entries if e["margin"] <= 0]
    status = "pass" if not failures else "fail"
    return VerificationReport(
        "ew-inequality",
        status,
        {
            "checked": len(entries),
            "entries": entries,
            "failures": failures,
        },
    )


# ------------------------------------------------------------ binary search


def binary_avoidance_longest(n: int = 26, depth_cap: int = 64) -> tuple[int, str]:
    """Depth-first search over {1, 2}* for the longest word with no factor
    that is a psi-kernel repetition at order n; returns (length, witness).

    Each child is scanned whole by core_words.first_kernel_repetition, not
    by find_psi_kernel_repetition, whose source alphabet has one letter for
    n = 9..14.  Reaching depth_cap without hitting a repetition raises,
    since the search can no longer certify the language is finite.
    """
    if n < 9:
        raise ValueError("order must be at least 9")
    if depth_cap < 1:
        raise ValueError("depth_cap must be positive")

    need = [min_psi_repetition_length(n, q) for q in range(depth_cap + 1)]
    kind = ReportKind.PSI_KERNEL
    s: list[int] = []
    best = [0, ""]

    def dfs() -> None:
        depth = len(s)
        if depth > best[0]:
            best[0], best[1] = depth, "".join(map(str, s))
        if depth >= depth_cap:
            raise RuntimeError(
                f"clean word of length {depth_cap} found; raise the depth cap "
                "or accept that the language may be infinite"
            )
        for c in (1, 2):
            s.append(c)
            # every proper prefix of s is clean, so a hit ends at its last letter
            if first_kernel_repetition(s, kernel_signatures(s), need, kind) is None:
                dfs()
            s.pop()

    dfs()
    return best[0], best[1]


# ------------------------------------------------------------ desk checks


def check_lemma6(m: int, z: WordLike) -> VerificationReport:
    """Every kernel factor of a member of Z_m must have length divisible by
    4^(m-1).  Kernel factors are located as signature-equal position pairs."""
    if m < 5:
        raise ValueError("alphabet size must be at least 5")
    if not zm_is_member(m, z):
        raise ValueError("word is not a member of the language")
    letters = letters_of(z)
    modulus = 4 ** (m - 1)
    lengths: set[int] = set()
    violations: list[dict] = []
    pairs = 0
    for i, j in equal_signature_pairs(kernel_signatures(letters)):
        pairs += 1
        ln = j - i
        lengths.add(ln)
        if ln % modulus:
            violations.append({"start": i + 1, "length": ln})
    return VerificationReport(
        "kernel-factor-divisibility",
        "pass" if not violations else "fail",
        {
            "m": m,
            "modulus": modulus,
            "word_length": len(letters),
            "kernel_factors": pairs,
            "kernel_lengths": sorted(lengths),
            "violations": violations,
        },
    )


def check_prop7_desk(
    m: int,
    n: int,
    length: Optional[int] = None,
    samples: Optional[int] = None,
    seed: int = 0,
    words: Optional[Sequence[WordLike]] = None,
) -> VerificationReport:
    """Spot check: members of Z_m carry no psi-kernel repetition at order n.
    Free slots are drawn from a seeded generator unless words are supplied."""
    if m < 5:
        raise ValueError("alphabet size must be at least 5")
    if (n - 3) // 6 != m and n < 33:
        raise ValueError("order inconsistent with the alphabet size")
    if words is None:
        if length is None or samples is None:
            raise ValueError("need either explicit words or length and samples")
        words = zm_samples(m, length, samples, seed)
    else:
        for w in words:
            if not zm_is_member(m, w):
                raise ValueError("supplied word is not a member of the language")
    findings = []
    for w in words:
        rep = find_psi_kernel_repetition(n, w)
        if rep is not None:
            findings.append(
                {"word": "".join(str(a) for a in letters_of(w)), **rep.to_payload()}
            )
    return VerificationReport(
        "sampled-repetition-absence",
        "pass" if not findings else "fail",
        {
            "m": m,
            "n": n,
            "samples": len(words),
            "length": length,
            "seed": seed,
            "findings": findings,
        },
    )


# ------------------------------------------------------------ order 26


def n26_stabilizing_check(table: Optional[MorphismTable] = None) -> VerificationReport:
    """With a user-supplied order-26 morphism table, confirm that the image
    of each two-letter word a3 contains a 15-stabilizing factor of length
    350 < 15 * 25.  Without a table the check is reported unavailable."""
    if table is None:
        return VerificationReport(
            "n26-stabilizing",
            "unavailable",
            {"reason": "no order-26 morphism table supplied"},
        )
    if table.n != 26:
        raise ValueError("table order must be 26")
    k, bound, expected = 15, 15 * 25, 350
    witnesses = {}
    ok = True
    for a in (1, 2, 3):
        rep = shortest_k_stabilizing_factor(
            26, apply_morphism(table, (a, 3)), k, max_length=bound - 1
        )
        witnesses[str(a)] = None if rep is None else rep.length
        ok = ok and rep is not None and rep.length == expected
    return VerificationReport(
        "n26-stabilizing",
        "pass" if ok else "fail",
        {"k": k, "length_bound": bound, "expected": expected, "witnesses": witnesses},
    )
