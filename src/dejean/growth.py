"""Counting threshold languages by length and estimating their growth.

Counts are exact integers from breadth-first extension with the incremental
suffix check: appending a letter can only create a violation in a factor
ending at the new position, so each candidate costs one suffix test, one
slice comparison per entry of a period table (each period with its least
violating length) computed once per count.  The frontier is grown in
process until the cost of the latest length times the lengths to go, the
least work left in a growing language, reaches SPLIT_WORK candidate
extensions; a count that never gets there finishes in process.  Otherwise
the frontier is sharded once: with jobs > 1 one worker pool per count
extends every shard to the last length, and the per-length costs and
counts are summed here.  Derived quantities (ratios of consecutive counts,
k-th roots) are rendered as fixed-point decimal strings computed by integer
bracketing, so tables are reproducible byte for byte across platforms.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, Optional, Sequence

from ._util import Record, parallel_map, split_chunks
from .core_words import period_table, repetition_threshold, suffix_violates

DIGITS = 6
DEFAULT_BUDGET = 2_000_000


# ------------------------------------------------------------ fixed-point


def _format_scaled(y: int) -> str:
    q, r = divmod(y, 10**DIGITS)
    return f"{q}.{r:0{DIGITS}d}"


def _int_kth_root(x: int, k: int) -> int:
    """Largest y with y**k <= x, for nonnegative integer x."""
    if x < 0 or k < 1:
        raise ValueError("root of a nonnegative integer, k >= 1")
    if x == 0:
        return 0
    lo, hi = 0, 1 << (x.bit_length() // k + 2)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**k <= x:
            lo = mid
        else:
            hi = mid
    return lo


def decimal_ratio(a: int, b: int) -> str:
    """a/b truncated to DIGITS decimal digits."""
    if b <= 0:
        raise ValueError("denominator must be positive")
    return _format_scaled(a * 10**DIGITS // b)


def decimal_kth_root(c: int, k: int) -> str:
    """c ** (1/k) truncated to DIGITS decimal digits."""
    return _format_scaled(_int_kth_root(c * 10 ** (DIGITS * k), k))


# ------------------------------------------------------------ tables


class GrowthTable(Record):
    """Counts of a language by word length with derived growth columns.

    name and the parameters dict say which language.  counts[i] is the
    number of words of length i + 1.  ratios[i] is counts[i + 1] / counts[i]
    as a decimal string (None when the denominator is zero), kth_roots[i] is
    counts[i] ** (1 / (i + 1)).  truncated_at is the first length the
    enumeration budget could not finish, or None for a complete table.
    """

    __slots__ = ("name", "parameters", "counts", "ratios", "kth_roots", "truncated_at")
    _defaults = {"truncated_at": None}

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "parameters": dict(self.parameters),
            "counts": list(self.counts),
            "ratios": list(self.ratios),
            "kth_roots": list(self.kth_roots),
            "truncated_at": self.truncated_at,
        }


def build_growth_table(
    name: str,
    parameters: dict,
    counts: Sequence[int],
    truncated_at: Optional[int] = None,
) -> GrowthTable:
    counts = tuple(int(c) for c in counts)
    if any(c < 0 for c in counts):
        raise ValueError("counts must be nonnegative")
    ratios = tuple(
        decimal_ratio(counts[i + 1], counts[i]) if counts[i] else None
        for i in range(len(counts) - 1)
    )
    roots = tuple(decimal_kth_root(c, k) for k, c in enumerate(counts, start=1))
    return GrowthTable(name, dict(parameters), counts, ratios, roots, truncated_at)


def table_to_csv(table: GrowthTable) -> str:
    """Render a table as CSV with columns k, count, ratio, kth_root.

    The ratio column on row k holds count(k + 1) / count(k) and is empty on
    the last row and wherever the denominator is zero.
    """
    lines = ["k,count,ratio,kth_root"]
    for i, c in enumerate(table.counts):
        ratio = table.ratios[i] if i < len(table.ratios) else None
        lines.append(f"{i + 1},{c},{ratio or ''},{table.kth_roots[i]}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ enumeration

Word = tuple[int, ...]

# the frontier is sharded at the first length whose cost, times the lengths
# still to go, reaches this many candidate extensions; in a growing language
# no later length costs less, so at least that much work is left (about
# 0.2 s in one process, several times the cost of starting workers), and
# counts that never get there finish in process
SPLIT_WORK = 40_000


def _grow(
    frontier: list,
    length: int,
    max_length: int,
    n: int,
    periods: tuple,
    symmetry: bool,
    budget: int,
) -> Iterator[tuple[int, int, list]]:
    """Extend frontier, the surviving words of length `length`, one letter
    at a time up to max_length.

    Yields (cost, weight, frontier) for each new length: cost is the number
    of candidate extensions examined, weight the number of words the new
    frontier stands for.  Stops once the frontier is empty, or after the
    first length whose cost takes the total past budget (yielding that cost
    with an empty frontier, unextended).
    """
    spent = 0
    while length < max_length and frontier:
        length += 1
        tops = [n if not symmetry else min(n, max(w, default=0) + 1) for w in frontier]
        cost = sum(tops)
        spent += cost
        if spent > budget:
            yield cost, 0, []
            return
        frontier = [
            ext
            for w, top in zip(frontier, tops)
            for a in range(1, top + 1)
            if not suffix_violates(ext := w + (a,), periods)
        ]
        if symmetry:
            # letters first appear in increasing order, so max(w) is the
            # number of distinct letters
            weight = sum(math.perm(n, max(w)) for w in frontier)
        else:
            weight = len(frontier)
        yield cost, weight, frontier


def _grow_shard(args: tuple) -> list[tuple[int, int]]:
    """(cost, weight) per length of extending one shard of the frontier."""
    return [(cost, weight) for cost, weight, _ in _grow(*args)]


def count_threshold_words(
    n: int,
    max_length: int,
    budget: int = DEFAULT_BUDGET,
    symmetry: bool = False,
    jobs: int = 1,
) -> GrowthTable:
    """Count words over an n-letter alphabet whose every factor stays at or
    below the repetition threshold (exponents strictly above it are banned).

    The frontier for each length is extended one letter at a time, and
    budget caps the candidate extensions examined: hitting it yields the
    table for the lengths already finished, with truncated_at marking the
    first unfinished length.  With symmetry on, only words whose letters
    first appear in increasing order are enumerated and each stands in for
    its renaming class; the counts are identical.

    The frontier grows in this process until the cost of the latest length
    times the lengths to go reaches SPLIT_WORK (a small count finishes
    here); it is then cut into one shard per job, and each shard is
    extended to max_length by one call of parallel_map.  Each shard stops
    after the first length whose own cost overruns the budget left at the
    split; shard costs only add up, so the cut of the whole enumeration
    comes at or before that length, and it is found here from the summed
    costs.  The table is the same for every value of jobs, but the budget
    caps the work of each shard, not their sum: a count cut after the
    split may examine up to about jobs times the budget left there.
    """
    if n < 2:
        raise ValueError("threshold languages need an alphabet of size >= 2")
    if max_length < 0:
        raise ValueError("max_length must be nonnegative")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    r = repetition_threshold(n)
    params = {"alphabet": n, "threshold": f"{r.numerator}/{r.denominator}",
              "strict": True, "symmetry": symmetry}
    periods = period_table(max_length, r, True)
    levels: list[tuple[int, int]] = []  # (cost, weight) per length
    split: list[Word] = []
    for cost, weight, frontier in _grow(
        [()], 0, max_length, n, periods, symmetry, budget
    ):
        levels.append((cost, weight))
        if cost * (max_length - len(levels)) >= SPLIT_WORK:
            split = frontier
            break
    if split:
        left = budget - sum(cost for cost, _ in levels)
        parts = parallel_map(
            _grow_shard,
            [(shard, len(levels), max_length, n, periods, symmetry, left)
             for shard in split_chunks(split, jobs)],
            jobs,
        )
        # a shard that ran out of words costs nothing past its end; one that
        # stopped on the budget ends at or after the cut found below
        for level in itertools.zip_longest(*parts, fillvalue=(0, 0)):
            levels.append((sum(c for c, _ in level), sum(w for _, w in level)))
    counts: list[int] = []
    truncated_at = None
    examined = 0
    for length, (cost, weight) in enumerate(levels, start=1):
        examined += cost
        if examined > budget:
            truncated_at = length
            break
        counts.append(weight)
        if not weight:
            counts.extend(0 for _ in range(max_length - length))
            break
    name = f"threshold-words-{n}"
    return build_growth_table(name, params, counts, truncated_at)


def count_language(
    membership: Callable[[Word], bool],
    alphabet_size: int,
    max_length: int,
    prefix_closed: Optional[bool] = None,
    name: str = "language",
    parameters: Optional[dict] = None,
) -> GrowthTable:
    """Count words of each length 1..max_length satisfying membership.

    The caller must declare whether the language is prefix closed.  When it
    is, enumeration extends surviving words letter by letter, pruning every
    dead branch; otherwise each length is filtered from all alphabet_size**k
    words, which is only viable for small sizes.  Membership receives a
    tuple of letters drawn from 1..alphabet_size.
    """
    if prefix_closed is None:
        raise ValueError(
            "declare prefix_closed=True or False; pruning is only sound "
            "when membership is closed under taking prefixes"
        )
    if alphabet_size < 1:
        raise ValueError("alphabet_size must be positive")
    if max_length < 0:
        raise ValueError("max_length must be nonnegative")
    letters = range(1, alphabet_size + 1)
    counts: list[int] = []
    if prefix_closed:
        frontier: list[Word] = [()]
        for length in range(1, max_length + 1):
            frontier = [
                w + (a,) for w in frontier for a in letters if membership(w + (a,))
            ]
            counts.append(len(frontier))
            if not frontier:
                counts.extend(0 for _ in range(max_length - length))
                break
    else:
        for k in range(1, max_length + 1):
            counts.append(
                sum(1 for w in itertools.product(letters, repeat=k) if membership(w))
            )
    params = {"alphabet": alphabet_size, "prefix_closed": prefix_closed}
    params.update(parameters or {})
    return build_growth_table(name, params, counts)


# ------------------------------------------------------------ estimates


def growth_estimate(table: GrowthTable) -> dict:
    """Summary statistics of a count table.

    Reports the last ratio and k-th root (the practical growth estimates),
    whether each sequence is nonincreasing (checked exactly on the integer
    counts, not the printed decimals), and every violation of
    submultiplicativity count(j + k) <= count(j) * count(k); a factor-closed
    language admits none, so the k-th roots then converge to the growth rate
    from above.
    """
    c = table.counts
    if not c:
        raise ValueError("growth estimate needs at least one count")
    K = len(c)
    ratios_noninc = all(c[i + 2] * c[i] <= c[i + 1] ** 2 for i in range(K - 2))
    roots_noninc = all(
        c[k - 1] ** (k + 1) >= c[k] ** k for k in range(1, K)
    )
    fekete = [
        {"j": j, "k": k, "count": c[j + k - 1], "bound": c[j - 1] * c[k - 1]}
        for j in range(1, K)
        for k in range(j, K)
        if j + k <= K and c[j + k - 1] > c[j - 1] * c[k - 1]
    ]
    return {
        "lengths": K,
        "last_count": c[-1],
        "last_ratio": table.ratios[-1] if table.ratios else None,
        "last_kth_root": table.kth_roots[-1],
        "ratios_nonincreasing": ratios_noninc,
        "roots_nonincreasing": roots_noninc,
        "fekete_violations": fekete,
        "truncated_at": table.truncated_at,
    }


def theorem2_lower_bound(n: int, k: int) -> dict:
    """Exponential lower bound on the number of threshold words of length k
    over an n-letter alphabet, as base ** (k / divisor).

    Orders 33 and up get base 2 with divisor 4(n-1)(l+1); orders 27..32 get
    base 4 with divisor 81(n-1)(l+1), where l = floor(n/2).  The decimal
    value is truncated, computed by integer bracketing.
    """
    if n < 27:
        raise ValueError("the lower bound construction needs n >= 27")
    if k < 0:
        raise ValueError("k must be nonnegative")
    ell = n // 2
    if n >= 33:
        base, divisor = 2, 4 * (n - 1) * (ell + 1)
    else:
        base, divisor = 4, 81 * (n - 1) * (ell + 1)
    scaled = _int_kth_root(base**k * 10 ** (DIGITS * divisor), divisor)
    return {
        "base": base,
        "divisor": divisor,
        "k": k,
        "exponent": f"{k}/{divisor}",
        "value": _format_scaled(scaled),
    }
