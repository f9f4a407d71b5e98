import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dejean.core_words import ReportKind, equal_signature_pairs, minimal_period
from dejean.pansiot import (
    _inverse_prefixes,
    as_binary_letters,
    find_kernel_repetition,
    find_stabilizing_violation,
    gamma,
    scan_prop32,
    shortest_k_stabilizing_factor,
)

# ---------------------------------------------------------------- oracle
# Permutations are tuples: perm[i] is the image of point i+1, values in 1..n.


def identity(n):
    return tuple(range(1, n + 1))


def compose(p, q):
    """Right-action product: apply p first, then q."""
    return tuple(q[a - 1] for a in p)


def inverse(p):
    inv = [0] * len(p)
    for i, a in enumerate(p):
        inv[a - 1] = i + 1
    return tuple(inv)


def phi_letter(n, letter):
    """Image of one binary letter: 1 (ascii 0) -> (1..n-1) fixing n, 2 -> (1..n)."""
    if n < 2:
        raise ValueError("encoding needs n >= 2")
    if letter == 1:
        return tuple(list(range(2, n)) + [1, n])
    if letter == 2:
        return tuple(list(range(2, n + 1)) + [1])
    raise ValueError(f"not a binary letter: {letter}")


def prefix_permutations(n, u):
    """P[0..|u|] with P[j] the permutation of the length-j prefix."""
    out = [identity(n)]
    for a in as_binary_letters(u):
        out.append(compose(out[-1], phi_letter(n, a)))
    return out


def phi(n, u):
    """The permutation of the whole word u."""
    perm = identity(n)
    for a in as_binary_letters(u):
        perm = compose(perm, phi_letter(n, a))
    return perm


def stabilized_prefix_size(perm):
    """Largest k with perm fixing every point in 1..k (0 if 1 moves)."""
    k = 0
    for i, a in enumerate(perm):
        if a != i + 1:
            break
        k += 1
    return k


def kernel_repetition_length_ok(n, length, p):
    """(n-1)|v| > np - (n-1)^2, evaluated in integers."""
    return (n - 1) * length > n * p - (n - 1) * (n - 1)


def oracle_scan(n, u, condition):
    """Enumerate every factor (and for kernel repetitions every period and
    every offset of the witness window); return the leftmost-then-shortest
    hit as (start, length) or (start, length, period)."""
    letters = as_binary_letters(u)
    L = len(letters)
    P = prefix_permutations(n, letters)
    for start in range(L):
        for length in range(1, L - start + 1):
            v = letters[start : start + length]
            if condition == "stab":
                k = min(stabilized_prefix_size(phi(n, v)), n - 1)
                if k >= 1 and length < k * (n - 1):
                    return (start + 1, length)
            else:
                for p in range(1, length + 1):
                    if not all(v[i] == v[i + p] for i in range(length - p)):
                        continue
                    if not kernel_repetition_length_ok(n, length, p):
                        continue
                    if any(
                        P[start + o] == P[start + o + p]
                        for o in range(length - p + 1)
                    ):
                        return (start + 1, length, p)
    return None


# Scans over tuple permutations, the reference for the library's walk over
# inverse prefixes.  Each returns what the library reports, as a plain tuple.


def tuple_gamma(n, u):
    perm = identity(n)
    out = []
    for a in as_binary_letters(u):
        perm = compose(perm, phi_letter(n, a))
        out.append(perm.index(1) + 1)
    return tuple(out)


def leading_fixed_count(pj, inv_i, n):
    """Leading fixed points of the factor permutation between prefix perms
    P[i] and P[j]: the factor fixes c iff P[j] maps the preimage of c under
    P[i] back to c."""
    c = 1
    while c <= n and pj[inv_i[c - 1] - 1] == c:
        c += 1
    return c - 1


def stabilizing_tuple(letters, start0, length, k):
    f = letters[start0 : start0 + length]
    return ("stabilizing", start0 + 1, length, minimal_period(f), k)


def tuple_stabilizing(n, u):
    letters = as_binary_letters(u)
    L = len(letters)
    P = prefix_permutations(n, letters)
    window = (n - 1) * (n - 1) - 1
    for i in range(L):
        inv_i = inverse(P[i])
        for j in range(i + 1, min(i + window, L) + 1):
            fixed = min(leading_fixed_count(P[j], inv_i, n), n - 1)
            if fixed >= 1 and (j - i) < fixed * (n - 1):
                return stabilizing_tuple(letters, i, j - i, fixed)
    return None


def tuple_kernel(n, u):
    """The pair scan over every two equal prefix permutations, each pair
    extended to the whole run of its period on both sides."""
    letters = as_binary_letters(u)
    L = len(letters)
    best = None
    for t, j in equal_signature_pairs(prefix_permutations(n, letters)):
        p = j - t
        a = t
        while a > 0 and letters[a - 1] == letters[a - 1 + p]:
            a -= 1
        e = t
        while e + p < L and letters[e] == letters[e + p]:
            e += 1
        lmin = max(p, (n * p - (n - 1) * (n - 1)) // (n - 1) + 1)
        if lmin > e + p - a:
            continue
        cand = (a, max(lmin, j - a), p)
        if best is None or cand < best:
            best = cand
    if best is None:
        return None
    a, length, p = best
    return ("kernel", a + 1, length, p, None)


def tuple_scan_prop32(n, u):
    rep = tuple_stabilizing(n, u)
    return rep if rep is not None else tuple_kernel(n, u)


def tuple_shortest_k(n, u, k, max_length=None):
    letters = as_binary_letters(u)
    L = len(letters)
    P = prefix_permutations(n, letters)
    inverses = [inverse(perm) for perm in P]
    top = L if max_length is None else min(L, max_length)
    for length in range(1, top + 1):
        for i in range(L - length + 1):
            if leading_fixed_count(P[i + length], inverses[i], n) >= k:
                return stabilizing_tuple(letters, i, length, k)
    return None


def as_tuple(rep):
    if rep is None:
        return None
    return (rep.kind.value, rep.start, rep.length, rep.period, rep.k)


def assert_matches_tuple_oracles(n, u, k, max_length):
    assert gamma(n, u).letters == tuple_gamma(n, u)
    assert as_tuple(find_stabilizing_violation(n, u)) == tuple_stabilizing(n, u)
    assert as_tuple(find_kernel_repetition(n, u)) == tuple_kernel(n, u)
    assert as_tuple(scan_prop32(n, u)) == tuple_scan_prop32(n, u)
    assert as_tuple(shortest_k_stabilizing_factor(n, u, k, max_length)) == (
        tuple_shortest_k(n, u, k, max_length)
    )


def binary_words(max_len):
    for k in range(max_len + 1):
        yield from itertools.product((1, 2), repeat=k)


# ---------------------------------------------------------------- basics


def test_phi_letter_examples():
    assert phi(4, "0") == (2, 3, 1, 4)
    assert phi(3, "11") == (3, 1, 2)
    assert phi(3, "") == (1, 2, 3)
    with pytest.raises(ValueError):
        phi_letter(1, 1)
    with pytest.raises(ValueError):
        phi_letter(3, 3)


def test_phi_cycle_orders():
    for n in range(2, 8):
        a, b = phi_letter(n, 1), phi_letter(n, 2)
        acc = identity(n)
        for _ in range(n - 1):
            acc = compose(acc, a)
        assert acc == identity(n)
        acc = identity(n)
        for _ in range(n):
            acc = compose(acc, b)
        assert acc == identity(n)
        if n > 2:
            assert phi_letter(n, 1) != identity(n)


def test_phi_morphism_exhaustive_small():
    for n in (3, 4):
        for lu in range(0, 5):
            for lv in range(0, 5):
                for u in itertools.product((1, 2), repeat=lu):
                    for v in itertools.product((1, 2), repeat=lv):
                        assert phi(n, u + v) == compose(phi(n, u), phi(n, v))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(3, 9),
    st.lists(st.integers(1, 2), max_size=8).map(tuple),
    st.lists(st.integers(1, 2), max_size=8).map(tuple),
)
def test_phi_morphism_sampled(n, u, v):
    assert phi(n, u + v) == compose(phi(n, u), phi(n, v))


def test_inverse_and_compose():
    p = phi(5, "0110")
    assert compose(p, inverse(p)) == identity(5)
    assert compose(inverse(p), p) == identity(5)


# ---------------------------------------------------------------- gamma


def test_gamma_examples():
    assert str(gamma(3, "1")) == "3"
    assert str(gamma(3, "11")) == "32"


def test_gamma_shape():
    w = gamma(27, "0110")
    assert len(w) == 4
    assert w.alphabet_size == 27
    assert all(1 <= a <= 27 for a in w.letters)


def test_gamma_injective_exhaustive():
    for n in (3, 5):
        for k in range(1, 11):
            seen = set()
            for u in itertools.product((1, 2), repeat=k):
                seen.add(gamma(n, u).letters)
            assert len(seen) == 2**k


# ---------------------------------------------------------------- stabilizing


def test_is_k_stabilizing_examples():
    # v is k-stabilizing when phi(v) fixes 1..k, the condition oracle_scan tests
    assert stabilized_prefix_size(phi(3, "00")) >= 2
    assert stabilized_prefix_size(phi(3, "0")) < 1
    assert stabilized_prefix_size(phi(27, "1" * 27)) >= 26


def test_stabilized_prefix_size():
    assert stabilized_prefix_size((1, 2, 3)) == 3
    assert stabilized_prefix_size((1, 3, 2)) == 1
    assert stabilized_prefix_size((2, 1, 3)) == 0


# ---------------------------------------------------------------- scans


def test_scan_prop32_examples():
    assert scan_prop32(3, "1") is None

    rep = scan_prop32(3, "00")
    assert rep.kind == ReportKind.STABILIZING
    assert (rep.start, rep.length, rep.k) == (1, 2, 2)

    # "000000" holds both violation kinds; the stabilizing pass runs first and
    # "00" is its leftmost-shortest witness.
    rep = scan_prop32(3, "000000")
    assert rep.kind == ReportKind.STABILIZING
    assert (rep.start, rep.length) == (1, 2)

    # the kernel-only scan agrees with the second condition: period 2, with
    # the identity window "00" inside.
    ker = find_kernel_repetition(3, "000000")
    assert ker.kind == ReportKind.KERNEL
    assert (ker.start, ker.length, ker.period) == (1, 2, 2)
    assert ker.exponent == Fraction(1)


def test_in_phi_kernel():
    assert phi(3, "00") == identity(3)
    assert phi(3, "0") != identity(3)
    assert phi(3, "111") == identity(3)


def test_scan_agrees_with_oracle_exhaustive():
    for n in (3, 4, 5):
        for u in binary_words(10):
            stab = find_stabilizing_violation(n, u)
            expect = oracle_scan(n, u, "stab")
            if expect is None:
                assert stab is None
            else:
                assert (stab.start, stab.length) == expect

            ker = find_kernel_repetition(n, u)
            expect = oracle_scan(n, u, "kernel")
            if expect is None:
                assert ker is None
            else:
                assert (ker.start, ker.length, ker.period) == expect


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 5), st.lists(st.integers(1, 2), max_size=14).map(tuple))
def test_scan_agrees_with_oracle_sampled(n, u):
    stab = find_stabilizing_violation(n, u)
    expect = oracle_scan(n, u, "stab")
    assert (None if stab is None else (stab.start, stab.length)) == expect
    ker = find_kernel_repetition(n, u)
    expect = oracle_scan(n, u, "kernel")
    assert (None if ker is None else (ker.start, ker.length, ker.period)) == expect


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(1, 2), max_size=6).map(tuple),
    st.lists(st.integers(1, 2), max_size=6).map(tuple),
)
def test_planted_identity_always_found(prefix, suffix):
    u = prefix + (1, 1) + suffix  # "00" is 2-stabilizing for n = 3
    assert scan_prop32(3, u) is not None


def test_kernel_inequality_integer_form():
    for n in (3, 5, 27):
        for length in range(0, 40):
            for p in range(1, 12):
                exact = Fraction(length) > Fraction(n * p, n - 1) - (n - 1)
                assert kernel_repetition_length_ok(n, length, p) == exact


def test_shortest_k_stabilizing_factor():
    u = "1111100111111"
    rep = shortest_k_stabilizing_factor(3, u, 2)
    assert (rep.start, rep.length, rep.k) == (6, 2, 2)
    assert shortest_k_stabilizing_factor(3, u, 2, max_length=1) is None
    assert shortest_k_stabilizing_factor(3, "01", 2) is None


# ---------------------------------------------------------------- inverse walk


def test_inverse_prefixes_invert_the_prefix_permutations():
    for n in (2, 3, 7):
        for u in binary_words(6):
            qs = list(_inverse_prefixes(n, u))
            assert [tuple(q) for q in qs] == [inverse(p) for p in prefix_permutations(n, u)]


def test_inverse_prefixes_are_bytes_up_to_255_then_tuples():
    u = (1, 2, 2, 1)
    for n, kind in ((2, bytes), (255, bytes), (256, tuple), (300, tuple)):
        qs = list(_inverse_prefixes(n, u))
        assert all(type(q) is kind for q in qs)
        assert [tuple(q) for q in qs] == [inverse(p) for p in prefix_permutations(n, u)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_scans_agree_with_tuple_oracles(data):
    n = data.draw(st.integers(2, 40))
    u = data.draw(st.lists(st.integers(1, 2), max_size=80).map(tuple))
    k = data.draw(st.integers(1, n - 1))
    max_length = data.draw(st.none() | st.integers(0, 80))
    assert_matches_tuple_oracles(n, u, k, max_length)


@st.composite
def periodic_codes(draw):
    """A binary word of up to 200 letters, half the time with a block
    repeated in it."""
    part = st.lists(st.integers(1, 2), max_size=100)
    if draw(st.booleans()):
        return tuple(draw(part) + draw(part))
    block = draw(st.lists(st.integers(1, 2), min_size=1, max_size=40))
    planted = (block * 5)[: draw(st.integers(0, 160))]
    head = draw(st.lists(st.integers(1, 2), max_size=20))
    return tuple(head + planted + draw(st.lists(st.integers(1, 2), max_size=20)))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 12), periodic_codes())
def test_kernel_scan_agrees_with_pair_scan(n, u):
    assert as_tuple(find_kernel_repetition(n, u)) == tuple_kernel(n, u)


@pytest.mark.parametrize("n", [255, 256, 300])
def test_scans_agree_with_tuple_oracles_at_large_orders(n):
    rng = random.Random(n)
    noise = "".join(rng.choice("01") for _ in range(60))
    for u in ("", "1", "0110", "0" * (n - 1), "1" * n, "10" + "0" * (n - 2), noise):
        for k in (1, 2, n - 1):
            assert_matches_tuple_oracles(n, u, k, None)
    assert as_tuple(scan_prop32(n, "0" * (n - 1))) == ("stabilizing", 1, n - 1, 1, n - 1)
    assert as_tuple(scan_prop32(n, "1" * n)) == ("stabilizing", 1, n, 1, n - 1)


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_every_scan_checks_n_before_the_word(n):
    calls = [
        lambda u: gamma(n, u),
        lambda u: scan_prop32(n, u),
        lambda u: find_stabilizing_violation(n, u),
        lambda u: find_kernel_repetition(n, u),
        lambda u: shortest_k_stabilizing_factor(n, u, 1),
    ]
    for call in calls:
        for u in ("", "0", "1101", (), "2"):
            with pytest.raises(ValueError, match=r"^encoding needs n >= 2$"):
                call(u)


def test_scan_prop32_holds_only_a_window_of_prefixes():
    # "11" + "0" * 26 + "1000" fixes 1, 2 and 3 under S_33 and nothing
    # shorter from position 1 stabilizes; the tail is never reached.  A walk
    # holding one tuple permutation per letter peaks at 9.4 MB on this word.
    head = "11" + "0" * 26 + "1000"
    rng = random.Random(33)
    tail = "".join(rng.choice("01") for _ in range(30_000))
    u = as_binary_letters(head + tail)
    tracemalloc.start()
    try:
        rep = scan_prop32(33, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.kind, rep.start, rep.length, rep.period, rep.k) == (
        ReportKind.STABILIZING, 1, 32, 32, 3)
    assert peak < 1_000_000


def test_kernel_scan_holds_one_link_per_prefix():
    # a clean random word: the scan holds each distinct Q once and one link
    # per prefix, where a position list per Q peaked at 7.7 MB
    rng = random.Random(35)
    u = tuple(rng.choice((1, 2)) for _ in range(35_000))
    tracemalloc.start()
    try:
        rep = find_kernel_repetition(33, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep is None
    assert peak < 7_000_000
