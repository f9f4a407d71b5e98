import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dejean.core_words import ReportKind
from dejean.pansiot import (
    as_binary_letters,
    compose,
    find_kernel_repetition,
    find_stabilizing_violation,
    gamma,
    identity,
    inverse,
    phi_letter,
    prefix_permutations,
    scan_prop32,
    shortest_k_stabilizing_factor,
)

# ---------------------------------------------------------------- oracle


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
