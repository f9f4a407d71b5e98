"""Tests for the small-alphabet reduction machinery.

The scanning oracle here enumerates every factor and period directly from the
definitions, with no signature tricks, and is the reference for the fast
implementation.  A second oracle, the scan over every pair of equal
signatures that the library used before, checks it on longer words.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dejean.carpi import (
    CarpiParams,
    MorphismTable,
    PipelineError,
    apply_morphism,
    find_psi_kernel_repetition,
    in_psi_kernel,
    load_morphism_table,
    make_table,
    min_psi_repetition_length,
    params,
    threshold_pipeline,
)
from dejean.constructions import zm_samples
from dejean.core_words import (
    ReportKind,
    equal_signature_pairs,
    kernel_signatures,
    parse_word,
)
from dejean.pansiot import gamma

from test_verifier import kernel_periods


def psi_repetition_length_ok(n, length, q):
    """(n-1)(|v|+1) >= nq - 3, evaluated in integers."""
    return (n - 1) * (length + 1) >= n * q - 3


def oracle_scan(n, s):
    """Leftmost-then-shortest (start, length, period) over all factors."""
    L = len(s)
    best = None
    for start in range(L):
        for length in range(1, L - start + 1):
            v = s[start : start + length]
            for q in range(1, length + 1):
                if any(v[i] != v[i + q] for i in range(length - q)):
                    continue
                if not any(
                    in_psi_kernel(v[i : i + q]) for i in range(length - q + 1)
                ):
                    continue
                if (n - 1) * (length + 1) >= n * q - 3:
                    cand = (start, length, q)
                    if best is None or cand < best:
                        best = cand
    return best


def pair_scan(n, letters):
    """Leftmost-then-shortest (start, length, period) over every pair of
    equal signatures, each extended to the end of its run of the period."""
    L = len(letters)
    best = None
    for t, e in equal_signature_pairs(kernel_signatures(letters)):
        q = e - t
        while e < L and letters[e] == letters[e - q]:
            e += 1
        if (n - 1) * (e - t + 1) < n * q - 3:
            continue
        cand = (t, min_psi_repetition_length(n, q), q)
        if best is None or cand < best:
            best = cand
    return best


def words_over(alphabet, max_len):
    stack = [()]
    while stack:
        u = stack.pop()
        yield "".join(str(a) for a in u)
        if len(u) < max_len:
            stack.extend(u + (a,) for a in alphabet)


# ---------------------------------------------------------------- params


def test_params_table():
    assert params(27) == CarpiParams(27, 4, 13, 364, False)
    assert params(33) == CarpiParams(33, 5, 16, 544, False)
    assert params(9) == CarpiParams(9, 1, 4, 40, True)
    p26 = params(26)
    assert (p26.m, p26.ell, p26.below_case_range) == (3, 13, True)
    assert not params(32).below_case_range or params(32).n >= 27


def test_params_rejects_small_orders():
    for n in (2, 5, 8):
        with pytest.raises(ValueError):
            params(n)


def test_image_length_formula():
    for n in range(9, 60):
        p = params(n)
        assert p.image_length == (n - 1) * (n // 2 + 1)
        assert p.m == (n - 3) // 6


# ---------------------------------------------------------------- kernel


def test_in_psi_kernel_examples():
    assert in_psi_kernel("")
    assert in_psi_kernel("1111")
    assert in_psi_kernel("11112222")
    assert in_psi_kernel("12121212")
    assert not in_psi_kernel("112")
    assert not in_psi_kernel("111")
    assert not in_psi_kernel("11122234")


def test_kernel_periods_examples():
    assert kernel_periods("1111") == [4]
    assert kernel_periods("11121112") == []
    assert kernel_periods("11111111") == [4, 8]
    assert kernel_periods("") == []
    assert kernel_periods("12") == []


@given(st.lists(st.integers(1, 4), max_size=8))
def test_kernel_closed_under_fourth_power(u):
    assert in_psi_kernel(tuple(u) * 4)


@given(st.lists(st.integers(1, 4), max_size=12), st.integers(0, 11))
def test_kernel_invariant_under_rotation(u, k):
    u = tuple(u)
    if not u:
        return
    k %= len(u)
    assert in_psi_kernel(u) == in_psi_kernel(u[k:] + u[:k])


@given(
    st.lists(st.integers(1, 4), max_size=10),
    st.lists(st.integers(1, 4), max_size=10),
)
def test_kernel_closed_under_concatenation(u, v):
    if in_psi_kernel(tuple(u)) and in_psi_kernel(tuple(v)):
        assert in_psi_kernel(tuple(u) + tuple(v))


# ---------------------------------------------------------------- lengths


def test_min_repetition_length_is_threshold():
    for n in (9, 15, 27, 33):
        for q in range(1, 200):
            lo = min_psi_repetition_length(n, q)
            assert lo >= q
            assert psi_repetition_length_ok(n, lo, q)
            if lo > q:
                assert not psi_repetition_length_ok(n, lo - 1, q)


def test_length_inequality_matches_rational_form():
    from fractions import Fraction

    for n in (9, 27, 33):
        for length in range(0, 40):
            for q in range(1, 40):
                exact = Fraction(length + 1, 1) >= Fraction(n * q - 3, n - 1)
                assert psi_repetition_length_ok(n, length, q) == exact


# ---------------------------------------------------------------- scanning


def test_find_examples():
    rep = find_psi_kernel_repetition(27, "1111")
    assert (rep.start, rep.length, rep.period) == (1, 4, 4)
    assert rep.kind is ReportKind.PSI_KERNEL
    assert find_psi_kernel_repetition(27, "1234") is None
    assert find_psi_kernel_repetition(27, "") is None
    rep33 = find_psi_kernel_repetition(33, "1111")
    assert (rep33.start, rep33.length, rep33.period) == (1, 4, 4)


def test_find_rejects_letters_outside_source_alphabet():
    with pytest.raises(ValueError):
        find_psi_kernel_repetition(27, "15")  # m = 4
    with pytest.raises(ValueError):
        find_psi_kernel_repetition(9, "2")  # m = 1
    with pytest.raises(ValueError, match="outside source alphabet"):
        find_psi_kernel_repetition(9, "10")
    with pytest.raises(ValueError):
        find_psi_kernel_repetition(1, "1")


def test_find_rejects_letters_below_one():
    for n in (2, 5, 8, 9, 27):
        with pytest.raises(ValueError, match="letter 0 outside"):
            find_psi_kernel_repetition(n, "10")
        with pytest.raises(ValueError, match="letter -3 outside"):
            find_psi_kernel_repetition(n, (1, -3, 1))


def test_scan_agrees_with_oracle_exhaustive_binary():
    for n in (15, 27):
        for s in words_over((1, 2), 7):
            got = find_psi_kernel_repetition(n, s)
            want = oracle_scan(n, s)
            if want is None:
                assert got is None, (n, s)
            else:
                assert (got.start - 1, got.length, got.period) == want, (n, s)


def test_scan_agrees_with_oracle_exhaustive_quaternary():
    for s in words_over((1, 2, 3, 4), 5):
        got = find_psi_kernel_repetition(27, s)
        want = oracle_scan(27, s)
        if want is None:
            assert got is None, s
        else:
            assert (got.start - 1, got.length, got.period) == want, s


@settings(max_examples=250, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=12), st.sampled_from([27, 33]))
def test_scan_agrees_with_oracle_sampled(u, n):
    s = "".join(str(a) for a in u)
    got = find_psi_kernel_repetition(n, s)
    want = oracle_scan(n, s)
    if want is None:
        assert got is None
    else:
        assert (got.start - 1, got.length, got.period) == want


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(1, 5), max_size=40),
    st.lists(st.integers(1, 10**9), min_size=5, max_size=5, unique=True),
    st.integers(2, 8),
)
def test_scan_below_order_9_ignores_letter_values(u, huge, n):
    # renaming the letters injectively changes no kernel word and no period
    renamed = [huge[a - 1] for a in u]
    assert find_psi_kernel_repetition(n, renamed) == find_psi_kernel_repetition(n, u)


def test_scan_below_order_9_huge_letter():
    rep = find_psi_kernel_repetition(5, [10**9] * 200)
    assert (rep.start, rep.length, rep.period) == (1, 4, 4)
    assert find_psi_kernel_repetition(5, [10**9, 10**7, 10**9]) is None


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=6), st.lists(st.integers(1, 4), max_size=6))
def test_planted_kernel_block_is_found(prefix, block):
    if not block:
        return
    s = tuple(prefix) + tuple(block) * 4
    rep = find_psi_kernel_repetition(27, s)
    assert rep is not None
    k = rep.start - 1
    window = s[k : k + rep.period]
    assert in_psi_kernel(window)
    seg = s[k : k + rep.length]
    assert all(seg[i] == seg[i + rep.period] for i in range(rep.length - rep.period))


@st.composite
def psi_cases(draw):
    """(n, letters): a word over the source alphabet of order n (four letters
    below order 9) with a block of period 4k planted in it, or a member of
    Z_5 at an order whose alphabet holds five letters."""
    if draw(st.integers(0, 3)) == 0:
        n = draw(st.integers(33, 45))
        length = draw(st.integers(0, 400))
        return n, tuple(int(c) for c in zm_samples(5, length, 1, draw(st.integers(0, 99)))[0])
    n = draw(st.integers(2, 45))
    m = params(n).m if n >= 9 else 4
    letter = st.integers(1, m)
    part = st.lists(letter, max_size=40)
    block = draw(st.lists(letter, min_size=4, max_size=4 * draw(st.integers(1, 6))))
    block = block[: len(block) & ~3]
    planted = block * draw(st.integers(0, 3)) + block[: draw(st.integers(0, len(block)))]
    return n, tuple(draw(part) + planted + draw(part))


@settings(max_examples=400, deadline=None)
@given(psi_cases())
def test_scan_agrees_with_pair_scan(case):
    n, letters = case
    rep = find_psi_kernel_repetition(n, letters)
    got = None if rep is None else (rep.start - 1, rep.length, rep.period)
    assert got == pair_scan(n, letters)


# ---------------------------------------------------------------- tables


TOY3 = make_table(3, {1: "00", 2: "01"})


def test_make_table_shapes():
    assert TOY3.n == 3 and TOY3.m == 2 and TOY3.image_length == 2
    assert TOY3.images[1] == (1, 1)
    assert TOY3.images[2] == (1, 2)


def test_table_validation_errors():
    with pytest.raises(ValueError):
        make_table(3, {1: "00", 2: "0"})  # ragged lengths
    with pytest.raises(ValueError):
        make_table(3, {1: "02"})  # not 0/1
    with pytest.raises(ValueError):
        make_table(3, {2: "00"})  # letters must start at 1
    with pytest.raises(ValueError):
        MorphismTable(n=3, m=1, image_length=2, images={1: (1, 3)})


def test_apply_morphism():
    out = apply_morphism(TOY3, "12")
    assert out.letters == (1, 1, 1, 2)
    assert out.alphabet_size == 2
    with pytest.raises(ValueError):
        apply_morphism(TOY3, "13")


def test_load_morphism_table_strict(tmp_path):
    doc = {"n": 9, "m": 1, "images": {"1": "01" * 20}}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    t = load_morphism_table(path)
    assert (t.n, t.m, t.image_length) == (9, 1, 40)
    assert t.images[1][:2] == (1, 2)
    # same document as an in-memory dict
    assert load_morphism_table(doc) == t


def test_load_morphism_table_rejects_bad_documents():
    good = {"n": 9, "m": 1, "images": {"1": "01" * 20}}
    bad = [
        {**good, "m": 2},
        {**good, "images": {"1": "01" * 19}},
        {**good, "images": {"1": "0x" + "01" * 19}},
        {**good, "images": {"2": "01" * 20}},
        {**good, "n": 8},
        {"n": 9, "m": 1},
        [],
    ]
    for doc in bad:
        with pytest.raises(ValueError):
            load_morphism_table(doc)


# ---------------------------------------------------------------- pipeline


def test_pipeline_without_verification_encodes():
    t = make_table(3, {1: "00"})
    out = threshold_pipeline(t, "111")
    assert out == gamma(3, "000000")
    assert str(out) == "212121"


def test_pipeline_flags_forbidden_output():
    t = make_table(3, {1: "00"})
    with pytest.raises(PipelineError) as exc:
        threshold_pipeline(t, "111", verify=True)
    assert exc.value.stage == "output"
    assert exc.value.report.period == 2


def test_pipeline_flags_bad_input():
    t = make_table(3, {1: "01"})
    with pytest.raises(PipelineError) as exc:
        threshold_pipeline(t, "1111", verify=True)
    assert exc.value.stage == "input"
    assert exc.value.report.kind is ReportKind.PSI_KERNEL


def test_pipeline_happy_path():
    t = make_table(3, {1: "01"})
    out = threshold_pipeline(t, "1", verify=True)
    assert out == parse_word("23", 3)
