"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Criterion 10 needs an order-n morphism table supplied through the
DEJEAN_FN_TABLE environment variable and is skipped with a notice otherwise.
"""

import itertools
import os
import random
import time
from fractions import Fraction

import pytest

from dejean.carpi import in_psi_kernel, load_morphism_table, threshold_pipeline
from dejean.cli import EXPECTED_W_BREAKDOWN, EXPECTED_W_COUNT
from dejean.constructions import g_expand, zm_count, zm_enumerate, zm_samples
from dejean.core_words import find_forbidden_factor
from dejean.growth import count_threshold_words
from dejean.verifier import (
    binary_avoidance_longest,
    check_lemma6,
    check_prop7_desk,
    verify_Ew,
    verify_short_elimination,
    w_breakdown,
)

from test_growth import oracle_free_count


def report(num: str, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {num} ({name}): {detail}", flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_w_set(w_set_timed):
    w_set, dt = w_set_timed
    hist = w_breakdown(w_set)
    ok = len(w_set) == EXPECTED_W_COUNT and hist == EXPECTED_W_BREAKDOWN and dt < 300
    detail = (
        f"{len(w_set)} entries, breakdown "
        f"{[hist.get(k, 0) for k in sorted(EXPECTED_W_BREAKDOWN)]}, "
        f"{dt:.1f}s < 300s"
    )
    report("01", "maximal kernel repetition set", ok, detail)


def test_criterion_02_ew(w_set, engine157):
    t0 = time.monotonic()
    result = verify_Ew(w_set, engine=engine157)
    dt = time.monotonic() - t0
    margins = [e["margin"] for e in result.payload.get("entries", [])]
    ok = result.passed and result.payload["checked"] == EXPECTED_W_COUNT and dt < 600
    detail = (
        f"{result.payload['checked']} words, min margin "
        f"{min(margins) if margins else 'n/a'}, {dt:.1f}s < 600s"
    )
    report("02", "period bound holds at every extension", ok, detail)


def test_criterion_03_elimination(engine157):
    t0 = time.monotonic()
    result = verify_short_elimination(max_length=130, engine=engine157)
    dt = time.monotonic() - t0
    ok = result.passed and not result.payload["violations"] and dt < 300
    detail = (
        f"orders 27..32, length <= 130, "
        f"{result.payload['pieces_scanned']} pieces, "
        f"{len(result.payload['violations'])} violations, {dt:.1f}s < 300s"
    )
    report("03", "no short kernel repetitions", ok, detail)


def test_criterion_04_binary26():
    t0 = time.monotonic()
    longest = binary_avoidance_longest(26)[0]
    dt = time.monotonic() - t0
    ok = longest == 15 and dt < 60
    report(
        "04",
        "longest binary word clean at order 26",
        ok,
        f"length {longest} == 15, {dt:.1f}s < 60s",
    )


def test_criterion_05_lemma6():
    t0 = time.monotonic()
    samples = zm_samples(5, 2048, 50, seed=0)
    bad = []
    lengths = set()
    for z in samples:
        r = check_lemma6(5, z)
        bad.extend(r.payload["violations"])
        lengths.update(r.payload["kernel_lengths"])
    dt = time.monotonic() - t0
    ok = not bad and all(v % 256 == 0 for v in lengths) and dt < 120
    detail = (
        f"50 words of length 2048, kernel factor lengths {sorted(lengths)} "
        f"all divisible by 256, {dt:.1f}s < 120s"
    )
    report("05", "kernel factor lengths in Z_5", ok, detail)


def test_criterion_06_prop7_desk():
    t0 = time.monotonic()
    words = zm_samples(5, 2048, 50, seed=0)
    result = check_prop7_desk(5, 33, words=words)
    dt = time.monotonic() - t0
    ok = result.passed and result.payload["samples"] == 50 and dt < 300
    detail = (
        f"50 words of length 2048 at order 33, "
        f"{len(result.payload['findings'])} findings, {dt:.1f}s < 300s"
    )
    report("06", "no kernel repetitions in sampled Z_5 words", ok, detail)


def test_criterion_07_zm_census():
    ok = True
    for k in range(0, 17):
        expected = 2 ** ((k + 2) // 4)
        if zm_count(k) != expected or len(zm_enumerate(5, k)) != expected:
            ok = False
            break
    report(
        "07",
        "Z_m census matches closed form",
        ok,
        "counts for k <= 16 equal 2^((k+2)//4), enumeration agrees",
    )


def test_criterion_08_threshold_counts():
    t0 = time.monotonic()
    t3 = count_threshold_words(3, 12)
    oracle3 = [oracle_free_count(3, k, Fraction(7, 4), True) for k in range(1, 13)]
    t2 = count_threshold_words(2, 12)
    oracle2 = [oracle_free_count(2, k, Fraction(2), True) for k in range(1, 13)]
    dt = time.monotonic() - t0
    ok = list(t3.counts) == oracle3 and list(t2.counts) == oracle2 and dt < 60
    detail = (
        f"ternary counts to length 12 match whole-space scan "
        f"(C(12)={t3.counts[-1]}), binary overlap-free counts match "
        f"(C(12)={t2.counts[-1]}), {dt:.1f}s < 60s"
    )
    report("08", "threshold word counts", ok, detail)


def test_criterion_09_kernel_lift():
    t0 = time.monotonic()
    checked = 0
    ok = True
    for k in range(1, 9):
        for letters in itertools.product("1234", repeat=k):
            w = "".join(letters)
            want = in_psi_kernel(w)
            for branch in g_expand(w):
                checked += 1
                if in_psi_kernel(branch) != want:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            break
    dt = time.monotonic() - t0
    report(
        "09",
        "kernel membership lifts through the parallel substitution",
        ok,
        f"all words up to length 8, {checked} branch images, {dt:.1f}s",
    )


def test_criterion_10_pipeline():
    path = os.environ.get("DEJEAN_FN_TABLE")
    if not path:
        print(
            "\n[SKIP] criterion 10 (threshold pipeline): no morphism table "
            "supplied via DEJEAN_FN_TABLE",
            flush=True,
        )
        pytest.skip("no morphism table supplied via DEJEAN_FN_TABLE")
    table = load_morphism_table(path)
    rng = random.Random(0)
    r = Fraction(table.n, table.n - 1)
    ok = True
    checked = 0
    for _ in range(20):
        k = rng.randint(1, 8)
        z = "".join(str(rng.randint(1, table.m)) for _ in range(k))
        out = threshold_pipeline(table, z)
        checked += 1
        if len(out) != table.image_length * k:
            ok = False
            break
        if find_forbidden_factor(out, r, strict=True) is not None:
            ok = False
            break
    report(
        "10",
        "threshold pipeline outputs stay below the threshold",
        ok,
        f"order {table.n}, {checked} seeded inputs of length <= 8",
    )
