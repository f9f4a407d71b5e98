#!/usr/bin/env python3
"""Run the heavy verifications and print one summary line per check.

Each check is the same routine the test suite calls; this script exists so
the full battery can be run standalone, timed, and scripted in shell
pipelines.  Exit status is the number of failing checks.
"""

import argparse
import sys
import time

from dejean.cli import EXPECTED_BINARY26, EXPECTED_W_BREAKDOWN, EXPECTED_W_COUNT
from dejean.constructions import z4_language, zm_samples
from dejean.verifier import (
    binary_avoidance_longest,
    check_lemma6,
    check_prop7_desk,
    compute_W,
    verify_Ew,
    verify_short_elimination,
    w_breakdown,
)

CHECKS = ("elimination", "w-set", "ew", "binary26", "lemma6", "prop7-desk")


def run_check(name: str, args) -> tuple[bool, str]:
    if name == "elimination":
        result = verify_short_elimination(max_length=130, jobs=args.jobs)
        return result.passed, f"{len(result.payload['violations'])} violations"
    if name == "w-set":
        engine = z4_language(args.max_length + 2)
        w_set = compute_W(args.max_length, engine=engine, jobs=args.jobs)
        hist = w_breakdown(w_set)
        rows = ", ".join(f"{p}/{ln}:{c}" for (p, ln), c in sorted(hist.items()))
        ok = len(w_set) == EXPECTED_W_COUNT and hist == EXPECTED_W_BREAKDOWN
        return ok, f"{len(w_set)} entries ({rows})"
    if name == "ew":
        engine = z4_language(args.max_length + 2)
        w_set = compute_W(args.max_length, engine=engine, jobs=args.jobs)
        result = verify_Ew(w_set, engine=engine, jobs=args.jobs)
        margins = [e["margin"] for e in result.payload["entries"]]
        lo = min(margins) if margins else "n/a"
        return result.passed, f"{result.payload['checked']} words, min margin {lo}"
    if name == "binary26":
        length, witness = binary_avoidance_longest(26)
        detail = f"longest clean word {witness} has length {length}"
        return length == EXPECTED_BINARY26, detail
    if name == "lemma6":
        violations = []
        for z in zm_samples(5, args.length, args.samples, seed=args.seed):
            violations.extend(check_lemma6(5, z).payload["violations"])
        return not violations, (
            f"{args.samples} samples of length {args.length}, "
            f"{len(violations)} off-modulus kernel factors"
        )
    if name == "prop7-desk":
        result = check_prop7_desk(
            5, 33, length=args.length, samples=args.samples, seed=args.seed
        )
        return result.passed, f"{len(result.payload['findings'])} findings"
    raise ValueError(f"unknown check {name!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--checks", nargs="+", default=list(CHECKS), choices=CHECKS)
    parser.add_argument("--max-length", type=int, default=155)
    parser.add_argument("--length", type=int, default=2048)
    parser.add_argument("--samples", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    failures = 0
    for name in args.checks:
        t0 = time.monotonic()
        ok, detail = run_check(name, args)
        dt = time.monotonic() - t0
        failures += not ok
        print(f"[{'ok' if ok else 'FAIL'}] {name}: {detail} ({dt:.1f}s)")
    return failures


if __name__ == "__main__":
    sys.exit(main())
