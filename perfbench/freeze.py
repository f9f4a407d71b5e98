"""Write expected.json: the fingerprints every benchmark run is checked against.

    python3 perfbench/freeze.py

The certify values at full size are the paper's published results and are
written literally.  The count sequences, growth estimates and the smoke-size
E_w margin are computed by the package itself, so this script was run once,
at the commit that introduced the benchmark, and its output committed; do not
re-run it to make a failing check pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import dejean  # noqa: E402
import workloads  # noqa: E402


def count_expectations(size: dict) -> dict:
    g = dejean.growth
    threshold, estimates = {}, {}
    for n, length in size["tables"]:
        key = f"{n},{length}"
        table = g.count_threshold_words(n, length, symmetry=True, jobs=1)
        threshold[key] = list(table.counts)
        estimates[key] = json.loads(json.dumps(g.growth_estimate(table)))
    engine = dejean.z4_language(size["language"])
    language = g.count_language(engine.is_factor, 4, size["language"], prefix_closed=True)
    return {"threshold": threshold, "estimates": estimates, "language": list(language.counts)}


def certify_smoke(size: dict) -> dict:
    engine = dejean.z4_language(size["engine"])
    w_set = dejean.compute_W(size["w_length"], engine=engine)
    entries = w_set[: size["ew_entries"]]
    report = dejean.verify_Ew(entries, engine=engine)
    hist = {f"{p},{n}": c for (p, n), c in dejean.w_breakdown(w_set).items()}
    return {"breakdown": hist, "ew_checked": len(entries),
            "ew_min_margin": min(e["margin"] for e in report.payload["entries"]),
            "binary26": 15}


def main() -> None:
    expected = {
        "certify": {
            "full": {"breakdown": {"76,77": 160, "92,93": 36, "112,114": 4},
                     "ew_checked": 200, "ew_min_margin": 11, "binary26": 15},
            "smoke": certify_smoke(workloads.CERTIFY_SIZES["smoke"]),
        },
        "count": {p: count_expectations(workloads.COUNT_SIZES[p]) for p in ("full", "smoke")},
        "scan": {"full": {}, "smoke": {}},
    }
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
