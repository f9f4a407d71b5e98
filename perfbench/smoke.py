"""Quick self-check of the benchmark at tiny sizes (about a minute).

    python3 perfbench/smoke.py

1. Runs every workload through run.py with --smoke, untraced and traced, and
   requires a correct result carrying exactly the metrics BENCHMARK.json names,
   and a spans file from each traced run.
2. Runs the certify and count checks against a deliberately wrong expected
   value, which must count as failed.
3. Runs run.py in a copy holding only BENCHMARK.json and perfbench/, where it
   must exit non-zero without printing a result.

Exits 0 when every case holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_results"
sys.path.insert(0, str(HERE))
import run  # noqa: E402


def run_py(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"] for m in bench["end_to_end"]},
              1: {m["name"] for m in bench["per_layer"]}}
    problems = []

    for w in bench["workloads"]:
        for trace in (0, 1):
            args = ("--workload", w["name"], "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--smoke")
            done = run_py(ROOT, *args)
            label = f"{w['name']} trace {trace}"
            try:
                result = json.loads(done.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: no result line; stderr {done.stderr[-500:]}")
                continue
            if done.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{label}: {done.stdout[-500:]}")
            if set(result["metrics"]) != wanted[trace]:
                problems.append(f"{label}: metrics {sorted(set(result['metrics']) ^ wanted[trace])}")
            if trace:
                spans = RESULTS / f"{w['name']}-smoke-seed7-trace1.spans.jsonl"
                rows = [json.loads(line) for line in spans.read_text().splitlines()]
                if not rows or not all({"trace", "id", "parent", "name", "start", "end"} <= set(r)
                                       for r in rows):
                    problems.append(f"{label}: malformed spans in {spans.name}")

    d = run.import_package()
    expected = json.loads((HERE / "expected.json").read_text())
    wrong = copy.deepcopy(expected["certify"]["smoke"])
    wrong["binary26"] = 14
    wrong_count = copy.deepcopy(expected["count"]["smoke"])
    wrong_count["language"][-1] += 1
    for name, exp, check in (("certify", wrong, "binary26"),
                             ("count", wrong_count, "count_language")):
        record = run.run_workload(d, name, 7, 0, False, "smoke", expected=exp)
        failed = {row["check"] for p in record["passes"] for row in p["checks"] if not row["ok"]}
        if failed != {check}:
            problems.append(f"wrong expected value for {name}: failed checks {sorted(failed)}")

    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run_py(Path(bare), "--workload", "scan", "--seed", "1", "--seconds", "1",
                      "--trace", "0")
        if done.returncode == 0 or done.stdout.strip():
            problems.append(f"bare copy: exit {done.returncode}, stdout {done.stdout[-300:]}")

    for p in problems:
        print("PROBLEM", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
