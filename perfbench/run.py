"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload certify|count|scan --seed N \
        --seconds S --trace 0|1 [--smoke]

Run from anywhere inside a checkout that has `src/dejean` and
`tests/golden/w_set.json`; the package is imported from that checkout's
`src`, never from an installed copy.  Without them the run exits with code 2
and prints no result.

--trace 0 measures the end-to-end metrics: whole passes of the workload are
repeated while the next one still fits in S seconds (at least one), and the
median pass wall time is reported.  On a paced workload (`scan`) each pass
time is first scaled to the reference host speed, sampled during the pass
by pace.py.  Set-up time is sampled in groups of fresh interpreters before
the first pass and after each pass; each sample is scaled the same way, by
the host speed measured just before and after it, and the median is
reported.
--trace 1 runs one untraced and then one traced pass and reports the
per-layer metrics of the traced one, plus the difference of the two wall
times as the tracing overhead.  Every pass is
checked; the last stdout line is
{"correct", "attempted", "failed", "metrics"}.  Details, the run environment
and the spans of a traced pass go to `.bench_results/` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_GROUP = 5

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from pace import Pace, speed  # noqa: E402
from probe import Probe, hooks  # noqa: E402


class SetupError(Exception):
    """The checkout lacks what the benchmark needs; no result is printed."""


def import_package():
    if not (SRC / "dejean" / "__init__.py").is_file():
        raise SetupError(f"no package at {SRC / 'dejean'}")
    if not (ROOT / "tests" / "golden" / "w_set.json").is_file():
        raise SetupError("no tests/golden/w_set.json in the checkout")
    sys.path.insert(0, str(SRC))
    import dejean

    if Path(dejean.__file__).resolve().parent != SRC / "dejean":
        raise SetupError(f"imported dejean from {dejean.__file__}, not the checkout")
    return dejean


def setup_seconds() -> list[tuple[float, float]]:
    """Time from interpreter start to the end of `import dejean`, in fresh
    interpreters, each with the host speed around it (pace.speed); both
    sides read the system-wide monotonic clock."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import dejean, time; print(time.monotonic())")
    out = []
    for _ in range(SETUP_GROUP):
        before = speed()
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, check=True)
        seconds = float(done.stdout.strip()) - t0
        out.append((seconds, (before + speed()) / 2))
    return out


def environment(jobs: int) -> dict:
    def read(path: Path) -> str:
        try:
            return path.read_text().strip()
        except OSError:
            return ""

    model = next((line.split(":", 1)[1].strip()
                  for line in read(Path("/proc/cpuinfo")).splitlines()
                  if line.startswith("model name")), "")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        caches[f"L{level} {kind}"] = read(index / "size")
    head = read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        head = read(ROOT / ".git" / head[5:])
    return {
        "nproc": workloads.nproc(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpu_model": model,
        "caches": caches,
        "git_commit": head or "unknown (not a git checkout)",
        "jobs": jobs,
    }


def timed_pass(d, spec: dict, inputs: dict, probe: Probe) -> tuple[float, dict, Pace]:
    gc.collect()
    with Pace(enabled=spec["paced"]) as pace:
        t0 = time.perf_counter()
        out = spec["run"](d, inputs, probe)
        wall = time.perf_counter() - t0
    return wall, out, pace


def run_checks(spec: dict, inputs: dict, out: dict, expected: dict) -> list[dict]:
    rows = []
    for name, check in spec["checks"](inputs, out, expected):
        try:
            ok, detail = check()
        except Exception as exc:  # a check that raises counts as failed
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        rows.append({"check": name, "ok": bool(ok), "detail": detail})
    for step, error in out.get("errors", {}).items():
        rows.append({"check": f"step {step}", "ok": False, "detail": error})
    return rows


def run_workload(d, name: str, seed: int, seconds: float, trace: bool,
                 profile: str = "full", expected: dict | None = None,
                 between=None) -> dict:
    """Prepare, measure and check one workload; returns the full record.
    `between`, if given, is called before the first untraced pass and after
    each one, outside the timed region."""
    spec = workloads.WORKLOADS[name]
    if expected is None:
        expected = json.loads((HERE / "expected.json").read_text())[name][profile]
    t0 = time.perf_counter()
    inputs = spec["prepare"](d, spec["sizes"][profile], seed)
    prepare_s = time.perf_counter() - t0

    record: dict = {"workload": name, "seed": seed, "profile": profile,
                    "trace": trace, "prepare_s": prepare_s, "passes": []}
    walls, scaled = [], []
    if between:
        between()
    probe = Probe(False)
    while True:
        wall, out, pace = timed_pass(d, spec, inputs, probe)
        walls.append(wall)
        scaled.append(wall * pace.factor())
        record["passes"].append({"traced": False, "wall_s": wall,
                                 "pace_factor": pace.factor(), "pace_samples": len(pace.samples),
                                 "errors": out.get("errors", {}),
                                 "checks": run_checks(spec, inputs, out, expected)})
        if between:
            between()
        if trace or sum(walls) + wall > seconds:
            break
    if trace:
        probe = Probe(True, trace_id=f"{name}-{seed}-{time.time_ns()}")
        with hooks(probe, d):
            wall, out, _ = timed_pass(d, spec, inputs, probe)
        record["passes"].append({"traced": True, "wall_s": wall,
                                 "errors": out.get("errors", {}),
                                 "checks": run_checks(spec, inputs, out, expected)})
        record["layers_s"] = workloads.layer_metrics(probe.spans, out)
        record["layers"] = as_shares(record["layers_s"], wall)
        record["layers"]["trace.wall_s"] = wall
        record["layers"]["trace.overhead_s"] = wall - walls[0]
        record["spans"] = probe
    else:
        record["wall_s"] = statistics.median(scaled)
        record["median_pass_s"] = statistics.median(walls)

    rows = [row for p in record["passes"] for row in p["checks"]]
    record["attempted"] = len(rows)
    record["failed"] = sum(not row["ok"] for row in rows)
    record["failed_share"] = record["failed"] / record["attempted"]
    return record


def as_shares(layers: dict, wall: float) -> dict:
    """Replace each layer time `x_s` by `x_pct`, its share of the pass wall
    time, so a layer a workload never enters reads 0 % rather than 0 s."""
    out = {}
    for name, value in layers.items():
        if name.endswith("_s") and not name.endswith("_per_s"):
            out[name[:-2] + "_pct"] = 100.0 * value / wall
        else:
            out[name] = value
    return out


def unit_of(metric: str) -> str:
    for suffix, unit in (("_pct", "%"), ("_per_s", "1/s"), ("_s", "s")):
        if metric.endswith(suffix):
            return unit
    return "letters" if ".z4_cutoff_used." in metric else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for a quick check")
    args = ap.parse_args(argv)
    try:
        d = import_package()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    profile = "smoke" if args.smoke else "full"
    spec = workloads.WORKLOADS[args.workload]
    setup: list[tuple[float, float]] = []
    record = run_workload(d, args.workload, args.seed, args.seconds, bool(args.trace), profile,
                          between=None if args.trace else lambda: setup.extend(setup_seconds()))
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record["environment"] = environment(spec["jobs"])
    record["setup_samples"] = [{"wall_s": s, "pace_factor": f} for s, f in setup]

    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in record["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": record["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(s * f for s, f in setup), "unit": "s"},
            "peak_rss_mb": {"value": max(self_kb, child_kb) / 1024, "unit": "MB"},
        }
    record["metrics"] = metrics

    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-{profile}-seed{args.seed}-trace{args.trace}"
    probe = record.pop("spans", None)
    if probe is not None:
        probe.write(out_dir / f"{stem}.spans.jsonl")
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    failed = [row for p in record["passes"] for row in p["checks"] if not row["ok"]]
    for row in failed:
        last_line = str(row["detail"]).strip().splitlines()[-1:] or [""]
        print(f"FAILED {row['check']}: {last_line[0]}")
    print(f"failed_share {record['failed_share']} ({record['failed']}/{record['attempted']}),"
          f" details in {out_dir.name}/{stem}.json")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
