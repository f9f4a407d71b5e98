"""The three workloads: their inputs, one timed pass, and the result checks.

Each workload has two size profiles.  `full` is what the benchmark measures;
`smoke` runs the same calls and checks at sizes that finish in seconds.

    prepare(d, size, seed)      -> inputs   (seeded, outside any timed region)
    run_pass(d, inputs, probe)  -> results  (the timed region)
    checks(inputs, results, expected) -> [(name, thunk)], each thunk returning
                                   (ok, detail); one that raises counts failed

`d` is the imported `dejean` package.  A step that raises inside a pass is
recorded under results["errors"] and every check that needs its result fails.
"""

from __future__ import annotations

import json
import os
import random
import traceback
from fractions import Fraction
from pathlib import Path

import oracles
from probe import TimedEngine

# repetition thresholds RT(n) restated here so checks do not trust the library
THRESHOLD = {3: (7, 4), 4: (7, 5), 5: (5, 4), 6: (6, 5)}
PIPELINE_ORDER = 33
PIPELINE_TABLE_SEED = 0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _step(out: dict, key: str, fn) -> None:
    try:
        out[key] = fn()
    except Exception:  # recorded; the checks on this step then fail
        out.setdefault("errors", {})[key] = traceback.format_exc()


# ------------------------------------------------------------------ certify

CERTIFY_SIZES = {
    "full": {"engine": 157, "w_length": 155, "ew_entries": None, "elimination": 130},
    "smoke": {"engine": 80, "w_length": 78, "ew_entries": 4, "elimination": 40},
}


def certify_prepare(d, size: dict, seed: int) -> dict:
    golden = json.loads((Path(d.__file__).parents[2] / "tests/golden/w_set.json").read_text())
    w_set = [
        (e["word"], e["kernel_period"])
        for e in golden["entries"]
        if len(e["word"]) <= size["w_length"]
    ]
    return {"size": size, "golden": w_set}


def certify_pass(d, inputs: dict, probe) -> dict:
    size = inputs["size"]
    c, v = d.constructions, d.verifier
    c._Z4_CACHE.clear()  # every pass starts from an empty engine cache
    out: dict = {}
    _step(out, "engine", lambda: probe.call(
        "constructions.z4_language", c.z4_language, size["engine"]))
    engine = out.get("engine")
    probed = TimedEngine(engine, probe) if probe.enabled else engine
    cutoff = {"cutoff_used": getattr(engine, "max_factor_length", 0)}
    _step(out, "w", lambda: probe.call(
        "verifier.compute_W", v.compute_W, size["w_length"], engine=probed, attrs=cutoff))
    _step(out, "ew", lambda: probe.call(
        "verifier.verify_Ew", v.verify_Ew, out["w"][: size["ew_entries"]],
        engine=probed, attrs=cutoff))
    _step(out, "elimination", lambda: probe.call(
        "verifier.verify_short_elimination", v.verify_short_elimination, size["elimination"]))
    _step(out, "binary26", lambda: probe.call(
        "verifier.binary_avoidance_longest", v.binary_avoidance_longest, 26))
    return out


def certify_checks(inputs: dict, out: dict, expected: dict) -> list:
    golden = inputs["golden"]

    def w_set():
        got = [(r.word, r.kernel_period) for r in out["w"]]
        return got == golden, f"{len(got)} entries, golden has {len(golden)}"

    def breakdown():
        hist: dict = {}
        for r in out["w"]:
            key = f"{r.kernel_period},{len(r.word)}"
            hist[key] = hist.get(key, 0) + 1
        return hist == expected["breakdown"], f"breakdown {hist}"

    def ew():
        p = out["ew"].payload
        margin = min((e["margin"] for e in p["entries"]), default=None)
        ok = (out["ew"].status == "pass" and p["checked"] == expected["ew_checked"]
              and margin == expected["ew_min_margin"])
        return ok, f"{out['ew'].status}, {p['checked']} checked, min margin {margin}"

    def elimination():
        r = out["elimination"]
        return (r.status == "pass" and not r.payload["violations"],
                f"{r.status}, {len(r.payload['violations'])} violations")

    def binary26():
        length, witness = out["binary26"]
        ok = (length == expected["binary26"] and len(witness) == length
              and set(witness) <= {"1", "2"}
              and oracles.psi_kernel_repetition_free(witness, 26))
        return ok, f"length {length}, witness {witness}"

    return [("w_set", w_set), ("w_breakdown", breakdown), ("ew", ew),
            ("elimination", elimination), ("binary26", binary26)]


# ------------------------------------------------------------------ count

COUNT_SIZES = {
    "full": {"tables": [[3, 28], [4, 34], [6, 36]], "language": 36,
             "brute": {"3": 14, "4": 12, "6": 8}},
    "smoke": {"tables": [[3, 12], [4, 12], [6, 9]], "language": 12,
              "brute": {"3": 10, "4": 8, "6": 7}},
}


def count_prepare(d, size: dict, seed: int) -> dict:
    brute = {
        n: oracles.brute_threshold_counts(int(n), length, *THRESHOLD[int(n)])
        for n, length in size["brute"].items()
    }
    return {"size": size, "brute": brute, "jobs": nproc()}


def count_pass(d, inputs: dict, probe) -> dict:
    size, jobs = inputs["size"], inputs["jobs"]
    g, c = d.growth, d.constructions
    c._Z4_CACHE.clear()
    out: dict = {"tables": {}, "estimates": {}}
    for n, length in size["tables"]:
        key = f"{n},{length}"
        _step(out["tables"], key, lambda: probe.call(
            "growth.count_threshold_words", g.count_threshold_words, n, length,
            symmetry=True, jobs=jobs, attrs={"n": n, "symmetry": True}))
        _step(out["estimates"], key, lambda: probe.call(
            "growth.growth_estimate", g.growth_estimate, out["tables"][key]))
    length = size["language"]
    _step(out, "engine", lambda: probe.call(
        "constructions.z4_language", c.z4_language, length))
    engine = out.get("engine")
    _step(out, "language", lambda: probe.call(
        "growth.count_language", g.count_language,
        (TimedEngine(engine, probe) if probe.enabled else engine).is_factor, 4, length,
        prefix_closed=True, attrs={"cutoff_used": engine.max_factor_length}))
    return out


def count_checks(inputs: dict, out: dict, expected: dict) -> list:
    checks = []
    for n, length in inputs["size"]["tables"]:
        key = f"{n},{length}"

        def frozen(key=key):
            t = out["tables"][key]
            return (list(t.counts) == expected["threshold"][key] and t.truncated_at is None,
                    f"{key}: last count {t.counts[-1]}")

        def brute(key=key, n=str(n)):
            want = inputs["brute"][n]
            got = list(out["tables"][key].counts[: len(want)])
            return got == want, f"{key}: first {len(want)} counts {got}"

        def estimate(key=key):
            got = json.loads(json.dumps(out["estimates"][key]))
            return got == expected["estimates"][key], f"{key}: {got['last_kth_root']}"

        checks += [(f"threshold {key}", frozen), (f"brute {key}", brute),
                   (f"estimate {key}", estimate)]

    def language():
        got = list(out["language"].counts)
        return got == expected["language"], f"last count {got[-1]}"

    return checks + [("count_language", language)]


# ------------------------------------------------------------------ scan

SCAN_SIZES = {
    "full": {"word": 700, "planted_tail": 35, "pipeline_sample": 64,
             "zm_length": 8192, "zm_samples": 10},
    "smoke": {"word": 60, "planted_tail": 5, "pipeline_sample": 4,
              "zm_length": 512, "zm_samples": 2},
}


def scan_prepare(d, size: dict, seed: int) -> dict:
    rng = random.Random(seed)
    words = {}
    for n in (3, 4, 5):
        num, den = THRESHOLD[n]
        word = oracles.threshold_word(n, size["word"], num, den, rng)
        planted, j = oracles.planted_copy(word, rng, size["planted_tail"])
        code = oracles.pansiot_code(word, n)
        words[n] = {
            "word": word,
            "planted": planted,
            "planted_start": oracles.leftmost_violation_start(planted, j, num, den),
            "code": code,
            # gamma(code) renames word[n-1:], so a blocking factor exists
            # exactly when that suffix has an exponent above n/(n-1)
            "code_blocked": oracles.has_exponent_above(word[n - 1 :], n, n - 1),
        }
    table_rng = random.Random(PIPELINE_TABLE_SEED)
    p = d.params(PIPELINE_ORDER)
    table = d.carpi.make_table(PIPELINE_ORDER, {
        a: "".join(table_rng.choice("01") for _ in range(p.image_length))
        for a in range(1, p.m + 1)
    })
    sample = d.zm_samples(p.m, size["pipeline_sample"], 1, seed=rng.randrange(2**32))[0]
    image = d.apply_morphism(table, sample)
    zm = d.zm_samples(5, size["zm_length"], size["zm_samples"], seed=rng.randrange(2**32))
    return {
        "size": size,
        "words": words,
        "table": table,
        "sample": sample,
        "image": image,
        "image_gamma": oracles.gamma_letters(PIPELINE_ORDER, image.letters),
        "zm": zm,
        "zm_kernel_pairs": [oracles.kernel_pair_count(z) for z in zm],
    }


def scan_pass(d, inputs: dict, probe) -> dict:
    out: dict = {}
    scan = d.find_forbidden_factor
    for n, w in inputs["words"].items():
        r = Fraction(*THRESHOLD[n])
        for kind in ("word", "planted"):
            _step(out, f"{kind} {n}", lambda: probe.call(
                "core_words.find_forbidden_factor", scan, w[kind], r, True,
                attrs={"letters": len(w[kind])}))

    def pipeline():
        try:
            d.threshold_pipeline(inputs["table"], inputs["sample"], verify=True)
        except d.PipelineError as exc:
            return exc.stage, exc.report
        return "clean", None

    image = inputs["image"]
    _step(out, "pipeline", lambda: probe.call(
        "carpi.threshold_pipeline", pipeline, attrs={"output_letters": len(image)}))
    _step(out, "gamma", lambda: probe.call("pansiot.gamma", d.gamma, PIPELINE_ORDER, image))
    for n, w in inputs["words"].items():
        _step(out, f"prop32 {n}", lambda: probe.call(
            "pansiot.scan_prop32", d.scan_prop32, n, w["code"]))
    _step(out, "prop32 image", lambda: probe.call(
        "pansiot.scan_prop32", d.scan_prop32, PIPELINE_ORDER, image))
    _step(out, "prop7", lambda: probe.call(
        "verifier.check_prop7_desk", d.check_prop7_desk, 5, PIPELINE_ORDER,
        words=inputs["zm"]))
    _step(out, "lemma6", lambda: [
        probe.call("verifier.check_lemma6", d.check_lemma6, 5, z) for z in inputs["zm"]])
    return out


def scan_checks(inputs: dict, out: dict, expected: dict) -> list:
    checks = []
    for n, w in inputs["words"].items():
        num, den = THRESHOLD[n]

        def clean(n=n):
            rep = out[f"word {n}"]
            return rep is None, f"n={n}: {rep}"

        def planted(n=n, w=w, num=num, den=den):
            rep = out[f"planted {n}"]
            ok = (rep is not None and rep.start == w["planted_start"]
                  and oracles.period_holds(w["planted"], rep.start - 1, rep.length, rep.period)
                  and rep.length * den > num * rep.period)
            return ok, f"n={n}: expected start {w['planted_start']}, got {rep}"

        def prop32(n=n, w=w):
            rep = out[f"prop32 {n}"]
            ok = (rep is not None) == w["code_blocked"] and (
                rep is None or oracles.prop32_report_holds(n, w["code"], rep))
            return ok, f"n={n}: blocked={w['code_blocked']}, got {rep}"

        checks += [(f"clean {n}", clean), (f"planted {n}", planted), (f"prop32 {n}", prop32)]

    def pipeline():
        stage, rep = out["pipeline"]
        s = inputs["image_gamma"]
        ok = (stage == "output" and oracles.period_holds(s, rep.start - 1, rep.length, rep.period)
              and rep.length * (PIPELINE_ORDER - 1) > PIPELINE_ORDER * rep.period)
        return ok, f"stage {stage}, {rep}"

    def gamma():
        return list(out["gamma"].letters) == inputs["image_gamma"], f"{len(out['gamma'])} letters"

    def prop32_image():
        rep = out["prop32 image"]
        code = inputs["image"].letters
        return (rep is not None and oracles.prop32_report_holds(PIPELINE_ORDER, code, rep),
                f"{rep}")

    def prop7():
        r = out["prop7"]
        return (r.status == "pass" and r.payload["samples"] == len(inputs["zm"]),
                f"{r.status}, {r.payload['samples']} samples")

    def lemma6():
        reports = out["lemma6"]
        ok = all(
            r.status == "pass" and r.payload["kernel_factors"] == pairs
            and all(ln % 256 == 0 for ln in r.payload["kernel_lengths"])
            for r, pairs in zip(reports, inputs["zm_kernel_pairs"])
        ) and len(reports) == len(inputs["zm"])
        return ok, f"{sum(r.payload['kernel_factors'] for r in reports)} kernel factors"

    return checks + [("pipeline", pipeline), ("gamma", gamma),
                     ("prop32 image", prop32_image), ("prop7", prop7), ("lemma6", lemma6)]


WORKLOADS = {
    "certify": {"sizes": CERTIFY_SIZES, "prepare": certify_prepare, "run": certify_pass,
                "checks": certify_checks, "jobs": 1, "paced": False},
    "count": {"sizes": COUNT_SIZES, "prepare": count_prepare, "run": count_pass,
              "checks": count_checks, "jobs": nproc(), "paced": False},
    "scan": {"sizes": SCAN_SIZES, "prepare": scan_prepare, "run": scan_pass,
             "checks": scan_checks, "jobs": 1, "paced": True},
}


# ------------------------------------------------------------------ layers

def layer_metrics(spans: list, out: dict) -> dict:
    """Per-layer figures of one traced pass, times in seconds.  A layer the
    workload never enters reads 0."""
    names = {s["id"]: s["name"] for s in spans}

    def select(name, parent=None):
        return [s for s in spans if s["name"] == name
                and (parent is None or names.get(s["parent"]) == parent)]

    def seconds(name, parent=None):
        return sum(s["end"] - s["start"] for s in select(name, parent))

    def total(name, key):
        return sum(s.get(key, 0) for s in select(name))

    def cutoff(name):
        return max((s.get("cutoff_used", 0) for s in select(name)), default=0)

    def payload(key, field, per_entry=None):
        r = out.get(key)
        if r is None:
            return 0
        if per_entry:
            return sum(e[per_entry] for e in r.payload[field])
        return r.payload[field]

    threshold_s = seconds("growth.count_threshold_words")
    candidates = total("growth.count_threshold_words", "candidates")
    # letters and rate count the whole-word scans the benchmark makes; the
    # pipeline's own output scan stops at its first finding
    whole = [s for s in select("core_words.find_forbidden_factor") if s["parent"] is None]
    whole_s = sum(s["end"] - s["start"] for s in whole)
    letters = sum(s["letters"] for s in whole)
    lemma6 = out.get("lemma6") or []
    return {
        "constructions.z4_build_s": seconds("constructions.Z4Language"),
        "constructions.z4_pieces": total("constructions.Z4Language", "pieces"),
        "constructions.z4_cutoff_used.compute_W": cutoff("verifier.compute_W"),
        "constructions.z4_cutoff_used.verify_Ew": cutoff("verifier.verify_Ew"),
        "constructions.z4_cutoff_used.short_elimination":
            cutoff("verifier.verify_short_elimination"),
        "constructions.z4_cutoff_used.count_language": cutoff("growth.count_language"),
        "constructions.is_factor_calls": sum(s.get("is_factor_calls", 0) for s in spans),
        "constructions.is_factor_s": sum(s.get("is_factor_s", 0) for s in spans),
        "verifier.w_scan_s": seconds("util.parallel_map", "verifier.compute_W"),
        "verifier.w_probe_s": total("verifier.compute_W", "is_factor_s"),
        "verifier.ew_probe_s": total("verifier.verify_Ew", "is_factor_s"),
        "verifier.ew_scan_s": seconds("util.parallel_map", "verifier.verify_Ew"),
        "verifier.ew_contexts": payload("ew", "entries", "contexts"),
        "verifier.elimination_s": seconds("verifier.verify_short_elimination"),
        "verifier.elimination_pieces": payload("elimination", "pieces_scanned"),
        "verifier.binary26_s": seconds("verifier.binary_avoidance_longest"),
        "verifier.prop7_s": seconds("verifier.check_prop7_desk"),
        "verifier.lemma6_s": seconds("verifier.check_lemma6"),
        "verifier.lemma6_kernel_factors": sum(r.payload["kernel_factors"] for r in lemma6),
        "growth.count_threshold_s": threshold_s,
        "growth.candidates": candidates,
        "growth.candidates_per_s": candidates / threshold_s if threshold_s else 0.0,
        "growth.count_language_s": seconds("growth.count_language"),
        "core_words.forbidden_scan_s": seconds("core_words.find_forbidden_factor"),
        "core_words.letters_scanned": letters,
        "core_words.letters_per_s": letters / whole_s if whole_s else 0.0,
        "carpi.pipeline_verify_s": seconds("carpi.threshold_pipeline"),
        "carpi.pipeline_output_letters": total("carpi.threshold_pipeline", "output_letters"),
        "pansiot.gamma_s": seconds("pansiot.gamma"),
        "pansiot.scan_prop32_s": seconds("pansiot.scan_prop32"),
        "util.parallel_map_s": seconds("util.parallel_map"),
        "util.parallel_map_calls": len(select("util.parallel_map")),
    }
