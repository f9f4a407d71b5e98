"""End-to-end tests of the command line interface.

Each invocation goes through main() with stdout captured; a few run as real
subprocesses to pin byte-level determinism of the printed document.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dejean
from dejean.cli import EXIT_CODES, main
from dejean.constructions import zm_is_member
from dejean.growth import count_language, growth_estimate

SRC = str(Path(dejean.__file__).resolve().parents[1])

T3_COUNTS = [3, 6, 12, 18, 30, 42, 60, 78, 108, 144, 186, 240]


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_doc(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    doc = json.loads(out)
    assert doc["schema"] == 1
    return code, doc


def test_rt(capsys):
    code, doc = run_doc(capsys, "rt", "--n", "30")
    assert code == 0
    assert doc["command"] == "rt"
    assert doc["status"] == "info"
    assert doc["payload"]["threshold"] == "30/29"


def test_rt_small_alphabets(capsys):
    assert run_doc(capsys, "rt", "--n", "2")[1]["payload"]["threshold"] == "2/1"
    assert run_doc(capsys, "rt", "--n", "3")[1]["payload"]["threshold"] == "7/4"
    assert run_doc(capsys, "rt", "--n", "4")[1]["payload"]["threshold"] == "7/5"


def test_rt_domain_error_fails(capsys):
    code, doc = run_doc(capsys, "rt", "--n", "1")
    assert code == 1
    assert doc["status"] == "fail"
    assert "error" in doc["payload"]


def test_check_free_word_passes(capsys):
    code, doc = run_doc(
        capsys, "check", "--r", "7/4", "--strict", "--word", "123", "--alphabet", "3"
    )
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["payload"]["free"] is True


def test_check_square_fails_with_report(capsys):
    code, doc = run_doc(
        capsys, "check", "--r", "7/4", "--strict", "--word", "1212", "--alphabet", "3"
    )
    assert code == 1
    assert doc["status"] == "fail"
    report = doc["payload"]["report"]
    assert report["period"] == 2
    assert report["exponent"] == "2/1"


def test_gamma(capsys):
    code, doc = run_doc(capsys, "gamma", "--n", "5", "--binary", "0101")
    assert code == 0
    assert doc["payload"]["word"] == "4523"
    assert doc["payload"]["length"] == 4


def test_scan_pansiot_clean_and_dirty(capsys):
    code, doc = run_doc(capsys, "scan-pansiot", "--n", "5", "--binary", "0110")
    assert (code, doc["status"]) == (0, "pass")
    assert doc["payload"]["clean"] is True
    code, doc = run_doc(capsys, "scan-pansiot", "--n", "5", "--binary", "00000")
    assert (code, doc["status"]) == (1, "fail")
    assert doc["payload"]["report"]["kind"] == "stabilizing"



def _pansiot_doc(command, status, payload):
    return json.dumps({"command": command, "payload": payload, "schema": 1, "status": status},
                      sort_keys=True, indent=2) + "\n"


def _code_error(command):
    return _pansiot_doc(command, "fail", {"error": "encoding needs n >= 2"})


# the printed bytes and exit code of gamma and scan-pansiot: the README
# examples, the smallest order, the tuple walk above 255, and n < 2
PANSIOT_DOCUMENTS = [
    (["gamma", "--n", "5", "--binary", "0101"], 0, _pansiot_doc(
        "gamma", "info", {"binary": "0101", "length": 4, "n": 5, "word": "4523"})),
    (["scan-pansiot", "--n", "5", "--binary", "00000"], 1, _pansiot_doc(
        "scan-pansiot", "fail", {"binary": "00000", "clean": False, "n": 5, "report": {
            "exponent": "4/1", "k": 4, "kind": "stabilizing", "length": 4, "period": 1,
            "start": 1}})),
    (["gamma", "--n", "2", "--binary", "00"], 0, _pansiot_doc(
        "gamma", "info", {"binary": "00", "length": 2, "n": 2, "word": "11"})),
    (["scan-pansiot", "--n", "2", "--binary", "00"], 1, _pansiot_doc(
        "scan-pansiot", "fail", {"binary": "00", "clean": False, "n": 2, "report": {
            "exponent": "2/1", "kind": "kernel", "length": 2, "period": 1, "start": 1}})),
    (["gamma", "--n", "256", "--binary", "1"], 0, _pansiot_doc(
        "gamma", "info", {"binary": "1", "length": 1, "n": 256, "word": "256"})),
    (["scan-pansiot", "--n", "256", "--binary", "1"], 0, _pansiot_doc(
        "scan-pansiot", "pass", {"binary": "1", "clean": True, "n": 256})),
    (["gamma", "--n", "300", "--binary", "0110"], 0, _pansiot_doc(
        "gamma", "info", {"binary": "0110", "length": 4, "n": 300,
                          "word": "299,300,298,296"})),
    (["scan-pansiot", "--n", "300", "--binary", "0110"], 0, _pansiot_doc(
        "scan-pansiot", "pass", {"binary": "0110", "clean": True, "n": 300})),
    (["gamma", "--n", "1", "--binary", ""], 1, _code_error("gamma")),
    (["gamma", "--n", "0", "--binary", ""], 1, _code_error("gamma")),
    (["scan-pansiot", "--n", "0", "--binary", ""], 1, _code_error("scan-pansiot")),
    (["scan-pansiot", "--n", "1", "--binary", ""], 1, _code_error("scan-pansiot")),
]


@pytest.mark.parametrize("argv, code, out", PANSIOT_DOCUMENTS,
                         ids=[" ".join(a) for a, _, _ in PANSIOT_DOCUMENTS])
def test_pansiot_documents_are_pinned(capsys, argv, code, out):
    assert run_cli(capsys, *argv) == (code, out)

def test_gen_beta(capsys):
    code, doc = run_doc(capsys, "gen", "beta", "--k", "12")
    assert code == 0
    assert doc["payload"]["words"] == ["121122121121"]


def test_gen_beta_plain(capsys):
    code, out = run_cli(capsys, "gen", "beta", "--k", "12", "--plain")
    assert code == 0
    assert out == "121122121121\n"


def test_gen_alpha(capsys):
    code, doc = run_doc(capsys, "gen", "alpha", "--m", "5", "--k", "8")
    assert code == 0
    assert len(doc["payload"]["words"][0]) == 8
    # the letter 10 at position 4^8 has no one-digit form
    code, doc = run_doc(capsys, "gen", "alpha", "--m", "10", "--k", "65536")
    assert code == 1
    assert doc["status"] == "fail"
    assert "one digit" in doc["payload"]["error"]


def test_gen_zm_limit(capsys):
    code, doc = run_doc(capsys, "gen", "zm", "--m", "5", "--k", "10", "--limit", "3")
    assert code == 0
    words = doc["payload"]["words"]
    assert len(words) == 3
    assert words == sorted(words)


def test_gen_zm_refuses_to_list_past_the_cap(capsys):
    # 2^50 members at k = 200: one fail document, not an endless listing
    code, doc = run_doc(capsys, "gen", "zm", "--m", "5", "--k", "200")
    assert (code, doc["status"]) == (1, "fail")
    assert "without a limit" in doc["payload"]["error"]
    code, doc = run_doc(capsys, "gen", "zm", "--m", "5", "--k", "200", "--limit", "3")
    assert code == 0
    assert doc["payload"]["count"] == 3
    assert all(zm_is_member(5, w) and len(w) == 200 for w in doc["payload"]["words"])


def test_gen_z4(capsys):
    code, doc = run_doc(capsys, "gen", "z4", "--length", "3")
    assert code == 0
    assert doc["payload"]["count"] == 15


def test_count_threshold_json(capsys):
    code, doc = run_doc(capsys, "count", "threshold", "--n", "3", "--k", "12")
    assert code == 0
    assert doc["payload"]["counts"] == T3_COUNTS
    assert doc["payload"]["estimate"]["fekete_violations"] == []


def test_count_zm_csv(capsys):
    code, out = run_cli(capsys, "count", "zm", "--m", "5", "--k", "8", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,count,ratio,kth_root"
    assert lines[-1] == "8,4,,1.189207"


@pytest.mark.parametrize(
    "m, k",
    [(4, 24), (5, 24), (9, 17), (5, 1), (5, 0), (3, 0),
     (0, 5), (-2, 0), (2, 3), (3, 1), (5, -1), (3, -1)],
)
def test_count_zm_matches_enumeration(capsys, m, k):
    # the closed form prints the document, or the error, of enumerating Z_m
    try:
        table = count_language(lambda w: zm_is_member(m, w), m, k, prefix_closed=True,
                               name=f"zm-{m}", parameters={"m": m})
    except ValueError as err:
        status, payload = "fail", {"error": str(err)}
    else:
        status, payload = "info", table.to_payload()
        if table.counts:
            payload["estimate"] = growth_estimate(table)
    code, doc = run_doc(capsys, "count", "zm", "--m", str(m), "--k", str(k))
    assert (doc["status"], doc["payload"]) == (status, payload)
    assert code == EXIT_CODES[status]


def test_count_zm_long_lengths_finish_at_once(capsys):
    t0 = time.monotonic()
    code, doc = run_doc(capsys, "count", "zm", "--m", "5", "--k", "200")
    assert time.monotonic() - t0 < 1.0
    assert code == 0
    assert doc["payload"]["counts"][-1] == 2**50


def test_count_z4(capsys):
    code, doc = run_doc(capsys, "count", "z4", "--k", "8")
    assert code == 0
    assert doc["payload"]["counts"] == [4, 9, 15, 21, 27, 33, 40, 48]


def test_lower_bound(capsys):
    code, doc = run_doc(capsys, "lower-bound", "--n", "33", "--k", "2176")
    assert code == 0
    assert doc["payload"]["base"] == 2
    assert doc["payload"]["divisor"] == 2176
    assert doc["payload"]["value"] == "2.000000"
    code, doc = run_doc(capsys, "lower-bound", "--n", "26", "--k", "10")
    assert (code, doc["status"]) == (1, "fail")


def test_verify_binary26(capsys):
    code, doc = run_doc(capsys, "verify", "binary26")
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["payload"]["length"] == 15
    assert doc["payload"]["witness"] == "111211121112111"


def test_verify_binary26_other_order_is_info(capsys):
    code, doc = run_doc(capsys, "verify", "binary26", "--n", "30")
    assert code == 0
    assert doc["status"] == "info"


def test_verify_lemma6(capsys):
    code, doc = run_doc(
        capsys, "verify", "lemma6", "--samples", "3", "--length", "512"
    )
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["payload"]["modulus"] == 256
    assert all(v % 256 == 0 for v in doc["payload"]["kernel_lengths"])


def test_verify_prop7_desk(capsys):
    code, doc = run_doc(
        capsys, "verify", "prop7-desk", "--samples", "3", "--length", "512"
    )
    assert code == 0
    assert doc["status"] == "pass"


def test_verify_elimination_reduced(capsys):
    code, doc = run_doc(capsys, "verify", "elimination", "--max-length", "40")
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["payload"]["violations"] == []


def test_verify_w_set_reduced_is_info(capsys):
    code, doc = run_doc(
        capsys, "verify", "w-set", "--max-length", "64", "--no-bound-filter"
    )
    assert code == 0
    assert doc["status"] == "info"
    assert doc["payload"]["count"] == 20
    assert doc["payload"]["breakdown"] == [
        {"kernel_period": 64, "length": 64, "count": 20}
    ]


def test_verify_n26_stab_unavailable(capsys):
    code, doc = run_doc(capsys, "verify", "n26-stab")
    assert code == 3
    assert doc["status"] == "unavailable"


def test_pipeline_round_trip(tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"n": 9, "m": 1, "images": {"1": "0" * 40}}))
    code, doc = run_doc(
        capsys, "pipeline", "--table", str(table), "--word", "1"
    )
    assert code == 0
    assert doc["status"] == "info"
    assert doc["payload"]["output_length"] == 40
    code, doc = run_doc(
        capsys, "pipeline", "--table", str(table), "--word", "1", "--verify"
    )
    assert code == 1
    assert doc["payload"]["stage"] == "output"


def test_pipeline_missing_table_file(tmp_path, capsys):
    code, doc = run_doc(
        capsys, "pipeline", "--table", str(tmp_path / "nope.json"), "--word", "1"
    )
    assert code == 1
    assert doc["status"] == "fail"


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rt"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "binary26", "--depth-cap", "5"],
        ["verify", "binary26", "--depth-cap", "0"],
        ["verify", "binary26", "--depth-cap", "-3"],
        ["check", "--r", "1/0", "--word", "121", "--alphabet", "3"],
        ["gen", "z4", "--length", "3", "--limit", "-1"],
        ["gen", "zm", "--m", "5", "--k", "10", "--limit", "-1"],
        ["verify", "w-set", "--max-length", "-1"],
        ["verify", "ew", "--max-length", "0"],
        ["verify", "elimination", "--max-length", "-5"],
    ],
    ids=[
        "depth-cap-reached",
        "depth-cap-zero",
        "depth-cap-negative",
        "zero-denominator",
        "gen-z4-negative-limit",
        "gen-zm-negative-limit",
        "w-set-negative-length",
        "ew-zero-length",
        "elimination-negative-length",
    ],
)
def test_bad_input_fails_with_one_document(capsys, argv):
    code, doc = run_doc(capsys, *argv)
    assert (code, doc["status"]) == (1, "fail")
    assert "error" in doc["payload"]


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--jobs", ["verify", "ew", "--max-length", "20", "--jobs", "0"]),
        ("--jobs", ["count", "threshold", "--n", "3", "--k", "5", "--jobs", "-1"]),
        ("--jobs", ["verify", "w-set", "--max-length", "20", "--jobs", "2"]),
        ("--jobs", ["verify", "elimination", "--max-length", "20", "--jobs", "2"]),
        ("--samples", ["verify", "lemma6", "--samples", "0"]),
        ("--samples", ["verify", "prop7-desk", "--samples", "-2"]),
        ("--length", ["verify", "lemma6", "--length", "0"]),
        ("--length", ["verify", "prop7-desk", "--length", "-1"]),
        ("--budget", ["count", "threshold", "--n", "3", "--k", "5", "--budget", "-5"]),
    ],
    ids=[
        "ew-zero-jobs",
        "count-negative-jobs",
        "w-set-jobs",
        "elimination-jobs",
        "lemma6-zero-samples",
        "prop7-negative-samples",
        "lemma6-zero-length",
        "prop7-negative-length",
        "count-negative-budget",
    ],
)
def test_bad_flag_is_one_usage_document(capsys, flag, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "usage"
    assert flag in doc["payload"]["error"]


def test_zero_budget_is_a_truncated_table(capsys):
    code, doc = run_doc(capsys, "count", "threshold", "--n", "3", "--k", "5",
                        "--budget", "0")
    assert (code, doc["status"]) == (0, "info")
    assert doc["payload"]["counts"] == []
    assert doc["payload"]["truncated_at"] == 1


def _run_subprocess(*argv):
    # the child imports the same package as the tests, with or without
    # PYTHONPATH set by the caller
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "dejean.cli", *argv],
        capture_output=True,
        env=env,
    )


def test_output_bytes_deterministic():
    a = _run_subprocess("count", "threshold", "--n", "3", "--k", "10")
    b = _run_subprocess("count", "threshold", "--n", "3", "--k", "10")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_jobs_flag_never_changes_bytes():
    # E_w fans out over the 160 entries of the W set up to length 80
    a = _run_subprocess("verify", "ew", "--max-length", "80", "--jobs", "1")
    b = _run_subprocess("verify", "ew", "--max-length", "80", "--jobs", "3")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_jobs_flag_never_changes_count_bytes():
    # the frontier is split into worker shards at length 28 of (3, 37) and
    # at length 26 of (3, 42), the first whose cost times the lengths to go
    # reaches SPLIT_WORK; the budget 136748 is one short of the cumulative
    # cost of length 36, and with --jobs 3 each shard overruns what is left
    # of it only at length 41, so the cut comes from the summed shard costs
    cases = (("37", [], None), ("42", ["--budget", "136748"], 36))
    for k, extra, truncated_at in cases:
        base = ["count", "threshold", "--n", "3", "--k", k, "--symmetry", *extra]
        a = _run_subprocess(*base, "--jobs", "1")
        b = _run_subprocess(*base, "--jobs", "3")
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0
        assert json.loads(a.stdout)["payload"]["truncated_at"] == truncated_at


# ---------------------------------------------------------------- contract

INTS = ["-1", "0", "1", "2", "3", "4", "5", "7", "9", "x"]
SMALL = ["-1", "0", "1", "2", "3", "x"]
JOBS = ["-1", "0", "1", "2", "3", "x"]
RATIOS = ["7/4", "2", "1/0", "0/1", "-1/2", "3/", "a/b", ""]
WORDS = ["121", "1212", "", "12a", "5", "0101"]
MISSING = "no-such-dir/table.json"

# each command with its flags and value pools; a flag given None is a switch
GRAMMAR = [
    (["rt"], [("--n", INTS)]),
    (["check"], [("--r", RATIOS), ("--word", WORDS), ("--alphabet", INTS),
                 ("--strict", None)]),
    (["gamma"], [("--n", INTS), ("--binary", WORDS)]),
    (["scan-pansiot"], [("--n", INTS), ("--binary", WORDS)]),
    (["gen", "beta"], [("--k", INTS), ("--limit", INTS)]),
    (["gen", "alpha"], [("--m", INTS), ("--k", INTS)]),
    (["gen", "zm"], [("--m", INTS), ("--k", INTS), ("--limit", INTS)]),
    (["gen", "z4"], [("--length", INTS)]),
    (["count", "threshold"], [("--n", ["-1", "0", "1", "2", "3", "4", "x"]),
                              ("--k", SMALL), ("--budget", INTS),
                              ("--symmetry", None), ("--jobs", JOBS)]),
    (["count", "zm"], [("--m", INTS), ("--k", INTS)]),
    (["count", "z4"], [("--k", INTS)]),
    (["lower-bound"], [("--n", INTS), ("--k", INTS)]),
    (["verify", "elimination"], [("--max-length", INTS)]),
    (["verify", "w-set"], [("--max-length", INTS), ("--no-bound-filter", None)]),
    (["verify", "ew"], [("--max-length", INTS), ("--jobs", JOBS)]),
    (["verify", "binary26"], [("--n", ["-1", "5", "26", "x"]),
                              ("--depth-cap", INTS)]),
    (["verify", "lemma6"], [("--m", INTS), ("--length", INTS),
                            ("--samples", SMALL), ("--seed", SMALL)]),
    (["verify", "prop7-desk"], [("--m", INTS), ("--n", INTS + ["33"]),
                                ("--length", INTS), ("--samples", SMALL),
                                ("--seed", SMALL)]),
    (["verify", "n26-stab"], [("--table", [MISSING])]),
    (["pipeline"], [("--table", [MISSING]), ("--word", WORDS)]),
    (["verify"], []),
    (["no-such-command"], []),
    ([], []),
]
# flags whose defaults are full-size runs, so the grammar always sets them
SIZED = {"--max-length", "--length", "--samples", "--depth-cap"}


@st.composite
def argv_strategy(draw):
    command, flags = draw(st.sampled_from(GRAMMAR))
    argv = list(command)
    for flag, pool in flags:
        # switches are set half the time, other flags dropped one time in 8
        drop = draw(st.booleans()) if pool is None else draw(st.integers(0, 7)) == 0
        if drop and flag not in SIZED:
            continue
        argv.append(flag)
        if pool is not None:
            argv.append(draw(st.sampled_from(pool)))
    return argv


class _SerialPool:
    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return [fn(x) for x in items]


@settings(max_examples=300, deadline=None)
@given(argv_strategy())
def test_cli_contract_one_document(argv):
    out, err = io.StringIO(), io.StringIO()
    # --jobs > 1 runs its chunks in this process, so no worker pool starts;
    # an empty engine cache keeps the small sizes from reusing a big engine
    with mock.patch("concurrent.futures.ProcessPoolExecutor", _SerialPool), \
            mock.patch.dict("dejean.constructions._Z4_CACHE", clear=True), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    doc = json.loads(out.getvalue())  # exactly one document, nothing else
    assert doc["schema"] == 1
    assert code in (0, 1, 2, 3)
    assert EXIT_CODES[doc["status"]] == code
