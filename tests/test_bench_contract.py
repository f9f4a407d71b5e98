"""The benchmark in perfbench/ calls the package through fixed signatures and
wraps some of its module globals in a traced pass.  Each workload's smoke
pass must run and pass its checks, plain and traced, so a change that breaks
a call or a hook the benchmark relies on fails here first."""

import json
import sys
from pathlib import Path
from unittest import mock

import pytest

import dejean
from dejean import constructions

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from probe import Probe, hooks  # noqa: E402

EXPECTED = json.loads((BENCH / "expected.json").read_text())


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_pass_checks_clean(name, traced):
    spec = workloads.WORKLOADS[name]
    inputs = spec["prepare"](dejean, spec["sizes"]["smoke"], 7)
    probe = Probe(traced)
    # the certify and count passes clear the session's engine cache
    with mock.patch.dict(constructions._Z4_CACHE, clear=True):
        if traced:
            with hooks(probe, dejean):
                out = spec["run"](dejean, inputs, probe)
        else:
            out = spec["run"](dejean, inputs, probe)
    assert not out.get("errors"), out.get("errors")
    failed = []
    for check, thunk in spec["checks"](inputs, out, EXPECTED[name]["smoke"]):
        ok, detail = thunk()
        if not ok:
            failed.append(f"{check}: {detail}")
    assert not failed
    if traced:
        assert probe.spans
