"""Tests for the package's record types, all built on `_util.Record`.

Each record is checked for value semantics (equality, hashing, repr),
immutability, construction, validation, and the round trips that carry a
record across a process boundary: pickle, deepcopy and `parallel_map` with
worker processes.
"""

import copy
import os
import pickle
import signal
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from dejean.carpi import CarpiParams, MorphismTable
from dejean.cli import CommandResult
from dejean.core_words import RepetitionReport, ReportKind, Word
from dejean.growth import GrowthTable
from dejean.verifier import MaximalKernelRepetition, VerificationReport
from dejean._util import parallel_map


class Case(NamedTuple):
    cls: type
    fields: dict  # in field order
    text: str  # the repr
    hashable: bool
    other: tuple  # (field, value) making a different record


CASES = [
    Case(Word, {"letters": (1, 2, 1), "alphabet_size": 2},
         "Word(letters=(1, 2, 1), alphabet_size=2)", True, ("letters", (1, 2))),
    Case(RepetitionReport,
         {"start": 3, "length": 4, "period": 2, "kind": ReportKind.STABILIZING, "k": 5},
         "RepetitionReport(start=3, length=4, period=2, "
         "kind=<ReportKind.STABILIZING: 'stabilizing'>, k=5)", True, ("k", None)),
    Case(CarpiParams,
         {"n": 27, "m": 4, "ell": 13, "image_length": 364, "below_case_range": False},
         "CarpiParams(n=27, m=4, ell=13, image_length=364, below_case_range=False)",
         True, ("below_case_range", True)),
    Case(MorphismTable,
         {"n": 9, "m": 2, "image_length": 2, "images": {1: (1, 2), 2: (2, 2)}},
         "MorphismTable(n=9, m=2, image_length=2, images={1: (1, 2), 2: (2, 2)})",
         False, ("n", 10)),
    Case(GrowthTable,
         {"name": "t", "parameters": {"a": 1}, "counts": (1, 2), "ratios": ("2.0",),
          "kth_roots": ("1.0", "1.4"), "truncated_at": 3},
         "GrowthTable(name='t', parameters={'a': 1}, counts=(1, 2), ratios=('2.0',), "
         "kth_roots=('1.0', '1.4'), truncated_at=3)", False, ("parameters", {"a": 2})),
    Case(MaximalKernelRepetition, {"word": "111111", "kernel_period": 4},
         "MaximalKernelRepetition(word='111111', kernel_period=4)", True,
         ("word", "1111111")),
    Case(VerificationReport, {"name": "x", "status": "pass", "payload": {"n": [1, 2]}},
         "VerificationReport(name='x', status='pass', payload={'n': [1, 2]})", False,
         ("status", "fail")),
    Case(CommandResult, {"status": "info", "payload": {"n": 1}, "plain": "a\n"},
         "CommandResult(status='info', payload={'n': 1}, plain='a\\n')", False,
         ("plain", None)),
]
IDS = [case.cls.__name__ for case in CASES]

# fields a record may leave out, with the value each then takes
DEFAULTS = {
    RepetitionReport: {"k": None},
    GrowthTable: {"truncated_at": None},
    VerificationReport: {"payload": {}},
    CommandResult: {"plain": None},
}


def build(cls, fields):
    return cls(*fields.values())


def identity(record):
    return record


@pytest.fixture(params=CASES, ids=IDS)
def case(request):
    return request.param


def test_pickle_round_trip(case):
    cls, fields = case.cls, case.fields
    record = build(cls, fields)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is cls
        assert back == record


def test_deepcopy_round_trip(case):
    cls, fields = case.cls, case.fields
    record = build(cls, fields)
    for twin in (copy.deepcopy(record), copy.copy(record)):
        assert type(twin) is cls
        assert twin == record


def test_parallel_map_carries_records():
    records = [build(case.cls, case.fields) for case in CASES]
    # a record that cannot be unpickled stalls a worker pool instead of
    # raising, so the round trip is checked here first
    assert pickle.loads(pickle.dumps(records)) == records
    assert parallel_map(identity, records, 2) == parallel_map(identity, records, 1)
    assert parallel_map(identity, records, 2) == records


UNPICKLABLE_TASK = """
import sys
sys.path.insert(0, {src!r})
from dejean._util import parallel_map


class Frozen:
    # pickles its slot, but unpickling sets it through __setattr__, which
    # refuses, so a worker fails to read its task
    __slots__ = ("x",)

    def __init__(self, x):
        object.__setattr__(self, "x", x)

    def __setattr__(self, name, value):
        raise AttributeError(name)


def identity(v):
    return v


if __name__ == "__main__":
    try:
        parallel_map(identity, [Frozen(1), Frozen(2)], 2)
    except Exception as exc:
        print(type(exc).__name__)
    else:
        print("returned")
"""


def test_parallel_map_raises_when_a_worker_cannot_unpickle_its_task(tmp_path):
    """Run in a child process with a timeout: a pool that loses the task
    hangs, and the timeout turns that into a failure."""
    script = tmp_path / "unpicklable_task.py"
    src = str(Path(__file__).resolve().parents[1] / "src")
    script.write_text(UNPICKLABLE_TASK.format(src=src))
    proc = subprocess.Popen([sys.executable, str(script)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("parallel_map hung on a task its workers cannot unpickle")
    assert out.split() == ["BrokenProcessPool"]


def test_equality_follows_class_and_fields(case):
    cls, fields = case.cls, case.fields
    record = build(cls, fields)
    assert record == build(cls, fields)
    assert record != tuple(fields.values())
    name, value = case.other
    assert build(cls, dict(fields, **{name: value})) != record


def test_hash_follows_fields(case):
    cls, fields, hashable = case.cls, case.fields, case.hashable
    record = build(cls, fields)
    if hashable:
        assert hash(record) == hash(build(cls, fields))
        assert {record: 1}[build(cls, fields)] == 1
    else:
        with pytest.raises(TypeError):
            hash(record)


def test_repr_names_every_field(case):
    assert repr(build(case.cls, case.fields)) == case.text


def test_fields_cannot_be_assigned(case):
    cls, fields = case.cls, case.fields
    record = build(cls, fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == build(cls, fields)


def test_positional_keyword_and_default_construction(case):
    cls, fields = case.cls, case.fields
    record = build(cls, fields)
    assert cls(**fields) == record
    names = list(fields)
    rest = {n: fields[n] for n in names[1:]}
    assert cls(fields[names[0]], **rest) == record
    for name, value in DEFAULTS.get(cls, {}).items():
        given = {k: v for k, v in fields.items() if k != name}
        assert getattr(cls(**given), name) == value
    required = [n for n in names if n not in DEFAULTS.get(cls, {})]
    with pytest.raises(TypeError):
        cls(**{k: v for k, v in fields.items() if k != required[-1]})
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(**fields, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*fields.values(), **{names[0]: fields[names[0]]})


def test_default_payload_is_fresh_per_report():
    a, b = VerificationReport("a", "pass"), VerificationReport("a", "pass")
    a.payload["n"] = 1
    assert b.payload == {}


@pytest.mark.parametrize(
    "cls, args, message",
    [
        (Word, ((), 0), "alphabet size must be >= 1"),
        (Word, ((1, 3), 2), "letter 3 outside 1..2"),
        (Word, ((0,), 2), "letter 0 outside 1..2"),
        (MorphismTable, (9, 0, 2, {}), "source alphabet must be nonempty"),
        (MorphismTable, (9, 2, 2, {1: (1, 2)}), "images must cover exactly"),
        (MorphismTable, (9, 1, 2, {1: (1, 2, 1)}), "has length 3, expected 2"),
        (MorphismTable, (9, 1, 2, {1: (1, 3)}), "is not binary"),
        (MaximalKernelRepetition, ("1111", 0), "kernel period out of range"),
        (MaximalKernelRepetition, ("1111", 5), "kernel period out of range"),
        (MaximalKernelRepetition, ("111211", 3), "stated period does not hold"),
        (MaximalKernelRepetition, ("11211", 4), "is not a kernel word"),
    ],
)
def test_validation_still_raises(cls, args, message):
    with pytest.raises(ValueError, match=message):
        cls(*args)
