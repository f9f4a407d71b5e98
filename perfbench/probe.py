"""Spans around calls into the package's layers, recorded from outside it.

A traced pass opens a span around each call the benchmark makes into a layer
and, through `hooks`, around the layer calls the package makes internally
(engine builds, `parallel_map`, the output scan of the pipeline).  Spans are
kept in memory and written as JSON lines when the run ends.  An untraced pass
uses a disabled Probe, whose `call` is a plain function call.

Counts are recorded at the same boundaries as attributes of the innermost
open span, so each count sits next to the time it explains.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Probe:
    def __init__(self, enabled: bool, trace_id: str = ""):
        self.enabled = enabled
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "trace": self.trace_id,
            "id": len(self.spans),
            "parent": self._open[-1]["id"] if self._open else None,
            "name": name,
            **attrs,
        }
        self.spans.append(rec)
        self._open.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, attrs: dict | None = None, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name, **(attrs or {})):
            return fn(*args, **kwargs)

    def add(self, **counts) -> None:
        """Add counts to the innermost open span."""
        if self._open:
            rec = self._open[-1]
            for key, value in counts.items():
                rec[key] = rec.get(key, 0) + value

    def current(self) -> dict:
        return self._open[-1] if self._open else {}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


class TimedEngine:
    """Stands in for a Z4Language engine and times every is_factor probe.

    compute_W and verify_Ew read `pieces`, `max_factor_length` and
    `is_factor`; everything but `is_factor` is forwarded unchanged.
    """

    def __init__(self, engine, probe: Probe):
        self._engine = engine
        self._probe = probe

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def is_factor(self, w) -> bool:
        t0 = time.perf_counter()
        found = self._engine.is_factor(w)
        self._probe.add(is_factor_calls=1, is_factor_s=time.perf_counter() - t0)
        return found


@contextmanager
def hooks(probe: Probe, dejean):
    """Wrap the layer calls the package makes internally, for one pass."""

    def timed_build(build):
        def init(self, max_factor_length):
            with probe.span("constructions.Z4Language", cutoff=max_factor_length) as rec:
                build(self, max_factor_length)
                rec["pieces"] = len(self.pieces)
        return init

    def seen_cached(cached):
        def lookup(max_factor_length):
            engine = cached(max_factor_length)
            probe.current()["cutoff_used"] = engine.max_factor_length
            return engine
        return lookup

    def span_map(pmap):
        def mapped(fn, items, jobs):
            with probe.span("util.parallel_map", items=len(items), jobs=jobs):
                return pmap(fn, items, jobs)
        return mapped

    def counted_split(split):
        def chunks(items, jobs):
            # the candidate extensions count_threshold_words charges to its budget
            top = probe.current()
            n, symmetry = top.get("n"), top.get("symmetry")
            if n is not None:
                probe.add(candidates=sum(
                    n if not symmetry else min(n, (max(w) if w else 0) + 1) for w in items
                ))
            return split(items, jobs)
        return chunks

    def timed_scan(scan):
        def scanned(w, r, strict=False):
            with probe.span("core_words.find_forbidden_factor", letters=len(w)):
                return scan(w, r, strict)
        return scanned

    wrappers = [
        (dejean.constructions.Z4Language, "__init__", timed_build),
        (dejean.verifier, "z4_language", seen_cached),
        (dejean.verifier, "parallel_map", span_map),
        (dejean.growth, "parallel_map", span_map),
        (dejean.growth, "split_chunks", counted_split),
        (dejean.carpi, "find_forbidden_factor", timed_scan),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in wrappers]
    for owner, attr, wrap in wrappers:
        setattr(owner, attr, wrap(getattr(owner, attr)))
    try:
        yield
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
