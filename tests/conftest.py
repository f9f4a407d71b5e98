"""Shared fixtures: the factor engine and the maximal-repetition set are
expensive enough to build once per session."""

import time

import pytest

from dejean.constructions import z4_language
from dejean.verifier import compute_W


@pytest.fixture(scope="session")
def engine157():
    return z4_language(157)


@pytest.fixture(scope="session")
def w_set_timed(engine157):
    """compute_W(155) on the session engine, with its wall time in seconds."""
    t0 = time.monotonic()
    w_set = compute_W(155, engine=engine157)
    return w_set, time.monotonic() - t0


@pytest.fixture(scope="session")
def w_set(w_set_timed):
    return w_set_timed[0]
