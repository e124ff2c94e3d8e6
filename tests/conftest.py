"""Fixtures shared by the test modules: the stages 1-3 backends."""

from __future__ import annotations

import pytest

from obtree import native
from obtree.evaluate import Evaluator


def force_numpy(monkeypatch: pytest.MonkeyPatch) -> None:
    """Evaluators made from now on run the numpy stages."""
    monkeypatch.setattr(native, "kernels", lambda: None)


@pytest.fixture(scope="session")
def each_backend():
    """``each_backend(model, config)``: one ``Evaluator`` per backend this host runs.

    The host's own choice comes first; where that is not numpy, a second
    evaluator is forced onto the numpy fallback.
    """

    def make(model, config=None) -> list[Evaluator]:
        chosen = Evaluator(model, config)
        if chosen.backend == "numpy":
            return [chosen]
        with pytest.MonkeyPatch.context() as mp:
            force_numpy(mp)
            return [chosen, Evaluator(chosen.tables, config)]

    return make


@pytest.fixture
def numpy_backend(monkeypatch):
    """Pins the test to the numpy backend."""
    force_numpy(monkeypatch)
