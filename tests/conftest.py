"""Fixtures and helpers shared by the test modules: the stages 1-3 backends,
the scalar border count that stage 1 is checked against, and random model
shapes."""

from __future__ import annotations

import numpy as np
import pytest

from obtree import SyntheticSpec, native
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


def quantize_value(value: float, borders) -> int:
    """Count of borders strictly below ``value``; NaN maps to 0.

    The scalar reference of the border semantics: for strictly ascending
    borders ``b``, a value ``v`` exceeds ``b[o]`` exactly when that count
    exceeds ``o``.  So the scan may stop at the first border not crossed.
    """
    count = 0
    for b in borders:
        if value > b:
            count += 1
        else:
            break
    return count


def random_specs(seed: int, count: int, highs, lows=(1, 1, 0, 1), first_seed: int = 0):
    """``count`` specs whose (features, borders, trees, depth) are uniform over
    ``lows`` to ``highs`` inclusive, with seeds ``first_seed`` and up."""
    rng = np.random.default_rng(seed)
    shapes = zip(*(rng.integers(low, high + 1, count).tolist() for low, high in zip(lows, highs)))
    return [SyntheticSpec(*shape, seed=first_seed + i) for i, shape in enumerate(shapes)]
