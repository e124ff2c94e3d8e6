"""The benchmark's workloads and the seeded generation of their inputs.

Models and batches are built here with numpy's seeded generator through the
library's public model types, never through ``obtree.synthetic``, so a change
to the library cannot change what the benchmark feeds it.  The model reaches
the library only as a ``serialize_model`` document.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from obtree import (
    EvalConfig,
    FeatureMatrix,
    FloatFeatureBorders,
    Layout,
    LeafPrecision,
    LeafStrategy,
    ObliviousModel,
    ObliviousTree,
    SplitCondition,
    serialize_model,
)

# Independent generator streams per seed: the model stream depends only on the
# seed and the model shape, so workloads that share a shape share a model.
_MODEL_STREAM = 0
_BATCH_STREAM = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_features: int
    n_borders: int
    n_trees: int
    depth: int
    strategy: LeafStrategy
    batch_size: int          # objects per call; the largest size when varied
    pool: int                # distinct batches cycled through by the caller
    varied_sizes: bool = False  # pool holds every size 1..batch_size once, in seeded order
    nan_frac: float = 0.0

    @property
    def config(self) -> EvalConfig:
        return EvalConfig(strategy=self.strategy)

    @property
    def precision(self) -> LeafPrecision:
        return self.strategy.precision

    def batch_sizes(self, seed: int) -> list[int]:
        if not self.varied_sizes:
            return [self.batch_size] * self.pool
        rng = np.random.default_rng([seed, _BATCH_STREAM, 1])
        return [int(n) for n in rng.permutation(np.arange(1, self.batch_size + 1))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wide-features",
            why="CatBoost-like desk shape where stage-1 quantization does most of the predict work",
            n_features=500,
            n_borders=64,
            n_trees=1000,
            depth=6,
            strategy=LeafStrategy.NAIVE,
            batch_size=1024,
            pool=4,
        ),
        Workload(
            name="deep-ensemble",
            why="4000 depth-8 trees under binary16 permute16 with 1% NaN: leaf index, load and fold dominate",
            n_features=32,
            n_borders=32,
            n_trees=4000,
            depth=8,
            strategy=LeafStrategy.PERMUTE16,
            batch_size=1024,
            pool=4,
            nan_frac=0.01,
        ),
        Workload(
            name="small-batch",
            why="wide-features model with 1-64 objects per call: per-call overhead and tail plans, not batch amortisation",
            n_features=500,
            n_borders=64,
            n_trees=1000,
            depth=6,
            strategy=LeafStrategy.NAIVE,
            batch_size=64,
            pool=64,
            varied_sizes=True,
        ),
    )
}


@dataclass
class Inputs:
    document: str
    batches: list[FeatureMatrix]


def _border_table(w: Workload, rng: np.random.Generator) -> np.ndarray:
    # Steps of at least 0.05 keep every row strictly ascending after rounding
    # to binary32; centring keeps values near zero.
    steps = rng.uniform(0.05, 1.0, size=(w.n_features, w.n_borders))
    table = np.cumsum(steps, axis=1) - steps.sum(axis=1, keepdims=True) / 2
    return table.astype(np.float32)


def make_model(w: Workload, seed: int) -> ObliviousModel:
    rng = np.random.default_rng([seed, _MODEL_STREAM])
    borders = _border_table(w, rng)
    features = rng.integers(0, w.n_features, size=(w.n_trees, w.depth))
    ordinals = rng.integers(0, w.n_borders, size=(w.n_trees, w.depth))
    leaves = rng.normal(0.0, 0.1, size=(w.n_trees, 1 << w.depth))
    scale = rng.uniform(0.5, 1.5)
    bias = rng.normal(0.0, 1.0)
    trees = tuple(
        ObliviousTree(
            depth=w.depth,
            splits=tuple(
                SplitCondition(feature_index=int(f), border_ordinal=int(o))
                for f, o in zip(features[t], ordinals[t])
            ),
            leaf_values=leaves[t],
        )
        for t in range(w.n_trees)
    )
    float_features = tuple(
        FloatFeatureBorders(feature_index=i, borders=borders[i]) for i in range(w.n_features)
    )
    return ObliviousModel(float_features=float_features, trees=trees, scale=scale, bias=bias)


def make_batches(w: Workload, seed: int, model: ObliviousModel) -> list[FeatureMatrix]:
    # Values span each feature's border range plus a margin, so every
    # quantile from 0 to n_borders occurs.
    lo = np.array([ff.borders[0] for ff in model.float_features], dtype=np.float64) - 1.0
    hi = np.array([ff.borders[-1] for ff in model.float_features], dtype=np.float64) + 1.0
    rng = np.random.default_rng([seed, _BATCH_STREAM])
    out = []
    for n in w.batch_sizes(seed):
        values = (lo + rng.random((n, w.n_features)) * (hi - lo)).astype(np.float32)
        if w.nan_frac:
            values[rng.random(values.shape) < w.nan_frac] = np.nan
        out.append(FeatureMatrix(values, Layout.OBJECT_MAJOR))
    return out


def make_inputs(w: Workload, seed: int) -> Inputs:
    model = make_model(w, seed)
    return Inputs(document=serialize_model(model), batches=make_batches(w, seed, model))
