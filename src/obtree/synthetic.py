"""Seeded synthetic models and feature batches for tests and benchmarks.

Randomness comes from xoshiro256** seeded through SplitMix64, both fixed
64-bit algorithms implemented here, so a given seed produces bit-identical
models on every platform and Python version.  Bounded integers use the
multiply-shift mapping (x * n) >> 64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MAX_BORDERS, MAX_DEPTH, FloatFeatureBorders, ObliviousModel
from .quantize import FeatureMatrix, Layout

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int):
    state &= _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256StarStar:
    """xoshiro256** with SplitMix64 state expansion from a single seed."""

    __slots__ = ("_s",)

    def __init__(self, seed: int):
        gen = _splitmix64(seed)
        self._s = [next(gen) for _ in range(4)]
        if not any(self._s):
            self._s[0] = 1  # the all-zero state is the one forbidden state

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def unit(self) -> float:
        """float64 in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + self.unit() * (hi - lo)

    def below(self, n: int) -> int:
        """Integer in [0, n)."""
        return (self.next_u64() * n) >> 64


@dataclass(frozen=True)
class SyntheticSpec:
    n_features: int
    borders_per_feature: int
    n_trees: int
    depth: int
    seed: int


def generate_synthetic_model(spec: SyntheticSpec) -> ObliviousModel:
    """Deterministic random model: same spec and seed give the same bits.

    Borders are distinct ascending binary32 draws from (0, 1); splits are
    uniform over (feature, border) pairs; leaves are uniform in (-1, 1).
    """
    if spec.n_features < 1:
        raise ValueError("n_features must be at least 1")
    if not 1 <= spec.borders_per_feature <= MAX_BORDERS:
        raise ValueError(f"borders_per_feature must be in 1..{MAX_BORDERS}")
    if spec.n_trees < 0:
        raise ValueError("n_trees must be non-negative")
    if not 1 <= spec.depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in 1..{MAX_DEPTH}")

    rng = Xoshiro256StarStar(spec.seed)

    float_features = []
    for f in range(spec.n_features):
        seen: set[float] = set()
        while len(seen) < spec.borders_per_feature:
            seen.add(float(np.float32(rng.unit())))
        borders = np.array(sorted(seen), dtype=np.float32)
        float_features.append(FloatFeatureBorders(feature_index=f, borders=borders))

    # Each tree draws its splits' (feature, ordinal) pairs, then its leaves.
    features, ordinals, leaves = [], [], []
    for _ in range(spec.n_trees):
        for _ in range(spec.depth):
            features.append(rng.below(spec.n_features))
            ordinals.append(rng.below(spec.borders_per_feature))
        leaves += [rng.uniform(-1.0, 1.0) for _ in range(1 << spec.depth)]
    return ObliviousModel._from_arrays(
        float_features, scale=rng.uniform(0.5, 1.5), bias=rng.uniform(-0.5, 0.5),
        depths=[spec.depth] * spec.n_trees, split_counts=[spec.depth] * spec.n_trees,
        split_features=features, split_ordinals=ordinals,
        leaf_counts=[1 << spec.depth] * spec.n_trees, leaves=np.array(leaves, dtype=np.float64),
    )


def generate_feature_matrix(
    n_objects: int,
    n_features: int,
    seed: int,
    layout: Layout = Layout.OBJECT_MAJOR,
    lo: float = -0.25,
    hi: float = 1.25,
    nan_fraction: float = 0.0,
    inf_fraction: float = 0.0,
) -> FeatureMatrix:
    """Deterministic batch of float32 features spanning the border range.

    Optional NaN and +/-inf sprinkles exercise the quantizer's special-value
    policy end to end.
    """
    rng = Xoshiro256StarStar(seed)
    special = nan_fraction + inf_fraction
    flat = np.empty(n_objects * n_features, dtype=np.float32)
    for i in range(flat.size):
        if special > 0.0:
            roll = rng.unit()
            if roll < nan_fraction:
                flat[i] = np.nan
                continue
            if roll < special:
                flat[i] = np.inf if rng.unit() < 0.5 else -np.inf
                continue
        flat[i] = rng.uniform(lo, hi)
    grid = flat.reshape(n_objects, n_features)
    if layout is Layout.OBJECT_MAJOR:
        return FeatureMatrix(grid, Layout.OBJECT_MAJOR)
    return FeatureMatrix(grid.T.copy(), Layout.FEATURE_MAJOR)
