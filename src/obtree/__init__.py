"""obtree: single-core batch evaluation of oblivious decision-tree ensembles.

The engine runs a three-stage pipeline over cache-sized blocks of objects.
Stage 1 gives one bit per object and distinct split condition, by one
compare of the binary32 feature value with the condition's border, on both
the AVX-512 and the numpy backend.  The bits become per-tree leaf indices
through branch-free bit composition, and leaf values are fetched and summed
in binary64 or in the binary16 leaf-precision trade-off.  ``Evaluator.predict`` fills an ``EvalStats``
with the stages' times and scratch memory when asked.  A scalar traversal
oracle, deviation metrics and a benchmark CLI round out the package.
"""

from .evaluate import (
    EvalConfig,
    EvalStats,
    Evaluator,
    LeafStrategy,
    ModelTables,
    TailPlan,
    TailPolicy,
    apply_tail_policy,
    evaluate,
    permute_group_count,
    plan_blocks,
)
from .model import (
    LeafBank,
    LeafPrecision,
    FloatFeatureBorders,
    ObliviousModel,
    ObliviousTree,
    SplitCondition,
    build_leaf_bank,
    validate_model,
)
from .oracle import (
    DeviationMetrics,
    classification_flip_count,
    deviation_metrics,
    evaluate_scalar,
)
from .quantize import (
    FeatureMatrix,
    Layout,
    quantize_block,
)
from .serialize import (
    ModelFormatError,
    deserialize_model,
    load_model,
    save_model,
    serialize_model,
)
from .synthetic import SyntheticSpec, generate_feature_matrix, generate_synthetic_model

__version__ = "0.1.0"

__all__ = [
    "DeviationMetrics",
    "EvalConfig",
    "EvalStats",
    "Evaluator",
    "FeatureMatrix",
    "FloatFeatureBorders",
    "Layout",
    "LeafBank",
    "LeafPrecision",
    "LeafStrategy",
    "ModelFormatError",
    "ModelTables",
    "ObliviousModel",
    "ObliviousTree",
    "SplitCondition",
    "SyntheticSpec",
    "TailPlan",
    "TailPolicy",
    "apply_tail_policy",
    "build_leaf_bank",
    "classification_flip_count",
    "deserialize_model",
    "deviation_metrics",
    "evaluate",
    "evaluate_scalar",
    "generate_feature_matrix",
    "generate_synthetic_model",
    "load_model",
    "permute_group_count",
    "plan_blocks",
    "quantize_block",
    "save_model",
    "serialize_model",
    "validate_model",
]
