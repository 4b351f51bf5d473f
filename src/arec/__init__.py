"""Attention-based feature representation engine for CTR prediction.

Pure-numpy implementation of a two-branch click-through-rate model:
multi-head self-attention over field embeddings plus attention-weighted
pairwise feature crossing, combined with a deep MLP, trained with Adam
under a fully deterministic seeded pipeline.  FM and DeepFM baselines
share the same data and embedding machinery.
"""

__version__ = "0.1.0"

from .data import FeatureSchema, FieldSpec, prepare_dataset, load_cache, save_cache
from .metrics import EvalReport, auc, evaluate
from .model import ops_for
from .numerics import Rng
from .training import TrainConfig, fit, sweep

__all__ = [
    "FeatureSchema",
    "FieldSpec",
    "prepare_dataset",
    "load_cache",
    "save_cache",
    "EvalReport",
    "auc",
    "evaluate",
    "ops_for",
    "Rng",
    "TrainConfig",
    "fit",
    "sweep",
]
