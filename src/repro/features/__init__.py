"""Rubine's gesture features: batch and incremental computation."""

from .incremental import (
    IncrementalFeatures,
    fold_turn_angles,
    replay_vector,
    vector_from_snapshot,
)
from .rubine import FEATURE_NAMES, NUM_FEATURES, feature_matrix, features_of

__all__ = [
    "FEATURE_NAMES",
    "NUM_FEATURES",
    "IncrementalFeatures",
    "feature_matrix",
    "features_of",
    "fold_turn_angles",
    "replay_vector",
    "vector_from_snapshot",
]
