"""Late fusion of branch scores and single-branch prediction."""

from dataclasses import dataclass

import numpy as np

from . import features
from .projector import ScoreMatrix


class FusionError(ValueError):
    pass


@dataclass(frozen=True)
class Prediction:
    label: object
    probs: np.ndarray  # over seen classes, normalized to sum 1


def softmax(scores: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax along the last axis."""
    z = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(z).all():
        raise FusionError("softmax input must be finite")
    return features.softmax(z)


def late_fuse(l1: ScoreMatrix, l2: ScoreMatrix) -> list:
    """Per row, argmax of the summed branch softmaxes; ties break toward the
    lowest registry index. Stored probabilities are the normalized sum."""
    if l1.classes != l2.classes:
        raise FusionError("branch class registries differ")
    if l1.rows.shape != l2.rows.shape:
        raise FusionError("branch score shapes differ")
    fused = (softmax(l1.rows) + softmax(l2.rows)) / 2.0
    picks = fused.argmax(axis=1)  # first max wins: lowest index on ties
    return [Prediction(label=l1.classes[j], probs=row) for j, row in zip(picks, fused)]


def single_predict(l: ScoreMatrix) -> list:
    """Per-row argmax over raw scores, same tie rule as late_fuse."""
    if not np.isfinite(l.rows).all():
        raise FusionError("scores must be finite")
    probs = softmax(l.rows)
    picks = l.rows.argmax(axis=1)
    return [Prediction(label=l.classes[j], probs=row) for j, row in zip(picks, probs)]
