"""Late fusion of branch scores and single-branch prediction."""

import numpy as np

from .errors import Divergence, InputError
from .features import softmax
from .projector import ScoreMatrix


def late_fuse(l1: ScoreMatrix, l2: ScoreMatrix) -> list:
    """Per row, the label with the largest sum of branch softmaxes; ties break
    toward the lowest registry index."""
    if l1.classes != l2.classes:
        raise InputError("branch class registries differ")
    if l1.rows.shape != l2.rows.shape:
        raise InputError("branch score shapes differ")
    if not (np.isfinite(l1.rows).all() and np.isfinite(l2.rows).all()):
        raise Divergence("scores must be finite")
    picks = (softmax(l1.rows) + softmax(l2.rows)).argmax(axis=1)  # first max: lowest index
    return [l1.classes[j] for j in picks]


def single_predict(l: ScoreMatrix) -> list:
    """Per-row label of the largest raw score, same tie rule as late_fuse."""
    if not np.isfinite(l.rows).all():
        raise Divergence("scores must be finite")
    return [l.classes[j] for j in l.rows.argmax(axis=1)]
