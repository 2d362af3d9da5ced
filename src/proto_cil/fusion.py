"""Late fusion of branch scores and single-branch prediction."""

import numpy as np

from .errors import Divergence
from .features import softmax


def late_fuse(s1: np.ndarray, s2: np.ndarray, classes) -> list:
    """Per row, the label with the largest sum of branch softmaxes; ties break
    toward the lowest registry index."""
    if not (np.isfinite(s1).all() and np.isfinite(s2).all()):
        raise Divergence("scores must be finite")
    picks = (softmax(s1) + softmax(s2)).argmax(axis=1)  # first max: lowest index
    return [classes[j] for j in picks]


def single_predict(s: np.ndarray, classes) -> list:
    """Per-row label of the largest raw score, same tie rule as late_fuse."""
    if not np.isfinite(s).all():
        raise Divergence("scores must be finite")
    return [classes[j] for j in s.argmax(axis=1)]
