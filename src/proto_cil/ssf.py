"""Per-dimension scale-and-shift feature adapter.

The adapter applies gamma * x + delta elementwise. It is trained on base-task
features jointly with a disposable linear probe (softmax cross-entropy); the
probe is discarded and the adapter frozen afterwards. A trained adapter is its
arrays, `{"gamma": (d,), "delta": (d,)}`.
"""

import numpy as np

from .errors import Divergence
from .features import FeatureMatrix, softmax_cross_entropy
from .seeding import derive_rng

BATCH_SIZE = 32


def ssf_apply(adapter: dict, features: FeatureMatrix) -> FeatureMatrix:
    gamma, delta = adapter["gamma"], adapter["delta"]
    return FeatureMatrix(rows=features.rows * gamma + delta, labels=features.labels)


def probe_loss_and_grad(gamma, delta, w, b, X, y_idx):
    """Cross-entropy of the probe on adapted features; grads for all four params."""
    Z = X * gamma + delta
    logits = Z @ w + b
    loss, dlogits = softmax_cross_entropy(logits, y_idx)
    gw = Z.T @ dlogits
    gb = dlogits.sum(axis=0)
    dZ = dlogits @ w.T
    ggamma = (dZ * X).sum(axis=0)
    gdelta = dZ.sum(axis=0)
    return loss, ggamma, gdelta, gw, gb


def ssf_train(base_features: FeatureMatrix, epochs: int, lr: float, seed: int) -> dict:
    """Train gamma/delta with a throwaway linear probe on base-task features."""
    classes = sorted(set(base_features.labels))
    X = base_features.rows
    y = np.array([classes.index(c) for c in base_features.labels])
    d, k = X.shape[1], len(classes)
    rng = derive_rng(seed, "ssf")
    gamma, delta = np.ones(d), np.zeros(d)
    w = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, k))
    b = np.zeros(k)
    for epoch in range(epochs):
        order = rng.permutation(len(X))
        for start in range(0, len(X), BATCH_SIZE):
            sel = order[start : start + BATCH_SIZE]
            loss, gg, gd, gw, gb = probe_loss_and_grad(gamma, delta, w, b, X[sel], y[sel])
            if not np.isfinite(loss):
                raise Divergence(f"non-finite adapter loss at epoch {epoch}")
            gamma -= lr * gg
            delta -= lr * gd
            w -= lr * gw
            b -= lr * gb
    return {"gamma": gamma, "delta": delta}

