"""Low-rank + sparse decomposition for speckle filtering.

A trainable bilinear map L = A B x is the denoiser; the sparse residual
x - L is the filtered image. A trained denoiser is its arrays,
`{"A": (m, r), "B": (r, m)}`, m the image length and r the rank. The
classical principal-component-pursuit solver that verifies it lives in
tests/pcp_oracle.py.
"""

import json
from pathlib import Path

import numpy as np

from .errors import Divergence, InputError
from .seeding import derive_rng

SMOOTH_EPS = 1e-4  # |u| ~ sqrt(u^2 + eps^2)
BATCH_SIZE = 16
LR_DECAY = 0.01    # step size lr / (1 + LR_DECAY * epoch)
GRAD_CLIP = 1.0    # largest norm of a batch gradient


def _residuals(A, B, batch):
    """Z = batch B^T, the residuals E = batch - Z A^T and S, the smoothed |E|."""
    Z = batch @ B.T            # (n, r)
    E = batch - Z @ A.T        # residuals (n, m)
    S = E * E + SMOOTH_EPS * SMOOTH_EPS
    return Z, E, np.sqrt(S, out=S)


def bilinear_loss_and_grad(A, B, batch):
    """Smoothed-L1 reconstruction loss sum_i |x_i - A B x_i| and its gradients.

    batch: (n, m) array of flattened images.
    """
    Z, E, S = _residuals(A, B, batch)
    W = E / S                  # d|e|/de
    gA = -(W.T @ Z)            # (m, r)
    gB = -(A.T @ W.T) @ batch  # (r, m)
    return float(S.sum()), gA, gB


def rpca_train(images, r: int, epochs: int, lr: float, seed: int) -> dict:
    """Fit the bilinear denoiser by mini-batch subgradient descent on the
    smoothed-L1 objective.

    The step size decays harmonically (lr / (1 + LR_DECAY * epoch)), batch
    gradients are norm-clipped, and the two factors are rebalanced to equal
    Frobenius norm after each epoch. A fixed step oscillates at a floor set
    by the step size and the unbalanced factorization can blow up, so both
    safeguards are needed for the L1 objective to actually converge.
    """
    X = np.asarray(images, dtype=np.float64)
    n, m = X.shape
    if not 0 < r < m:
        raise InputError(f"rank must satisfy 0 < r < m, got r={r}, m={m}")

    rng = derive_rng(seed, "rpca")
    A = rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, r))
    B = rng.normal(0.0, 1.0 / np.sqrt(m), size=(r, m))

    for epoch in range(epochs):
        step = lr / (1.0 + LR_DECAY * epoch)
        order = rng.permutation(n)
        for start in range(0, n, BATCH_SIZE):
            batch = X[order[start : start + BATCH_SIZE]]
            _, gA, gB = bilinear_loss_and_grad(A, B, batch)
            gA /= len(batch)
            gB /= len(batch)
            gnorm = np.sqrt((gA * gA).sum() + (gB * gB).sum())
            if gnorm > GRAD_CLIP:
                gA *= GRAD_CLIP / gnorm
                gB *= GRAD_CLIP / gnorm
            A -= step * gA
            B -= step * gB
        na, nb = np.linalg.norm(A), np.linalg.norm(B)
        if na > 0 and nb > 0:
            s = np.sqrt(nb / na)
            A *= s
            B /= s
        if not np.isfinite(_residuals(A, B, X)[2].sum()):  # the loss, without gradients
            raise Divergence(f"non-finite denoiser loss at epoch {epoch}")
    return {"A": A, "B": B}


def rpca_apply(model: dict, image) -> np.ndarray:
    """The filtered (sparse) part x - A B x of one flattened image."""
    A, B = model["A"], model["B"]
    x = np.asarray(image, dtype=np.float64).ravel()
    return x - A @ (B @ x)


def export_sparse_pgm(sparse: np.ndarray, side: int, path) -> None:
    """Write a sparse component as a PGM after affine rescale to [0,1];
    the scale is recorded in a JSON sidecar so the raw values are recoverable."""
    from .pgm import write_pgm

    sp = sparse.reshape(side, side)
    lo, hi = float(sp.min()), float(sp.max())
    scale = hi - lo if hi > lo else 1.0
    write_pgm(path, (sp - lo) / scale)
    Path(str(path) + ".json").write_text(json.dumps({"offset": lo, "scale": scale}) + "\n")
