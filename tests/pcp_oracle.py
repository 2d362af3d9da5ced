"""Principal component pursuit, the independent oracle the low-rank/sparse
recovery tests check the trained denoiser against. Test code only."""

import numpy as np

from proto_cil.errors import InputError


def pcp_oracle(X, mu: float | None = None, tol: float = 1e-7, max_iter: int = 500):
    """Principal component pursuit by augmented-Lagrangian alternation:
    singular-value thresholding on L, elementwise soft-thresholding on S.

    Returns (L, S). Sparsity weight is 1/sqrt(max(dim)). Raises on
    non-convergence, reporting the residual achieved.
    """
    X = np.asarray(X, dtype=np.float64)
    if not np.isfinite(X).all():
        raise InputError("X must be finite")
    if tol <= 0:
        raise InputError("tol must be positive")
    norm_x = np.linalg.norm(X)
    if norm_x == 0:
        return np.zeros_like(X), np.zeros_like(X)
    lam = 1.0 / np.sqrt(max(X.shape))
    if mu is None:
        mu = X.size / (4.0 * np.abs(X).sum())
    Y = X / max(norm_x, np.abs(X).max() / lam)
    L = np.zeros_like(X)
    S = np.zeros_like(X)
    for _ in range(max_iter):
        U, sv, Vt = np.linalg.svd(X - S + Y / mu, full_matrices=False)
        sv = np.maximum(sv - 1.0 / mu, 0.0)
        L = (U * sv) @ Vt
        G = X - L + Y / mu
        S = np.sign(G) * np.maximum(np.abs(G) - lam / mu, 0.0)
        R = X - L - S
        Y = Y + mu * R
        if np.linalg.norm(R) / norm_x <= tol:
            return L, S
    raise InputError(
        f"pcp_oracle did not converge in {max_iter} iterations "
        f"(residual {np.linalg.norm(X - L - S) / norm_x:.3e})"
    )
