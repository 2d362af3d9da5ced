"""Random-projection expansion and the exemplar-free class-prototype engine.

Features are mapped through a frozen Gaussian matrix and a ReLU, the
Gram matrix G and per-class accumulator C are updated streamingly, and the
prototypes P solve (G + lambda*I) P = C via a Cholesky factorization.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh

from .features import FeatureMatrix
from .seeding import derive_rng

DEFAULT_LAMBDA_GRID = tuple(10.0 ** k for k in range(-8, 9))
MIN_SWEEP_ROWS = 5  # fewest task rows an 80:20 lambda-selection split accepts


class ProjectorError(ValueError):
    pass


class StalePrototypes(RuntimeError):
    pass


@dataclass(frozen=True)
class ProjectionLayer:
    W: np.ndarray  # (d, M), frozen

    @property
    def M(self) -> int:
        return self.W.shape[1]


@dataclass
class ScoreMatrix:
    rows: np.ndarray  # (N, K)
    classes: list     # registry order


@dataclass
class PrototypeState:
    M: int
    G: np.ndarray = None          # (M, M)
    C: np.ndarray = None          # (M, K)
    registry: list = field(default_factory=list)
    P: np.ndarray = None          # (M, K)
    stale: bool = True

    def __post_init__(self):
        if self.G is None:
            self.G = np.zeros((self.M, self.M))
        if self.C is None:
            self.C = np.zeros((self.M, 0))

    def snapshot(self) -> "PrototypeState":
        return PrototypeState(M=self.M, G=self.G.copy(), C=self.C.copy(),
                              registry=list(self.registry),
                              P=None if self.P is None else self.P.copy(), stale=self.stale)


def init_projection(d: int, M: int, seed: int) -> ProjectionLayer:
    if d < 1 or M < 1:
        raise ProjectorError("d and M must be >= 1")
    W = derive_rng(seed, "projection_a").standard_normal((d, M))
    W.flags.writeable = False
    return ProjectionLayer(W=W)


def project(layer: ProjectionLayer, features: FeatureMatrix) -> FeatureMatrix:
    if features.dim != layer.W.shape[0]:
        raise ProjectorError(
            f"feature dimension {features.dim} != projection input {layer.W.shape[0]}")
    H = np.maximum(features.rows @ layer.W, 0.0)
    return FeatureMatrix(rows=H, labels=list(features.labels))


def _one_hot_sums(H, labels, registry):
    """Per-class column sums of H rows; extends registry in first-sight order."""
    for c in labels:
        if c not in registry:
            registry.append(c)
    sums = np.zeros((H.shape[1], len(registry)))
    index = {c: j for j, c in enumerate(registry)}
    for row, c in zip(H, labels):
        sums[:, index[c]] += row
    return sums


def accumulate(state: PrototypeState, H: FeatureMatrix) -> PrototypeState:
    """G += sum h h^T, C[:, class] += h; new classes grow zero columns first."""
    if H.rows.shape[0] == 0:
        return state
    if H.dim != state.M:
        raise ProjectorError(f"projected dimension {H.dim} != state dimension {state.M}")
    # H^T H is a blocked (pairwise-style) reduction over samples, which keeps
    # the result stable under sample reordering.
    state.G += H.rows.T @ H.rows
    before = len(state.registry)
    sums = _one_hot_sums(H.rows, H.labels, state.registry)
    if len(state.registry) > before:
        grown = np.zeros((state.M, len(state.registry)))
        grown[:, :before] = state.C
        state.C = grown
    state.C += sums
    state.stale = True
    return state


def solve_prototypes(state: PrototypeState, lam: float) -> np.ndarray:
    """P = (G + lam I)^{-1} C via SPD factorization (no explicit inverse)."""
    if lam <= 0:
        raise ProjectorError("lambda must be positive")
    A = state.G.copy()
    A.flat[::state.M + 1] += lam
    try:
        factor = cho_factor(A, lower=True, overwrite_a=True)
        P = cho_solve(factor, state.C)
    except np.linalg.LinAlgError as exc:
        raise ProjectorError(f"prototype solve failed: {exc}") from exc
    if not np.isfinite(P).all():
        raise ProjectorError("prototype solve produced non-finite entries")
    state.P = P
    state.stale = False
    return P


def score(state: PrototypeState, H_test: FeatureMatrix) -> ScoreMatrix:
    if state.stale or state.P is None:
        raise StalePrototypes("prototypes are stale; call solve_prototypes first")
    if H_test.dim != state.M:
        raise ProjectorError(f"projected dimension {H_test.dim} != state dimension {state.M}")
    return ScoreMatrix(rows=H_test.rows @ state.P, classes=list(state.registry))


def select_lambda(state: PrototypeState, task_H: FeatureMatrix, grid=DEFAULT_LAMBDA_GRID,
                  seed: int = 0) -> float:
    """Pick lambda by an 80:20 split of the current task's samples: build
    prototypes from (prior state + 80% portion) and minimize one-hot MSE on
    the held-out 20%. Ties go to the smaller lambda.

    The trial Gram is eigendecomposed once, G = V diag(w) V^T, so every grid
    point is a diagonal rescale: P(lam) = V diag(1 / (w + lam)) V^T C. Grid
    points with lam + w_min at or below the Gram's numerical-rank tolerance
    M * eps * w_max are skipped, since G + lam I is not reliably positive
    definite there. The pick is then factored once by `solve_prototypes`."""
    grid = sorted(float(g) for g in grid)
    if not grid:
        raise ProjectorError("lambda grid must be nonempty")
    if not all(0.0 < lam < np.inf for lam in grid):
        raise ProjectorError(f"lambda grid must be finite and positive, got {grid}")
    n = task_H.rows.shape[0]
    if n < MIN_SWEEP_ROWS:
        raise ProjectorError(
            f"lambda selection needs >= {MIN_SWEEP_ROWS} task samples, got {n}")
    perm = derive_rng(seed, "lambda_split").permutation(n)
    n_fit = int(round(0.8 * n))
    fit_idx, val_idx = perm[:n_fit], perm[n_fit:]
    if len(val_idx) == 0 or len(fit_idx) == 0:
        raise ProjectorError("degenerate 80:20 split")

    fit = FeatureMatrix(rows=task_H.rows[fit_idx], labels=[task_H.labels[i] for i in fit_idx])
    trial = state.snapshot()
    accumulate(trial, fit)
    registry = list(trial.registry)
    H_val = task_H.rows[val_idx]
    targets = np.zeros((len(val_idx), len(registry)))
    index = {c: j for j, c in enumerate(registry)}
    for i, vi in enumerate(val_idx):
        targets[i, index[task_H.labels[vi]]] = 1.0

    w, V = eigh(trial.G, check_finite=False)
    A, B = H_val @ V, V.T @ trial.C
    del V
    tol = trial.M * np.finfo(float).eps * max(w[-1], 0.0)
    best_lam, best_mse = None, np.inf
    for lam in grid:
        if lam + w[0] <= tol:
            continue
        mse = float(np.mean((A @ (B / (w + lam)[:, None]) - targets) ** 2))
        if mse < best_mse:
            best_lam, best_mse = lam, mse
    if best_lam is None:
        raise ProjectorError(
            f"every lambda in the grid is at or below the Gram's rank tolerance {tol:.3g}")
    solve_prototypes(trial, best_lam)
    return best_lam

