"""Random-projection expansion and the exemplar-free class-prototype engine.

Features are mapped through a frozen Gaussian matrix and a ReLU. The Gram
matrix of the projected rows is never formed: each branch keeps a thin
triangular factor R with G = R^T R, which `accumulate` updates by a QR of
[R; H] (Golub & Van Loan, Matrix Computations, 4th ed., sec. 6.5), so R has
r = min(rows seen, M) rows. Beside it sits the per-class accumulator C.

The prototypes solve (G + lambda I) P = C through one cached thin SVD
R = U diag(s) V^T: P = V diag(1 / (s^2 + lambda)) V^T C. Every column of C is
a sum of projected rows, so C lies in the row space of R and the null-space
term is dropped. The lambda sweep rescales the same SVD per grid point.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError, qr, svd

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
    R: np.ndarray = None          # (r, M) with G = R^T R, r = min(rows seen, M)
    C: np.ndarray = None          # (M, K)
    registry: list = field(default_factory=list)
    P: np.ndarray = None          # (M, K)
    stale: bool = True
    _svd: tuple = field(default=None, init=False, repr=False)  # (s, Vt) of R, or None

    def __post_init__(self):
        if self.R is None:
            self.R = np.zeros((0, self.M))
        if self.C is None:
            self.C = np.zeros((self.M, 0))

    @property
    def G(self) -> np.ndarray:
        return self.R.T @ self.R

    def spectrum(self):
        """(s, Vt): the thin SVD of R without singular values at or below
        s_max * max(r, M) * eps. Computed once per R."""
        if self._svd is None:
            try:
                _, s, Vt = svd(self.R, full_matrices=False)
            except LinAlgError as exc:
                raise ProjectorError(f"SVD of the Gram factor failed: {exc}") from exc
            if s.size:
                keep = s > s[0] * max(self.R.shape) * np.finfo(float).eps
                s, Vt = s[keep], Vt[keep]
            self._svd = (s, Vt)
        return self._svd

    def snapshot(self) -> "PrototypeState":
        return PrototypeState(M=self.M, R=self.R.copy(), C=self.C.copy(),
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
    """R <- qr([R; H]) so that G gains sum h h^T; C[:, class] += h; new classes
    grow zero columns first."""
    if H.rows.shape[0] == 0:
        return state
    if H.dim != state.M:
        raise ProjectorError(f"projected dimension {H.dim} != state dimension {state.M}")
    state.R = qr(np.vstack((state.R, H.rows)), mode="r")
    state._svd = None
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
    """P = (G + lam I)^{-1} C = V diag(1 / (s^2 + lam)) V^T C from the cached
    SVD of R (no explicit inverse)."""
    if lam <= 0:
        raise ProjectorError("lambda must be positive")
    s, Vt = state.spectrum()
    P = Vt.T @ ((Vt @ state.C) / (s * s + lam)[:, None])
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

    The trial state's cached SVD makes every grid point a diagonal rescale:
    P(lam) = V diag(1 / (s^2 + lam)) V^T C. The Gram spectrum w is s^2, padded
    with zeros when fewer than M values remain. Grid points with lam + w_min
    at or below the numerical-rank tolerance M * eps * w_max are skipped,
    since G + lam I is not reliably positive definite there. The pick is then
    solved by `solve_prototypes` from the same SVD."""
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

    s, Vt = trial.spectrum()
    A, B = H_val @ Vt.T, Vt @ trial.C
    w = s * s
    w_min = w[-1] if w.size == trial.M else 0.0
    tol = trial.M * np.finfo(float).eps * (w[0] if w.size else 0.0)
    best_lam, best_mse = None, np.inf
    for lam in grid:
        if lam + w_min <= tol:
            continue
        mse = float(np.mean((A @ (B / (w + lam)[:, None]) - targets) ** 2))
        if mse < best_mse:
            best_lam, best_mse = lam, mse
    if best_lam is None:
        raise ProjectorError(
            f"every lambda in the grid is at or below the Gram's rank tolerance {tol:.3g}")
    solve_prototypes(trial, best_lam)
    return best_lam

