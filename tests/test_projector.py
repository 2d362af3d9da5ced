import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.linalg import cho_factor, cho_solve

from proto_cil import projector
from proto_cil.errors import Divergence
from proto_cil.features import FeatureMatrix
from proto_cil.harness import RunConfig, run_scenario
from proto_cil.projector import (DEFAULT_LAMBDA_GRID, accumulate, empty_state, init_projection,
                                 project, score, select_lambda, solve_prototypes)
from proto_cil.seeding import derive_rng

from factor_views import gram, root

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "b2inc2_blobs.json"


def random_fm(n, d, seed, classes=("a", "b", "c")):
    rng = np.random.default_rng(seed)
    return FeatureMatrix(rows=rng.normal(size=(n, d)),
                         labels=[classes[i % len(classes)] for i in range(n)])


def blob_fm(n, d, seed, classes, scale):
    """Rows around one random mean per class, all multiplied by `scale`."""
    rng = np.random.default_rng(seed)
    means = {c: rng.normal(size=d) for c in classes}
    labels = [classes[i % len(classes)] for i in range(n)]
    rows = np.array([means[c] + 0.3 * rng.normal(size=d) for c in labels])
    return FeatureMatrix(rows=scale * rows, labels=labels)


# ---------------------------------------------------------------------------
# projection layer

def test_projection_shapes_and_determinism():
    a = init_projection(8, 32, seed=3)
    b = init_projection(8, 32, seed=3)
    assert a.W.shape == (8, 32)
    assert np.array_equal(a.W, b.W)
    assert not np.array_equal(a.W, init_projection(8, 32, seed=4).W)


def test_projection_matrix_is_frozen():
    layer = init_projection(4, 8, seed=0)
    with pytest.raises(ValueError):
        layer.W[0, 0] = 1.0


def test_project_relu_clamps_negatives():
    layer = init_projection(4, 16, seed=1)
    fm = random_fm(10, 4, seed=0)
    H = project(layer, fm)
    assert H.rows.shape == (10, 16)
    assert H.rows.min() >= 0.0
    assert np.array_equal(H.rows, np.maximum(fm.rows @ layer.W, 0.0))


def test_project_rows_do_not_depend_on_batch_composition():
    """40 rows projected alone equal the same rows inside a 60-row call at
    offset 7, bit for bit. One row alone goes through numpy's matrix-vector
    product and agrees only to rounding; the run's eval cache needs only that
    each task projects a fixed slice."""
    layer = init_projection(1024, 1000, seed=2)
    fm = random_fm(60, 1024, seed=5)
    whole = project(layer, fm).rows
    part = FeatureMatrix(rows=fm.rows[7:47], labels=fm.labels[7:47])
    assert np.array_equal(project(layer, part).rows, whole[7:47])
    one = project(layer, FeatureMatrix(rows=fm.rows[7:8], labels=fm.labels[7:8])).rows
    assert np.abs(one - whole[7:8]).max() <= 1e-12 * np.abs(whole[7:8]).max()


# ---------------------------------------------------------------------------
# streaming statistics

def test_accumulate_matches_batch_formulas():
    """G to rounding; each column of C is its class's rows (interleaved with
    the other classes' rows) summed one at a time in row order, bit for bit."""
    H = random_fm(20, 6, seed=2)
    st = accumulate(empty_state(6), H)
    assert np.allclose(gram(st), H.rows.T @ H.rows)
    for j, c in enumerate(st.registry):
        ref = np.zeros(6)
        for row, label in zip(H.rows, H.labels):
            if label == c:
                ref = ref + row
        assert np.array_equal(st.C[:, j], ref)


def test_registry_grows_in_first_sight_order():
    st = empty_state(3)
    st = accumulate(st, FeatureMatrix(rows=np.eye(3)[:2], labels=["q", "p"]))
    assert st.registry == ("q", "p")
    st = accumulate(st, FeatureMatrix(rows=np.eye(3)[2:], labels=["z"]))
    assert st.registry == ("q", "p", "z")
    assert st.C.shape == (3, 3)
    # the old columns are unchanged by registry growth
    assert np.array_equal(st.C[:, 0], np.eye(3)[0])


def test_incremental_equals_single_pass():
    H = random_fm(50, 8, seed=3)
    whole = accumulate(empty_state(8), H)
    inc = empty_state(8)
    for lo, hi in ((0, 13), (13, 30), (30, 50)):
        inc = accumulate(inc, FeatureMatrix(rows=H.rows[lo:hi], labels=H.labels[lo:hi]))
    scale = np.linalg.norm(gram(whole))
    assert np.linalg.norm(gram(inc) - gram(whole)) <= 1e-12 * scale
    assert np.linalg.norm(inc.C - whole.C) <= 1e-12 * max(np.linalg.norm(whole.C), 1.0)
    P1 = solve_prototypes(whole, 0.1)
    P2 = solve_prototypes(inc, 0.1)
    assert np.linalg.norm(P1 - P2) <= 1e-10 * max(np.linalg.norm(P1), 1.0)


def test_accumulation_order_independent():
    H = random_fm(40, 5, seed=4)
    perm = np.random.default_rng(0).permutation(40)
    a = accumulate(empty_state(5), H)
    b = accumulate(empty_state(5),
                   FeatureMatrix(rows=H.rows[perm], labels=[H.labels[i] for i in perm]))
    order = [b.registry.index(c) for c in a.registry]
    assert np.linalg.norm(gram(a) - gram(b)) <= 1e-12 * np.linalg.norm(gram(a))
    assert np.linalg.norm(a.C - b.C[:, order]) <= 1e-12 * max(np.linalg.norm(a.C), 1.0)


def test_gram_symmetric_psd():
    st = accumulate(empty_state(7), random_fm(30, 7, seed=5))
    assert np.allclose(gram(st), gram(st).T)
    assert np.linalg.eigvalsh(gram(st)).min() >= -1e-10


def test_factor_stays_thin_below_m_rows():
    M = 50
    st = accumulate(empty_state(M), random_fm(12, M, seed=6))
    assert root(st).shape == (12, M)
    solve_prototypes(st, 1.0)
    held = [v for v in vars(st).values() if isinstance(v, np.ndarray)]
    assert all(a.shape != (M, M) for a in held)
    st = accumulate(st, random_fm(60, M, seed=7))
    assert root(st).shape == (M, M)
    assert st.s.size == M


def test_accumulate_keeps_at_most_m_values(monkeypatch):
    """An eigh that puts more than M eigenvalues above the cut (exact arithmetic
    gives at most M, the rank of X) still leaves an M-wide factor."""
    M = 6

    def flat_eigh(K):
        return np.linspace(1.0, 2.0, K.shape[0]), np.eye(K.shape[0])

    monkeypatch.setattr(projector, "eigh", flat_eigh)
    st = accumulate(empty_state(M), random_fm(10, M, seed=8))
    assert st.s.size == M
    assert st.Vt.shape == (M, M)


def test_single_row_updates_match_one_batch():
    """150 one-row updates keep Vt orthonormal and agree with one batch update."""
    M = 60
    H = random_fm(150, M, seed=8)
    whole = accumulate(empty_state(M), H)
    inc = empty_state(M)
    for i in range(150):
        inc = accumulate(inc, FeatureMatrix(rows=H.rows[i:i + 1], labels=H.labels[i:i + 1]))
    assert np.linalg.norm(gram(inc) - gram(whole)) <= 1e-12 * np.linalg.norm(gram(whole))
    assert np.abs(inc.Vt @ inc.Vt.T - np.eye(inc.s.size)).max() <= 1e-12
    for lam in (1e-8, 1e-2, 1e3):
        ref = np.linalg.pinv(gram(whole) + lam * np.eye(M)) @ whole.C
        assert np.linalg.norm(solve_prototypes(inc, lam) - ref) <= 1e-10 * np.linalg.norm(ref)


def test_factor_arrays_are_read_only():
    empty = empty_state(5)
    assert not any(a.flags.writeable for a in (empty.s, empty.Vt, empty.C))
    st = accumulate(empty_state(5), random_fm(8, 5, seed=9))
    with pytest.raises(ValueError):
        st.Vt[0, 0] = 1.0
    with pytest.raises(ValueError):
        st.s[0] = 1.0
    with pytest.raises(ValueError):
        st.C[0, 0] = 1.0


def test_accumulate_replaces_arrays_without_writing_inputs():
    """Accumulating rows with a new class returns a new state with new arrays;
    H and the input state keep their objects, bytes and registry, and no field
    of a state can be assigned. No rows return the input state itself."""
    st = accumulate(empty_state(8), random_fm(12, 8, seed=10))
    H = random_fm(9, 8, seed=11, classes=("a", "d"))
    old = [H.rows, st.s, st.Vt, st.C]
    copies = [a.copy() for a in old]
    new = accumulate(st, H)
    assert new is not st and new.C.shape == (8, 4)
    assert not any(a is b for a, b in zip(old[1:], (new.s, new.Vt, new.C)))
    assert all(a is b for a, b in zip((st.s, st.Vt, st.C), old[1:]))
    assert all(np.array_equal(a, b) for a, b in zip(old, copies))
    assert st.registry == ("a", "b", "c") and new.registry == ("a", "b", "c", "d")
    for name in ("s", "Vt", "C", "registry"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(new, name, getattr(st, name))
    assert accumulate(new, FeatureMatrix(rows=np.empty((0, 8)), labels=[])) is new


def test_accumulate_memory_guard():
    """One accumulate at r=160, n=40, M=1000 fills one (r + n, M) buffer X and
    writes the new Vt into its rotation U^T X: 2.25 copies of X's bytes
    traced. Stacking X from a scaled copy of Vt and dividing into a
    fresh array peaks at 3.24 copies."""
    r, n, M = 160, 40, 1000
    st = accumulate(empty_state(M), random_fm(r, M, seed=12))
    H = random_fm(n, M, seed=13)
    assert st.s.size == r
    tracemalloc.start()
    try:
        accumulate(st, H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 2.75 * (r + n) * M * 8
    assert peak <= bound, f"peak {peak / 1e6:.2f} MB > bound {bound / 1e6:.2f} MB"


def test_solve_after_accumulate_refreshes_cached_svd():
    H = random_fm(30, 20, seed=7)
    st = accumulate(empty_state(20), FeatureMatrix(rows=H.rows[:12], labels=H.labels[:12]))
    solve_prototypes(st, 0.1)
    st = accumulate(st, FeatureMatrix(rows=H.rows[12:], labels=H.labels[12:]))
    fresh = accumulate(empty_state(20), H)
    P, ref = solve_prototypes(st, 0.1), solve_prototypes(fresh, 0.1)
    assert np.linalg.norm(P - ref) <= 1e-10 * np.linalg.norm(ref)


# ---------------------------------------------------------------------------
# prototype solve + scoring

def test_solve_matches_dense_inverse_oracle():
    for seed in range(20):
        st = accumulate(empty_state(12), random_fm(30, 12, seed=seed))
        lam = float(10.0 ** (seed % 5 - 2))
        P = solve_prototypes(st, lam)
        oracle = np.linalg.inv(gram(st) + lam * np.eye(12)) @ st.C
        assert np.linalg.norm(P - oracle) <= 1e-8 * max(np.linalg.norm(oracle), 1.0)


def test_hand_worked_prototype():
    st = accumulate(empty_state(2), FeatureMatrix(rows=np.array([[1.0, 0.0]]), labels=["a"]))
    P = solve_prototypes(st, 1.0)
    # G = diag(1, 0), C = [1, 0]^T, so P = (G + I)^{-1} C = [0.5, 0]^T
    assert np.allclose(P, [[0.5], [0.0]])


def test_solve_matches_dense_shift_cholesky():
    """The SVD solve agrees with a Cholesky solve of the dense G + lam * I
    and leaves the factor and the accumulator as they were."""
    rng = np.random.default_rng(11)
    H = np.maximum(rng.normal(size=(150, 40)) @ rng.normal(size=(40, 300)), 0.0)
    st = accumulate(empty_state(300),
                    FeatureMatrix(rows=H, labels=[i % 4 for i in range(150)]))
    R0, C0 = root(st).copy(), st.C.copy()
    for lam in (1e-2, 10.0, 1e4):
        dense = cho_solve(cho_factor(gram(st) + lam * np.eye(st.M), lower=True), st.C)
        P = solve_prototypes(st, lam)
        assert np.linalg.norm(P - dense) <= 1e-8 * np.linalg.norm(dense)
    assert np.array_equal(root(st), R0) and np.array_equal(st.C, C0)


def test_scores_are_feature_prototype_products():
    st = accumulate(empty_state(4), random_fm(10, 4, seed=1))
    P = solve_prototypes(st, 0.5)
    Ht = random_fm(6, 4, seed=9)
    assert np.allclose(score(P, Ht.rows), Ht.rows @ P)


def relu_rows(n, M, seed, k):
    rng = np.random.default_rng(seed)
    rows = np.maximum(rng.normal(size=(n, M)), 0.0)
    return FeatureMatrix(rows=rows, labels=[f"c{int(v)}" for v in rng.integers(0, k, size=n)])


def prototypes_both_orders(H, perm, lam):
    """P solved from H, and P solved from H's rows in `perm` order with its
    columns aligned to the first by registry."""
    a = accumulate(empty_state(H.dim), H)
    b = accumulate(empty_state(H.dim),
                   FeatureMatrix(rows=H.rows[perm], labels=[H.labels[i] for i in perm]))
    P = solve_prototypes(a, lam)
    Pb = solve_prototypes(b, lam)[:, [b.registry.index(c) for c in a.registry]]
    return P, Pb


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=hst.integers(1, 30), M=hst.integers(1, 12), seed=hst.integers(0, 2**32 - 1),
       k=hst.integers(1, 4), lam=hst.sampled_from([1e-2, 1.0, 1e2]), data=hst.data())
def test_prototypes_do_not_depend_on_row_order(n, M, seed, k, lam, data):
    """The same ReLU'd rows accumulated in a permuted order give the same P to
    1e-10 relative. Derandomized: see the ill-conditioned case below."""
    P, Pb = prototypes_both_orders(relu_rows(n, M, seed, k),
                                   data.draw(hst.permutations(range(n))), lam)
    assert np.linalg.norm(Pb - P) <= 1e-10 * np.linalg.norm(P)


@pytest.mark.xfail(strict=True, reason="the kernel eigh squares the factor's condition number")
def test_prototypes_do_not_depend_on_row_order_when_ill_conditioned():
    """Known counterexample: 4 rows of width 5 whose smallest singular value is
    3.6e-6 of the largest. Its Vt row comes from a kernel eigenvalue 1.3e-11
    of the largest, so reordering the rows loses Vt's orthogonality to 3e-6
    and moves P by 2.1e-8 at lambda 1e-2."""
    P, Pb = prototypes_both_orders(relu_rows(4, 5, 3764332042, 3), [2, 0, 1, 3], 1e-2)
    assert np.linalg.norm(Pb - P) <= 1e-10 * np.linalg.norm(P)


# ---------------------------------------------------------------------------
# lambda selection

def brute_force_lambda(state, task_H, grid, seed):
    """Independent re-implementation of the 80:20 selection rule."""
    n = task_H.rows.shape[0]
    perm = derive_rng(seed, "lambda_split").permutation(n)
    n_fit = int(round(0.8 * n))
    fit_idx, val_idx = perm[:n_fit], perm[n_fit:]
    trial = accumulate(state, FeatureMatrix(rows=task_H.rows[fit_idx],
                                            labels=[task_H.labels[i] for i in fit_idx]))
    best, best_mse = None, np.inf
    for lam in sorted(float(g) for g in grid):
        A = gram(trial) + lam * np.eye(trial.M)
        P = np.linalg.solve(A, trial.C)
        idx = {c: j for j, c in enumerate(trial.registry)}
        T = np.zeros((len(val_idx), len(trial.registry)))
        for i, vi in enumerate(val_idx):
            T[i, idx[task_H.labels[vi]]] = 1.0
        mse = float(np.mean((task_H.rows[val_idx] @ P - T) ** 2))
        if mse < best_mse:
            best, best_mse = lam, mse
    return best


def test_select_lambda_matches_brute_force():
    for seed in range(5):
        st = accumulate(empty_state(10), random_fm(25, 10, seed=seed))
        task_H = random_fm(20, 10, seed=seed + 100, classes=("d", "e"))
        lam = select_lambda(st, task_H, seed=seed)
        assert lam == brute_force_lambda(st, task_H, DEFAULT_LAMBDA_GRID, seed)


def test_select_lambda_does_not_mutate_state():
    st = accumulate(empty_state(6), random_fm(12, 6, seed=0))
    solve_prototypes(st, 1.0)
    R0, C0, reg0 = root(st).copy(), st.C.copy(), st.registry
    s0, Vt0 = st.s.copy(), st.Vt.copy()
    arrays = (st.s, st.Vt, st.C)
    assert not st.s.flags.writeable and not st.Vt.flags.writeable
    select_lambda(st, random_fm(10, 6, seed=1, classes=("x", "y")), seed=0)
    assert all(a is b for a, b in zip((st.s, st.Vt, st.C), arrays))
    assert np.array_equal(root(st), R0) and np.array_equal(st.C, C0)
    assert st.registry == reg0 == ("a", "b", "c")
    assert np.array_equal(st.s, s0) and np.array_equal(st.Vt, Vt0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        st.registry = ("x",)


def test_select_lambda_grid_order_irrelevant():
    st = empty_state(6)
    task_H = random_fm(15, 6, seed=2)
    grid = [1e2, 1e-3, 1.0, 1e-1]
    assert select_lambda(st, task_H, grid=grid, seed=1) == \
        select_lambda(st, task_H, grid=list(reversed(grid)), seed=1)


def rank_deficient_case():
    """N < M rows scaled so that ||G|| is a few 1e8: Cholesky of G + 1e-8 I fails."""
    M = 100
    prior = accumulate(empty_state(M), blob_fm(12, M, 0, ("a", "b"), 500.0))
    task = blob_fm(20, M, 50, ("c", "d"), 500.0)
    return prior, task


def test_select_lambda_skips_grid_below_rank_tolerance():
    prior, task = rank_deficient_case()
    full = accumulate(prior, task)
    w_max = np.linalg.eigvalsh(gram(full))[-1]
    assert 1e8 < w_max < 1e9
    with pytest.raises(np.linalg.LinAlgError):
        cho_factor(gram(full) + 1e-8 * np.eye(full.M))
    lam = select_lambda(prior, task, seed=0)
    assert lam in DEFAULT_LAMBDA_GRID
    assert lam > full.M * np.finfo(float).eps * w_max
    solve_prototypes(full, lam)


def test_select_lambda_grid_wholly_below_rank_tolerance_raises():
    prior, task = rank_deficient_case()
    with pytest.raises(Divergence, match="rank tolerance"):
        select_lambda(prior, task, grid=[1e-8, 1e-7, 1e-6], seed=0)


def test_rank_deficient_solve_matches_pseudoinverse():
    prior, task = rank_deficient_case()
    full = accumulate(prior, task)
    P = solve_prototypes(full, 1e-8)
    assert np.isfinite(P).all()
    ref = np.linalg.pinv(gram(full)) @ full.C
    assert np.linalg.norm(P - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("seed,picks", [
    (1, [10.0, 100.0, 10.0, 100.0, 10.0]),
    (2, [10.0, 100.0, 10.0, 100.0, 10.0]),
    (3, [100.0, 100.0, 100.0, 10.0, 100.0]),
])
def test_bundled_config_lambda_picks(seed, picks):
    """Picks of the bundled config as the per-lambda Cholesky sweep made them."""
    cfg = json.loads(CONFIG_PATH.read_text())
    cfg["seed"] = seed
    assert run_scenario(RunConfig.from_dict(cfg))["lambdas"] == {"ingested": picks}

