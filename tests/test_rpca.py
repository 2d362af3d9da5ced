import numpy as np
import pytest

from proto_cil import rpca
from proto_cil.errors import Divergence, InputError
from proto_cil.rpca import (SMOOTH_EPS, bilinear_loss_and_grad, export_sparse_pgm, rpca_apply,
                            rpca_train)

from gradcheck import grad_check
from pcp_oracle import pcp_oracle


def rank1_images(n=60, m=36, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.random(m) + 0.5
    c = rng.uniform(0.5, 1.0, size=n)
    return np.outer(c, u)


def rank2_spiked(size=64, spike_frac=0.05, seed=0):
    rng = np.random.default_rng(seed)
    L0 = np.outer(rng.normal(size=size), rng.normal(size=size))
    L0 += np.outer(rng.normal(size=size), rng.normal(size=size))
    S0 = np.zeros((size, size))
    mask = rng.random((size, size)) < spike_frac
    S0[mask] = rng.choice([-5.0, 5.0], size=mask.sum())
    return L0, S0


def denoiser_loss(model, X):
    """The smoothed-L1 loss that `rpca_train` minimises, at `model`."""
    return bilinear_loss_and_grad(model["A"], model["B"], X)[0]


def rel_l1(model, X):
    recon = X @ model["B"].T @ model["A"].T
    return np.abs(X - recon).sum() / np.abs(X).sum()


# ---------------------------------------------------------------------------
# bilinear loss and model basics

def span_of(x):
    """A rank-1 model projecting onto the span of `x`: it is the identity on `x`."""
    u = x / np.linalg.norm(x)
    return {"A": u[:, None], "B": u[None, :]}


def test_identity_map_gives_zero_sparse():
    x = np.arange(4.0)
    model = span_of(x)
    assert np.allclose(model["A"] @ (model["B"] @ x), x)
    assert np.allclose(rpca_apply(model, x), 0.0)


def test_decomposition_additive_exactly():
    rng = np.random.default_rng(0)
    model = {"A": rng.normal(size=(6, 2)), "B": rng.normal(size=(2, 6))}
    x = rng.random(6)
    assert np.array_equal(rpca_apply(model, x), x - model["A"] @ (model["B"] @ x))


def test_zero_batch_loss_is_smoothing_floor():
    A = np.zeros((5, 2))
    B = np.zeros((2, 5))
    batch = np.zeros((3, 5))
    loss, gA, gB = bilinear_loss_and_grad(A, B, batch)
    assert loss == pytest.approx(3 * 5 * SMOOTH_EPS)
    assert np.allclose(gA, 0.0) and np.allclose(gB, 0.0)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    model = {"A": rng.normal(size=(8, 2)), "B": rng.normal(size=(2, 8))}
    batch = rng.normal(size=(5, 8)) + 2.0  # residuals well away from the L1 kink
    err = grad_check(model, batch, epsilon=1e-6, seed=0)
    assert err <= 1e-6


# ---------------------------------------------------------------------------
# training

def test_train_fits_rank1_data():
    X = rank1_images()
    model = rpca_train(X, r=1, epochs=1500, lr=0.5, seed=0)
    assert rel_l1(model, X) <= 0.05


def test_train_loss_decreases():
    X = rank1_images(seed=2)
    init, model = (rpca_train(X, r=1, epochs=epochs, lr=0.5, seed=0) for epochs in (0, 50))
    assert denoiser_loss(model, X) <= 0.5 * denoiser_loss(init, X)


def test_trained_low_rank_batch_has_bounded_rank():
    X = rank1_images(n=40, seed=1)
    model = rpca_train(X, r=2, epochs=100, lr=0.5, seed=0)
    lows = np.stack([model["A"] @ (model["B"] @ x) for x in X])
    sv = np.linalg.svd(lows, compute_uv=False)
    assert sv[2] <= 1e-8 * sv[0]


def test_train_recovers_spike_in_sparse_component():
    X = rank1_images(n=80, m=36, seed=4)
    model = rpca_train(X, r=1, epochs=1500, lr=0.5, seed=0)
    x = X[0].copy()
    x[7] += 1.0
    sparse = rpca_apply(model, x)
    # the injected spike should land almost entirely in the sparse part
    clean_resid = rpca_apply(model, X[0])[7]
    assert abs((sparse[7] - clean_resid) - 1.0) <= 0.1


def test_train_subspace_matches_pcp_oracle():
    X = rank1_images(n=60, seed=5)
    model = rpca_train(X, r=1, epochs=800, lr=0.5, seed=0)
    L, _ = pcp_oracle(X, tol=1e-6)
    _, _, Vt = np.linalg.svd(L)
    a = model["A"][:, 0] / np.linalg.norm(model["A"][:, 0])
    # A spans the image of the low-rank map; compare against the oracle's
    # principal right-singular direction (the map acts on image space)
    cos = abs(float(a @ Vt[0]))
    assert cos >= np.cos(np.deg2rad(30.0))


def test_train_validates_inputs():
    X = rank1_images(n=4, m=9)
    with pytest.raises(InputError, match="rank must satisfy 0 < r < m, got r=9, m=9"):
        rpca_train(X, r=9, epochs=1, lr=0.5)
    with pytest.raises(InputError, match="got r=0"):
        rpca_train(X, r=0, epochs=1, lr=0.5)


def test_train_divergence_is_reported_with_epoch(monkeypatch):
    X = rank1_images(n=20, m=16, seed=6)
    monkeypatch.setattr(rpca, "GRAD_CLIP", np.inf)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(Divergence, match=r"^non-finite denoiser loss at epoch \d+$"):
        rpca_train(X, r=1, epochs=50, lr=1e12, seed=0)


def test_export_sparse_pgm_sidecar_roundtrip(tmp_path):
    import json

    sparse = np.linspace(-1, 2, 9)
    export_sparse_pgm(sparse, 3, tmp_path / "s.pgm")
    sidecar = {"offset": -1.0, "scale": 3.0}  # min and range of `sparse`
    from proto_cil.pgm import read_pgm

    back = read_pgm(tmp_path / "s.pgm")
    stored = json.loads((tmp_path / "s.pgm.json").read_text())
    assert stored == sidecar
    restored = back * sidecar["scale"] + sidecar["offset"]
    assert np.abs(restored.ravel() - sparse).max() <= 0.5 * sidecar["scale"] / 255


# ---------------------------------------------------------------------------
# principal-component-pursuit oracle

def test_pcp_zero_matrix():
    L, S = pcp_oracle(np.zeros((8, 8)))
    assert np.all(L == 0) and np.all(S == 0)


def test_pcp_additive_fixed_point():
    L0, S0 = rank2_spiked(size=32, seed=1)
    L, S = pcp_oracle(L0 + S0)
    X = L0 + S0
    assert np.linalg.norm(X - L - S) / np.linalg.norm(X) <= 1e-6


def test_pcp_recovers_low_rank_part():
    L0, S0 = rank2_spiked(size=64, seed=0)
    L, S = pcp_oracle(L0 + S0)
    assert np.linalg.norm(L - L0) / np.linalg.norm(L0) <= 1e-2
    assert np.linalg.norm(S - S0) / np.linalg.norm(S0) <= 1e-2


def test_pcp_validates_inputs():
    with pytest.raises(InputError, match="X must be finite"):
        pcp_oracle(np.array([[np.inf, 0.0]]))
    with pytest.raises(InputError, match="tol must be positive"):
        pcp_oracle(np.zeros((3, 3)), tol=0.0)


def test_pcp_nonconvergence_reports_residual():
    L0, S0 = rank2_spiked(size=32, seed=2)
    with pytest.raises(InputError, match="converge"):
        pcp_oracle(L0 + S0, max_iter=2)
