"""Acceptance gate: one test per release criterion.

Each test prints a single `[criterion N] name: PASS/FAIL` line (run pytest
with -s to see the lines for passing tests) and enforces the stated
tolerances and runtime budgets.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from proto_cil.cnn import INPUT_SIZE, cnn_init
from proto_cil.datahub import ScenarioSpec, make_scenario, synth_dataset
from proto_cil.features import FeatureMatrix, softmax
from proto_cil.fusion import late_fuse
from proto_cil.harness import DEFAULTS, RunConfig, avg_acc, perf_drop, run_scenario, train_denoiser
from proto_cil.projector import accumulate, empty_state, solve_prototypes
from proto_cil.rpca import bilinear_loss_and_grad, rpca_train

from factor_views import gram
from gradcheck import grad_check
from pcp_oracle import pcp_oracle

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "b2inc2_blobs.json"


class _Gate:
    def __init__(self, number, name, budget_s):
        self.number = number
        self.name = name
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None and elapsed <= self.budget_s else "FAIL"
        print(f"[criterion {self.number}] {self.name}: {verdict} ({elapsed:.2f} s)")
        if exc_type is None and elapsed > self.budget_s:
            pytest.fail(f"criterion {self.number} exceeded {self.budget_s} s budget "
                        f"({elapsed:.2f} s)")
        return False


def test_criterion_1_metric_formula_fidelity():
    with _Gate(1, "metric-formula fidelity", 1.0):
        row7 = [70.90, 72.85, 73.49, 76.48, 58.95, 55.94, 52.66]
        assert abs(avg_acc(row7) - 65.89) <= 0.01
        row5 = [98.18, 98.51, 96.45, 95.15, 95.13]
        assert abs(avg_acc(row5) - 96.68) <= 0.01
        assert perf_drop(63.54, 59.42) == pytest.approx(4.12, abs=1e-12)
        assert perf_drop(99.45, 96.16) == pytest.approx(3.29, abs=1e-12)


def test_criterion_2_incremental_equals_batch():
    with _Gate(2, "incremental equals batch statistics", 30.0):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(20, 501))
            d = int(rng.integers(4, 65))
            m = int(rng.integers(10, 201))
            H = rng.normal(size=(n, d)) @ rng.normal(size=(d, m))
            labels = [f"c{int(v)}" for v in rng.integers(0, 6, size=n)]
            fm = FeatureMatrix(rows=H, labels=labels)
            whole = accumulate(empty_state(m), fm)
            inc = empty_state(m)
            cuts = sorted(rng.integers(0, n + 1, size=int(rng.integers(0, 4))))
            bounds = [0] + list(cuts) + [n]
            for lo, hi in zip(bounds, bounds[1:]):
                if hi > lo:
                    inc = accumulate(inc, FeatureMatrix(rows=H[lo:hi], labels=labels[lo:hi]))
            order = [inc.registry.index(c) for c in whole.registry]
            gs = np.linalg.norm(gram(whole))
            cs = max(np.linalg.norm(whole.C), 1.0)
            assert np.linalg.norm(gram(inc) - gram(whole)) <= 1e-12 * gs
            assert np.linalg.norm(inc.C[:, order] - whole.C) <= 1e-12 * cs
            lam = 10.0 ** int(rng.integers(-2, 3))
            P1 = solve_prototypes(whole, lam)
            P2 = solve_prototypes(inc, lam)[:, order]
            assert np.linalg.norm(P1 - P2) <= 1e-10 * max(np.linalg.norm(P1), 1.0)


def test_criterion_3_ridge_oracle():
    with _Gate(3, "prototype solve vs dense-inverse oracle", 10.0):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = int(rng.integers(2, 51))
            n = int(rng.integers(m, 3 * m + 1))
            H = rng.normal(size=(n, m))
            labels = [f"c{int(v)}" for v in rng.integers(0, 4, size=n)]
            st = accumulate(empty_state(m), FeatureMatrix(rows=H, labels=labels))
            lam = 10.0 ** float(rng.uniform(-4, 2))
            P = solve_prototypes(st, lam)
            oracle = np.linalg.inv(gram(st) + lam * np.eye(m)) @ st.C
            assert np.linalg.norm(P - oracle) <= 1e-8 * max(np.linalg.norm(oracle), 1.0)


def test_criterion_4_gradient_correctness():
    with _Gate(4, "finite-difference gradient checks", 120.0):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            model = cnn_init(8, seed=seed, num_classes=3)
            img = rng.random((INPUT_SIZE, INPUT_SIZE))
            assert grad_check(model, (img, seed % 3), epsilon=1e-6, seed=seed,
                              num_params=64) <= 1e-3

            d, k = 6, 3
            adapter = {"gamma": rng.uniform(0.5, 1.5, d), "delta": rng.normal(size=d)}
            sample = (rng.normal(size=(d, k)), rng.normal(size=k),
                      rng.normal(size=(10, d)), rng.integers(0, k, size=10))
            assert grad_check(adapter, sample, epsilon=1e-6, seed=seed) <= 1e-6

            rp = {"A": rng.normal(size=(12, 3)), "B": rng.normal(size=(3, 12))}
            batch = rng.normal(size=(6, 12)) + 2.0
            assert grad_check(rp, batch, epsilon=1e-6, seed=seed) <= 1e-6


def denoiser_loss(model, X):
    """The smoothed-L1 loss that `rpca_train` minimises, at `model`: at the
    seeded init (epochs=0) and at the trained arrays it is the first and last
    point of the training curve."""
    return bilinear_loss_and_grad(model["A"], model["B"], X)[0]


def test_criterion_5_rpca_recovery():
    with _Gate(5, "low-rank plus sparse recovery", 60.0):
        rng = np.random.default_rng(2)
        L0 = (np.outer(rng.normal(size=64), rng.normal(size=64))
              + np.outer(rng.normal(size=64), rng.normal(size=64)))
        S0 = np.zeros((64, 64))
        mask = rng.random((64, 64)) < 0.05
        S0[mask] = rng.choice([-5.0, 5.0], size=mask.sum())
        X = L0 + S0
        L, _ = pcp_oracle(X, max_iter=500)
        assert np.linalg.norm(L - L0) / np.linalg.norm(L0) <= 1e-2

        init, model = (rpca_train(X, r=2, epochs=epochs, lr=0.5, seed=0) for epochs in (0, 300))
        assert denoiser_loss(model, X) <= 0.5 * denoiser_loss(init, X)
        lows = np.stack([model["A"] @ (model["B"] @ x) for x in X])
        sv = np.linalg.svd(lows, compute_uv=False)
        assert sv[2] <= 1e-8 * sv[0]


def test_criterion_5_holds_for_the_run_denoiser_defaults():
    """The denoiser a run trains when its config sets no rpca hyperparameter
    meets criterion 5's loss bound on the criterion's problem."""
    rng = np.random.default_rng(2)
    L0 = (np.outer(rng.normal(size=64), rng.normal(size=64))
          + np.outer(rng.normal(size=64), rng.normal(size=64)))
    S0 = np.zeros((64, 64))
    mask = rng.random((64, 64)) < 0.05
    S0[mask] = rng.choice([-5.0, 5.0], size=mask.sum())
    init, model = (train_denoiser(L0 + S0, {**DEFAULTS["rpca"], "epochs": epochs}, seed=0)
                   for epochs in (0, DEFAULTS["rpca"]["epochs"]))
    assert denoiser_loss(model, L0 + S0) <= 0.5 * denoiser_loss(init, L0 + S0)


def test_criterion_6_end_to_end_cil():
    with _Gate(6, "end-to-end class-incremental run", 60.0):
        cfg = RunConfig.from_dict(json.loads(CONFIG_PATH.read_text()))
        metrics = run_scenario(cfg)
        assert len(metrics["task_accuracies"]) == 5
        assert metrics["avg_accuracy"] >= 95.0
        assert metrics["perf_drop"] <= 2.0

        # independent oracle: a whole-dataset ridge classifier separates the
        # same synthetic construction almost perfectly
        ds = synth_dataset(**{**cfg.dataset["synth"], "seed": cfg.seed})
        train = [im for im in ds.samples if im.split == "train"]
        Xtr = np.stack([im.pixels.ravel() for im in train])
        Y = np.zeros((len(train), len(ds.classes)))
        for i, im in enumerate(train):
            Y[i, ds.classes.index(im.label)] = 1.0
        W = np.linalg.solve(Xtr.T @ Xtr + 1e-6 * np.eye(Xtr.shape[1]), Xtr.T @ Y)
        test = [im for im in ds.samples if im.split == "test"]
        Xte = np.stack([im.pixels.ravel() for im in test])
        pred = (Xte @ W).argmax(axis=1)
        truth = np.array([ds.classes.index(im.label) for im in test])
        assert (pred == truth).mean() >= 0.99

        seq = make_scenario(ds, ScenarioSpec(schedule=[4, 1, 1, 1, 1, 1, 1],
                                             class_order=list(ds.classes), seed=0))
        assert len(seq.tasks) == 7


def test_criterion_7_determinism(tmp_path):
    with _Gate(7, "byte-identical rerun", 120.0):
        cfg = json.loads(CONFIG_PATH.read_text())
        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            c = RunConfig.from_dict({**cfg, "output_dir": str(out)})
            run_scenario(c)
            blobs.append((out / "metrics.json").read_bytes())
        assert blobs[0] == blobs[1]


def test_criterion_8_fusion_properties():
    with _Gate(8, "late-fusion properties", 5.0):
        rng = np.random.default_rng(3)
        n, k = 10_000, 6
        classes = [f"c{i}" for i in range(k)]
        r1 = rng.normal(size=(n, k)) * 3.0
        r2 = rng.normal(size=(n, k)) * 3.0
        shifts = rng.normal(size=(n, 1)) * 100.0

        ab = late_fuse(r1, r2, classes)
        ba = late_fuse(r2, r1, classes)
        assert ab == ba
        sh = late_fuse(r1 + shifts, r2, classes)
        assert ab == sh
        flat = late_fuse(r1, np.zeros((n, k)), classes)
        solo = softmax(r1).argmax(axis=1)
        assert flat == [classes[j] for j in solo]
