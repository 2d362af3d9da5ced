"""A naive reference for `run_scenario` with the ingested branch alone (raw
pixels or CSV rows; no CNN, no SSF).

It keeps every projected train row and re-derives each task from them with
dense linear algebra: the 80:20 lambda split from the same
`derive_seed(seed, "lambda_split", t)` stream, one dense `eigh` of each
split's Gram G = H^T H, every grid point's held-out one-hot MSE (skipping the
points at or below the rank tolerance, as `select_lambda` does), then the
prototypes of all rows so far and the argmax over every test row seen so far.
It shares none of the run's factor updates, eval cursor or cached test rows;
it reuses the scenario split and the metric formulas, which have tests of
their own.
"""

from dataclasses import dataclass, field

import numpy as np

from proto_cil.datahub import ScenarioSpec, make_scenario, synth_dataset
from proto_cil.features import ingest_features
from proto_cil.harness import RunConfig, accuracy, balanced_accuracy
from proto_cil.projector import DEFAULT_LAMBDA_GRID
from proto_cil.seeding import derive_rng, derive_seed

EPS = np.finfo(float).eps


@dataclass
class ReferenceRun:
    lambdas: list = field(default_factory=list)  # per task
    sweeps: list = field(default_factory=list)   # per sweeping task: {lambda: held-out MSE}
    eval_sizes: list = field(default_factory=list)
    task_accuracies: list = field(default_factory=list)
    balanced_accuracies: list = field(default_factory=list)
    predictions: list = field(default_factory=list)  # per task, a label per seen test row


def _factor(H):
    """Eigenpairs (w descending, V) of G = H^T H above the engine's numerical
    rank tolerance w_max * max(H.shape) * eps."""
    w, V = np.linalg.eigh(H.T @ H)
    w, V = w[::-1], V[:, ::-1]
    keep = w > w[0] * max(H.shape) * EPS
    return w[keep], V[:, keep]


def _sums(H, labels):
    """Class order (first sight) and the per-class sums C of the rows of H."""
    classes = list(dict.fromkeys(labels))
    C = np.zeros((H.shape[1], len(classes)))
    for row, c in zip(H, labels):
        C[:, classes.index(c)] += row
    return classes, C


def _solve(w, V, C, lam):
    """P = (G + lam I)^-1 C over the row space that the eigenpairs (w, V) of G span."""
    return V @ ((V.T @ C) / (w + lam)[:, None])


def reference_run(config: RunConfig) -> ReferenceRun:
    assert not config.cnn_branch and not config.ssf.get("enabled")
    dataset = synth_dataset(**{"seed": config.seed, **config.dataset["synth"]})
    seq = make_scenario(dataset, ScenarioSpec(
        schedule=list(config.schedule), class_order=config.class_order or list(dataset.classes),
        portion=config.portion, seed=derive_seed(config.seed, "scenario")))
    source = config.ingested_source
    csv = None if source["kind"] != "csv" else \
        {split: ingest_features(source[split]) for split in ("train", "test")}

    def rows(task, split):
        if csv is None:
            samples = getattr(task, split)
            return np.stack([im.pixels.ravel() for im in samples]), [im.label for im in samples]
        keep = [i for i, c in enumerate(csv[split].labels) if c in task.classes]
        return csv[split].rows[keep], [csv[split].labels[i] for i in keep]

    M = config.projection_dim
    d = rows(seq.tasks[0], "train")[0].shape[1]
    W = derive_rng(derive_seed(config.seed, "projection_a", 0), "projection_a") \
        .standard_normal((d, M))
    grid = sorted(config.lambda_grid or DEFAULT_LAMBDA_GRID)
    train_H, train_y, test_H, test_y = np.empty((0, M)), [], np.empty((0, M)), []
    out = ReferenceRun()
    for t, task in enumerate(seq.tasks):
        X, y = rows(task, "train")
        H = np.maximum(X @ W, 0.0)
        if t == 0 or not config.freeze_lambda:
            perm = derive_rng(derive_seed(config.seed, "lambda_split", t),
                              "lambda_split").permutation(len(y))
            fit, val = perm[: round(0.8 * len(y))], perm[round(0.8 * len(y)):]
            fit_H, fit_y = np.vstack((train_H, H[fit])), train_y + [y[i] for i in fit]
            classes, C = _sums(fit_H, fit_y)
            targets = np.eye(len(classes))[[classes.index(y[i]) for i in val]]
            w, V = _factor(fit_H)
            w_min = w[-1] if w.size == M else 0.0
            sweep = {lam: float(np.mean((H[val] @ _solve(w, V, C, lam) - targets) ** 2))
                     for lam in grid if lam + w_min > M * EPS * w[0]}
            out.sweeps.append(sweep)
            lam = min(sweep, key=sweep.get)  # the first minimum: ties go to the smaller lambda
        out.lambdas.append(lam)
        train_H, train_y = np.vstack((train_H, H)), train_y + y
        classes, C = _sums(train_H, train_y)
        P = _solve(*_factor(train_H), C, lam)
        X, y = rows(task, "test")
        test_H, test_y = np.vstack((test_H, np.maximum(X @ W, 0.0))), test_y + y
        predicted = [classes[j] for j in (test_H @ P).argmax(axis=1)]
        out.predictions.append(predicted)
        out.eval_sizes.append(len(test_y))
        out.task_accuracies.append(accuracy(predicted, test_y))
        out.balanced_accuracies.append(balanced_accuracy(predicted, test_y))
    return out
