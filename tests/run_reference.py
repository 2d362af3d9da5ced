"""A naive reference for `run_scenario`: the ingested branch (raw pixels or
CSV rows, with or without the SSF adapter), the CNN branch, or both under
late fusion.

It keeps every projected train row and re-derives each task from them with
dense linear algebra, per branch: the 80:20 lambda split from the same
`derive_seed(seed, "lambda_split", t)` stream, one dense `eigh` of each
split's Gram G = H^T H, every grid point's held-out one-hot MSE (skipping the
points at or below the rank tolerance, as `select_lambda` does), then the
prototypes of all rows so far. At every task it re-extracts and re-projects
the test images of every task seen so far, one extract call per task as the
run batches them, and takes the argmax of the scores (of the sum of the two
branches' softmaxes under late fusion) over all of them.

It shares none of the run's factor updates, eval cursor or cached test rows.
It reuses the scenario split, the metric formulas, image preprocessing and
CNN extraction, which have tests of their own, and the models the run
trained on its base task: the CNN, the despeckler and the SSF adapter, whose
`{"gamma", "delta"}` it applies itself as `rows * gamma + delta`.
"""

from dataclasses import dataclass, field

import numpy as np

from proto_cil.cnn import cnn_extract
from proto_cil.datahub import ScenarioSpec, make_scenario, synth_dataset
from proto_cil.features import ingest_features
from proto_cil.harness import RunConfig, accuracy, balanced_accuracy, prepare_images
from proto_cil.projector import DEFAULT_LAMBDA_GRID
from proto_cil.seeding import derive_rng, derive_seed

EPS = np.finfo(float).eps


@dataclass
class ReferenceRun:
    lambdas: dict = field(default_factory=dict)  # per branch, per task
    sweeps: dict = field(default_factory=dict)   # per branch, per sweeping task: {lambda: MSE}
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


def _softmax(S):
    e = np.exp(S - S.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _ingested_rows(config: RunConfig, adapter):
    """rows(task, split) -> (feature rows, labels) of the ingested branch."""
    source = config.ingested_source
    csv = None if source["kind"] != "csv" else \
        {split: ingest_features(source[split]) for split in ("train", "test")}

    def rows(task, split):
        if csv is None:
            samples = getattr(task, split)
            X, y = np.stack([im.pixels.ravel() for im in samples]), [im.label for im in samples]
        else:
            keep = [i for i, c in enumerate(csv[split].labels) if c in task.classes]
            X, y = csv[split].rows[keep], [csv[split].labels[i] for i in keep]
        return (X, y) if adapter is None else (X * adapter["gamma"] + adapter["delta"], y)
    return rows


def _cnn_rows(models):
    """rows(task, split) -> (feature rows, labels) of the CNN branch: one
    extraction of the split's images with the run's frozen models."""
    def rows(task, split):
        samples = getattr(task, split)
        imgs = prepare_images(samples, None, models["rpca"])
        return cnn_extract(models["cnn"], imgs), [im.label for im in samples]
    return rows


def reference_run(config: RunConfig, models: dict) -> ReferenceRun:
    """`models` holds what the run trained on its base task: "cnn" (the CNN's
    parameters) and "rpca" (its despeckler, or None) for the CNN branch, and
    "ssf" (the ingested branch's adapter) when `ssf.enabled`."""
    dataset = synth_dataset(**{"seed": config.seed, **config.dataset["synth"]})
    seq = make_scenario(dataset, ScenarioSpec(
        schedule=list(config.schedule), class_order=config.class_order or list(dataset.classes),
        portion=config.portion, seed=derive_seed(config.seed, "scenario")))
    branches = {}  # name -> rows(task, split), in the run's branch order
    if config.cnn_branch:
        branches["cnn"] = _cnn_rows(models)
    if config.ingested_branch:
        branches["ingested"] = _ingested_rows(
            config, models["ssf"] if config.ssf.get("enabled") else None)

    M = config.projection_dim
    grid = sorted(config.lambda_grid or DEFAULT_LAMBDA_GRID)
    W, train_H, train_y = {}, {}, {}
    for bi, (name, rows) in enumerate(branches.items()):
        d = rows(seq.tasks[0], "train")[0].shape[1]
        W[name] = derive_rng(derive_seed(config.seed, "projection_a", bi), "projection_a") \
            .standard_normal((d, M))
        train_H[name], train_y[name] = np.empty((0, M)), []
    out = ReferenceRun(lambdas={name: [] for name in branches},
                       sweeps={name: [] for name in branches})
    for t, task in enumerate(seq.tasks):
        scores = []  # per branch, the scores of every seen test row
        for name, rows in branches.items():
            X, y = rows(task, "train")
            H = np.maximum(X @ W[name], 0.0)
            if t > 0 and config.freeze_lambda:
                lam = out.lambdas[name][0]
            else:
                perm = derive_rng(derive_seed(config.seed, "lambda_split", t),
                                  "lambda_split").permutation(len(y))
                fit, val = perm[: round(0.8 * len(y))], perm[round(0.8 * len(y)):]
                fit_H = np.vstack((train_H[name], H[fit]))
                classes, C = _sums(fit_H, train_y[name] + [y[i] for i in fit])
                targets = np.eye(len(classes))[[classes.index(y[i]) for i in val]]
                w, V = _factor(fit_H)
                w_min = w[-1] if w.size == M else 0.0
                sweep = {lam: float(np.mean((H[val] @ _solve(w, V, C, lam) - targets) ** 2))
                         for lam in grid if lam + w_min > M * EPS * w[0]}
                out.sweeps[name].append(sweep)
                lam = min(sweep, key=sweep.get)  # the first minimum: ties go to the smaller lambda
            out.lambdas[name].append(lam)
            train_H[name], train_y[name] = np.vstack((train_H[name], H)), train_y[name] + y
            classes, C = _sums(train_H[name], train_y[name])
            P = _solve(*_factor(train_H[name]), C, lam)
            seen = [rows(earlier, "test") for earlier in seq.tasks[: t + 1]]
            test_y = [c for _, labels in seen for c in labels]
            scores.append(np.vstack([np.maximum(X @ W[name], 0.0) for X, _ in seen]) @ P)
        fused = _softmax(scores[0]) + _softmax(scores[1]) if len(scores) == 2 else scores[0]
        predicted = [classes[j] for j in fused.argmax(axis=1)]
        out.predictions.append(predicted)
        out.eval_sizes.append(len(test_y))
        out.task_accuracies.append(accuracy(predicted, test_y))
        out.balanced_accuracies.append(balanced_accuracy(predicted, test_y))
    return out
