"""Full class-incremental run orchestration and metric reporting.

Base task: train the denoiser, the convnet, and the feature adapter (as
enabled), then freeze everything. Every task: extract, project, accumulate,
re-select the ridge parameter (unless frozen), solve prototypes, and evaluate
over all seen classes. Each test image is extracted and projected once, by the
task that introduces its class; its projected row is kept for later tasks'
scoring. No training row is kept.
"""

import copy
import hashlib
import json
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import cnn as cnn_mod
from . import rpca as rpca_mod
from .datahub import (CROP_SIZE, SYNTH_KINDS, Dataset, ScenarioSpec, augment_array,
                      file_identity, load_dataset, make_scenario, synth_dataset)
from .errors import InputError, StageFailure
from .features import FeatureMatrix, ingest_features
from .fusion import late_fuse, single_predict
from .projector import (DEFAULT_LAMBDA_GRID, MIN_SWEEP_ROWS, accumulate, empty_state,
                        init_projection, project, score, select_lambda, solve_prototypes)
from .seeding import derive_seed
from .ssf import ssf_apply, ssf_train


def _number(v) -> bool:
    """A finite float, or an int that converts to one; bools are not numbers."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


_BOOL = ("a bool", lambda v: type(v) is bool)
_OBJECT = ("an object", lambda v: type(v) is dict)
_POSITIVE_INT = ("an integer >= 1", lambda v: type(v) is int and v >= 1)
_COUNT = ("an integer >= 0", lambda v: type(v) is int and v >= 0)
_PATH = ("a nonempty string", lambda v: type(v) is str and v != "")
_POSITIVE = ("a finite number > 0", lambda v: _number(v) and v > 0)
_NON_NEGATIVE = ("a finite number >= 0", lambda v: _number(v) and v >= 0)

REQUIRED = object()  # the default of a key that a config must set

# section -> key -> (what its value must be, test, default); the default is the
# value a run uses where the config leaves the key out, or REQUIRED. "" is the
# top level, and a dotted key names a nested section. A section accepts exactly
# its own keys; it is kept as written and filled from its defaults on read.
# Bools are not numbers here, and 2.0 is not an integer.
RULES = {
    "": {
        "dataset": ("an object with exactly one of 'synth' and 'manifest'",
                    lambda v: type(v) is dict and len(v) == 1 and set(v) <= {"synth", "manifest"},
                    REQUIRED),
        "schedule": ("a nonempty list of integers >= 1", lambda v: type(v) is list and v != []
                     and all(type(k) is int and k >= 1 for k in v), REQUIRED),
        "class_order": ("null or a list of strings", lambda v: v is None  # null: the dataset's
                        or (type(v) is list and all(type(c) is str for c in v)), None),
        "portion": ("a number in (0, 1]", lambda v: _number(v) and 0 < v <= 1, 1.0),
        "cnn_branch": (*_BOOL, False), "ingested_branch": (*_BOOL, True),
        "freeze_lambda": (*_BOOL, False), "cnn_train": (*_OBJECT, {}),
        "ingested_source": (*_OBJECT, {"kind": "raw_pixels"}),
        "rpca": (*_OBJECT, {"enabled": False}), "ssf": (*_OBJECT, {"enabled": False}),
        "fusion": ("null, 'late' or 'single'",  # derived: "late" with both branches, else "single"
                   lambda v: v in (None, "late", "single"), None),
        "projection_dim": (*_POSITIVE_INT, 1000), "seed": (*_COUNT, 0),
        "lambda_grid": ("null or a nonempty list of finite positive numbers",  # null: the default
                        lambda v: v is None or (type(v) is list and v != []
                                                and all(_number(g) and g > 0 for g in v)), None),
        "output_dir": ("null or a nonempty string",  # null: no report
                       lambda v: v is None or (type(v) is str and v != ""), None),
        "threads": ("anything (it is ignored)", lambda v: True, 1),
    },
    "dataset": {"synth": (*_OBJECT, REQUIRED), "manifest": (*_PATH, REQUIRED)},  # one of them
    "dataset.synth": {
        "kind": (" or ".join(map(repr, SYNTH_KINDS)), lambda v: v in SYNTH_KINDS, REQUIRED),
        "num_classes": ("an integer >= 2", lambda v: type(v) is int and v >= 2, REQUIRED),
        "per_class_train": (*_POSITIVE_INT, REQUIRED),
        "per_class_test": (*_POSITIVE_INT, REQUIRED), "image_size": (*_POSITIVE_INT, REQUIRED),
        "seed": (*_COUNT, REQUIRED),  # the run's seed where left out
    },
    "ingested_source": {"kind": ("'raw_pixels' or 'csv'", lambda v: v in ("raw_pixels", "csv"),
                                 "raw_pixels"),
                        "train": (*_PATH, REQUIRED), "test": (*_PATH, REQUIRED)},  # for csv
    "rpca": {"enabled": (*_BOOL, False), "rank": (*_POSITIVE_INT, 2), "epochs": (*_COUNT, 100),
             "lr": (*_POSITIVE, 0.5)},
    "ssf": {"enabled": (*_BOOL, False), "epochs": (*_COUNT, 50), "lr": (*_POSITIVE, 0.1)},
    "cnn_train": {"d_cnn": (*_POSITIVE_INT, 256), "epochs": (*_COUNT, 30),
                  "lr": (*_POSITIVE, 0.01),
                  "dropout": ("a number in [0, 1)", lambda v: _number(v) and 0 <= v < 1, 0.5),
                  "momentum": (*_NON_NEGATIVE, 0.9), "weight_decay": (*_NON_NEGATIVE, 0.0005)},
}


def defaults(section) -> dict:
    """A fresh copy of the defaults of `section`'s keys that a config may leave out."""
    return {k: copy.deepcopy(r[2]) for k, r in RULES[section].items() if r[2] is not REQUIRED}


def _section(config, name) -> dict:
    """Config section `name` with its defaults filling the keys it leaves out."""
    return {**defaults(name), **getattr(config, name)}


def _require(section, given, name) -> None:
    """Raise InputError naming `name` unless `given` sets every REQUIRED key of `section`."""
    if missing := {k for k, r in RULES[section].items() if r[2] is REQUIRED} - given.keys():
        raise InputError(f"{name} is missing {sorted(missing)}")


def check_key(path, value, name=None) -> None:
    """Raise InputError unless `value` obeys the rule of config key `path`
    ("" is the whole config); a section must hold only its own keys, each
    obeying its rule. Errors name `name` (a CLI flag, say), else `path`."""
    section, _, key = path.rpartition(".")
    what, ok = RULES[section][key][:2] if path else _OBJECT
    if not ok(value):
        raise InputError(f"{name or path or 'the config'} must be {what}, got {value!r}")
    if path in RULES:
        unknown = value.keys() - RULES[path].keys()
        if unknown:
            raise InputError(f"unknown {path or 'config'} keys: {sorted(unknown)} "
                             f"(allowed: {sorted(RULES[path])})")
        for key, item in value.items():
            check_key(f"{path}.{key}" if path else key, item)


class RunConfig(SimpleNamespace):
    """A checked config: top-level keys as attributes, defaults filled, sections as written."""

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        check_key("", d)
        _require("", d, "config")
        config = {**defaults(""), **d}
        if not (config["cnn_branch"] or config["ingested_branch"]):
            raise InputError("at least one branch must be enabled")
        derived = "late" if config["cnn_branch"] and config["ingested_branch"] else "single"
        if config["fusion"] not in (None, derived):
            raise InputError(f"fusion is {derived!r} for these branches (it may be omitted), "
                             f"got {config['fusion']!r}")
        csv = config["ingested_branch"] and config["ingested_source"].get("kind") == "csv"
        if csv and derived == "late":
            raise InputError("fusion=late requires ingested_source raw_pixels "
                             "(csv rows do not align with image test samples)")
        if csv and config["portion"] < 1:
            raise InputError(f"portion {config['portion']} < 1 requires ingested_source "
                             "raw_pixels (csv rows are not subsampled)")
        return cls(**{**config, "fusion": derived})

    def fingerprint(self) -> str:
        d = {k: v for k, v in vars(self).items() if k not in ("output_dir", "threads")}
        blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# metric formulas

def accuracy(predicted_labels, true_labels) -> float:
    """Top-1 accuracy in percent."""
    correct = sum(p == t for p, t in zip(predicted_labels, true_labels, strict=True))
    return 100.0 * correct / len(true_labels)


def balanced_accuracy(predicted_labels, true_labels) -> float:
    """Mean of per-class recalls, percent."""
    per_class = {}
    for p, t in zip(predicted_labels, true_labels, strict=True):
        hits, total = per_class.get(t, (0, 0))
        per_class[t] = (hits + (p == t), total + 1)
    return 100.0 * float(np.mean([h / n for h, n in per_class.values()]))


def avg_acc(accuracies) -> float:
    """Arithmetic mean of per-task accuracies (base task included)."""
    return float(np.mean(accuracies))


def perf_drop(a0: float, a_t: float) -> float:
    """Accuracy lost relative to the base task; may be negative."""
    return a0 - a_t


def summary(accuracies) -> dict:
    """The metrics derived from per-task accuracies: base, average and final
    accuracy, and the drop from the base task at every task and at the last."""
    drops = [perf_drop(accuracies[0], a) for a in accuracies]
    return {"base_accuracy": accuracies[0], "avg_accuracy": avg_acc(accuracies),
            "final_accuracy": accuracies[-1], "perf_drop": drops[-1], "perf_drops": drops}


# ---------------------------------------------------------------------------
# branch feature pipelines
#
# A branch has a `name`, a feature width `dim` and one method,
# `features(samples) -> FeatureMatrix`, which turns `samples`, all of one
# split, into feature rows.

def prepare_images(samples, seed, rpca_model=None) -> np.ndarray:
    """Network inputs for `samples`: the RPCA sparse part when a model is given,
    then `augment_array`. With a `seed` (training), sample i draws its flip
    from derive_seed(seed, "augment", i); with None (evaluation) none flips."""
    out = []
    for i, im in enumerate(samples):
        px = im.pixels
        if rpca_model is not None:
            px = rpca_mod.rpca_apply(rpca_model, px.ravel()).reshape(px.shape)
        out.append(augment_array(px, None if seed is None else derive_seed(seed, "augment", i)))
    return np.stack(out)


def train_denoiser(flat, hp, seed) -> dict:
    """The RPCA denoiser trained on the rows of `flat` (one flattened image
    each) with the rpca hyperparameters `hp`: the run's CNN branch and
    `denoise` both train it this way."""
    return rpca_mod.rpca_train(flat, r=hp["rank"], epochs=hp["epochs"], lr=hp["lr"],
                               seed=derive_seed(seed, "rpca"))


def train_backbone(images, labels, hp, seed) -> dict:
    """The CNN's parameters trained on `images` from prepare_images, with the
    cnn_train hyperparameters `hp`: the run's CNN branch and `train-backbone`
    both train it this way."""
    params = cnn_mod.cnn_init(d_cnn=hp["d_cnn"], seed=derive_seed(seed, "cnn"),
                              num_classes=len(set(labels)))
    return cnn_mod.cnn_train(params, images, labels, dropout=hp["dropout"],
                             epochs=hp["epochs"], lr=hp["lr"], momentum=hp["momentum"],
                             weight_decay=hp["weight_decay"], seed=derive_seed(seed, "cnn", 1))


class _CnnBranch:
    name = "cnn"

    def __init__(self, config: RunConfig, base_task):
        self.rpca_model = None
        if config.rpca.get("enabled"):
            flat = np.stack([im.pixels.ravel() for im in base_task.train])
            self.rpca_model = train_denoiser(flat, _section(config, "rpca"), config.seed)
        train_imgs = prepare_images(base_task.train, config.seed, self.rpca_model)
        self.model = train_backbone(train_imgs, [im.label for im in base_task.train],
                                    _section(config, "cnn_train"), config.seed)
        self.dim = self.model["dense_w"].shape[1]

    def features(self, samples) -> FeatureMatrix:
        imgs = prepare_images(samples, None, self.rpca_model)
        return FeatureMatrix(rows=cnn_mod.cnn_extract(self.model, imgs),
                             labels=[im.label for im in samples])


class _IngestedBranch:
    name = "ingested"

    def __init__(self, config: RunConfig, base_task, csv):
        self.csv = csv  # {"train": FeatureMatrix, "test": FeatureMatrix}; None: raw pixels
        self.dim = base_task.train[0].pixels.size if csv is None else csv["train"].dim
        self.adapter = None
        if config.ssf.get("enabled"):
            ssf = _section(config, "ssf")
            self.adapter = ssf_train(self.features(base_task.train),
                                     epochs=ssf["epochs"], lr=ssf["lr"],
                                     seed=derive_seed(config.seed, "ssf"))

    def features(self, samples) -> FeatureMatrix:
        if self.csv is None:
            fm = FeatureMatrix(rows=np.stack([im.pixels.ravel() for im in samples]),
                               labels=[im.label for im in samples])
        else:
            # every class has images in both splits, so these are the classes asked for
            src, wanted = self.csv[samples[0].split], {im.label for im in samples}
            keep = [i for i, c in enumerate(src.labels) if c in wanted]
            fm = FeatureMatrix(rows=src.rows[keep], labels=[src.labels[i] for i in keep])
        return fm if self.adapter is None else ssf_apply(self.adapter, fm)


# ---------------------------------------------------------------------------
# scenario run

def _resolve_dataset(config: RunConfig) -> Dataset:
    if "manifest" in config.dataset:
        return load_dataset(config.dataset["manifest"])
    synth = {"seed": config.seed, **config.dataset["synth"]}
    _require("dataset.synth", synth, "dataset.synth")
    return synth_dataset(**synth)


def _ingest_csv(config: RunConfig, classes):
    """Train and test feature matrices of a CSV ingested source, checked to
    share one width and to hold rows of every class in `classes`; None for
    any other source."""
    source = config.ingested_source
    if not config.ingested_branch or source.get("kind") != "csv":
        return None
    _require("ingested_source", source, "ingested_source csv")
    try:
        csv = {split: ingest_features(source[split]) for split in ("train", "test")}
    except (OSError, InputError) as exc:
        raise InputError(f"ingested_source csv: {exc}") from exc
    if csv["train"].dim != csv["test"].dim:
        raise InputError(f"ingested_source csv: train rows have {csv['train'].dim} features, "
                         f"test rows {csv['test'].dim}")
    for split, fm in csv.items():
        labels = set(fm.labels)
        missing = [c for c in classes if c not in labels]
        if missing:
            raise InputError(f"ingested_source csv: {source[split]} has no rows of "
                             f"scenario classes {missing}")
    return csv


def _check_images(config: RunConfig, seq) -> None:
    """The CNN branch center-crops every image to CROP_SIZE. Its denoiser and
    the raw-pixel branch flatten every image to one length, which the
    denoiser's rank must stay below."""
    shapes = sorted({im.pixels.shape for task in seq.tasks for im in task.train + task.test})
    small = [s for s in shapes if min(s) < CROP_SIZE]
    if config.cnn_branch and small:
        raise InputError(f"cnn_branch needs images of at least {CROP_SIZE}x{CROP_SIZE} px, "
                         f"got {small[0][0]}x{small[0][1]}")
    denoised = config.cnn_branch and config.rpca.get("enabled")
    raw = config.ingested_branch and config.ingested_source.get("kind") != "csv"
    if (denoised or raw) and len(shapes) > 1:
        (h0, w0), (h1, w1) = shapes[:2]
        raise InputError(f"{'rpca' if denoised else 'ingested_source raw_pixels'} needs "
                         f"images of one size, got {h0}x{w0} and {h1}x{w1}")
    rank, pixels = _section(config, "rpca")["rank"], shapes[0][0] * shapes[0][1]
    if denoised and rank >= pixels:
        raise InputError(f"rpca.rank must be below the {pixels} pixels of an image, got {rank}")


def _check_sweep_rows(config: RunConfig, seq, csv) -> None:
    """Every task that selects lambda needs enough rows for its 80:20 split."""
    for t, task in enumerate(seq.tasks):
        if t > 0 and config.freeze_lambda:
            break
        if csv is None:
            rows = len(task.train)
        else:
            rows = sum(c in task.classes for c in csv["train"].labels)
        if rows < MIN_SWEEP_ROWS:
            raise InputError(f"task {t} has {rows} training rows; lambda selection "
                             f"needs >= {MIN_SWEEP_ROWS}")


def _check_projection_size(config: RunConfig, base, csv) -> None:
    """Every branch's frozen (d, projection_dim) float64 matrix must fit in memory."""
    dims = [_section(config, "cnn_train")["d_cnn"]] if config.cnn_branch else []
    if config.ingested_branch:
        dims.append(base.train[0].pixels.size if csv is None else csv["train"].dim)
    need = 8 * sum(dims) * config.projection_dim
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise InputError(f"projection_dim {config.projection_dim} needs {need / 2**30:.1f} GiB "
                         f"of projection weights; this machine has {have / 2**30:.1f} GiB")


def run_scenario(config: RunConfig) -> dict:
    """Execute the configured CIL run and return its metrics.json body. Setup
    checks the output directory and its report files, reads the dataset, builds
    the scenario and checks the inputs, raising InputError before any training.
    A failure in a later stage raises StageFailure naming it; metrics for
    completed tasks are flushed to the output directory first."""
    metrics = {"task_accuracies": [], "balanced_accuracies": [], "eval_sizes": [],
               "lambdas": {}, "config_fingerprint": config.fingerprint()}
    out = config.output_dir and Path(config.output_dir)
    if out:
        check_output(out, directory=True)
    manifest, source = config.dataset.get("manifest"), config.ingested_source
    named = (manifest, manifest and Path(manifest).with_suffix(".json"),
             source.get("train"), source.get("test"))
    read = {file_identity(p): p for p in named if p}
    for name in REPORT_FILES if out and out.is_dir() else ():  # none may be a file read here
        check_output(out / name, inputs=read)
    dataset = _resolve_dataset(config)
    order = config.class_order or list(dataset.classes)
    seq = make_scenario(dataset, ScenarioSpec(
        schedule=list(config.schedule), class_order=list(order),
        portion=config.portion, seed=derive_seed(config.seed, "scenario")))
    base = seq.tasks[0]
    if len(base.classes) < 2:
        raise InputError("base task needs >= 2 classes for backbone/probe training")
    _check_images(config, seq)
    csv = _ingest_csv(config, order)
    _check_sweep_rows(config, seq, csv)
    _check_projection_size(config, base, csv)

    clocks = []  # seconds per task, for timings.json
    try:
        branches = []
        if config.cnn_branch:
            stage = "base-training(cnn)"
            branches.append(_CnnBranch(config, base))
        if config.ingested_branch:
            stage = "base-training(ingested)"
            branches.append(_IngestedBranch(config, base, csv))

        stage = "projection-init"
        grid = config.lambda_grid or list(DEFAULT_LAMBDA_GRID)
        layers = [init_projection(br.dim, config.projection_dim,
                                  seed=derive_seed(config.seed, "projection_a", bi))
                  for bi, br in enumerate(branches)]
        states = [empty_state(config.projection_dim)] * len(branches)  # replaced, never written
        tested = [np.empty((0, config.projection_dim))] * len(branches)  # projected test rows
        true_labels = []  # of the scored rows, as the last branch (a CSV source) reads them

        # Branches are frozen after the base task, so each task projects only
        # its own test images and scores them with the cached rows of earlier
        # tasks, in eval_set order. Each task's slice is fixed by the sequence
        # and cut into the same extract batches every run, so its rows are
        # deterministic. A row's conv part does not depend on its batch (the
        # conv stack runs one image at a time), but the dense GEMM's does: a
        # row may differ in the last bits from the same image batched
        # otherwise (a short last batch rounds apart).
        eval_all = seq.eval_set(len(seq.tasks) - 1)  # eval_set(t) is a prefix
        done = 0  # images of eval_all scored so far; a CSV source's rows may differ in number
        for t, task in enumerate(seq.tasks):
            t0 = time.perf_counter()
            stage = f"task{t}-train"
            protos = []  # per branch, the prototypes solved at this task
            for bi, br in enumerate(branches):
                H = project(layers[bi], br.features(task.train))
                picks = metrics["lambdas"].setdefault(br.name, [])
                lam = picks[0] if config.freeze_lambda and t > 0 else select_lambda(
                    states[bi], H, grid=grid, seed=derive_seed(config.seed, "lambda_split", t))
                picks.append(lam)
                states[bi] = accumulate(states[bi], H)
                protos.append(solve_prototypes(states[bi], lam))

            stage = f"task{t}-eval"
            new = eval_all[done : done + len(task.test)]
            done += len(task.test)
            for bi, br in enumerate(branches):
                He = project(layers[bi], br.features(new))
                tested[bi] = np.concatenate((tested[bi], He.rows))
            true_labels.extend(He.labels)
            scores = [score(P, rows) for P, rows in zip(protos, tested)]
            classes = states[-1].registry  # shared: every branch sees the same task labels
            pred_labels = (late_fuse(*scores, classes) if len(scores) == 2
                           else single_predict(scores[0], classes))
            metrics["task_accuracies"].append(accuracy(pred_labels, true_labels))
            metrics["balanced_accuracies"].append(balanced_accuracy(pred_labels, true_labels))
            metrics["eval_sizes"].append(len(true_labels))
            clocks.append(time.perf_counter() - t0)
    except Exception as exc:
        if config.output_dir and metrics["task_accuracies"]:
            try:
                report({**metrics, **summary(metrics["task_accuracies"]),
                        "partial_after_stage": stage}, config.output_dir, config, clocks)
            except OSError:
                pass  # a partial report is best effort; the stage failure wins
        raise StageFailure(stage, exc) from exc
    metrics.update(summary(metrics["task_accuracies"]))
    if config.output_dir:
        report(metrics, config.output_dir, config, clocks)
    return metrics


# ---------------------------------------------------------------------------
# reporting

REPORT_FILES = ("metrics.json", "accuracy_curve.csv", "config.json", "timings.json")


def check_output(path, directory=False, inputs={}) -> None:
    """Raise InputError naming `path` unless it can be written: a file that is
    not a directory, whose parent is one, and that is no input (`inputs` maps
    a file_identity to its input's path); or (`directory`) a directory whose
    nearest existing ancestor, itself included, is a directory. A symlink
    exists; one that leads nowhere is neither a file nor a directory."""
    path = Path(path)
    if directory:
        existing = next(p for p in (path, *path.parents) if p.exists() or p.is_symlink())
        if not existing.is_dir():
            raise InputError(f"output directory {path}: {existing} is not a directory")
    elif path.is_dir():
        raise InputError(f"output file {path} is a directory")
    elif path.is_symlink() and not path.exists():
        raise InputError(f"output file {path} is a symlink that leads nowhere")
    elif not path.parent.is_dir():
        raise InputError(f"output file {path}: {path.parent} is not a directory")
    elif (identity := file_identity(path)) is not None and identity in inputs:
        raise InputError(f"--out would write {path} over the input {inputs[identity]}")


def report(metrics: dict, out_dir, config: RunConfig, per_task_seconds: list) -> None:
    """Write the REPORT_FILES (metrics.json is `metrics`, with its summary), each
    by a sibling file and a rename so none is half written, with open()'s mode.

    metrics.json is fully deterministic for a fixed config+seed; wall-clock
    (`per_task_seconds`) goes to timings.json so reruns stay byte-identical.
    """
    curve = [f"{t},{a!r},{pd!r}"
             for t, (a, pd) in enumerate(zip(metrics["task_accuracies"], metrics["perf_drops"]))]
    texts = (json.dumps(metrics, sort_keys=True, indent=2),  # in REPORT_FILES order
             "\n".join(["task,accuracy,perf_drop", *curve]),
             json.dumps(vars(config), sort_keys=True, indent=2),
             json.dumps({"per_task_seconds": per_task_seconds}, indent=2))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in zip(REPORT_FILES, texts):
        tmp = out_dir / f"{name}.{os.getpid()}.tmp"
        try:
            tmp.write_text(text + "\n")
            os.replace(tmp, out_dir / name)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise OSError(f"failed writing report under {out_dir}: {exc}") from exc


def load_report(out_dir) -> dict:
    """`out_dir`'s metrics.json body with the summary of its `task_accuracies`;
    InputError unless those are a nonempty list of numbers in [0, 100]."""
    body = json.loads((Path(out_dir) / "metrics.json").read_text())
    accs = body.get("task_accuracies") if isinstance(body, dict) else None
    if not (isinstance(accs, list) and accs and all(_number(a) and 0 <= a <= 100 for a in accs)):
        raise InputError("metrics.json is not a report with task accuracies, all in [0, 100]")
    return {**body, **summary(accs)}
