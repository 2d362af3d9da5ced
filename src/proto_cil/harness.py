"""Full class-incremental run orchestration and metric reporting.

Base task: train the denoiser, the convnet, and the feature adapter (as
enabled), then freeze everything. Every task: extract, project, accumulate,
re-select the ridge parameter (unless frozen), solve prototypes, and evaluate
over all seen classes. Each test image is extracted and projected once, by the
task that introduces its class; its projected row is kept for later tasks'
scoring. No training row is kept.
"""

import hashlib
import json
import os
import sys
import tempfile
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import cnn as cnn_mod
from . import rpca as rpca_mod
from .datahub import (CROP_SIZE, SYNTH_KINDS, DataError, Dataset, ScenarioSpec, augment_array,
                      load_dataset, make_scenario, synth_dataset)
from .errors import InputError
from .features import FeatureMatrix, ingest_features
from .fusion import late_fuse, single_predict
from .projector import (DEFAULT_LAMBDA_GRID, MIN_SWEEP_ROWS, accumulate, empty_state,
                        init_projection, project, score, select_lambda, solve_prototypes)
from .seeding import derive_seed
from .ssf import ssf_apply, ssf_train


class ConfigError(InputError):
    pass


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

# section -> key -> (what its value must be, test); "" is the top level, and a
# dotted key names a nested section. A section accepts exactly its own keys.
# Bools are not numbers here, and 2.0 is not an integer.
RULES = {
    "": {
        "dataset": ("an object with exactly one of 'synth' and 'manifest'",
                    lambda v: type(v) is dict and len(v) == 1 and set(v) <= {"synth", "manifest"}),
        "schedule": ("a nonempty list of integers >= 1", lambda v: type(v) is list and v != []
                     and all(type(k) is int and k >= 1 for k in v)),
        "class_order": ("null or a list of strings", lambda v: v is None
                        or (type(v) is list and all(type(c) is str for c in v))),
        "portion": ("a number in (0, 1]", lambda v: _number(v) and 0 < v <= 1),
        "cnn_branch": _BOOL, "ingested_branch": _BOOL, "freeze_lambda": _BOOL,
        "ingested_source": _OBJECT, "rpca": _OBJECT, "ssf": _OBJECT, "cnn_train": _OBJECT,
        "fusion": ("null, 'late' or 'single'", lambda v: v in (None, "late", "single")),
        "projection_dim": _POSITIVE_INT,
        "lambda_grid": ("null or a nonempty list of finite positive numbers",
                        lambda v: v is None or (type(v) is list and v != []
                                                and all(_number(g) and g > 0 for g in v))),
        "output_dir": ("null or a nonempty string",
                       lambda v: v is None or (type(v) is str and v != "")),
        "seed": _COUNT,
        "threads": ("anything (it is ignored)", lambda v: True),
    },
    "dataset": {"synth": _OBJECT, "manifest": _PATH},
    "dataset.synth": {
        "kind": (" or ".join(map(repr, SYNTH_KINDS)), lambda v: v in SYNTH_KINDS),
        "num_classes": ("an integer >= 2", lambda v: type(v) is int and v >= 2),
        "per_class_train": _POSITIVE_INT, "per_class_test": _POSITIVE_INT,
        "image_size": _POSITIVE_INT, "seed": _COUNT,
    },
    "ingested_source": {"kind": ("'raw_pixels' or 'csv'", lambda v: v in ("raw_pixels", "csv")),
                        "train": _PATH, "test": _PATH},
    "rpca": {"enabled": _BOOL, "rank": _POSITIVE_INT, "epochs": _COUNT, "lr": _POSITIVE},
    "ssf": {"enabled": _BOOL, "epochs": _COUNT, "lr": _POSITIVE},
    "cnn_train": {"d_cnn": _POSITIVE_INT, "epochs": _COUNT, "lr": _POSITIVE,
                  "dropout": ("a number in [0, 1)", lambda v: _number(v) and 0 <= v < 1),
                  "momentum": _NON_NEGATIVE, "weight_decay": _NON_NEGATIVE},
}

# section -> key -> the value a run uses where the config leaves the key out
DEFAULTS = {
    "rpca": {"rank": 2, "epochs": 100, "lr": 0.5},
    "ssf": {"epochs": 50, "lr": 0.1},
    "cnn_train": {"d_cnn": 256, "dropout": 0.5, "epochs": 30, "lr": 0.01, "momentum": 0.9,
                  "weight_decay": 0.0005},
}


def _section(config, name) -> dict:
    """Config section `name` with DEFAULTS filling the keys it leaves out."""
    return {**DEFAULTS[name], **getattr(config, name)}


def check_key(path, value, name=None) -> None:
    """Raise ConfigError unless `value` obeys the rule of config key `path`
    ("" is the whole config); a section must hold only its own keys, each
    obeying its rule. Errors name `name` (a CLI flag, say), else `path`."""
    section, _, key = path.rpartition(".")
    what, ok = RULES[section][key] if path else _OBJECT
    if not ok(value):
        raise ConfigError(f"{name or path or 'the config'} must be {what}, got {value!r}")
    if path in RULES:
        unknown = value.keys() - RULES[path].keys()
        if unknown:
            raise ConfigError(f"unknown {path or 'config'} keys: {sorted(unknown)} "
                              f"(allowed: {sorted(RULES[path])})")
        for key, item in value.items():
            check_key(f"{path}.{key}" if path else key, item)


class StageFailure(RuntimeError):
    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class RunConfig:
    dataset: dict                 # {"synth": {...}} or {"manifest": path}
    schedule: list
    class_order: list = None      # default: dataset class order
    portion: float = 1.0
    cnn_branch: bool = False
    ingested_branch: bool = True
    ingested_source: dict = field(default_factory=lambda: {"kind": "raw_pixels"})
    rpca: dict = field(default_factory=lambda: {"enabled": False})
    ssf: dict = field(default_factory=lambda: {"enabled": False})
    fusion: str = None            # derived: "late" with both branches, else "single"
    projection_dim: int = 1000
    lambda_grid: list = None
    freeze_lambda: bool = False
    cnn_train: dict = field(default_factory=dict)
    output_dir: str = None
    seed: int = 0
    threads: int = 1  # ignored; kept so configs that set it still load

    def __post_init__(self):
        check_key("", vars(self))
        if not (self.cnn_branch or self.ingested_branch):
            raise ConfigError("at least one branch must be enabled")
        derived = "late" if self.cnn_branch and self.ingested_branch else "single"
        if self.fusion not in (None, derived):
            raise ConfigError(f"fusion is {derived!r} for these branches (it may be omitted), "
                              f"got {self.fusion!r}")
        self.fusion = derived
        csv = self.ingested_branch and self.ingested_source.get("kind") == "csv"
        if csv and self.fusion == "late":
            raise ConfigError("fusion=late requires ingested_source raw_pixels "
                              "(csv rows do not align with image test samples)")
        if csv and self.portion < 1:
            raise ConfigError(f"portion {self.portion} < 1 requires ingested_source raw_pixels "
                              "(csv rows are not subsampled)")

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        check_key("", d)  # an unknown key would be a TypeError in cls(**d)
        missing = {f.name for f in fields(cls)
                   if f.default is MISSING and f.default_factory is MISSING} - d.keys()
        if missing:
            raise ConfigError(f"config is missing {sorted(missing)}")
        return cls(**d)

    def fingerprint(self) -> str:
        d = asdict(self)
        d.pop("output_dir")
        d.pop("threads")
        blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class MetricsReport:
    task_accuracies: list        # A_t, percent
    balanced_accuracies: list
    eval_sizes: list
    lambdas: dict                # branch name -> per-task lambda
    config_fingerprint: str

    @property
    def base_accuracy(self) -> float:
        return self.task_accuracies[0]

    @property
    def final_accuracy(self) -> float:
        return self.task_accuracies[-1]

    @property
    def avg_accuracy(self) -> float:
        return avg_acc(self.task_accuracies)

    @property
    def perf_drops(self) -> list:
        return [perf_drop(self.base_accuracy, a) for a in self.task_accuracies]

    @property
    def perf_drop(self) -> float:
        return self.perf_drops[-1]

    def to_dict(self) -> dict:
        return {**asdict(self), "base_accuracy": self.base_accuracy,
                "avg_accuracy": self.avg_accuracy, "final_accuracy": self.final_accuracy,
                "perf_drop": self.perf_drop, "perf_drops": self.perf_drops}


# ---------------------------------------------------------------------------
# metric formulas

def accuracy(predicted_labels, true_labels) -> float:
    """Top-1 accuracy in percent."""
    if len(predicted_labels) != len(true_labels):
        raise InputError("prediction/label length mismatch")
    if len(true_labels) == 0:
        raise InputError("accuracy of empty input is undefined")
    correct = sum(p == t for p, t in zip(predicted_labels, true_labels))
    return 100.0 * correct / len(true_labels)


def balanced_accuracy(predicted_labels, true_labels) -> float:
    """Mean of per-class recalls, percent."""
    if len(predicted_labels) != len(true_labels):
        raise InputError("prediction/label length mismatch")
    if len(true_labels) == 0:
        raise InputError("accuracy of empty input is undefined")
    per_class = {}
    for p, t in zip(predicted_labels, true_labels):
        hits, total = per_class.get(t, (0, 0))
        per_class[t] = (hits + (p == t), total + 1)
    return 100.0 * float(np.mean([h / n for h, n in per_class.values()]))


def avg_acc(accuracies) -> float:
    """Arithmetic mean of per-task accuracies (base task included)."""
    if len(accuracies) == 0:
        raise InputError("avg_acc of empty list is undefined")
    return float(np.mean(accuracies))


def perf_drop(a0: float, a_t: float) -> float:
    """Accuracy lost relative to the base task; may be negative."""
    for v in (a0, a_t):
        if not 0 <= v <= 100:
            raise InputError(f"accuracy {v} outside [0,100]")
    return a0 - a_t


# ---------------------------------------------------------------------------
# branch feature pipelines
#
# A branch has a `name`, a feature width `dim` and one method,
# `features(samples, split) -> FeatureMatrix`, which turns `samples` of
# `split` ("train" or "test") into feature rows. At projection init,
# `run_scenario` gives each branch its frozen projection `layer`, its
# prototype `state`, the prototypes `P` solved from it, and `tested`, the
# projected rows of the test images scored so far.

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


def train_denoiser(flat, hp, seed) -> rpca_mod.RpcaModel:
    """The RPCA denoiser trained on the rows of `flat` (one flattened image
    each) with the rpca hyperparameters `hp`: the run's CNN branch and
    `denoise` both train it this way."""
    return rpca_mod.rpca_train(flat, r=hp["rank"], epochs=hp["epochs"], lr=hp["lr"],
                               seed=derive_seed(seed, "rpca"))


def train_backbone(images, labels, hp, seed) -> cnn_mod.CnnModel:
    """The frozen CNN trained on `images` from prepare_images, with the
    cnn_train hyperparameters `hp`: the run's CNN branch and `train-backbone`
    both train it this way."""
    model = cnn_mod.cnn_init(d_cnn=hp["d_cnn"], dropout=hp["dropout"],
                             seed=derive_seed(seed, "cnn"), num_classes=len(set(labels)))
    return cnn_mod.cnn_train(model, images, labels, epochs=hp["epochs"], lr=hp["lr"],
                             momentum=hp["momentum"], weight_decay=hp["weight_decay"],
                             seed=derive_seed(seed, "cnn", 1))


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
        self.dim = self.model.params["dense_w"].shape[1]

    def features(self, samples, split) -> FeatureMatrix:
        imgs = prepare_images(samples, None, self.rpca_model)
        return cnn_mod.cnn_extract(self.model, imgs, [im.label for im in samples])


class _IngestedBranch:
    name = "ingested"

    def __init__(self, config: RunConfig, base_task, csv):
        self.csv = csv  # {"train": FeatureMatrix, "test": FeatureMatrix}; None: raw pixels
        self.dim = base_task.train[0].pixels.size if csv is None else csv["train"].dim
        self.adapter = None
        if config.ssf.get("enabled"):
            ssf = _section(config, "ssf")
            self.adapter = ssf_train(self.features(base_task.train, "train"),
                                     epochs=ssf["epochs"], lr=ssf["lr"],
                                     seed=derive_seed(config.seed, "ssf"))

    def features(self, samples, split) -> FeatureMatrix:
        if self.csv is None:
            fm = FeatureMatrix(rows=np.stack([im.pixels.ravel() for im in samples]),
                               labels=[im.label for im in samples])
        else:
            # every class has images in both splits, so these are the classes asked for
            src, wanted = self.csv[split], {im.label for im in samples}
            keep = [i for i, c in enumerate(src.labels) if c in wanted]
            fm = FeatureMatrix(rows=src.rows[keep], labels=[src.labels[i] for i in keep])
        return fm if self.adapter is None else ssf_apply(self.adapter, fm)


# ---------------------------------------------------------------------------
# scenario run

def _resolve_dataset(config: RunConfig) -> Dataset:
    if "manifest" in config.dataset:
        return load_dataset(config.dataset["manifest"])
    synth = {"seed": config.seed, **config.dataset["synth"]}
    missing = RULES["dataset.synth"].keys() - set(synth)
    if missing:
        raise ConfigError(f"dataset.synth is missing {sorted(missing)}")
    return synth_dataset(**synth)


def _ingest_csv(config: RunConfig, classes):
    """Train and test feature matrices of a CSV ingested source, checked to
    share one width and to hold rows of every class in `classes`; None for
    any other source."""
    source = config.ingested_source
    if not config.ingested_branch or source.get("kind") != "csv":
        return None
    missing = {"train", "test"} - set(source)
    if missing:
        raise ConfigError(f"ingested_source csv is missing {sorted(missing)}")
    try:
        csv = {split: ingest_features(source[split]) for split in ("train", "test")}
    except (OSError, InputError) as exc:
        raise DataError(f"ingested_source csv: {exc}") from exc
    if csv["train"].dim != csv["test"].dim:
        raise DataError(f"ingested_source csv: train rows have {csv['train'].dim} features, "
                        f"test rows {csv['test'].dim}")
    for split, fm in csv.items():
        labels = set(fm.labels)
        missing = [c for c in classes if c not in labels]
        if missing:
            raise DataError(f"ingested_source csv: {source[split]} has no rows of "
                            f"scenario classes {missing}")
    return csv


def _check_cnn_inputs(seq) -> None:
    """The CNN branch center-crops every image to CROP_SIZE."""
    shapes = {im.pixels.shape for task in seq.tasks for im in task.train + task.test}
    small = sorted(s for s in shapes if min(s) < CROP_SIZE)
    if small:
        raise ConfigError(f"cnn_branch needs images of at least {CROP_SIZE}x{CROP_SIZE} px, "
                          f"got {small[0][0]}x{small[0][1]}")


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
            raise ConfigError(f"task {t} has {rows} training rows; lambda selection "
                              f"needs >= {MIN_SWEEP_ROWS}")


def _check_projection_size(config: RunConfig, base, csv) -> None:
    """Every branch's frozen (d, projection_dim) float64 matrix must fit in memory."""
    dims = [_section(config, "cnn_train")["d_cnn"]] if config.cnn_branch else []
    if config.ingested_branch:
        dims.append(base.train[0].pixels.size if csv is None else csv["train"].dim)
    need = 8 * sum(dims) * config.projection_dim
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(f"projection_dim {config.projection_dim} needs {need / 2**30:.1f} GiB "
                          f"of projection weights; this machine has {have / 2**30:.1f} GiB")


def run_scenario(config: RunConfig) -> MetricsReport:
    """Execute the configured CIL run. Any stage failure raises StageFailure;
    metrics for completed tasks are flushed to the output directory first."""
    metrics = MetricsReport(task_accuracies=[], balanced_accuracies=[], eval_sizes=[],
                            lambdas={}, config_fingerprint=config.fingerprint())
    clocks, stage = [], "setup"  # clocks: seconds per task, for timings.json
    try:
        dataset = _resolve_dataset(config)
        order = config.class_order or list(dataset.classes)
        seq = make_scenario(dataset, ScenarioSpec(
            schedule=list(config.schedule), class_order=list(order),
            portion=config.portion, seed=derive_seed(config.seed, "scenario")))
        base = seq.tasks[0]
        if len(base.classes) < 2:
            raise ConfigError("base task needs >= 2 classes for backbone/probe training")
        if config.cnn_branch:
            _check_cnn_inputs(seq)
        csv = _ingest_csv(config, order)
        _check_sweep_rows(config, seq, csv)
        _check_projection_size(config, base, csv)

        branches = []
        if config.cnn_branch:
            stage = "base-training(cnn)"
            branches.append(_CnnBranch(config, base))
        if config.ingested_branch:
            stage = "base-training(ingested)"
            branches.append(_IngestedBranch(config, base, csv))

        stage = "projection-init"
        grid = config.lambda_grid or list(DEFAULT_LAMBDA_GRID)
        for bi, br in enumerate(branches):
            br.layer = init_projection(br.dim, config.projection_dim,
                                       seed=derive_seed(config.seed, "projection_a", bi))
            br.state = empty_state(config.projection_dim)
            br.tested = FeatureMatrix(rows=np.empty((0, config.projection_dim)), labels=[])
            metrics.lambdas[br.name] = []

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
            for br in branches:
                H = project(br.layer, br.features(task.train, "train"))
                picks = metrics.lambdas[br.name]
                if config.freeze_lambda and t > 0:
                    lam = picks[0]
                else:
                    lam = select_lambda(br.state, H, grid=grid,
                                        seed=derive_seed(config.seed, "lambda_split", t))
                picks.append(lam)
                br.state = accumulate(br.state, H)
                br.P = solve_prototypes(br.state, lam)

            stage = f"task{t}-eval"
            new = eval_all[done : done + len(task.test)]
            done += len(task.test)
            scores = []
            for br in branches:
                He = project(br.layer, br.features(new, "test"))
                br.tested = FeatureMatrix(rows=np.concatenate((br.tested.rows, He.rows)),
                                          labels=br.tested.labels + He.labels)
                scores.append(score(br.P, br.state.registry, br.tested))
            true_labels = br.tested.labels
            pred_labels = late_fuse(*scores) if len(scores) == 2 else single_predict(scores[0])
            metrics.task_accuracies.append(accuracy(pred_labels, true_labels))
            metrics.balanced_accuracies.append(balanced_accuracy(pred_labels, true_labels))
            metrics.eval_sizes.append(len(true_labels))
            clocks.append(time.perf_counter() - t0)
    except Exception as exc:
        if config.output_dir and metrics.task_accuracies:
            try:
                report(metrics, config.output_dir, config, clocks, partial_after_stage=stage)
            except OSError:
                pass  # a partial report is best effort; the stage failure wins
        raise StageFailure(stage, exc) from exc
    if config.output_dir:
        report(metrics, config.output_dir, config, clocks)
    return metrics


# ---------------------------------------------------------------------------
# reporting

def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def report(metrics: MetricsReport, out_dir, config: RunConfig, per_task_seconds: list,
           partial_after_stage: str = None) -> None:
    """Write metrics.json, accuracy_curve.csv, config.json and timings.json.

    metrics.json is fully deterministic for a fixed config+seed; wall-clock
    (`per_task_seconds`) goes to timings.json so reruns stay byte-identical.
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        body = metrics.to_dict()
        if partial_after_stage is not None:
            body["partial_after_stage"] = partial_after_stage
        _atomic_write(out_dir / "metrics.json",
                      json.dumps(body, sort_keys=True, indent=2) + "\n")
        rows = ["task,accuracy,perf_drop"]
        for t, (a, pd) in enumerate(zip(metrics.task_accuracies, metrics.perf_drops)):
            rows.append(f"{t},{a!r},{pd!r}")
        _atomic_write(out_dir / "accuracy_curve.csv", "\n".join(rows) + "\n")
        _atomic_write(out_dir / "config.json",
                      json.dumps(asdict(config), sort_keys=True, indent=2) + "\n")
        _atomic_write(out_dir / "timings.json",
                      json.dumps({"per_task_seconds": per_task_seconds}, indent=2) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing report under {out_dir}: {exc}") from exc


def load_report(out_dir) -> MetricsReport:
    """The report in `out_dir`'s metrics.json; InputError if the file holds
    no object with a nonempty `task_accuracies` list."""
    body = json.loads((Path(out_dir) / "metrics.json").read_text())
    if not (isinstance(body, dict) and isinstance(body.get("task_accuracies"), list)
            and body["task_accuracies"]):
        raise InputError("metrics.json is not a report with a nonempty task_accuracies list")
    return MetricsReport(**{f.name: body[f.name] for f in fields(MetricsReport)})
