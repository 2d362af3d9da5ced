"""Datasets, manifests, synthetic data, augmentation, and CIL scenario building."""

import csv
import json
import math
import os
import stat
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cnn import INPUT_SIZE
from .errors import InputError
from .pgm import read_pgm, write_pgm
from .seeding import derive_rng

CROP_SIZE = 32
SYNTH_KINDS = ("blobs", "lowrank_speckle")  # what synth_dataset can generate


@dataclass(frozen=True)
class LabeledImage:
    pixels: np.ndarray  # 2-D float64, values in [0,1]
    label: str
    split: str  # "train" | "test"


@dataclass
class Dataset:
    classes: list  # ordered class identifiers
    samples: list  # of LabeledImage; every class has train and test images

    def by_class(self, split: str) -> dict:
        out = {c: [] for c in self.classes}
        for im in self.samples:
            if im.split == split:
                out[im.label].append(im)
        return out


@dataclass(frozen=True)
class ScenarioSpec:
    schedule: list  # per-task class counts
    class_order: list  # permutation of class identifiers
    portion: float
    seed: int

    def __post_init__(self):
        if sum(self.schedule) != len(self.class_order):
            raise InputError(
                f"schedule sums to {sum(self.schedule)} but class_order has "
                f"{len(self.class_order)} classes"
            )
        if len(set(self.class_order)) != len(self.class_order):
            raise InputError("class_order contains duplicates")


@dataclass(frozen=True)
class Task:
    classes: tuple  # label space of this task
    train: tuple  # of LabeledImage, labels within self.classes
    test: tuple


@dataclass(frozen=True)
class TaskSequence:
    tasks: tuple  # of Task

    def eval_set(self, t: int) -> list:
        """Union of test samples over all classes seen up to task t."""
        out = []
        for task in self.tasks[: t + 1]:
            out.extend(task.test)
        return out


# ---------------------------------------------------------------------------
# manifest I/O

def file_identity(path):
    """`(st_dev, st_ino)` of the regular file `path` leads to, by one stat: two
    paths are one file, through any link, when these are equal. None if the
    stat fails (a missing path or link target, a symlink loop) or finds no file."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return (st.st_dev, st.st_ino) if stat.S_ISREG(st.st_mode) else None


def load_dataset(manifest_path) -> Dataset:
    """Load a dataset from a CSV manifest (`path,label,split`) + sibling JSON header."""
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise InputError(f"manifest not found: {manifest_path}")
    header_path = manifest_path.with_suffix(".json")
    if not header_path.is_file():
        raise InputError(f"manifest header not found: {header_path}")
    try:
        header = json.loads(header_path.read_text())
        classes = header["classes"]
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise InputError(f"malformed manifest header {header_path}: {exc}") from exc
    if not (type(classes) is list and all(type(c) is str for c in classes)):
        raise InputError(f"malformed manifest header {header_path}: classes must be a list "
                         f"of strings, got {classes!r}")
    repeated = sorted({c for c in classes if classes.count(c) > 1})
    if repeated:
        raise InputError(f"malformed manifest header {header_path}: classes repeat {repeated}")
    expect_size = header.get("image_size")  # optional [height, width]
    if expect_size is not None and not (type(expect_size) is list and len(expect_size) == 2
                                        and all(type(v) is int and v >= 1 for v in expect_size)):
        raise InputError(f"malformed manifest header {header_path}: image_size must be null "
                         f"or two integers >= 1, got {expect_size!r}")

    samples = []
    try:
        with open(manifest_path, newline="") as f:
            rows = list(csv.reader(f))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"{manifest_path}: unreadable CSV: {exc}") from exc
    if not rows or rows[0] != ["path", "label", "split"]:
        raise InputError(f"{manifest_path}: first row must be header 'path,label,split'")
    listed = {}  # file identity of an image -> the manifest line that lists it
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise InputError(f"{manifest_path}:{lineno}: expected 3 fields, got {len(row)}")
        rel, label, split = row
        if split not in ("train", "test"):
            raise InputError(f"{manifest_path}:{lineno}: split {split!r} is not train or test")
        if label not in classes:
            raise InputError(f"{manifest_path}:{lineno}: label {label!r} is not a header class")
        img_path = manifest_path.parent / rel
        if (identity := file_identity(img_path)) is None:
            raise InputError(f"{manifest_path}:{lineno}: image not found: {img_path}")
        first = listed.setdefault(identity, lineno)
        if first != lineno:
            raise InputError(f"{manifest_path}:{lineno}: {img_path} is already listed at "
                             f"line {first}")
        try:
            pixels = read_pgm(img_path)
        except InputError as exc:
            raise InputError(f"{manifest_path}:{lineno}: {exc}") from exc
        if expect_size is not None and list(pixels.shape) != list(expect_size):
            raise InputError(f"{manifest_path}:{lineno}: {img_path}: image is "
                             f"{pixels.shape[0]}x{pixels.shape[1]}, manifest declares "
                             f"{expect_size[0]}x{expect_size[1]}")
        samples.append(LabeledImage(pixels=pixels, label=label, split=split))
    covered = {(im.label, im.split) for im in samples}
    for c in classes:
        for split in ("train", "test"):
            if (c, split) not in covered:
                raise InputError(f"{manifest_path}: class {c!r} has no {split} images")
    return Dataset(classes=classes, samples=samples)


def save_dataset(dataset: Dataset, out_dir) -> Path:
    """Write PGM images plus manifest.csv / manifest.json; returns manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    counters = {}
    for im in dataset.samples:
        k = (im.label, im.split)
        counters[k] = counters.get(k, 0) + 1
        rel = f"{im.label}_{im.split}_{counters[k]:04d}.pgm"
        write_pgm(out_dir / rel, im.pixels)
        rows.append([rel, im.label, im.split])
    manifest = out_dir / "manifest.csv"
    with open(manifest, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["path", "label", "split"])
        writer.writerows(rows)
    (out_dir / "manifest.json").write_text(
        json.dumps({"classes": dataset.classes}, indent=2) + "\n"
    )
    return manifest


# ---------------------------------------------------------------------------
# synthetic data

def _lowrank_clean(rng: np.random.Generator, size: int) -> np.ndarray:
    """Rank-2 smooth image in [0,1]; the class template before any noise."""
    t = np.linspace(0, 1, size)
    freqs = rng.uniform(1.0, 4.0, size=4)
    phases = rng.uniform(0, 2 * np.pi, size=4)
    u1 = np.sin(2 * np.pi * freqs[0] * t + phases[0])
    v1 = np.cos(2 * np.pi * freqs[1] * t + phases[1])
    u2 = np.sin(2 * np.pi * freqs[2] * t + phases[2])
    v2 = np.cos(2 * np.pi * freqs[3] * t + phases[3])
    img = np.outer(u1, v1) + 0.5 * np.outer(u2, v2)
    lo, span = img.min(), img.max() - img.min()
    return (img - lo) / span if span > 0 else np.zeros_like(img)  # a 1x1 template is constant


def synth_dataset(kind: str, num_classes: int, per_class_train: int,
                  per_class_test: int, image_size: int, seed: int) -> Dataset:
    """Deterministic synthetic dataset: `blobs` (Gaussian clusters rendered as
    images) or `lowrank_speckle` (rank-2 class templates under multiplicative
    speckle plus sparse spikes)."""
    rng = derive_rng(seed, "synth")
    classes = [f"c{i:02d}" for i in range(num_classes)]
    samples = []
    d = image_size * image_size
    for ci, label in enumerate(classes):
        if kind == "blobs":
            mean = rng.normal(0.0, 1.0, size=d)
        else:
            clean = _lowrank_clean(rng, image_size)
        for split, count in (("train", per_class_train), ("test", per_class_test)):
            for _ in range(count):
                if kind == "blobs":
                    vec = mean + 0.1 * rng.normal(size=d)
                    px = np.clip(0.5 + 0.15 * vec, 0.0, 1.0).reshape(image_size, image_size)
                else:
                    # unit-mean gamma speckle, then 5% uniform spikes
                    speckle = rng.gamma(shape=4.0, scale=0.25, size=(image_size, image_size))
                    px = clean * speckle
                    mask = rng.random((image_size, image_size)) < 0.05
                    px = np.where(mask, rng.random((image_size, image_size)), px)
                    px = np.clip(px, 0.0, 1.0)
                samples.append(LabeledImage(pixels=px, label=label, split=split))
    return Dataset(classes=classes, samples=samples)


# ---------------------------------------------------------------------------
# scenario construction

def make_scenario(dataset: Dataset, spec: ScenarioSpec) -> TaskSequence:
    """Partition classes into tasks per the schedule, subsampling train data
    per class to `spec.portion` (ceil, min 1). Test sets are never subsampled."""
    train_pool, test_pool = dataset.by_class("train"), dataset.by_class("test")
    unknown = [c for c in spec.class_order if c not in train_pool]
    if unknown:
        raise InputError(f"classes in class_order not found in the dataset: {unknown}")

    tasks = []
    cursor = 0
    for width in spec.schedule:
        task_classes = tuple(spec.class_order[cursor : cursor + width])
        cursor += width
        train, test = [], []
        for c in task_classes:
            pool = train_pool[c]
            keep = max(1, math.ceil(spec.portion * len(pool)))
            order = derive_rng(spec.seed, "scenario", spec.class_order.index(c)).permutation(len(pool))
            train.extend(pool[i] for i in sorted(order[:keep]))
            test.extend(test_pool[c])
        tasks.append(Task(classes=task_classes, train=tuple(train), test=tuple(test)))
    return TaskSequence(tasks=tuple(tasks))


# ---------------------------------------------------------------------------
# augmentation

def bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Separable bilinear resize with half-pixel centers."""
    in_h, in_w = image.shape

    def coords(n_out, n_in):
        scale = n_in / n_out
        c = (np.arange(n_out) + 0.5) * scale - 0.5
        return np.clip(c, 0, n_in - 1)

    ys, xs = coords(out_h, in_h), coords(out_w, in_w)
    y0 = np.floor(ys).astype(int)
    y1 = np.minimum(y0 + 1, in_h - 1)
    wy = (ys - y0)[:, None]
    rows = image[y0] * (1 - wy) + image[y1] * wy
    x0 = np.floor(xs).astype(int)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wx = xs - x0
    return rows[:, x0] * (1 - wx) + rows[:, x1] * wx


def augment_array(px: np.ndarray, flip_seed) -> np.ndarray:
    """Center-crop to 32x32 and bilinear-resize to 70x70, then flip
    horizontally with probability 0.5 drawn from `flip_seed`; None never
    flips. Works on raw arrays (no [0,1] requirement) so filtered residuals
    pass through unclamped."""
    h, w = px.shape
    if h < CROP_SIZE or w < CROP_SIZE:
        raise InputError(f"image {h}x{w} smaller than {CROP_SIZE}x{CROP_SIZE} crop")
    top, left = (h - CROP_SIZE) // 2, (w - CROP_SIZE) // 2
    px = px[top : top + CROP_SIZE, left : left + CROP_SIZE]
    px = bilinear_resize(px, INPUT_SIZE, INPUT_SIZE)
    if flip_seed is not None and derive_rng(flip_seed, "augment").random() < 0.5:
        px = px[:, ::-1]
    return np.ascontiguousarray(px)

