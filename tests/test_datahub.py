import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proto_cil.datahub import (SYNTH_KINDS, Dataset, LabeledImage, ScenarioSpec,
                               augment_array, load_dataset, make_scenario, save_dataset,
                               synth_dataset, _lowrank_clean)
from proto_cil.errors import InputError
from proto_cil.pgm import read_pgm, write_pgm

from pgm16 import write_pgm16


def tiny_dataset(num_classes=3, size=8, train=2, test=1):
    return synth_dataset("blobs", num_classes, train, test, size, seed=0)


# ---------------------------------------------------------------------------
# PGM + manifest

def test_pgm_roundtrip_8bit(tmp_path):
    img = np.linspace(0, 1, 64).reshape(8, 8)
    write_pgm(tmp_path / "a.pgm", img)
    back = read_pgm(tmp_path / "a.pgm")
    assert back.shape == (8, 8)
    assert np.abs(back - img).max() <= 0.5 / 255


def test_pgm_roundtrip_16bit(tmp_path):
    img = np.linspace(0, 1, 64).reshape(8, 8)
    write_pgm16(tmp_path / "a.pgm", img)
    back = read_pgm(tmp_path / "a.pgm")
    assert np.abs(back - img).max() <= 0.5 / 65535


def test_pgm_ascii_full_scale(tmp_path):
    (tmp_path / "a.pgm").write_text("P2\n2 1\n255\n255 0\n")
    back = read_pgm(tmp_path / "a.pgm")
    assert back[0, 0] == 1.0 and back[0, 1] == 0.0


def test_pgm_header_comments(tmp_path):
    (tmp_path / "a.pgm").write_bytes(b"P5\n# a comment line\n2 1\n255\n" + bytes([255, 0]))
    (tmp_path / "b.pgm").write_text("P2\n# a comment line\n2 1 # width height\n255\n255 0\n")
    for name in ("a.pgm", "b.pgm"):
        back = read_pgm(tmp_path / name)
        assert back.shape == (1, 2) and back[0, 0] == 1.0 and back[0, 1] == 0.0


@pytest.mark.parametrize("eol", [b"\n", b"\r"], ids=["LF", "CR"])
@pytest.mark.parametrize("magic, raster", [(b"P5", bytes([10, 20, 30, 40])),
                                           (b"P2", b"10 20 30 40")], ids=["P5", "P2"])
def test_pgm_comment_after_maxval_ends_at_the_raster_delimiter(tmp_path, magic, raster, eol):
    """A comment right after maxval runs to the CR or LF that then delimits
    the raster, as netpbm reads it."""
    (tmp_path / "a.pgm").write_bytes(magic + b" 2 2 255#comment" + eol + raster)
    assert np.array_equal(read_pgm(tmp_path / "a.pgm") * 255, [[10, 20], [30, 40]])


@pytest.mark.parametrize("text", ["P2 2 2 255 # max\n10 20 30 40",
                                  "P2\n2 2\n255\n10 20 # row\n30 40\n"],
                         ids=["after-maxval", "on-a-raster-line"])
def test_pgm_ascii_raster_skips_comments(tmp_path, text):
    """A '#' comment inside a P2 raster is skipped, as in the header and as
    netpbm's plain-format reader skips it."""
    (tmp_path / "a.pgm").write_text(text)
    assert np.array_equal(read_pgm(tmp_path / "a.pgm") * 255, [[10, 20], [30, 40]])


def test_pgm_header_comment_ends_at_a_carriage_return(tmp_path):
    (tmp_path / "a.pgm").write_bytes(b"P5 #comment\r2 1 255\n" + bytes([255, 0]))
    assert np.array_equal(read_pgm(tmp_path / "a.pgm"), [[1.0, 0.0]])


@pytest.mark.parametrize("sample", ["x", "-1", "1.5"])
def test_pgm_ascii_rejects_non_integer_samples(tmp_path, sample):
    (tmp_path / "a.pgm").write_text(f"P2\n2 1\n255\n{sample} 0\n")
    with pytest.raises(InputError, match=re.escape(f"sample '{sample}' is not a non-negative")):
        read_pgm(tmp_path / "a.pgm")


def test_manifest_roundtrip(tmp_path):
    ds = tiny_dataset(num_classes=10, train=1, test=1)
    manifest = save_dataset(ds, tmp_path)
    loaded = load_dataset(manifest)
    assert loaded.name == ds.name
    assert loaded.classes == ds.classes
    assert len(loaded.samples) == 20


def test_manifest_missing_image_names_path(tmp_path):
    ds = tiny_dataset()
    manifest = save_dataset(ds, tmp_path)
    victim = next(tmp_path.glob("*.pgm"))
    victim.unlink()
    with pytest.raises(InputError, match=victim.name):
        load_dataset(manifest)


def test_manifest_missing_file():
    with pytest.raises(InputError, match="not found"):
        load_dataset("/nonexistent/manifest.csv")


def test_manifest_dimension_mismatch(tmp_path):
    import json

    ds = tiny_dataset(size=8)
    manifest = save_dataset(ds, tmp_path)
    header = json.loads((tmp_path / "manifest.json").read_text())
    header["image_size"] = [16, 16]
    (tmp_path / "manifest.json").write_text(json.dumps(header))
    with pytest.raises(InputError, match="8x8"):
        load_dataset(manifest)


def edit_rows(d, edit):
    """Rewrite `d`'s manifest.csv as `edit` maps its list of lines. The lines
    of `tiny_dataset()` are the header, then each class's 2 train rows and 1
    test row, so line 2 is `c00_train_0001.pgm,c00,train` and line 11 is new."""
    path = d / "manifest.csv"
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")


@pytest.mark.parametrize("edit, message", [
    (lambda d: (d / "manifest.json").unlink(), "manifest header not found: "),
    (lambda d: (d / "manifest.json").write_text("{"), "malformed manifest header "),
    (lambda d: (d / "manifest.csv").write_text("file,label,split\n"),
     "manifest.csv: first row must be header 'path,label,split'"),
    (lambda d: (d / "manifest.csv").write_text("path,label,split\na.pgm,c00\n"),
     "manifest.csv:2: expected 3 fields, got 2"),
    (lambda d: edit_rows(d, lambda lines: lines[:1] + ["c00_train_0001.pgm,c00,val"] + lines[2:]),
     "manifest.csv:2: split 'val' is not train or test"),
    (lambda d: edit_rows(d, lambda lines: lines[:1] + ["c00_train_0001.pgm,zz,train"] + lines[2:]),
     "manifest.csv:2: label 'zz' is not a header class"),
    (lambda d: edit_rows(d, lambda lines: [ln for ln in lines if ",c01,test" not in ln]),
     "manifest.csv: class 'c01' has no test images"),
    (lambda d: edit_rows(d, lambda lines: lines + ["./c00_train_0001.pgm,c00,test"]),
     "manifest.csv:11: {d}/c00_train_0001.pgm is already listed at line 2"),
    (lambda d: (os.link(d / "c00_train_0001.pgm", d / "hard.pgm"),
                edit_rows(d, lambda lines: lines + ["hard.pgm,c00,test"])),
     "manifest.csv:11: {d}/hard.pgm is already listed at line 2"),
], ids=["no-header", "header-not-json", "wrong-first-row", "two-fields", "val-split",
        "label-not-a-header-class", "class-without-test-rows", "image-listed-twice",
        "image-hard-linked-twice"])
def test_manifest_rejections(tmp_path, edit, message):
    manifest = save_dataset(tiny_dataset(), tmp_path)
    edit(tmp_path)
    with pytest.raises(InputError, match=re.escape(message.format(d=tmp_path))):
        load_dataset(manifest)


@pytest.mark.parametrize("size", [None, [8, 8]])
def test_manifest_header_image_size_null_or_matching_loads(tmp_path, size):
    import json

    manifest = save_dataset(tiny_dataset(size=8), tmp_path)
    header = json.loads((tmp_path / "manifest.json").read_text())
    (tmp_path / "manifest.json").write_text(json.dumps({**header, "image_size": size}))
    assert load_dataset(manifest).samples[0].pixels.shape == (8, 8)


# ---------------------------------------------------------------------------
# synthetic data

def test_synth_deterministic():
    a = synth_dataset("blobs", 10, 20, 10, 16, seed=1)
    b = synth_dataset("blobs", 10, 20, 10, 16, seed=1)
    for x, y in zip(a.samples, b.samples):
        assert np.array_equal(x.pixels, y.pixels)
        assert x.label == y.label and x.split == y.split


def test_blobs_linearly_separable_ridge_oracle():
    ds = synth_dataset("blobs", 2, 50, 20, 16, seed=1)
    train = [im for im in ds.samples if im.split == "train"]
    X = np.stack([im.pixels.ravel() for im in train])
    y = np.array([1.0 if im.label == ds.classes[1] else -1.0 for im in train])
    w = np.linalg.solve(X.T @ X + 1e-6 * np.eye(X.shape[1]), X.T @ y)
    assert (np.sign(X @ w) == y).mean() >= 0.99


def test_lowrank_clean_rank_two():
    for seed in range(3):
        clean = _lowrank_clean(np.random.default_rng(seed), 64)
        sv = np.linalg.svd(clean, compute_uv=False)
        # construction is rank 2 plus the constant offset of the [0,1] rescale
        assert sv[3] <= 1e-10 * sv[0]


@pytest.mark.parametrize("kind", SYNTH_KINDS)
def test_lowrank_speckle_dataset_valid(kind):
    """What a dataset's users rely on and nothing re-checks: every image is 2-D,
    finite and in [0,1], and every class has train and test images."""
    ds = synth_dataset(kind, 3, 10, 5, 64, seed=7)
    assert len(ds.samples) == 3 * 15
    for im in ds.samples:
        assert im.pixels.ndim == 2 and np.isfinite(im.pixels).all()
        assert 0 <= im.pixels.min() and im.pixels.max() <= 1
    assert {(im.label, im.split) for im in ds.samples} == \
        {(c, s) for c in ds.classes for s in ("train", "test")}


# ---------------------------------------------------------------------------
# scenarios

def test_b4inc1_schedule():
    ds = tiny_dataset(num_classes=10, train=3, test=2)
    seq = make_scenario(ds, ScenarioSpec(schedule=[4, 1, 1, 1, 1, 1, 1],
                                         class_order=list(ds.classes), seed=0))
    assert len(seq.tasks) == 7
    assert [len(t.classes) for t in seq.tasks] == [4, 1, 1, 1, 1, 1, 1]


def test_b2inc2_schedule():
    ds = tiny_dataset(num_classes=10, train=3, test=2)
    seq = make_scenario(ds, ScenarioSpec(schedule=[2] * 5,
                                         class_order=list(ds.classes), seed=0))
    assert len(seq.tasks) == 5
    assert all(len(t.classes) == 2 for t in seq.tasks)


def test_portion_ceil_count():
    # 299 train samples at portion 0.5 -> 150 retained
    px = np.zeros((4, 4))
    samples = [LabeledImage(pixels=px, label="a", split="train") for _ in range(299)]
    samples += [LabeledImage(pixels=px, label="a", split="test")]
    samples += [LabeledImage(pixels=px, label="b", split="train"),
                LabeledImage(pixels=px, label="b", split="test")]
    ds = Dataset(name="d", classes=["a", "b"], samples=samples)
    seq = make_scenario(ds, ScenarioSpec(schedule=[2], class_order=["a", "b"],
                                         portion=0.5, seed=1))
    a_train = [im for im in seq.tasks[0].train if im.label == "a"]
    assert len(a_train) == math.ceil(0.5 * 299) == 150


def test_portion_monotone_subset():
    ds = tiny_dataset(num_classes=2, train=20, test=1, size=4)
    ids = {}
    for p in (0.3, 0.6, 1.0):
        seq = make_scenario(ds, ScenarioSpec(schedule=[2], class_order=list(ds.classes),
                                             portion=p, seed=5))
        ids[p] = {id(im) for im in seq.tasks[0].train}
    assert ids[0.3] <= ids[0.6] <= ids[1.0]


def test_unknown_class_rejected():
    ds = tiny_dataset()
    with pytest.raises(InputError, match="ghost"):
        make_scenario(ds, ScenarioSpec(schedule=[3], class_order=["ghost", *ds.classes[:2]]))


def test_schedule_length_mismatch_rejected():
    ds = tiny_dataset()
    with pytest.raises(InputError):
        ScenarioSpec(schedule=[2], class_order=list(ds.classes))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4))
def test_task_disjointness_and_coverage(seed, schedule):
    n = sum(schedule)
    ds = synth_dataset("blobs", max(n, 2), 2, 1, 4, seed=0)
    order = list(ds.classes[:n]) if n >= 2 else list(ds.classes[:1])
    if len(order) != n:
        return
    seq = make_scenario(ds, ScenarioSpec(schedule=schedule, class_order=order, seed=seed))
    sets = [set(t.classes) for t in seq.tasks]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            assert not (sets[i] & sets[j])
    assert set().union(*sets) == set(order)
    for t in seq.tasks:
        assert all(im.label in t.classes for im in t.train)


def test_eval_set_is_union_of_seen_test_samples():
    ds = tiny_dataset(num_classes=4, train=2, test=3)
    seq = make_scenario(ds, ScenarioSpec(schedule=[2, 1, 1], class_order=list(ds.classes)))
    for t in range(len(seq.tasks)):
        seen = [c for task in seq.tasks[: t + 1] for c in task.classes]
        labels = {im.label for im in seq.eval_set(t)}
        assert labels == set(seen)
        assert len(seq.eval_set(t)) == 3 * len(seen)


def test_eval_set_is_a_prefix_of_the_next():
    """eval_set(t) is the head of eval_set(t + 1), the same objects in the same
    order; the run scores cached rows of earlier tasks on that basis."""
    ds = tiny_dataset(num_classes=5, train=2, test=3)
    seq = make_scenario(ds, ScenarioSpec(schedule=[2, 1, 2], class_order=list(ds.classes)[::-1]))
    for t in range(len(seq.tasks) - 1):
        now, then = seq.eval_set(t), seq.eval_set(t + 1)
        assert len(then) == len(now) + len(seq.tasks[t + 1].test)
        assert all(a is b for a, b in zip(now, then))


# ---------------------------------------------------------------------------
# augmentation

def test_augment_output_size():
    px = np.random.default_rng(0).random((128, 128))
    out = augment_array(px, None)
    assert out.shape == (70, 70)


def test_augment_symmetric_image_flip_invariant():
    half = np.random.default_rng(1).random((64, 32))
    px = np.hstack([half, half[:, ::-1]])
    ev = augment_array(px, None)
    for seed in range(8):
        tr = augment_array(px, seed)
        assert np.allclose(tr, ev, atol=1e-12)


def test_augment_rejects_small_image():
    with pytest.raises(InputError, match="smaller"):
        augment_array(np.zeros((16, 16)), None)


def test_augment_deterministic():
    px = np.random.default_rng(0).random((40, 40))
    a = augment_array(px, 9)
    b = augment_array(px, 9)
    assert np.array_equal(a, b)
