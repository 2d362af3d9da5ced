import io
import json
import re
import tracemalloc
import zipfile

import numpy as np
import pytest

from proto_cil import cnn
from proto_cil.cnn import (CHANNELS, FLAT_SIZE, INPUT_SIZE, KERNELS,
                           _col2im, _forward_batch, _im2col, _pad_buffer, _windows,
                           apply_dropout, cnn_extract, cnn_init,
                           cnn_loss_and_grad, cnn_train, load_cnn, save_cnn)
from proto_cil.datahub import augment_array, synth_dataset
from proto_cil.errors import Divergence, InputError
from proto_cil.features import softmax_cross_entropy
from proto_cil.seeding import derive_rng

import cnn_reference
from gradcheck import grad_check

# SGD settings for tests that do not vary them: the run's cnn_train defaults
SGD = {"lr": 0.01, "momentum": 0.9, "weight_decay": 0.0005}


def augmented_blobs(num_classes=2, per_class=8, seed=0):
    ds = synth_dataset("blobs", num_classes, per_class, 1, 32, seed=seed)
    train = [im for im in ds.samples if im.split == "train"]
    imgs = np.stack([augment_array(im.pixels, i) for i, im in enumerate(train)])
    return imgs, [im.label for im in train]


def eval_fit(model, imgs, labels):
    """Eval-mode cross-entropy and accuracy of the training head on the whole set."""
    y = np.array([sorted(set(labels)).index(c) for c in labels])
    _, logits, _ = _forward_batch(model, imgs, None)
    return softmax_cross_entropy(logits, y)[0], float((logits.argmax(axis=1) == y).mean())


# ---------------------------------------------------------------------------
# architecture + init

def test_architecture_arithmetic():
    # same-padded convs keep the size; each 2x2 floor pool halves it
    sizes = []
    s = INPUT_SIZE
    for _ in KERNELS:
        s = s // 2
        sizes.append(s)
    assert sizes == [35, 17, 8, 4]
    assert FLAT_SIZE == 4 * 4 * CHANNELS[-1] == 2048


def test_init_shapes_and_determinism():
    a = cnn_init(64, seed=1, num_classes=3)
    b = cnn_init(64, seed=1, num_classes=3)
    assert a["dense_w"].shape == (FLAT_SIZE, 64)
    assert a["head_w"].shape == (64, 3)
    assert a["conv0_w"].shape == (1 * 7 * 7, 16)
    for k in a:
        assert np.array_equal(a[k], b[k])
    assert np.all(a["conv0_b"] == 0)
    assert np.all(a["dense_b"] == 0)


def test_zero_image_gives_zero_features():
    model = cnn_init(16, seed=0, num_classes=2)
    feats, logits, _ = _forward_batch(model, np.zeros((1, INPUT_SIZE, INPUT_SIZE)), None)
    assert np.allclose(feats, 0.0)  # zero activations, zero biases
    assert np.allclose(logits, 0.0)


def test_eval_forward_deterministic():
    model = cnn_init(16, seed=0, num_classes=2)
    img = np.random.default_rng(1).random((1, INPUT_SIZE, INPUT_SIZE))
    f1, l1, _ = _forward_batch(model, img, None)
    f2, l2, _ = _forward_batch(model, img, None)
    assert np.array_equal(f1, f2) and np.array_equal(l1, l2)


# ---------------------------------------------------------------------------
# layers in the padded-row layout

def max_rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("k", KERNELS)
def test_im2col_and_col2im_are_adjoint(k):
    """On a non-square input, so that a mix-up of rows and columns shows."""
    rng = np.random.default_rng(k)
    x = rng.standard_normal((3, 9, 8))
    xp = np.zeros((3, 9 + k, 8 + k - 1))
    xp[:, k // 2 : k // 2 + 9, k // 2 : k // 2 + 8] = x
    cols = _im2col(xp, k)
    assert cols.shape == (3 * k * k, 9 * (8 + k - 1))
    y = rng.standard_normal(cols.shape)
    lhs, rhs = np.vdot(cols, y), np.vdot(x, _col2im(y, xp.shape, k))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("side", [17, 35])
@pytest.mark.parametrize("k", KERNELS)
def test_im2col_valid_columns_match_sliding_window(k, side):
    """Dropping each output row's junk columns leaves the sliding-window
    columns bit for bit, at odd sides as the stack meets them."""
    x = np.random.default_rng(side * k).standard_normal((3, side, side))
    xp, inner = _pad_buffer(3, side, k, np.float64)
    inner[...] = x
    cols = _im2col(xp, k).reshape(3 * k * k, side, side + k - 1)[:, :, :side]
    ref = cnn_reference.channel_major_im2col(x[:, None], k)
    assert np.array_equal(cols.reshape(ref.shape), ref)


def interior(xp, k):
    """The interior of a padded layer buffer: the layer's input."""
    p, side = k // 2, xp.shape[1] - k
    return xp[:, p : p + side, p : p + side]


def four_member_max(win):
    return np.maximum(np.maximum(win[0, 0], win[0, 1]), np.maximum(win[1, 0], win[1, 1]))


def pooled_layers(model, images):
    """Per image and layer of a backprop forward: the junk-free conv output,
    recomputed from the cached layer input as the forward computes it, the
    cached pool argmax, and the ReLU'd pool output that the next layer's
    buffer interior (or the image's flat row) holds."""
    _, _, cache = _forward_batch(model, images, None, backprop=True)
    for layers, flat in zip(cache["images"], cache["flat"]):
        outs = [interior(xp, k) for (xp, _), k in zip(layers[1:], KERNELS[1:])]
        outs.append(flat.reshape(CHANNELS[-1], cnn.POOLED_SIDE, cnn.POOLED_SIDE))
        for i, ((xp, idx), out) in enumerate(zip(layers, outs)):
            side = xp.shape[1] - KERNELS[i]
            z = model[f"conv{i}_w"].T @ _im2col(xp, KERNELS[i])
            z += model[f"conv{i}_b"][:, None]
            yield z.reshape(CHANNELS[i], side, -1)[:, :, :side], idx, out


@pytest.mark.parametrize("side, k, c", zip([70, 35, 17, 8], KERNELS, CHANNELS))
def test_windows_is_a_view_of_the_junk_sliced_conv_output(side, k, c):
    """_windows must not copy a layer's (C, side, wp)[:, :, :side] conv output:
    the backward writes the pool gradient through it."""
    z = np.arange(c * side * (side + k - 1), dtype=np.float32).reshape(c, side, -1)[:, :, :side]
    win, h = _windows(z), side // 2
    assert np.shares_memory(win, z)
    assert win.shape == (2, 2, c, h, h)
    for di in (0, 1):
        for dj in (0, 1):
            assert np.array_equal(win[di, dj], z[:, di : 2 * h : 2, dj : 2 * h : 2])


def test_eval_pooling_equals_argmax_pooling_bitwise(monkeypatch):
    """At every layer, the odd sides 35 and 17 (floor pooling) among them, the
    train forward's pool output is the ReLU of the four-member max to the bit
    and its uint8 argmax names a member holding that max; the eval forward
    hands every layer the same input bits and gives the same features."""
    model = cnn_init(8, seed=0, num_classes=2)
    imgs = np.random.default_rng(3).standard_normal((2, INPUT_SIZE, INPUT_SIZE))
    sides = []
    for z, idx, out in pooled_layers(model, imgs):
        win = _windows(z)
        members, four = win.reshape(4, *idx.shape), four_member_max(win)
        assert idx.dtype == np.uint8  # cached until backprop: one byte per pooled unit
        assert np.array_equal(idx, members.argmax(axis=0))
        assert np.array_equal(np.take_along_axis(members, idx[None], axis=0)[0], four)
        assert np.array_equal(out, np.maximum(four, 0))
        sides.append(z.shape[-1])
    assert sides == [70, 35, 17, 8] * len(imgs)
    seen = []

    def spy(xp, k):
        seen.append(xp.copy())
        return _im2col(xp, k)

    monkeypatch.setattr(cnn, "_im2col", spy)
    feats, _, _ = _forward_batch(model, imgs, None)
    monkeypatch.undo()
    train_feats, _, cache = _forward_batch(model, imgs, None, backprop=True)
    assert np.array_equal(feats, train_feats)
    cached = [xp for layers in cache["images"] for xp, _ in layers]
    assert len(seen) == len(cached)
    assert all(np.array_equal(a, b) for a, b in zip(seen, cached))


@pytest.mark.parametrize("side", [70, 35, 17, 8])
def test_pooling_ties_pick_the_first_view(side):
    """The images are zero outside their top-left 20x20 corner, so every
    layer's conv output has windows of four tied zeros. At the layer whose conv output is side x side, the pool gives the
    bits of the four-member max in eval and train alike, the first member in
    (di, dj) order wins a tie, and the argmax is the reference's."""
    imgs = np.zeros((2, INPUT_SIZE, INPUT_SIZE))
    imgs[:, :20, :20] = np.random.default_rng(side).standard_normal((2, 20, 20))
    model = cnn_init(8, seed=side, num_classes=2)
    layers = [layer for layer in pooled_layers(model, imgs) if layer[0].shape[-1] == side]
    assert len(layers) == len(imgs)
    for z, idx, out in layers:
        win = _windows(z)
        members = win.reshape(4, *idx.shape)
        assert (members == members.max(axis=0)).sum(axis=0).max() > 1  # the data has ties
        assert np.array_equal(idx, members.argmax(axis=0))
        assert np.array_equal(out, np.maximum(four_member_max(win), 0))
        _, ref_idx = cnn_reference.maxpool(z[None])
        assert np.array_equal(idx, ref_idx[0])
    eval_feats, _, _ = _forward_batch(model, imgs, None)
    assert np.array_equal(eval_feats, _forward_batch(model, imgs, None, backprop=True)[0])


def test_eval_forward_keeps_no_layer_cache():
    """Without backprop the cache holds no layer data; with it, one entry per
    image and layer: the padded layer input and the uint8 pool argmax, and no
    im2col columns or ReLU mask. The padding stays zero, and the ReLU mask
    backprop reads off the next layer's input (or the flat row) is the pool
    output > 0."""
    model = cnn_init(8, seed=0, num_classes=2)
    n = 3
    imgs = np.random.default_rng(4).random((n, INPUT_SIZE, INPUT_SIZE))
    _, _, cache = _forward_batch(model, imgs, None)
    assert cache["images"] == []
    _, _, cache = _forward_batch(model, imgs, None, backprop=True)
    assert len(cache["images"]) == n
    for image, layers in zip(imgs, cache["images"]):
        assert len(layers) == len(KERNELS)
        in_ch, side = 1, INPUT_SIZE
        for i, (xp, idx) in enumerate(layers):
            k = KERNELS[i]
            assert xp.shape == (in_ch, side + k, side + k - 1)
            assert np.count_nonzero(xp) == np.count_nonzero(interior(xp, k))  # zero padding
            assert idx.dtype == np.uint8
            assert idx.shape == (CHANNELS[i], side // 2, side // 2)
            in_ch, side = CHANNELS[i], side // 2
        assert np.array_equal(interior(layers[0][0], KERNELS[0])[0], image)
    for z, _, out in pooled_layers(model, imgs):
        assert np.array_equal(out > 0, four_member_max(_windows(z)) > 0)


@pytest.mark.parametrize("train_mode", [True, False])
def test_gradients_match_reference_layout(train_mode):
    """Per-image weight gradients summed over one image, two, five and a full
    train batch."""
    model = cnn_init(16, seed=2, num_classes=3)
    for n in (1, 2, 5, cnn.TRAIN_BATCH):
        rng = np.random.default_rng(5)
        imgs, y = rng.random((n, INPUT_SIZE, INPUT_SIZE)), rng.integers(0, 3, n)
        loss, grads = cnn_loss_and_grad(
            model, imgs, y, (0.5, derive_rng(1, "cnn", 3)) if train_mode else None)
        ref_loss, ref_grads = cnn_reference.loss_and_grad(
            model, imgs, y, (0.5, derive_rng(1, "cnn", 3)) if train_mode else None)
        assert loss == pytest.approx(ref_loss, rel=1e-12), n
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            assert grads[name].shape == ref_grads[name].shape
            assert max_rel(grads[name], ref_grads[name]) <= 1e-12, (n, name)


def trained_blobs_model():
    imgs, labels = augmented_blobs(per_class=3)
    model = cnn_train(cnn_init(16, seed=0, num_classes=2), imgs, labels, dropout=0.5, epochs=1,
                      **SGD, seed=0)
    return model, imgs, labels


def test_eval_forward_matches_reference_forward():
    """The float64 forward that training uses."""
    model, imgs, _ = trained_blobs_model()
    ref_feats, _, _ = cnn_reference.forward(model, imgs, None)
    feats, _, _ = _forward_batch(model, imgs, None)
    assert max_rel(feats, ref_feats) <= 1e-12


def test_extract_matches_reference_forward():
    """Extraction is the eval forward on float32 copies of the conv weights,
    to the bit, with float64 rows about 5e-7 relative from the float64
    reference."""
    model, imgs, labels = trained_blobs_model()
    rows = cnn_extract(model, imgs)
    f32 = {k: v.astype(np.float32) if k.startswith("conv") else v for k, v in model.items()}
    feats, _, _ = _forward_batch(f32, imgs, None)
    assert rows.dtype == np.float64
    assert np.array_equal(rows, feats)
    ref_feats, _, _ = cnn_reference.forward(model, imgs, None)
    assert max_rel(rows, ref_feats) <= 1e-5


def test_extract_and_train_columns_are_float32(monkeypatch):
    """Extraction and each train step run the conv stack on float32 copies of
    the conv weights; the trained master weights stay float64, and a float64
    model handed straight to cnn_loss_and_grad still runs in float64."""
    seen = []

    def spy(xp, k):
        seen.append(xp.dtype)
        return _im2col(xp, k)

    model, imgs, labels = trained_blobs_model()
    monkeypatch.setattr(cnn, "_im2col", spy)
    cnn_extract(model, imgs[:2])
    assert seen == [np.float32] * 2 * len(KERNELS)
    seen.clear()
    out = cnn_train(model, imgs, labels, dropout=0.5, epochs=1, **SGD, seed=0)  # one batch
    # forward and backprop of each image, then the overflow check's forward of one
    assert seen == [np.float32] * (2 * len(imgs) + 1) * len(KERNELS)
    assert all(v.dtype == np.float64 for v in out.values())
    seen.clear()
    cnn_loss_and_grad(model, imgs[:2], np.array([0, 1]), (0.5, derive_rng(0, "cnn", 3)))
    assert seen == [np.float64] * 2 * 2 * len(KERNELS)


# ---------------------------------------------------------------------------
# dropout

def test_dropout_expectation_matches_eval_path():
    rng = derive_rng(0, "cnn")
    x = np.ones((1, 50))
    p = 0.3
    total = np.zeros_like(x)
    draws = 10_000
    for _ in range(draws):
        out, _ = apply_dropout(x, p, rng)
        total += out
    assert np.abs(total / draws - x).max() <= 0.02 * 3  # per-unit 2%-ish bound


def test_dropout_mask_scaling():
    rng = derive_rng(1, "cnn")
    out, mask = apply_dropout(np.ones((4, 4)), 0.5, rng)
    assert set(np.unique(mask)) <= {0.0, 2.0}
    assert np.array_equal(out, mask)


# ---------------------------------------------------------------------------
# gradients + training

def image_column_bytes():
    """Bytes of each conv layer's im2col columns for one image: C*k*k rows of
    side * (side + k - 1) positions, the junk columns included."""
    in_ch, col_bytes = 1, []
    for i, (k, out_ch) in enumerate(zip(KERNELS, CHANNELS)):
        side = INPUT_SIZE >> i
        col_bytes.append(in_ch * k * k * side * (side + k - 1) * 8)
        in_ch = out_ch
    return col_bytes


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def memory_bound(copies):
    """`copies` times one image's columns summed over the four layers, whose
    largest part is the second conv's 4.4 MB: 7.6 MB a copy."""
    return copies * sum(image_column_bytes())


def test_train_step_releases_columns_during_backprop():
    """The forward pass caches no im2col columns: backprop rebuilds one
    image's columns of one layer at a time and drops them after the weight
    gradient, so no more than one layer's columns and their gradient live.
    Beside them live the batch's cached layer inputs and pool argmaxes (7.0 MB
    for 16 images) and the dense weight gradient (4.2 MB at d_cnn 256); three
    copies of one image's columns (22.7 MB) bound the lot. Columns built for
    four images at a time (29.5 MB) break it."""
    n, bound = cnn.TRAIN_BATCH, memory_bound(3)
    model = cnn_init(256, seed=0, num_classes=2)
    rng = np.random.default_rng(6)
    imgs = rng.random((n, INPUT_SIZE, INPUT_SIZE))
    peak = traced_peak(lambda: cnn_loss_and_grad(model, imgs, np.arange(n) % 2, (0.5, rng)))
    assert peak <= bound, f"peak {peak / 1e6:.1f} MB > bound {bound / 1e6:.1f} MB"


def test_train_step_as_cnn_train_runs_it_fits_two_column_copies(monkeypatch):
    """The step cnn_train takes, on float32 copies of the conv weights, peaks
    at about 12.4 MB for 16 images at d_cnn 256: under two copies of one
    image's float64 columns (15.2 MB). The float64 step (18.1 MB) breaks it."""
    n, bound = cnn.TRAIN_BATCH, memory_bound(2)
    peaks = []

    def traced_step(*args, **kwargs):
        out = []
        peaks.append(traced_peak(lambda: out.append(cnn_loss_and_grad(*args, **kwargs))))
        return out[0]

    monkeypatch.setattr(cnn, "cnn_loss_and_grad", traced_step)
    imgs = np.random.default_rng(6).random((n, INPUT_SIZE, INPUT_SIZE))
    cnn_train(cnn_init(256, seed=0, num_classes=2), imgs, ["a", "b"] * (n // 2), dropout=0.5,
              epochs=1, **SGD, seed=0)
    assert len(peaks) == 1
    assert peaks[0] <= bound, f"peak {peaks[0] / 1e6:.1f} MB > bound {bound / 1e6:.1f} MB"


def test_train_step_2_starts_no_higher_than_step_1(monkeypatch):
    """cnn_train drops a step's gradients before the next step: in a two-step
    run at d_cnn 256 the traced memory entering step 2 is no higher than
    entering step 1 (11.2 MB), give or take 64 KB of small objects: the last
    step's loss and the caches of small numpy allocations that step 1 fills
    (13 KB measured). Step 1's gradients held through step 2, the 4.2 MB
    dense weight gradient among them, put it at 15.8 MB."""
    n, entering = 2 * cnn.TRAIN_BATCH, []

    def traced_step(*args, **kwargs):
        entering.append(tracemalloc.get_traced_memory()[0])
        return cnn_loss_and_grad(*args, **kwargs)

    monkeypatch.setattr(cnn, "cnn_loss_and_grad", traced_step)
    model = cnn_init(256, seed=0, num_classes=2)
    imgs = np.random.default_rng(6).random((n, INPUT_SIZE, INPUT_SIZE))
    tracemalloc.start()
    try:
        cnn_train(model, imgs, ["a", "b"] * (n // 2), dropout=0.5, epochs=1, **SGD, seed=0)
    finally:
        tracemalloc.stop()
    assert len(entering) == 2
    assert entering[1] <= entering[0] + 64_000, [f"{m / 1e6:.2f} MB" for m in entering]


def test_extract_builds_columns_one_image_at_a_time():
    """Extraction holds one image's float32 columns of one layer at a time,
    so it peaks (4.0 MB) below three quarters of one image's float64 columns
    of all four layers (5.7 MB). Float64 columns (6.0 MB) break it, and so do
    columns built for four images at a time."""
    n, bound = cnn.EXTRACT_BATCH, memory_bound(0.75)
    model = cnn_init(256, seed=0, num_classes=2)
    imgs = np.random.default_rng(7).random((n, INPUT_SIZE, INPUT_SIZE))
    peak = traced_peak(lambda: cnn_extract(model, imgs))
    assert peak <= bound, f"peak {peak / 1e6:.1f} MB > bound {bound / 1e6:.1f} MB"


@pytest.mark.parametrize("seed", range(4))
def test_float32_step_matches_float64_step(seed):
    """The train step on float32 conv weights against the grad-checked float64
    step at the same weights, images and dropout draws: the loss within 1e-6
    and every gradient within 1e-5 relative (at most 2.6e-7 and 1.1e-6 measured)."""
    n = cnn.TRAIN_BATCH
    model = cnn_init(64, seed=seed, num_classes=3)
    rng = np.random.default_rng(seed)
    imgs, y = rng.random((n, INPUT_SIZE, INPUT_SIZE)), rng.integers(0, 3, n)
    loss, grads = cnn_loss_and_grad(cnn._float32_convs(model), imgs, y,
                                    (0.5, derive_rng(seed, "cnn", 3)))
    ref_loss, ref_grads = cnn_loss_and_grad(model, imgs, y, (0.5, derive_rng(seed, "cnn", 3)))
    assert loss == pytest.approx(ref_loss, rel=1e-6)
    for name in grads:
        assert grads[name].dtype == (np.float32 if name.startswith("conv") else np.float64)
        assert max_rel(grads[name], ref_grads[name]) <= 1e-5, name


def test_gradients_match_finite_differences():
    model = cnn_init(4, seed=0, num_classes=2)
    img = np.random.default_rng(2).random((INPUT_SIZE, INPUT_SIZE))
    err = grad_check(model, (img, 1), epsilon=1e-6, seed=0, num_params=32)
    assert err <= 1e-3


def test_loss_is_cross_entropy_at_init_scale():
    model = cnn_init(8, seed=0, num_classes=4)
    img = np.zeros((INPUT_SIZE, INPUT_SIZE))
    loss, _ = cnn_loss_and_grad(model, img[None], [0], None)
    assert loss == pytest.approx(np.log(4.0))  # zero logits -> uniform softmax


def test_train_zero_epochs_is_bitwise_noop():
    imgs, labels = augmented_blobs(per_class=2)
    model = cnn_init(8, seed=0, num_classes=2)
    out = cnn_train(model, imgs, labels, dropout=0.5, epochs=0, **SGD, seed=0)
    assert out.keys() == model.keys()
    for k in model:
        assert out[k] is not model[k]  # trained copies
        assert np.array_equal(out[k], model[k])


def test_train_learns_two_blob_classes():
    imgs, labels = augmented_blobs(num_classes=2, per_class=8, seed=1)
    model = cnn_init(64, seed=0, num_classes=2)
    first_loss, _ = eval_fit(cnn_train(model, imgs, labels, dropout=0.1, epochs=1, **SGD, seed=0),
                             imgs, labels)
    out = cnn_train(model, imgs, labels, dropout=0.1, epochs=20, **SGD, seed=0)
    loss, acc = eval_fit(out, imgs, labels)
    assert loss < first_loss
    assert acc >= 0.95


@pytest.mark.parametrize("lr, epoch", [(1e30, 1), (np.inf, 0)])
def test_train_divergence_is_reported_with_epoch(lr, epoch):
    # 1e30 overflows the float32 conv stack of a later epoch's batch; inf
    # leaves non-finite weights behind the first epoch's finite loss
    imgs, labels = augmented_blobs(per_class=2)
    model = cnn_init(8, seed=0, num_classes=2)
    with np.errstate(all="ignore"), pytest.raises(
            Divergence, match=f"^non-finite training loss or weights at epoch {epoch}$"):
        cnn_train(model, imgs, labels, dropout=0.0, epochs=5, lr=lr, momentum=0.9,
                  weight_decay=0.0005, seed=0)


def test_train_requires_two_classes():
    imgs, _ = augmented_blobs(per_class=2)
    with pytest.raises(InputError, match="at least 2 classes"):
        cnn_train(cnn_init(8, seed=0, num_classes=2), imgs, ["a"] * len(imgs), dropout=0.0,
                  epochs=1, **SGD, seed=0)


# ---------------------------------------------------------------------------
# extraction + checkpoints

def test_extract_shapes_and_batching(monkeypatch):
    imgs, labels = augmented_blobs(per_class=3)
    model = cnn_init(16, seed=0, num_classes=2)
    model = cnn_train(model, imgs, labels, dropout=0.5, epochs=0, **SGD, seed=0)
    whole = cnn_extract(model, imgs)
    monkeypatch.setattr(cnn, "EXTRACT_BATCH", 2)
    small = cnn_extract(model, imgs)
    assert whole.shape == (len(imgs), 16)
    assert np.allclose(whole, small)


def test_extract_rows_do_not_depend_on_batch_composition():
    """40 images alone give the same bits as the same images at offset 7 of a
    60-image call, where they fall into other EXTRACT_BATCH groups. This holds
    for these batch sizes, not for every one (see the tail-batch test); the
    run's eval cache needs only that each task extracts a fixed slice."""
    imgs, labels = augmented_blobs(per_class=30)
    model = cnn_train(cnn_init(16, seed=0, num_classes=2), imgs, labels, dropout=0.5, epochs=0,
                      **SGD, seed=0)
    whole = cnn_extract(model, imgs)
    part = cnn_extract(model, imgs[7:47])
    assert 7 % cnn.EXTRACT_BATCH and len(imgs) == 60
    assert np.array_equal(part, whole[7:47])


@pytest.mark.parametrize("tail", range(1, 7))
def test_extract_tail_batch_agrees_to_rounding(tail):
    """A short batch may round differently from the same images inside a full
    EXTRACT_BATCH: BLAS picks other kernels or thread splits for the narrower
    dense and head GEMMs (speckle-fusion's 20-image task-0 test slice runs as
    16 + 4); the conv stack runs one image at a time, so its part of a row is
    the same in any batch. The rows agree to rounding, not always bit for bit."""
    imgs, labels = augmented_blobs(per_class=8)
    model = cnn_train(cnn_init(16, seed=0, num_classes=2), imgs, labels, dropout=0.5, epochs=0,
                      **SGD, seed=0)
    whole = cnn_extract(model, imgs)
    part = cnn_extract(model, imgs[:tail])
    assert len(imgs) == cnn.EXTRACT_BATCH
    assert max_rel(part, whole[:tail]) <= 1e-12


def test_extract_rejects_rows_that_overflow_float32():
    """Finite float64 weights can overflow the float32 conv stack: extraction,
    the one producer of feature rows that can make them non-finite, says so."""
    imgs, _ = augmented_blobs()
    model = cnn_init(8, seed=0, num_classes=2)
    model["conv0_w"][:] = 1e37  # finite in float32 too
    with pytest.raises(Divergence, match="^feature entries must be finite$"):
        cnn_extract(model, imgs)


@pytest.fixture
def unpickled(monkeypatch):
    """The calls of pickle.load and pickle.loads, which numpy uses to read an
    object array when its loader allows it; recorded, not refused, since a
    refusal inside the loader could read as a rejected file."""
    import pickle

    calls = []
    for name in ("load", "loads"):
        real = getattr(pickle, name)
        monkeypatch.setattr(pickle, name,
                            lambda *a, real=real, **kw: calls.append(a) or real(*a, **kw))
    return calls


def assert_archive_of_parameters(path):
    """`path` is an .npz archive holding exactly cnn.PARAM_NAMES."""
    with np.load(path, allow_pickle=False) as archive:
        assert archive.files == list(cnn.PARAM_NAMES)


def test_checkpoint_roundtrip_bitwise(tmp_path, unpickled):
    imgs, labels = augmented_blobs(per_class=2)
    model = cnn_train(cnn_init(8, seed=3, num_classes=2), imgs, labels, dropout=0.25, epochs=1,
                      **SGD, seed=0)
    save_cnn(model, tmp_path / "cnn.bin")
    assert_archive_of_parameters(tmp_path / "cnn.bin")
    back = load_cnn(tmp_path / "cnn.bin")
    assert back.keys() == model.keys()
    for k in model:
        assert np.array_equal(back[k], model[k])
    a = cnn_extract(model, imgs[:2])
    b = cnn_extract(back, imgs[:2])
    assert np.array_equal(a, b)
    assert unpickled == []


def test_checkpoint_ignores_other_members(tmp_path, unpickled):
    """Members beside the parameters, an object array among them, are never
    read: the parameters load as they were saved, and nothing is unpickled."""
    model = cnn_init(8, seed=0, num_classes=3)
    with open(tmp_path / "cnn.bin", "wb") as f:
        np.savez(f, rpca_A=np.ones((4, 2)), notes=np.array([None, "x"], dtype=object), **model)
    back = load_cnn(tmp_path / "cnn.bin")
    assert back.keys() == model.keys()
    for k in model:
        assert np.array_equal(back[k], model[k])
    assert unpickled == []


def _legacy(header, payload=b""):
    """Bytes in the JSON-header-plus-blocks format checkpoints had before .npz."""
    return json.dumps(header).encode("utf-8") + b"\n" + payload


def _npy(array):
    """The bytes of `array`'s .npy file (pickled for an object array)."""
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=True)
    return buf.getvalue()


def _npy_header(shape):
    """The .npy header of a float64 array of `shape`, without its data."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, {"descr": "<f8", "fortran_order": False,
                                               "shape": shape})
    return buf.getvalue()


def _archive(**members):
    """A writer of an .npz of cnn_init's parameters with `members` (name ->
    the bytes of its .npy file) in their place."""
    def write(path):
        files = {k: _npy(v) for k, v in cnn_init(8, seed=0, num_classes=2).items()}
        with zipfile.ZipFile(path, "w") as z:
            for name, data in {**files, **members}.items():
                z.writestr(name + ".npy", data)
    return write


def _truncated_archive(path):
    save_cnn(cnn_init(8, seed=0, num_classes=2), path)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _unknown_compression(path):
    """A checkpoint whose members name zip compression method 99, which no reader knows."""
    save_cnn(cnn_init(8, seed=0, num_classes=2), path)
    data = bytearray(path.read_bytes())
    # the method field of each local and central zip header
    for signature, offset in ((b"PK\x03\x04", 8), (b"PK\x01\x02", 10)):
        i = -1
        while (i := data.find(signature, i + 1)) >= 0:
            data[i + offset] = 99
    path.write_bytes(bytes(data))


def _old_checkpoint(path):
    params = cnn_init(8, seed=0, num_classes=2)
    path.write_bytes(_legacy({"meta": {"kind": "cnn"},
                              "blocks": [[k, list(v.shape)] for k, v in params.items()]},
                             b"".join(v.astype("<f8").tobytes() for v in params.values())))


NOT_NPZ = "not a cnn checkpoint: expected an .npz archive"
NOT_FLOAT64 = "cnn checkpoint has parameters that are not float64 arrays: head_b"

# id -> (writer of the file at a path, message); load_cnn and extract refuse each.
# The first fifteen are the malformed files of the JSON-header format, refused
# like a well-formed file of that format (`old-checkpoint`).
MALFORMED_CHECKPOINTS = {
    name: ((lambda path, contents=contents: path.write_bytes(contents)), NOT_NPZ)
    for name, contents in {
        "not-utf8": b"\xff\n",
        "not-json": b"{\n",
        "list": b"[]\n",
        "no-blocks": _legacy({"meta": {"kind": "cnn"}}),
        "meta-list": _legacy({"meta": [], "blocks": []}),
        "truncated": _legacy({"meta": {}, "blocks": [["w", [2]]]}, bytes(8)),
        "trailing": _legacy({"meta": {}, "blocks": [["w", [1]]]}, bytes(9)),
        "huge-shape": _legacy({"meta": {}, "blocks": [["w", [10**12]]]}, bytes(8)),
        "no-shape": _legacy({"meta": {}, "blocks": [["w"]]}),
        "negative-dim": _legacy({"meta": {}, "blocks": [["w", [-1]]]}),
        "float-dim": _legacy({"meta": {}, "blocks": [["w", [1.5]]]}),
        "bool-dim": _legacy({"meta": {}, "blocks": [["w", [True]]]}),
        "shape-not-list": _legacy({"meta": {}, "blocks": [["w", 1]]}, bytes(8)),
        "name-not-string": _legacy({"meta": {}, "blocks": [[1, [1]]]}, bytes(8)),
        "entry-not-list": _legacy({"meta": {}, "blocks": ["w"]}),
        "lone-npy": _npy(np.zeros(3)),
    }.items()}
MALFORMED_CHECKPOINTS.update({
    "old-checkpoint": (_old_checkpoint, NOT_NPZ),
    "object-member": (_archive(head_b=_npy(np.array([None, 1.0], dtype=object))), NOT_NPZ),
    "truncated-archive": (_truncated_archive, NOT_NPZ),
    "unknown-compression": (_unknown_compression, NOT_NPZ),
    "short-member": (_archive(head_b=_npy_header((2,)) + bytes(8)), NOT_NPZ),
    "huge-member": (_archive(dense_w=_npy_header((10**12,)) + bytes(8)), NOT_NPZ),
    "float32-parameter": (_archive(head_b=_npy(np.zeros(2, dtype=np.float32))), NOT_FLOAT64),
    "raw-member": (_archive(head_b=b"not .npy data"), NOT_FLOAT64),
})


@pytest.mark.parametrize("case", MALFORMED_CHECKPOINTS)
def test_checkpoint_rejects_malformed_file(tmp_path, unpickled, case):
    write, message = MALFORMED_CHECKPOINTS[case]
    path = tmp_path / "x.bin"
    write(path)
    with pytest.raises(InputError, match=re.escape(f"{path}: {message}")):
        load_cnn(path)
    assert unpickled == []


@pytest.mark.parametrize("param_drop, missing", [
    ("head_b", ["head_b"]),
    ("all", list(cnn.PARAM_NAMES)),
])
def test_checkpoint_rejects_missing_fields(tmp_path, param_drop, missing):
    params = cnn_init(4, seed=0, num_classes=2)
    assert set(params) == set(cnn.PARAM_NAMES)
    params = {k: v for k, v in params.items() if param_drop not in (k, "all")}
    path = tmp_path / "x.npz"  # np.savez adds .npz to a name without it
    np.savez(path, **params)
    with pytest.raises(InputError, match=re.escape(f"{path}: cnn checkpoint is missing {missing}")):
        load_cnn(path)


def test_checkpoint_rejects_wrong_kind(tmp_path):
    """An archive of other arrays is refused as missing every parameter."""
    path = tmp_path / "x.npz"
    np.savez(path, w=np.zeros(2))
    with pytest.raises(InputError, match=re.escape(
            f"{path}: cnn checkpoint is missing {list(cnn.PARAM_NAMES)}")):
        load_cnn(path)


@pytest.mark.parametrize("name, shape", [
    ("conv1_w", (10, 32)),
    ("conv0_w", (49, 16, 1)),
    ("conv2_b", (65,)),
    ("dense_w", (FLAT_SIZE + 1, 8)),
    ("dense_w", (FLAT_SIZE,)),
    ("dense_b", (9,)),
    ("head_w", (9, 2)),
    ("head_b", ()),
])
def test_checkpoint_rejects_wrong_parameter_shape(tmp_path, name, shape):
    """Each parameter is checked against the conv stack and the widths of
    dense_w and head_w before any extraction uses it."""
    params = {**cnn_init(8, seed=0, num_classes=2), name: np.zeros(shape)}
    path = tmp_path / "x.npz"
    np.savez(path, **params)
    with pytest.raises(InputError, match=re.escape(f"{path}: cnn checkpoint has parameters of "
                                                   f"the wrong shape: ")) as exc:
        load_cnn(path)
    assert f"{name} {shape} (expected " in str(exc.value)


@pytest.mark.parametrize("name, value", [
    ("dense_w", np.nan),
    ("conv0_w", np.inf),
    ("head_b", -np.inf),
])
def test_checkpoint_rejects_non_finite_parameter(tmp_path, name, value):
    params = cnn_init(8, seed=0, num_classes=2)
    params[name].flat[0] = value
    path = tmp_path / "x.npz"
    np.savez(path, **params)
    with pytest.raises(InputError, match=re.escape(
            f"{path}: cnn checkpoint has non-finite parameters: {name}")):
        load_cnn(path)
