"""Small trainable convnet for 70x70 single-channel imagery, numpy only.

Four conv+relu+maxpool stages (kernels 7/5/3/3, channels 16/32/64/128),
dropout, then a dense feature layer plus a throwaway classifier head used
only while training on the base task. A model is its parameters, a dict of
name -> float64 array. Backprop is hand-written so parameter gradients can
be verified against finite differences.
"""

import os
import zipfile

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import Divergence, InputError
from .features import softmax_cross_entropy
from .seeding import derive_rng

KERNELS = (7, 5, 3, 3)
CHANNELS = (16, 32, 64, 128)
INPUT_SIZE = 70
POOLED_SIDE = INPUT_SIZE >> len(KERNELS)  # each pool floors the side: 35, 17, 8, 4
FLAT_SIZE = POOLED_SIDE * POOLED_SIDE * CHANNELS[-1]
TRAIN_BATCH = 16
EXTRACT_BATCH = 16


def _param_shapes(d_cnn, num_classes):
    """name -> shape of each parameter: conv weights are (C_in*k*k, C_out)."""
    shapes, in_ch = {}, 1
    for i, (k, out_ch) in enumerate(zip(KERNELS, CHANNELS)):
        shapes[f"conv{i}_w"], shapes[f"conv{i}_b"] = (in_ch * k * k, out_ch), (out_ch,)
        in_ch = out_ch
    shapes.update(dense_w=(FLAT_SIZE, d_cnn), dense_b=(d_cnn,),
                  head_w=(d_cnn, num_classes), head_b=(num_classes,))
    return shapes


PARAM_NAMES = tuple(_param_shapes(1, 2))  # the parameters cnn_init creates


def cnn_init(d_cnn: int, seed: int, num_classes: int) -> dict:
    """He fan-in Gaussian init for conv/dense weights, zero biases."""
    rng = derive_rng(seed, "cnn")
    return {name: rng.normal(0.0, np.sqrt(2.0 / shape[0]), size=shape)  # shape[0] is fan-in
                  if name.endswith("_w") else np.zeros(shape)
            for name, shape in _param_shapes(d_cnn, num_classes).items()}


# ---------------------------------------------------------------------------
# layer primitives
#
# The conv stack runs one image at a time. A layer's input is written into
# the interior of a zeroed (C, h+2p+1, wp) buffer, wp = w+2p, one spare row
# at the bottom. Flattened per channel, column row (c, ki, kj) is then the
# single run of h*wp values from ki*wp + kj: im2col copies contiguous runs,
# and the conv is one GEMM over h*wp positions, of which the last wp - w of
# each row are junk (windows that wrap into the next row). They are sliced
# off before pooling and get zero gradient, so they add exact zeros to the
# weight gradient. Weight rows stay in (c, ki, kj) order. Every buffer, column
# and gradient here takes the conv weights' dtype: float32 in training and
# extraction, which hand the stack float32 copies of the float64 weights, and
# float64 for float64 weights given straight to cnn_loss_and_grad, as the grad
# checks do. The largest columns are the second conv's, 400 x 35*39: 2.2 MB in
# float32, 4.4 MB in float64.

def _pad_buffer(c, side, k, dtype):
    """A zeroed conv input buffer for a (c, side, side) input and kernel k,
    and the view of its interior the input is written into."""
    p = k // 2
    buf = np.zeros((c, side + k, side + k - 1), dtype=dtype)
    return buf, buf[:, p : p + side, p : p + side]


def _im2col(xp, k):
    """xp: a (C, h+k, wp) buffer from _pad_buffer; returns the (C*k*k, h*wp)
    columns with rows in (c, ki, kj) order, row (c, ki, kj) copied from the
    run of xp[c] that starts at ki*wp + kj."""
    c, rows, wp = xp.shape
    s0, s1, s2 = xp.strides
    runs = as_strided(xp, (c, k, k, (rows - k) * wp), (s0, s1, s2, s2), writeable=False)
    return runs.reshape(c * k * k, -1)


def _col2im(dcols, shape, k):
    """Adjoint of _im2col for a buffer of `shape`: add each column row back
    onto its run and return the gradient of the buffer's interior."""
    c, rows, wp = shape
    p, n = k // 2, (rows - k) * wp
    dxp = np.zeros((c, rows * wp), dtype=dcols.dtype)
    runs = dcols.reshape(c, k, k, n)
    for ki in range(k):
        for kj in range(k):
            dxp[:, ki * wp + kj : ki * wp + kj + n] += runs[:, ki, kj]
    return dxp.reshape(shape)[:, p : rows - p - 1, p : wp - p]


def _windows(x):
    """The 2x2 floor-pooling windows of a (C, h, w) array as a (2, 2, C, h//2,
    w//2) view, [di, dj, c, i, j] being x[c, 2i+di, 2j+dj]: the forward reads
    the four members, the backward writes its routed gradient into them."""
    c, h, w = x.shape
    x = x[:, : h - h % 2, : w - w % 2]
    return x.reshape(c, h // 2, 2, w // 2, 2).transpose(2, 4, 0, 1, 3)


def apply_dropout(x, p, rng):
    """Inverted dropout: surviving units are rescaled by 1/(1-p), so the
    expectation over masks equals the eval-mode input."""
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * mask, mask


def _forward_batch(params, images, drop, backprop=False):
    """images: (N, 70, 70). Returns (features, logits, cache). `drop` is None
    for an eval-mode forward, or a (rate, rng) pair for a train-mode one:
    dropout is its only randomness. The conv stack runs one image at a time;
    for `backprop` the cache keeps, per image and layer, the padded layer
    input and the uint8 pool argmax, and no columns: backprop rebuilds them,
    and reads the ReLU mask off the next layer's input or the flat row. The
    conv stack runs in the conv weights' dtype, float32 when training or
    extraction calls it; the flat rows, dropout and the dense and head layers
    stay float64."""
    dtype = params["conv0_w"].dtype
    x = np.asarray(images, dtype=dtype)
    cache = {"images": []}
    flat = np.empty((len(x), FLAT_SIZE))
    for n, image in enumerate(x):
        xp, inner = _pad_buffer(1, INPUT_SIZE, KERNELS[0], dtype)
        inner[0] = image
        layers = []
        for i, k in enumerate(KERNELS):
            side = inner.shape[-1]
            z = params[f"conv{i}_w"].T @ _im2col(xp, k)
            z += params[f"conv{i}_b"][:, None]
            win = _windows(z.reshape(CHANNELS[i], side, -1)[:, :, :side])  # no junk columns
            if backprop:
                win = win.copy()  # the argmax compares run on unit-stride arrays
            # the max of each column pair, then of each row pair; ReLU after the
            # pool: it is monotone, so this equals pooling the ReLU
            rows = np.maximum(win[:, 0], win[:, 1])
            pooled = np.maximum(rows[0], rows[1])
            if backprop:
                # idx = 2*di + dj of the first member in (di, dj) order holding the max
                down = rows[1] > rows[0]
                right = np.where(down, win[1, 1] > win[1, 0], win[0, 1] > win[0, 0])
                layers.append((xp, 2 * down.astype(np.uint8) + right))
            if i + 1 < len(KERNELS):
                xp, inner = _pad_buffer(CHANNELS[i], side // 2, KERNELS[i + 1], dtype)
            else:
                inner = flat[n].reshape(pooled.shape)  # per sample (c, h, w)
            np.maximum(pooled, 0.0, out=inner)
        if backprop:
            cache["images"].append(layers)
    cache["drop_mask"] = None
    if drop is not None and drop[0] > 0:
        flat, cache["drop_mask"] = apply_dropout(flat, *drop)
    cache["flat"] = flat
    feats = flat @ params["dense_w"] + params["dense_b"]
    logits = feats @ params["head_w"] + params["head_b"]
    return feats, logits, cache


def cnn_loss_and_grad(params, images, label_idx, drop):
    """Mean softmax cross-entropy and gradients for every parameter; `drop`
    is None (eval mode) or the (rate, rng) of the step's dropout. The conv
    gradients come in the conv weights' dtype, the dense and head ones in
    float64."""
    feats, logits, cache = _forward_batch(params, images, drop, backprop=True)
    n = logits.shape[0]
    loss, dlogits = softmax_cross_entropy(logits, label_idx)

    grads = {}
    grads["head_w"] = feats.T @ dlogits
    grads["head_b"] = dlogits.sum(axis=0)
    dfeats = dlogits @ params["head_w"].T
    grads["dense_w"] = cache["flat"].T @ dfeats
    grads["dense_b"] = dfeats.sum(axis=0)
    dflat = dfeats @ params["dense_w"].T
    if cache["drop_mask"] is not None:
        dflat = dflat * cache["drop_mask"]
    dtype = params["conv0_w"].dtype
    dout = dflat.reshape(n, CHANNELS[-1], POOLED_SIDE, POOLED_SIDE).astype(dtype, copy=False)
    for i in range(len(KERNELS)):
        grads[f"conv{i}_w"] = np.zeros_like(params[f"conv{i}_w"])
        grads[f"conv{i}_b"] = np.zeros_like(params[f"conv{i}_b"])
    members = np.arange(4, dtype=np.uint8).reshape(2, 2, 1, 1, 1)  # idx of each member
    for da, a, layers in zip(dout, cache["flat"].reshape(dout.shape), cache["images"]):
        for i in reversed(range(len(KERNELS))):
            xp, idx = layers[i]
            k, p = KERNELS[i], KERNELS[i] // 2
            side = xp.shape[1] - k
            dz = np.zeros((CHANNELS[i], side, xp.shape[2]), dtype)  # junk columns stay 0
            # the ReLU mask is `a` > 0, `a` being the next layer's input or the
            # flat row, where units that dropout zeroed already have a 0 in da
            np.multiply(da * (a > 0), idx == members, out=_windows(dz[:, :, :side]))
            a = xp[:, p : p + side, p : p + side]
            dz = dz.reshape(CHANNELS[i], -1)
            # the columns live only for this image's weight gradient
            grads[f"conv{i}_w"] += _im2col(xp, k) @ dz.T
            grads[f"conv{i}_b"] += dz.sum(axis=1)
            if i > 0:
                da = _col2im(params[f"conv{i}_w"] @ dz, xp.shape, k)
    return loss, grads


def _float32_convs(params):
    """`params` with float32 copies of the conv weights, which set the dtype
    the conv stack runs in; the dense and head weights are shared."""
    return {k: v.astype(np.float32) if k.startswith("conv") else v for k, v in params.items()}


def cnn_train(params, images, labels, dropout: float, epochs: int, lr: float,
              momentum: float, weight_decay: float, seed: int) -> dict:
    """SGD with momentum, weight decay and `dropout` on base-task classes;
    returns trained copies of `params`. Mixed precision: each step runs the
    conv stack, forward and backward, on float32 copies of the conv weights,
    while the float64 master weights, momentum, weight decay and update stay
    float64. A master weight beyond float32 range casts to inf, so its step's
    loss is non-finite and training stops with Divergence; so does training
    whose closing eval-mode forward of the first image, extraction's, overflows."""
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise InputError("base task must contain at least 2 classes")
    params = {k: v.copy() for k, v in params.items()}
    x = np.asarray(images, dtype=np.float64)
    y = np.array([classes.index(c) for c in labels])
    rng = derive_rng(seed, "cnn", 3)
    vel = {k: np.zeros_like(v) for k, v in params.items()}
    for epoch in range(epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(x), TRAIN_BATCH):
            sel = order[start : start + TRAIN_BATCH]
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss raises
                loss, grads = cnn_loss_and_grad(_float32_convs(params), x[sel], y[sel],
                                                (dropout, rng))
            if not np.isfinite(loss):
                raise Divergence(f"non-finite training loss or weights at epoch {epoch}")
            for k, g in grads.items():
                g = g.astype(np.float64, copy=False)  # conv gradients come in float32
                if k.endswith("_w"):
                    g += weight_decay * params[k]
                vel[k] = momentum * vel[k] - lr * g
                params[k] += vel[k]
            del grads  # not held through the next step
        if not all(np.isfinite(v).all() for v in params.values()):
            raise Divergence(f"non-finite training loss or weights at epoch {epoch}")
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite features raise
        feats = _forward_batch(_float32_convs(params), x[:1], None)[0]
    if not np.isfinite(feats).all():
        raise Divergence("the trained weights give non-finite float32 features")
    return params


def cnn_extract(params, images) -> np.ndarray:
    """Eval-mode dense features, one float64 row per image: the conv stack runs
    on float32 copies of the conv weights, the dense layer in float64, so rows
    differ from a float64 forward at about 1e-6 relative; Divergence if the
    float32 stack overflows, which finite weights can make it do."""
    x = np.asarray(images, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows raise
        params = _float32_convs(params)
        rows = np.concatenate([_forward_batch(params, x[start : start + EXTRACT_BATCH], None)[0]
                               for start in range(0, len(x), EXTRACT_BATCH)], axis=0)
    if not np.isfinite(rows).all():
        raise Divergence("feature entries must be finite")
    return rows


# ---------------------------------------------------------------------------
# checkpoints: an .npz archive of the parameters, one float64 array per name

def save_cnn(params, path) -> None:
    with open(path, "wb") as f:  # np.savez would add .npz to a path without it
        np.savez(f, **params)


def load_cnn(path) -> dict:
    """The parameters in the checkpoint at `path`, read without unpickling;
    members beside them are ignored. InputError naming the file unless every
    parameter is a finite float64 array of its shape in the conv stack."""
    if not os.path.isfile(path):
        raise InputError(f"checkpoint not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as archive:  # a lone .npy has no `with`
            arrays = {k: archive[k] for k in PARAM_NAMES if k in archive.files}
    except (OSError, ValueError, TypeError, EOFError, MemoryError, NotImplementedError,
            zipfile.BadZipFile) as exc:  # NotImplementedError: an unknown zip compression
        raise InputError(f"{path}: not a cnn checkpoint: expected an .npz archive") from exc
    if missing := [k for k in PARAM_NAMES if k not in arrays]:
        raise InputError(f"{path}: cnn checkpoint is missing {missing}")
    if other := [k for k in PARAM_NAMES if getattr(arrays[k], "dtype", None) != np.float64]:
        raise InputError(f"{path}: cnn checkpoint has parameters that are not float64 arrays: "
                         + ", ".join(other))  # a member that is not .npy data reads as bytes
    widths = [arrays[k].shape[1] if arrays[k].ndim == 2 else 0 for k in ("dense_w", "head_w")]
    if wrong := [f"{k} {arrays[k].shape} (expected {shape})"
                 for k, shape in _param_shapes(*widths).items() if arrays[k].shape != shape]:
        raise InputError(f"{path}: cnn checkpoint has parameters of the wrong shape: "
                         + ", ".join(wrong))
    if nonfinite := [k for k in PARAM_NAMES if not np.isfinite(arrays[k]).all()]:
        raise InputError(f"{path}: cnn checkpoint has non-finite parameters: "
                         + ", ".join(nonfinite))
    return arrays
