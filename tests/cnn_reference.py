"""The convnet's forward and backward pass in batch-major (N, C, H, W) layout,
with a transposed im2col gather, einsum weight gradients and argmax pooling:
the independent oracle the padded-row GEMM path in `proto_cil.cnn` is
checked against. Test code only."""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from proto_cil.cnn import CHANNELS, INPUT_SIZE, KERNELS, apply_dropout
from proto_cil.features import softmax_cross_entropy


def im2col(x, k):
    """x: (N, C, H, W) zero-padded to preserve size; returns (N, H*W, C*k*k)."""
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    win = sliding_window_view(xp, (k, k), axis=(2, 3))  # (N, C, H, W, k, k)
    n, c, h, w = x.shape
    return win.transpose(0, 2, 3, 1, 4, 5).reshape(n, h * w, c * k * k)


def channel_major_im2col(x, k):
    """x: (C, N, H, W), zero-padded to keep H and W; returns (C*k*k, N*H*W)
    columns with rows in (c, ki, kj) order, copied from a sliding window view:
    the columns the padded-row layout must reproduce at its valid positions."""
    c, n, h, w = x.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    windows = sliding_window_view(xp, (h, w), axis=(2, 3))  # (C, N, k, k, H, W)
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(c * k * k, n * h * w)


def col2im(dcols, shape, k):
    """Adjoint of im2col: scatter-add column gradients back to (N, C, H, W)."""
    n, c, h, w = shape
    p = k // 2
    dxp = np.zeros((n, c, h + 2 * p, w + 2 * p))
    d6 = dcols.reshape(n, h, w, c, k, k)
    for ki in range(k):
        for kj in range(k):
            dxp[:, :, ki : ki + h, kj : kj + w] += d6[:, :, :, :, ki, kj].transpose(0, 3, 1, 2)
    return dxp[:, :, p : p + h, p : p + w]


def maxpool(x):
    """2x2 stride-2 floor pooling; returns (out, argmax) for backprop."""
    n, c, h, w = x.shape
    h2, w2 = h // 2, w // 2
    win = x[:, :, : 2 * h2, : 2 * w2].reshape(n, c, h2, 2, w2, 2)
    flat = win.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h2, w2, 4)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    return out, idx


def maxpool_back(dout, idx, shape):
    n, c, h, w = shape
    h2, w2 = h // 2, w // 2
    dflat = np.zeros((n, c, h2, w2, 4))
    np.put_along_axis(dflat, idx[..., None], dout[..., None], axis=-1)
    dwin = dflat.reshape(n, c, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    dx = np.zeros(shape)
    dx[:, :, : 2 * h2, : 2 * w2] = dwin.reshape(n, c, 2 * h2, 2 * w2)
    return dx


def forward(params, images, drop):
    """images: (N, 70, 70); `drop` is None (eval mode) or a dropout
    (rate, rng). Returns (features, logits, cache)."""
    x = np.asarray(images, dtype=np.float64)
    assert x.shape[1:] == (INPUT_SIZE, INPUT_SIZE)
    a = x[:, None, :, :]
    cache = {"x_shapes": [], "cols": [], "relu": [], "pool_idx": []}
    for i, k in enumerate(KERNELS):
        cols = im2col(a, k)
        z = cols @ params[f"conv{i}_w"] + params[f"conv{i}_b"]
        n, hw, f = z.shape
        side = a.shape[2]
        z = z.reshape(n, side, side, f).transpose(0, 3, 1, 2)
        relu_mask = z > 0
        z = z * relu_mask
        pooled, idx = maxpool(z)
        cache["x_shapes"].append((a.shape, z.shape))
        cache["cols"].append(cols)
        cache["relu"].append(relu_mask)
        cache["pool_idx"].append(idx)
        a = pooled
    flat = a.reshape(a.shape[0], -1)
    if drop is not None and drop[0] > 0:
        flat, mask = apply_dropout(flat, *drop)
        cache["drop_mask"] = mask
    else:
        cache["drop_mask"] = None
    cache["flat"] = flat
    feats = flat @ params["dense_w"] + params["dense_b"]
    logits = feats @ params["head_w"] + params["head_b"]
    cache["feats"] = feats
    return feats, logits, cache


def loss_and_grad(params, images, label_idx, drop):
    """Mean softmax cross-entropy and gradients for every parameter."""
    _, logits, cache = forward(params, images, drop)
    n = logits.shape[0]
    loss, dlogits = softmax_cross_entropy(logits, label_idx)

    grads = {}
    grads["head_w"] = cache["feats"].T @ dlogits
    grads["head_b"] = dlogits.sum(axis=0)
    dfeats = dlogits @ params["head_w"].T
    grads["dense_w"] = cache["flat"].T @ dfeats
    grads["dense_b"] = dfeats.sum(axis=0)
    dflat = dfeats @ params["dense_w"].T
    if cache["drop_mask"] is not None:
        dflat = dflat * cache["drop_mask"]
    da = dflat.reshape(n, CHANNELS[-1], 4, 4)
    for i in reversed(range(len(KERNELS))):
        a_shape, z_shape = cache["x_shapes"][i]
        dz = maxpool_back(da, cache["pool_idx"][i], z_shape)
        dz = dz * cache["relu"][i]
        dzm = dz.transpose(0, 2, 3, 1).reshape(n, -1, dz.shape[1])
        grads[f"conv{i}_w"] = np.einsum("nid,nif->df", cache["cols"][i], dzm)
        grads[f"conv{i}_b"] = dzm.sum(axis=(0, 1))
        if i > 0:
            dcols = dzm @ params[f"conv{i}_w"].T
            da = col2im(dcols, a_shape, KERNELS[i])
    return loss, grads
