"""Finite-difference verification of analytic gradients.

`grad_check` compares analytic parameter gradients of a training loss against
central differences on a random subset of parameters, at float64 precision.
Adapters are provided for the convnet, the linear probe, and the bilinear
denoiser loss.
"""

import numpy as np

from proto_cil import cnn as cnn_mod
from proto_cil import rpca as rpca_mod
from proto_cil import ssf as ssf_mod


class GradCheckError(ValueError):
    pass


def _flatten(arrays):
    return np.concatenate([a.ravel() for a in arrays])


def _unflatten(theta, templates):
    out, i = [], 0
    for t in templates:
        out.append(theta[i : i + t.size].reshape(t.shape))
        i += t.size
    return out


def grad_check_fn(loss_fn, grad_fn, theta0, epsilon, rng, num_params=64):
    """Max relative error between analytic and central-difference gradients
    over `num_params` randomly chosen coordinates of theta0."""
    if epsilon <= 0:
        raise GradCheckError("epsilon must be positive")
    theta0 = np.asarray(theta0, dtype=np.float64)
    analytic = grad_fn(theta0)
    idx = rng.choice(theta0.size, size=min(num_params, theta0.size), replace=False)
    worst = 0.0
    for i in idx:
        tp = theta0.copy()
        tp[i] += epsilon
        tm = theta0.copy()
        tm[i] -= epsilon
        fd = (loss_fn(tp) - loss_fn(tm)) / (2 * epsilon)
        denom = max(1.0, abs(analytic[i]), abs(fd))
        worst = max(worst, abs(analytic[i] - fd) / denom)
    return worst


def grad_check(target, sample, epsilon: float, seed: int = 0, num_params: int = 64) -> float:
    """Dispatch on the trainable object; `sample` supplies the loss's data.

    - SSF adapter dict (keys "gamma", "delta"): sample = (probe_w, probe_b, X,
      y_idx); joint adapter+probe loss.
    - RPCA denoiser dict (keys "A", "B"): sample = (n, m) batch of flattened
      images.
    - CNN parameters dict (any other keys): sample = (image 70x70, label index);
      eval-mode loss (no dropout).
    """
    rng = np.random.default_rng(seed)

    if isinstance(target, dict) and target.keys() == {"gamma", "delta"}:
        w, b, X, y = sample
        templates = [target["gamma"], target["delta"], w, b]

        def loss_fn(theta):
            g, d, wv, bv = _unflatten(theta, templates)
            return ssf_mod.probe_loss_and_grad(g, d, wv, bv, X, y)[0]

        def grad_fn(theta):
            g, d, wv, bv = _unflatten(theta, templates)
            return _flatten(ssf_mod.probe_loss_and_grad(g, d, wv, bv, X, y)[1:])

        return grad_check_fn(loss_fn, grad_fn, _flatten(templates), epsilon, rng, num_params)

    if isinstance(target, dict) and target.keys() == {"A", "B"}:
        batch = np.asarray(sample, dtype=np.float64)
        templates = [target["A"], target["B"]]

        def loss_fn(theta):
            A, B = _unflatten(theta, templates)
            return rpca_mod.bilinear_loss_and_grad(A, B, batch)[0]

        def grad_fn(theta):
            A, B = _unflatten(theta, templates)
            return _flatten(rpca_mod.bilinear_loss_and_grad(A, B, batch)[1:])

        return grad_check_fn(loss_fn, grad_fn, _flatten(templates), epsilon, rng, num_params)

    if isinstance(target, dict):
        image, label = sample
        names = sorted(target)
        templates = [target[k] for k in names]
        params = dict(target)

        def set_theta(theta):
            for k, arr in zip(names, _unflatten(theta, templates)):
                params[k] = arr

        def loss_fn(theta):
            set_theta(theta)
            loss, _ = cnn_mod.cnn_loss_and_grad(params, np.asarray(image)[None], [label], None)
            return loss

        def grad_fn(theta):
            set_theta(theta)
            _, grads = cnn_mod.cnn_loss_and_grad(params, np.asarray(image)[None], [label], None)
            return _flatten([grads[k] for k in names])

        return grad_check_fn(loss_fn, grad_fn, _flatten(templates), epsilon, rng, num_params)

    raise GradCheckError(f"no gradient check for {type(target).__name__}")
