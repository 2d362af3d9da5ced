import numpy as np
import pytest

from proto_cil.errors import Divergence, InputError
from proto_cil.features import FeatureMatrix, ingest_features, write_features
from proto_cil.seeding import derive_rng
from proto_cil.ssf import probe_loss_and_grad, ssf_apply, ssf_train

from gradcheck import grad_check


def make_fm(n=20, d=6, seed=0, classes=("a", "b")):
    rng = np.random.default_rng(seed)
    labels = [classes[i % len(classes)] for i in range(n)]
    rows = rng.normal(size=(n, d))
    for i, c in enumerate(labels):
        rows[i, 0] += 4.0 * classes.index(c)  # make the classes separable
    return FeatureMatrix(rows=rows, labels=labels)


# ---------------------------------------------------------------------------
# feature matrices

def test_feature_csv_roundtrip_is_exact(tmp_path):
    fm = make_fm(n=7, d=4, seed=3, classes=("a", "a,b", 'say "hi"', "two\nlines", " c "))
    write_features(fm, tmp_path / "f.csv")
    back = ingest_features(tmp_path / "f.csv")
    assert np.array_equal(back.rows, fm.rows)  # repr() round-trips float64
    assert back.labels == fm.labels


def test_feature_csv_leaves_plain_labels_unquoted(tmp_path):
    fm = make_fm(n=3, d=2)
    write_features(fm, tmp_path / "f.csv")
    rows = [f"{c},{float(r[0])!r},{float(r[1])!r}\n" for c, r in zip(fm.labels, fm.rows)]
    assert (tmp_path / "f.csv").read_text() == "label,f0,f1\n" + "".join(rows)


def test_feature_csv_quotes_a_bare_carriage_return(tmp_path):
    fm = FeatureMatrix(rows=np.ones((2, 2)), labels=["a\rb", "c"])
    write_features(fm, tmp_path / "f.csv")
    assert (tmp_path / "f.csv").read_bytes() == b'label,f0,f1\n"a\rb",1.0,1.0\nc,1.0,1.0\n'
    assert ingest_features(tmp_path / "f.csv").labels == ["a\rb", "c"]


def test_ingest_error_messages(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("")
    with pytest.raises(InputError, match="empty"):
        ingest_features(p)
    p.write_text("label,f0,f1\n")
    with pytest.raises(InputError, match="no rows"):
        ingest_features(p)
    p.write_text("label,f0,f1\na,1.0,2.0\nb,1.0\n")
    with pytest.raises(InputError, match=":3"):
        ingest_features(p)
    p.write_text("label,f0\na,oops\n")
    with pytest.raises(InputError, match="non-numeric"):
        ingest_features(p)
    p.write_text("f0,f1\n1.0,2.0\n")
    with pytest.raises(InputError, match="header"):
        ingest_features(p)


# ---------------------------------------------------------------------------
# scale-and-shift adapter

def test_identity_adapter_is_noop():
    fm = make_fm()
    out = ssf_apply({"gamma": np.ones(fm.dim), "delta": np.zeros(fm.dim)}, fm)
    assert np.array_equal(out.rows, fm.rows)
    assert out.labels == fm.labels


def test_ssf_apply_formula():
    fm = make_fm(n=5, d=3)
    adapter = {"gamma": np.array([2.0, 0.5, 1.0]), "delta": np.array([1.0, 0.0, -1.0])}
    out = ssf_apply(adapter, fm)
    assert np.allclose(out.rows, fm.rows * adapter["gamma"] + adapter["delta"])


def test_probe_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    d, k, n = 5, 3, 12
    adapter = {"gamma": rng.uniform(0.5, 1.5, d), "delta": rng.normal(size=d)}
    w = rng.normal(size=(d, k))
    b = rng.normal(size=k)
    X = rng.normal(size=(n, d))
    y = rng.integers(0, k, size=n)
    err = grad_check(adapter, (w, b, X, y), epsilon=1e-6, seed=1)
    assert err <= 1e-6


def test_probe_loss_is_cross_entropy():
    X = np.zeros((4, 2))
    w = np.zeros((2, 3))
    b = np.zeros(3)
    loss, *_ = probe_loss_and_grad(np.ones(2), np.zeros(2), w, b, X, np.zeros(4, dtype=int))
    assert loss == pytest.approx(np.log(3.0))


def test_ssf_train_zero_epochs_is_identity():
    adapter = ssf_train(make_fm(), epochs=0, lr=0.1, seed=0)
    assert adapter.keys() == {"gamma", "delta"}
    assert np.array_equal(adapter["gamma"], np.ones(6))
    assert np.array_equal(adapter["delta"], np.zeros(6))


def test_ssf_train_deterministic():
    a = ssf_train(make_fm(seed=2), epochs=5, lr=0.1, seed=7)
    b = ssf_train(make_fm(seed=2), epochs=5, lr=0.1, seed=7)
    assert np.array_equal(a["gamma"], b["gamma"]) and np.array_equal(a["delta"], b["delta"])


def test_ssf_train_divergence_is_reported_with_epoch():
    # one batch per epoch: epoch 0's loss is finite, its step overflows the weights
    with np.errstate(all="ignore"), pytest.raises(
            Divergence, match="^non-finite adapter loss at epoch 1$"):
        ssf_train(make_fm(), epochs=5, lr=1e300, seed=0)


def probe_accuracy(adapter: dict, features: FeatureMatrix, epochs: int = 50,
                   lr: float = 0.1, seed: int = 0) -> float:
    """Train-set accuracy of a fresh probe on adapted features; used to compare
    adapter settings on equal footing."""
    adapted = ssf_apply(adapter, features)
    classes = sorted(set(features.labels))
    X = adapted.rows
    y = np.array([classes.index(c) for c in features.labels])
    d, k = X.shape[1], len(classes)
    rng = derive_rng(seed, "ssf", 1)
    w = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, k))
    b = np.zeros(k)
    ones, zeros = np.ones(d), np.zeros(d)
    for _ in range(epochs):
        order = rng.permutation(len(X))
        for start in range(0, len(X), 32):
            sel = order[start : start + 32]
            _, _, _, gw, gb = probe_loss_and_grad(ones, zeros, w, b, X[sel], y[sel])
            w -= lr * gw
            b -= lr * gb
    return float(((X @ w + b).argmax(axis=1) == y).mean())


def test_ssf_train_keeps_separable_features_separable():
    fm = make_fm(n=40, d=8, seed=5)
    adapter = ssf_train(fm, epochs=30, lr=0.1, seed=0)
    assert probe_accuracy(adapter, fm, seed=0) >= 0.95
    identity = {"gamma": np.ones(fm.dim), "delta": np.zeros(fm.dim)}
    assert probe_accuracy(identity, fm, seed=0) >= 0.95
