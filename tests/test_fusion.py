import numpy as np
import pytest

from proto_cil.errors import Divergence
from proto_cil.features import softmax
from proto_cil.fusion import late_fuse, single_predict

ABC = ("a", "b", "c")


# ---------------------------------------------------------------------------
# softmax

def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    p = softmax(rng.normal(size=(50, 7)) * 100)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert p.min() >= 0.0


def test_softmax_shift_invariant():
    z = np.random.default_rng(1).normal(size=(10, 4))
    assert np.allclose(softmax(z), softmax(z + 123.0))


def test_softmax_handles_large_magnitudes():
    p = softmax(np.array([[1000.0, 0.0]]))
    assert np.isfinite(p).all()
    assert p[0, 0] == pytest.approx(1.0)


def test_softmax_rejects_non_finite():
    """The fused softmax refuses non-finite scores from either branch."""
    ok = np.array([[0.0, 1.0, 2.0]])
    for bad in (np.array([[np.nan, 0.0, 0.0]]), np.array([[0.0, np.inf, 0.0]])):
        with pytest.raises(Divergence, match="finite"):
            late_fuse(bad, ok, ABC)
        with pytest.raises(Divergence, match="finite"):
            late_fuse(ok, bad, ABC)


# ---------------------------------------------------------------------------
# late fusion

def test_late_fuse_hand_example():
    # branch 1 confidently says class 0, branch 2 weakly says class 1:
    # the confident branch wins the average
    l1 = np.array([[5.0, 0.0, 0.0]])
    l2 = np.array([[0.0, 0.4, 0.0]])
    assert late_fuse(l1, l2, ABC) == ["a"]


def test_late_fuse_tie_breaks_to_lowest_index():
    l = np.array([[1.0, 1.0, 1.0]])
    assert late_fuse(l, l, ABC) == ["a"]
    assert single_predict(l, ABC) == ["a"]


def test_late_fuse_symmetric():
    rng = np.random.default_rng(2)
    l1, l2 = rng.normal(size=(200, 5)), rng.normal(size=(200, 5))
    assert late_fuse(l1, l2, "abcde") == late_fuse(l2, l1, "abcde")


def test_late_fuse_shift_invariant():
    rng = np.random.default_rng(3)
    l1, l2 = rng.normal(size=(100, 4)), rng.normal(size=(100, 4))
    assert late_fuse(l1, l2, "abcd") == late_fuse(l1 + 42.0, l2, "abcd")


def test_late_fuse_uninformative_branch_reduces_to_other():
    rng = np.random.default_rng(4)
    l1 = rng.normal(size=(100, 6))
    fused = late_fuse(l1, np.zeros((100, 6)), "abcdef")
    solo = [np.argmax(softmax(r)) for r in l1]
    assert fused == ["abcdef"[j] for j in solo]


def test_late_fuse_property_sweep():
    """Symmetry, shift invariance, and the uninformative-branch reduction on
    10^4 random score pairs."""
    rng = np.random.default_rng(5)
    n, k = 10_000, 5
    classes = list("abcde")
    r1 = rng.normal(size=(n, k)) * rng.uniform(0.1, 10)
    r2 = rng.normal(size=(n, k)) * rng.uniform(0.1, 10)
    shifts = rng.normal(size=(n, 1)) * 50
    ab = late_fuse(r1, r2, classes)
    ba = late_fuse(r2, r1, classes)
    sh = late_fuse(r1 + shifts, r2, classes)
    flat = late_fuse(r1, np.full((n, k), 7.0), classes)
    solo = softmax(r1).argmax(axis=1)
    assert ab == ba
    assert ab == sh
    assert flat == [classes[j] for j in solo]


# ---------------------------------------------------------------------------
# single-branch prediction

def test_single_predict_uses_raw_argmax():
    rng = np.random.default_rng(6)
    rows = rng.normal(size=(50, 3))
    assert single_predict(rows, ABC) == [ABC[j] for j in rows.argmax(axis=1)]


def test_single_predict_rejects_non_finite():
    with pytest.raises(Divergence, match="scores must be finite"):
        single_predict(np.array([[np.inf, 0.0, 0.0]]), ABC)
