"""Whole runs of the ingested branch against `run_reference.reference_run`,
which re-derives every task from all projected train rows with dense algebra."""

import pytest

import proto_cil.harness as harness
from proto_cil.datahub import synth_dataset
from proto_cil.harness import RunConfig, run_scenario

from run_reference import reference_run
from test_harness import csv_config

NEAR_TIE = 1e-9  # relative gap of a sweep's two best grid points that rounding may flip

SPECKLE_6PX = {"kind": "lowrank_speckle", "num_classes": 8, "per_class_train": 12,
               "per_class_test": 7, "image_size": 6}
SIX_PX = {
    "dataset": {"synth": SPECKLE_6PX},
    "schedule": [3, 2, 1, 2],
    "portion": 0.5,
    "class_order": synth_dataset(**SPECKLE_6PX, seed=4).classes[::-1],
    "projection_dim": 300,
    "seed": 4,
}


def near_ties(sweeps) -> list:
    """Sweeping tasks whose two best grid points lie within NEAR_TIE relative."""
    out = []
    for t, sweep in enumerate(sweeps):
        best, second = sorted(sweep.values())[:2]
        if second - best <= NEAR_TIE * best:
            out.append(t)
    return out


# per config: the near-tie sweeps, then the run's lambda picks, task accuracies
# (percent, to 0.01) and eval sizes
@pytest.mark.parametrize("make_config, ties, lambdas, accuracies, eval_sizes", [
    (lambda tmp_path: RunConfig.from_dict(SIX_PX), [0, 2],
     [1e-8, 1, 1e-8, 100], [100, 97.14, 92.86, 98.21], [21, 35, 42, 56]),
    (lambda tmp_path: RunConfig.from_dict({**SIX_PX, "freeze_lambda": True}), [0],
     [1e-8] * 4, [100, 97.14, 92.86, 92.86], [21, 35, 42, 56]),
    # the CSV has 3 test rows per class, the dataset 5 test images
    (lambda tmp_path: csv_config(tmp_path, [10] * 4, test_per_class=3), [],
     [0.01, 1], [100, 100], [6, 12]),
], ids=["speckle-6px", "speckle-6px-frozen-lambda", "csv-3-test-rows"])
def test_run_matches_the_naive_reference(tmp_path, monkeypatch, make_config, ties,
                                         lambdas, accuracies, eval_sizes):
    """Per task: eval sizes, task and balanced accuracies, the lambda picks
    (but for the listed near-tie sweeps) and each test row's predicted label."""
    predicted = []

    def recording_predict(scores):
        predicted.append(real_predict(scores))
        return predicted[-1]

    real_predict = harness.single_predict
    monkeypatch.setattr(harness, "single_predict", recording_predict)
    config = make_config(tmp_path)
    run = run_scenario(config)
    ref = reference_run(config)

    assert near_ties(ref.sweeps) == ties
    assert run.eval_sizes == ref.eval_sizes == eval_sizes
    picks = run.lambdas["ingested"]
    assert [lam for t, lam in enumerate(picks) if t not in ties] == \
        [lam for t, lam in enumerate(ref.lambdas) if t not in ties]
    assert picks == lambdas
    assert run.task_accuracies == pytest.approx(accuracies, abs=0.005)
    assert run.task_accuracies == ref.task_accuracies
    assert run.balanced_accuracies == ref.balanced_accuracies
    assert predicted == ref.predictions
