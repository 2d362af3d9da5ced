"""Whole runs against `run_reference.reference_run`, which re-derives every
task from all projected train rows with dense algebra and re-extracts every
seen test image at every task."""

import pytest

import proto_cil.harness as harness
from proto_cil.harness import RunConfig, run_scenario

from run_reference import reference_run
from test_harness import SIX_PX, SMALL_FUSION, csv_config

NEAR_TIE = 1e-9  # relative gap of a sweep's two best grid points that rounding may flip

# the small fusion golden's data and models with a CNN of width 8, on the
# default lambda grid, so both branches' picks are compared
TINY_FUSION = {**{k: v for k, v in SMALL_FUSION.items() if k != "lambda_grid"},
               "cnn_train": {"d_cnn": 8, "epochs": 1}}


def near_ties(sweeps) -> list:
    """Sweeping tasks whose two best grid points lie within NEAR_TIE relative."""
    out = []
    for t, sweep in enumerate(sweeps):
        best, second = sorted(sweep.values())[:2]
        if second - best <= NEAR_TIE * best:
            out.append(t)
    return out


# per config: the near-tie sweeps per branch, then the run's lambda picks per
# branch, task accuracies (percent, to 0.01) and eval sizes
@pytest.mark.parametrize("make_config, ties, lambdas, accuracies, eval_sizes", [
    (lambda tmp_path: RunConfig.from_dict(SIX_PX), {"ingested": [0, 2]},
     {"ingested": [1e-8, 1, 1e-8, 100]}, [100, 97.14, 92.86, 98.21], [21, 35, 42, 56]),
    (lambda tmp_path: RunConfig.from_dict({**SIX_PX, "freeze_lambda": True}),
     {"ingested": [0]}, {"ingested": [1e-8] * 4}, [100, 97.14, 92.86, 92.86], [21, 35, 42, 56]),
    # the CSV has 3 test rows per class, the dataset 5 test images
    (lambda tmp_path: csv_config(tmp_path, [10] * 4, test_per_class=3), {"ingested": []},
     {"ingested": [0.01, 1]}, [100, 100], [6, 12]),
    (lambda tmp_path: RunConfig.from_dict({**SIX_PX, "ssf": {"enabled": True}}),
     {"ingested": [2]}, {"ingested": [10, 10, 1e-8, 10]}, [100, 97.14, 97.62, 96.43],
     [21, 35, 42, 56]),
    (lambda tmp_path: RunConfig.from_dict(TINY_FUSION), {"cnn": [], "ingested": [0]},
     {"cnn": [1, 1000, 10], "ingested": [1e-7, 100, 1000]}, [100, 100, 100], [10, 15, 20]),
], ids=["speckle-6px", "speckle-6px-frozen-lambda", "csv-3-test-rows", "speckle-6px-ssf",
        "tiny-cnn-rpca-ssf-late-fusion"])
def test_run_matches_the_naive_reference(tmp_path, monkeypatch, make_config, ties,
                                         lambdas, accuracies, eval_sizes):
    """Per task: eval sizes, task and balanced accuracies, the lambda picks
    (but for the listed near-tie sweeps) and each test row's predicted label.
    The reference reuses the models the run trained on its base task."""
    predicted, models = [], {"rpca": None}

    def recording(target, key=None):
        real = getattr(harness, target)

        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            if key is None:
                predicted.append(out)
            else:
                models[key] = out
            return out
        monkeypatch.setattr(harness, target, wrapper)

    recording("single_predict")
    recording("late_fuse")
    recording("train_backbone", "cnn")
    recording("train_denoiser", "rpca")
    recording("ssf_train", "ssf")
    config = make_config(tmp_path)
    run = run_scenario(config)
    ref = reference_run(config, models)

    assert {branch: near_ties(sweeps) for branch, sweeps in ref.sweeps.items()} == ties
    assert run["eval_sizes"] == ref.eval_sizes == eval_sizes
    for branch, picks in run["lambdas"].items():
        assert [lam for t, lam in enumerate(picks) if t not in ties[branch]] == \
            [lam for t, lam in enumerate(ref.lambdas[branch]) if t not in ties[branch]]
    assert run["lambdas"] == lambdas
    assert run["task_accuracies"] == pytest.approx(accuracies, abs=0.005)
    assert run["task_accuracies"] == ref.task_accuracies
    assert run["balanced_accuracies"] == ref.balanced_accuracies
    assert predicted == ref.predictions
