import hashlib
import json
import operator
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proto_cil.datahub import Dataset, LabeledImage, save_dataset, synth_dataset
from proto_cil.errors import InputError
from proto_cil.harness import (RULES, RunConfig, StageFailure, check_key, defaults,
                               accuracy, avg_acc, balanced_accuracy, load_report,
                               perf_drop, report, run_scenario, summary)

REPO = Path(__file__).resolve().parent.parent
CONFIG_PATH = REPO / "configs" / "b2inc2_blobs.json"


def blob_config(**overrides):
    cfg = json.loads(CONFIG_PATH.read_text())
    cfg["dataset"]["synth"].update(overrides.pop("synth", {}))
    cfg.update(overrides)
    return RunConfig.from_dict(cfg)


# ---------------------------------------------------------------------------
# metric formulas

def test_avg_acc_on_published_style_rows():
    row7 = [70.90, 72.85, 73.49, 76.48, 58.95, 55.94, 52.66]
    assert avg_acc(row7) == pytest.approx(65.89, abs=0.01)
    row5 = [98.18, 98.51, 96.45, 95.15, 95.13]
    assert avg_acc(row5) == pytest.approx(96.68, abs=0.01)


def test_perf_drop_on_published_style_rows():
    assert perf_drop(63.54, 59.42) == pytest.approx(4.12, abs=1e-12)
    assert perf_drop(99.45, 96.16) == pytest.approx(3.29, abs=1e-12)
    assert perf_drop(50.0, 60.0) == -10.0  # improvement is a negative drop


def test_metric_input_validation():
    with pytest.raises(ValueError):
        accuracy(["a"], [])
    for preds, truth in ((["a"], ["a", "b"]), (["a", "b"], ["a"])):
        with pytest.raises(ValueError, match=r"zip\(\) argument 2 is (shorter|longer)"):
            balanced_accuracy(preds, truth)  # zip would score ["a"] vs ["a", "b"] 100.0


def test_accuracy_and_balance():
    preds = ["a", "a", "a", "b"]
    truth = ["a", "a", "b", "b"]
    assert accuracy(preds, truth) == 75.0
    assert balanced_accuracy(preds, truth) == 75.0
    # class imbalance: plain accuracy rewards the majority class
    preds = ["a"] * 9 + ["a"]
    truth = ["a"] * 9 + ["b"]
    assert accuracy(preds, truth) == 90.0
    assert balanced_accuracy(preds, truth) == 50.0


# ---------------------------------------------------------------------------
# configuration

def test_config_rejects_unknown_keys():
    with pytest.raises(InputError, match="unknown"):
        RunConfig.from_dict({"dataset": {}, "schedule": [2], "mystery": 1})


def test_config_branch_rules():
    base = {"dataset": {"synth": {}}, "schedule": [2]}
    with pytest.raises(InputError):
        RunConfig.from_dict({**base, "ingested_branch": False})
    with pytest.raises(InputError):
        RunConfig.from_dict({**base, "fusion": "late"})
    with pytest.raises(InputError):
        RunConfig.from_dict({**base, "cnn_branch": True, "fusion": "single"})
    with pytest.raises(InputError):
        RunConfig.from_dict({**base, "cnn_branch": True, "fusion": "late",
                             "ingested_source": {"kind": "csv"}})
    with pytest.raises(InputError):
        RunConfig.from_dict({**base, "fusion": "mean"})


def test_fusion_is_derived_from_branches():
    base = {"dataset": {"synth": {}}, "schedule": [2]}
    assert RunConfig.from_dict(base).fusion == "single"
    assert RunConfig.from_dict({**base, "cnn_branch": True}).fusion == "late"
    assert RunConfig.from_dict({**base, "cnn_branch": True,
                                "ingested_branch": False}).fusion == "single"
    # an explicit value that matches changes neither config.json nor the fingerprint
    for cfg in (base, {**base, "cnn_branch": True}):
        omitted = RunConfig.from_dict(cfg)
        given = RunConfig.from_dict({**cfg, "fusion": omitted.fusion})
        assert vars(given) == vars(omitted)
        assert given.fingerprint() == omitted.fingerprint()


@pytest.mark.parametrize("overrides, match", [
    ({"rpca": {"enabled": True, "rnak": 3}}, "unknown rpca keys"),
    ({"ssf": {"epoch": 1}}, "unknown ssf keys"),
    ({"cnn_train": {"epoch": 1}}, "unknown cnn_train keys"),
    ({"ingested_source": {"kind": "csv", "tarin": "a.csv"}}, "unknown ingested_source keys"),
    ({"rpca": True}, "rpca must be an object"),
    ({"dataset": {"synth": {"image_sise": 16}}}, "unknown dataset.synth keys"),
    ({"dataset": {"synth": {}, "manifest": "m.csv"}}, "exactly one of"),
    ({"dataset": {}}, "exactly one of"),
    ({"dataset": {"manfest": "m.csv"}}, "exactly one of"),
])
def test_config_rejects_unknown_section_keys(overrides, match):
    with pytest.raises(InputError, match=match):
        RunConfig.from_dict({"dataset": {"synth": {}}, "schedule": [2], **overrides})


@pytest.mark.parametrize("section, key, value", [
    ("rpca", "enabled", "no"), ("ssf", "enabled", 1), ("rpca", "enabled", None),
    ("rpca", "rank", "abc"), ("rpca", "rank", 0), ("rpca", "rank", 2.0), ("rpca", "rank", True),
    ("cnn_train", "d_cnn", 0), ("cnn_train", "d_cnn", "64"), ("cnn_train", "d_cnn", True),
    ("rpca", "epochs", -1), ("ssf", "epochs", 1.5), ("cnn_train", "epochs", False),
    ("rpca", "lr", 0), ("ssf", "lr", -0.1), ("cnn_train", "lr", "0.01"),
    ("cnn_train", "lr", True), ("rpca", "lr", float("nan")), ("ssf", "lr", float("inf")),
    ("cnn_train", "dropout", 1.5), ("cnn_train", "dropout", 1), ("cnn_train", "dropout", -0.1),
    ("cnn_train", "dropout", False), ("cnn_train", "momentum", -0.9),
    ("cnn_train", "momentum", None), ("cnn_train", "weight_decay", -1e-4),
    ("cnn_train", "weight_decay", float("inf")),
    pytest.param("rpca", "lr", 10 ** 400, id="rpca-lr-1e400"),
    ("ingested_source", "kind", "parquet"), ("ingested_source", "train", 0),
    ("ingested_source", "test", ""), ("dataset", "manifest", 0), ("dataset", "manifest", ""),
])
def test_config_rejects_bad_section_values(section, key, value):
    with pytest.raises(InputError, match=rf"{section}\.{key} must be"):
        RunConfig.from_dict({"dataset": {"synth": {}}, "schedule": [2], section: {key: value}})


@pytest.mark.parametrize("key, value, match", [
    ("freeze_lambda", "no", "freeze_lambda must be a bool"),
    ("freeze_lambda", 0, "freeze_lambda must be a bool"),
    ("cnn_branch", "yes", "cnn_branch must be a bool"),
    ("ingested_branch", None, "ingested_branch must be a bool"),
    ("projection_dim", 1.5, "projection_dim must be an integer >= 1"),
    ("projection_dim", True, "projection_dim must be an integer >= 1"),
    ("projection_dim", 0, "projection_dim must be an integer >= 1"),
    ("projection_dim", "1000", "projection_dim must be an integer >= 1"),
    ("seed", "a", "seed must be an integer >= 0"),
    ("seed", -1, "seed must be an integer >= 0"),
    ("seed", 1.0, "seed must be an integer >= 0"),
    ("seed", False, "seed must be an integer >= 0"),
    ("output_dir", 5, "output_dir must be null or a nonempty string"),
    ("output_dir", "", "output_dir must be null or a nonempty string"),
    ("class_order", 7, "class_order must be null or a list of strings"),
    ("class_order", "ab", "class_order must be null or a list of strings"),
    ("class_order", ["c0", 1], "class_order must be null or a list of strings"),
])
def test_config_rejects_bad_top_level_values(key, value, match):
    with pytest.raises(InputError, match=match):
        RunConfig.from_dict({"dataset": {"synth": {}}, "schedule": [2], key: value})


def test_config_accepts_top_level_values_at_their_bounds():
    cfg = RunConfig.from_dict({"dataset": {"synth": {}}, "schedule": [2], "cnn_branch": True,
                               "ingested_branch": False, "freeze_lambda": True,
                               "projection_dim": 1, "seed": 0, "class_order": ["c1", "c0"],
                               "output_dir": "r"})
    assert cfg.projection_dim == 1 and cfg.seed == 0 and cfg.freeze_lambda is True
    assert cfg.class_order == ["c1", "c0"] and cfg.output_dir == "r"


def test_config_accepts_section_values_at_their_bounds():
    cfg = RunConfig.from_dict({
        "dataset": {"synth": {}}, "schedule": [2],
        "rpca": {"enabled": False, "rank": 1, "epochs": 0, "lr": 1},
        "ssf": {"enabled": True, "epochs": 0, "lr": 1e-9},
        "cnn_train": {"d_cnn": 1, "dropout": 0, "epochs": 0, "lr": 0.5, "momentum": 0,
                      "weight_decay": 0.0}})
    assert cfg.cnn_train["dropout"] == 0


@pytest.mark.parametrize("key, value, match", [
    ("kind", "gauss", "dataset.synth.kind must be 'blobs' or 'lowrank_speckle'"),
    ("kind", None, "dataset.synth.kind must be 'blobs' or 'lowrank_speckle'"),
    ("num_classes", 1, "dataset.synth.num_classes must be an integer >= 2"),
    ("num_classes", 4.0, "dataset.synth.num_classes must be an integer >= 2"),
    ("num_classes", True, "dataset.synth.num_classes must be an integer >= 2"),
    ("per_class_train", 0, "dataset.synth.per_class_train must be an integer >= 1"),
    ("per_class_train", "20", "dataset.synth.per_class_train must be an integer >= 1"),
    ("per_class_test", -1, "dataset.synth.per_class_test must be an integer >= 1"),
    ("per_class_test", True, "dataset.synth.per_class_test must be an integer >= 1"),
    ("image_size", "16", "dataset.synth.image_size must be an integer >= 1"),
    ("image_size", True, "dataset.synth.image_size must be an integer >= 1"),
    ("image_size", 2.5, "dataset.synth.image_size must be an integer >= 1"),
    ("image_size", 0, "dataset.synth.image_size must be an integer >= 1"),
    ("seed", -1, "dataset.synth.seed must be an integer >= 0"),
    ("seed", False, "dataset.synth.seed must be an integer >= 0"),
    ("seed", 1.0, "dataset.synth.seed must be an integer >= 0"),
])
def test_config_rejects_bad_synth_values(tmp_path, key, value, match):
    cfg = json.loads(CONFIG_PATH.read_text())
    cfg["dataset"]["synth"][key] = value
    cfg["output_dir"] = str(tmp_path / "report")
    with pytest.raises(InputError, match=match):
        RunConfig.from_dict(cfg)
    assert not (tmp_path / "report").exists()


def test_config_accepts_synth_values_at_their_bounds():
    synth = {"kind": "lowrank_speckle", "num_classes": 2, "per_class_train": 1,
             "per_class_test": 1, "image_size": 1, "seed": 0}
    cfg = RunConfig.from_dict({"dataset": {"synth": synth}, "schedule": [2]})
    assert cfg.dataset["synth"] == synth


def test_missing_synth_key_fails_in_setup():
    cfg = json.loads(CONFIG_PATH.read_text())
    del cfg["dataset"]["synth"]["image_size"]
    with pytest.raises(InputError, match=r"missing \['image_size'\]"):
        run_scenario(RunConfig.from_dict(cfg))


@pytest.mark.parametrize("grid", [[], [0, 1], [-1.0], [1, float("nan")], [float("inf")],
                                  ["1"], [True], "1e-3"])
def test_config_rejects_bad_lambda_grid(grid):
    with pytest.raises(InputError, match="lambda_grid"):
        RunConfig.from_dict({"dataset": {"synth": {}}, "schedule": [2], "lambda_grid": grid})


def test_config_accepts_positive_lambda_grid():
    assert RunConfig.from_dict({"dataset": {"synth": {}}, "schedule": [2],
                                "lambda_grid": [1, 0.5, 1e8]}).lambda_grid == [1, 0.5, 1e8]


@pytest.mark.parametrize("schedule", [[], ["2", 2], [True, 1], [0, 2], [2.0], "22", None])
def test_config_rejects_bad_schedule(schedule):
    with pytest.raises(InputError, match="schedule"):
        RunConfig.from_dict({"dataset": {"synth": {}}, "schedule": schedule})


@pytest.mark.parametrize("portion", [0, 0.0, -0.5, 1.5, float("nan"), "0.5", True, None])
def test_config_rejects_bad_portion(portion):
    with pytest.raises(InputError, match="portion"):
        RunConfig.from_dict({"dataset": {"synth": {}}, "schedule": [2], "portion": portion})


def test_every_default_obeys_its_own_rule():
    """Each key a config may leave out defaults to a value its rule accepts,
    in every section; a section's default is checked key by key."""
    checked = set()
    for section in RULES:
        for key, value in defaults(section).items():
            checked.add(f"{section}.{key}" if section else key)
            check_key(f"{section}.{key}" if section else key, value)
    assert {"portion", "rpca", "ingested_source.kind", "rpca.lr", "cnn_train.dropout"} <= checked


def test_defaults_are_not_shared_between_configs():
    """Mutating one resolved config's default-filled sections, or a copy of the
    defaults, changes neither the next resolved config nor the defaults."""
    base = {"dataset": {"synth": {}}, "schedule": [2]}
    resolved = json.dumps(vars(RunConfig.from_dict(base)), sort_keys=True)
    table = {section: defaults(section) for section in RULES}
    first = RunConfig.from_dict(base)
    for name in ("rpca", "ssf", "cnn_train", "ingested_source"):
        getattr(first, name)["enabled"] = "mutated"
        getattr(first, name).pop("kind", None)
        defaults(name)["epochs"] = "mutated"
    assert json.dumps(vars(RunConfig.from_dict(base)), sort_keys=True) == resolved
    assert {section: defaults(section) for section in RULES} == table


def test_config_names_missing_required_keys():
    with pytest.raises(InputError, match=re.escape("config is missing ['schedule']")):
        RunConfig.from_dict({"dataset": {"synth": {}}})
    with pytest.raises(InputError, match=re.escape("config is missing ['dataset', 'schedule']")):
        RunConfig.from_dict({})


def test_config_rejects_portion_with_csv_source():
    csv = {"kind": "csv", "train": "train.csv", "test": "test.csv"}
    base = {"dataset": {"synth": {}}, "schedule": [2], "ingested_source": csv}
    with pytest.raises(InputError, match="portion 0.5 < 1 requires ingested_source raw_pixels"):
        RunConfig.from_dict({**base, "portion": 0.5})
    assert RunConfig.from_dict({**base, "portion": 1}).portion == 1
    # with the ingested branch off the source is unused, and portion subsamples the images
    assert RunConfig.from_dict({**base, "portion": 0.5, "cnn_branch": True,
                                "ingested_branch": False}).portion == 0.5


def _put(cfg, section, key, value):
    """Set config key `section`.`key` of the bundled config to `value`."""
    if section == "dataset":
        cfg["dataset"] = {key: value}
    elif section == "dataset.synth":
        cfg["dataset"]["synth"][key] = value
    elif section:
        cfg.setdefault(section, {})[key] = value
    else:
        cfg[key] = value


_KEY_NAMES = sorted({key for rules in RULES.values() for key in rules})
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from([-1, 0, 1, 2, 2 ** 63, 10 ** 400, -10 ** 400, 1e308, 0.5])
    | st.text(max_size=6) | st.sampled_from(["", "blobs", "csv", "raw_pixels", "late"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEY_NAMES) | st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@pytest.mark.parametrize("section, key",
                         [(section, key) for section, rules in RULES.items() for key in rules])
@settings(max_examples=15, deadline=None)
@given(value=_JSON_VALUES)
def test_config_fuzz_rejects_only_with_config_error(section, key, value):
    """Any JSON value at any key: from_dict raises nothing but InputError, and
    raises it, naming the key, whenever the key's rule rejects the value."""
    cfg = json.loads(CONFIG_PATH.read_text())
    _put(cfg, section, key, value)
    path = f"{section}.{key}" if section else key
    if not RULES[section][key][1](value):
        with pytest.raises(InputError, match=rf"^{re.escape(path)} must be"):
            RunConfig.from_dict(cfg)
        return
    try:
        RunConfig.from_dict(cfg)
    except InputError:
        pass  # a nested key, or a rule across keys, may still reject it


def test_fingerprint_ignores_output_dir_and_threads():
    a = blob_config(output_dir="/tmp/a", threads=1)
    b = blob_config(output_dir="/tmp/b", threads=4)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != blob_config(seed=2).fingerprint()


# ---------------------------------------------------------------------------
# end-to-end runs

@pytest.fixture(scope="module")
def blob_metrics():
    return run_scenario(blob_config())


def test_blob_run_task_count_and_quality(blob_metrics):
    m = blob_metrics
    assert len(m["task_accuracies"]) == 5
    assert m["avg_accuracy"] >= 95.0
    assert m["perf_drop"] <= 2.0
    assert m["eval_sizes"] == [20, 40, 60, 80, 100]
    assert len(m["lambdas"]["ingested"]) == 5
    assert all(l in [10.0 ** k for k in range(-8, 9)] for l in m["lambdas"]["ingested"])


def test_eval_sets_grow_monotonically(blob_metrics):
    sizes = blob_metrics["eval_sizes"]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))


def test_run_deterministic_byte_identical(tmp_path):
    m1 = run_scenario(blob_config(output_dir=str(tmp_path / "r1")))
    b1 = (tmp_path / "r1" / "metrics.json").read_bytes()
    m2 = run_scenario(blob_config(output_dir=str(tmp_path / "r2")))
    b2 = (tmp_path / "r2" / "metrics.json").read_bytes()
    assert b1 == b2
    assert m1 == m2


def test_b4inc1_schedule_produces_seven_tasks():
    cfg = blob_config(schedule=[4, 1, 1, 1, 1, 1, 1],
                      synth={"per_class_train": 10, "per_class_test": 5})
    m = run_scenario(cfg)
    assert len(m["task_accuracies"]) == 7


def test_freeze_lambda_repeats_base_choice():
    m = run_scenario(blob_config(freeze_lambda=True,
                                 synth={"per_class_train": 10, "per_class_test": 5}))
    lams = m["lambdas"]["ingested"]
    assert len(set(lams)) == 1


def test_single_class_base_task_fails_in_setup():
    cfg = blob_config(schedule=[1, 9], ssf={"enabled": True})
    with pytest.raises(InputError, match="base task needs >= 2"):
        run_scenario(cfg)


def write_csv_features(dir_path, train_per_class, test_per_class=5):
    """Four classes of externally computed features, one informative
    coordinate per class; `train_per_class[j]` train rows for class j,
    `test_per_class` test rows each, in `dir_path`/train.csv and test.csv."""
    rng = np.random.default_rng(0)
    classes = [f"c{i:02d}" for i in range(4)]

    def write(path, counts):
        lines = ["label," + ",".join(f"f{i}" for i in range(4))]
        for j, c in enumerate(classes):
            for _ in range(counts[j]):
                v = rng.normal(0, 0.05, size=4)
                v[j] += 1.0
                lines.append(c + "," + ",".join(repr(float(x)) for x in v))
        path.write_text("\n".join(lines) + "\n")

    write(dir_path / "train.csv", train_per_class)
    write(dir_path / "test.csv", [test_per_class] * 4)


CSV_SOURCE = {
    "dataset": {"synth": {"kind": "blobs", "num_classes": 4, "per_class_train": 10,
                          "per_class_test": 5, "image_size": 8}},
    "schedule": [2, 2],
    "ingested_source": {"kind": "csv", "train": "train.csv", "test": "test.csv"},
    "projection_dim": 200,
    "seed": 0,
}


def csv_config(tmp_path, train_per_class, test_per_class=5, **overrides):
    write_csv_features(tmp_path, train_per_class, test_per_class)
    source = {"kind": "csv", "train": str(tmp_path / "train.csv"),
              "test": str(tmp_path / "test.csv")}
    return RunConfig.from_dict({**CSV_SOURCE, "ingested_source": source, **overrides})


def test_csv_branch_run(tmp_path):
    m = run_scenario(csv_config(tmp_path, [10] * 4))
    assert len(m["task_accuracies"]) == 2
    assert m["final_accuracy"] >= 95.0


def test_csv_source_scores_each_class_once(tmp_path):
    """Each task scores the CSV test rows of its own classes once, however
    many test images those classes have (5 here, against 3 rows)."""
    m = run_scenario(csv_config(tmp_path, [10] * 4, test_per_class=3, schedule=[2, 1, 1]))
    assert m["eval_sizes"] == [6, 9, 12]


def test_too_few_sweep_rows_fails_in_setup(tmp_path, monkeypatch):
    import proto_cil.harness as harness

    def no_training(*args, **kwargs):
        raise AssertionError("a branch trained before the config was rejected")

    monkeypatch.setattr(harness, "ssf_train", no_training)
    # portion 0.1 leaves 2 images per class: 4 rows per task
    cfg = blob_config(portion=0.1, ssf={"enabled": True}, output_dir=str(tmp_path / "r"))
    with pytest.raises(InputError, match="task 0 has 4 training rows"):
        run_scenario(cfg)
    assert not (tmp_path / "r").exists()


def test_too_few_sweep_rows_counts_only_sweeping_tasks():
    small = {"per_class_train": 3, "per_class_test": 2}
    with pytest.raises(InputError, match="task 1 has 3 training rows"):
        run_scenario(blob_config(schedule=[2, 1, 7], synth=small))
    # with lambda frozen after task 0 only the base task sweeps
    m = run_scenario(blob_config(schedule=[2, 1, 7], synth=small, freeze_lambda=True))
    assert len(m["task_accuracies"]) == 3


def test_too_few_sweep_rows_counts_csv_rows(tmp_path):
    # the images are plentiful, but task 1 has only 4 feature rows
    with pytest.raises(InputError, match="task 1 has 4 training rows"):
        run_scenario(csv_config(tmp_path, [10, 10, 2, 2], output_dir=str(tmp_path / "report")))
    assert not (tmp_path / "report").exists()


@pytest.mark.skipif(not os.environ.get("PROTO_CIL_ABLATION"),
                    reason="set PROTO_CIL_ABLATION=1 to run the slow ablation check")
def test_despeckling_ablation_keeps_pipeline_usable():
    """The filtered (sparse-residual) pipeline must stay far above chance on
    speckled synthetics. On this construction class identity lives in the
    low-rank template, so filtering cannot be expected to beat the raw
    pipeline; this checks the residual still carries class signal."""
    synth = {"kind": "lowrank_speckle", "num_classes": 4, "per_class_train": 12,
             "per_class_test": 6, "image_size": 48}
    base = {"dataset": {"synth": synth}, "schedule": [2, 2], "ingested_branch": False,
            "cnn_branch": True, "fusion": "single", "projection_dim": 500, "seed": 3,
            "cnn_train": {"d_cnn": 64, "epochs": 10}}
    with_rpca = run_scenario(RunConfig.from_dict(
        {**base, "rpca": {"enabled": True, "rank": 2, "epochs": 150, "lr": 0.5}}))
    without = run_scenario(RunConfig.from_dict(base))
    assert with_rpca["avg_accuracy"] >= 70.0  # chance averages ~37.5 over the two tasks
    assert without["avg_accuracy"] >= 70.0


# ---------------------------------------------------------------------------
# reporting

def test_report_files_and_roundtrip(tmp_path):
    m = run_scenario(blob_config(output_dir=str(tmp_path),
                                 synth={"per_class_train": 10, "per_class_test": 5}))
    for name in ("metrics.json", "accuracy_curve.csv", "config.json", "timings.json"):
        assert (tmp_path / name).exists()
    assert load_report(tmp_path) == m
    timings = json.loads((tmp_path / "timings.json").read_text())
    assert list(timings) == ["per_task_seconds"] and len(timings["per_task_seconds"]) == 5
    curve = (tmp_path / "accuracy_curve.csv").read_text().splitlines()
    assert curve[0] == "task,accuracy,perf_drop"
    assert len(curve) == 6


def test_run_scenario_refuses_to_write_its_report_over_the_manifest_header(tmp_path,
                                                                          monkeypatch):
    """A library caller is held to the rule `run` keeps: a manifest renamed
    metrics.csv has its header at <output_dir>/metrics.json, so setup raises
    InputError before the dataset is read, and the header keeps its bytes."""
    import proto_cil.harness as harness

    d = tmp_path / "d"
    save_dataset(synth_dataset("blobs", 4, 5, 2, 8, seed=0), d)
    for suffix in (".csv", ".json"):
        (d / f"manifest{suffix}").rename(d / f"metrics{suffix}")
    header = (d / "metrics.json").read_bytes()

    def no_reading(config):
        raise AssertionError("dataset read before the report files were checked")

    monkeypatch.setattr(harness, "_resolve_dataset", no_reading)
    cfg = RunConfig.from_dict({"dataset": {"manifest": str(d / "metrics.csv")},
                               "schedule": [2, 2], "output_dir": str(d)})
    with pytest.raises(InputError, match=re.escape(
            f"would write {d / 'metrics.json'} over the input {d / 'metrics.json'}")):
        run_scenario(cfg)
    assert (d / "metrics.json").read_bytes() == header


def test_report_overwrite_is_atomic_replace(tmp_path):
    m = {"task_accuracies": [100.0, 90.0], "balanced_accuracies": [100.0, 90.0],
         "eval_sizes": [4, 8], "lambdas": {"ingested": [1.0, 1.0]},
         "config_fingerprint": "f" * 64, **summary([100.0, 90.0])}
    report(m, tmp_path, blob_config(), [0.0, 0.0])
    first = (tmp_path / "metrics.json").read_text()
    m2 = {"task_accuracies": [100.0, 95.0], "balanced_accuracies": [100.0, 95.0],
          "eval_sizes": [4, 8], "lambdas": {"ingested": [1.0, 1.0]},
          "config_fingerprint": "f" * 64, **summary([100.0, 95.0])}
    report(m2, tmp_path, blob_config(), [0.0, 0.0])
    second = (tmp_path / "metrics.json").read_text()
    assert first != second
    assert json.loads(second)["task_accuracies"] == [100.0, 95.0]
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith("metrics.json.")]
    assert leftovers == []


@pytest.mark.parametrize("umask", [0o022, 0o002, 0o077], ids=["022", "002", "077"])
def test_report_files_get_the_umask_mode(tmp_path, umask):
    """Report files get the mode open() gives a new file, 0666 less the umask,
    as the dataset and checkpoint files do."""
    m = {"task_accuracies": [100.0], "balanced_accuracies": [100.0], "eval_sizes": [4],
         "lambdas": {"ingested": [1.0]}, "config_fingerprint": "f" * 64, **summary([100.0])}
    old = os.umask(umask)
    try:
        report(m, tmp_path, blob_config(), [0.0])
    finally:
        os.umask(old)
    names = ("metrics.json", "accuracy_curve.csv", "config.json", "timings.json")
    assert {n: (tmp_path / n).stat().st_mode & 0o777 for n in names} == \
        dict.fromkeys(names, 0o666 & ~umask)


def test_metrics_json_excludes_wall_clock(tmp_path):
    run_scenario(blob_config(output_dir=str(tmp_path),
                             synth={"per_class_train": 10, "per_class_test": 5}))
    body = json.loads((tmp_path / "metrics.json").read_text())
    assert "wall_clock" not in body
    assert "per_task_seconds" in json.loads((tmp_path / "timings.json").read_text())


def test_partial_report_flushed_on_late_failure(tmp_path, monkeypatch):
    cfg = blob_config(output_dir=str(tmp_path),
                      synth={"per_class_train": 10, "per_class_test": 5})
    import proto_cil.harness as harness

    real = harness.select_lambda
    calls = {"n": 0}

    def failing(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise RuntimeError("boom")
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "select_lambda", failing)
    with pytest.raises(StageFailure, match="task2"):
        run_scenario(cfg)
    body = json.loads((tmp_path / "metrics.json").read_text())
    assert body["partial_after_stage"].startswith("task2")
    assert len(body["task_accuracies"]) == 2


def test_partial_report_write_error_keeps_the_stage_failure(tmp_path, monkeypatch):
    import proto_cil.harness as harness

    real = harness.select_lambda
    calls = {"n": 0}

    def failing(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise RuntimeError("boom")
        return real(*args, **kwargs)

    def unwritable(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(harness, "select_lambda", failing)
    monkeypatch.setattr(harness, "report", unwritable)
    with pytest.raises(StageFailure, match="task1") as exc:
        run_scenario(blob_config(output_dir=str(tmp_path),
                                 synth={"per_class_train": 10, "per_class_test": 5}))
    assert isinstance(exc.value.cause, RuntimeError)


def test_final_report_write_error_is_raised(tmp_path, monkeypatch):
    import proto_cil.harness as harness

    def unwritable(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(harness, "report", unwritable)
    with pytest.raises(OSError, match="disk full"):
        run_scenario(blob_config(output_dir=str(tmp_path),
                                 synth={"per_class_train": 10, "per_class_test": 5}))


# ---------------------------------------------------------------------------
# golden outputs

SMALL_FUSION = {
    "dataset": {"synth": {"kind": "lowrank_speckle", "num_classes": 4, "per_class_train": 10,
                          "per_class_test": 5, "image_size": 32}},
    "schedule": [2, 1, 1],
    "cnn_branch": True,
    "ingested_branch": True,
    "fusion": "late",
    "rpca": {"enabled": True, "rank": 2, "epochs": 20, "lr": 0.5},
    "ssf": {"enabled": True},
    "cnn_train": {"d_cnn": 16, "epochs": 1},
    "projection_dim": 200,
    "lambda_grid": [1.0],  # one grid point: the pick cannot follow float rounding
    "seed": 0,
}


# the CNN branch alone on the default lambda grid: it scores [90.0, 86.7, 85.0]
# with lambda picks [10, 1, 1], so a golden that an accuracy change can move
CNN_SINGLE = {**{k: v for k, v in SMALL_FUSION.items() if k != "lambda_grid"},
              "ingested_branch": False, "fusion": "single"}

BUNDLED = json.loads(CONFIG_PATH.read_text())

# raw pixels at 6 px: a golden below 100 % that the lambda picks move; its
# task 0 and task 2 sweeps are near-ties (6.6e-12 and 6.7e-10 relative,
# ROADMAP item 4), so a moved pick there may be rounding alone
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


# each golden names what a change of its bytes moved: lambda picks per branch,
# task accuracies (percent, to 0.01) and eval sizes, checked before the hash
@pytest.mark.parametrize("config, lambdas, accuracies, eval_sizes, sha256", [
    ({**BUNDLED, "seed": 1}, {"ingested": [10, 100, 10, 100, 10]}, [100.0] * 5,
     [20, 40, 60, 80, 100], "0bb1d56624c46a32ee4d8d47c9e3cb8f0584410d97fbc5fe9739b3be19361366"),
    ({**BUNDLED, "seed": 3}, {"ingested": [100, 100, 100, 10, 100]}, [100.0] * 5,
     [20, 40, 60, 80, 100], "02c82b6826ead401ef01127b2a9dbadd23f73b5e9e9b63c76b5f3933970f4c74"),
    (SMALL_FUSION, {"cnn": [1, 1, 1], "ingested": [1, 1, 1]}, [100.0] * 3,
     [10, 15, 20], "efd75330605b908f8aa7804774bced47c596c90289352c22d2d2f214ab5319b5"),
    (CSV_SOURCE, {"ingested": [0.01, 1]}, [100.0] * 2,
     [10, 20], "5f5dd24c3f72e0281964797d3cf2b2c6e58c7a11bfcc8f4075c8139563433bde"),
    (CNN_SINGLE, {"cnn": [10, 1, 1]}, [90.0, 86.67, 85.0],
     [10, 15, 20], "d37d8b0ddd4732d5011d84cf3dd1746d38e974a63296106442b7496bb1d642b7"),
    (SIX_PX, {"ingested": [1e-8, 1, 1e-8, 100]}, [100.0, 97.14, 92.86, 98.21],
     [21, 35, 42, 56], "84ce51df406f36fd10a0c690a2e9fd5c81ad28275229af369d6bf8e2ff4a3ca0"),
], ids=["bundled-seed1", "bundled-seed3", "cnn-rpca-ssf-late-fusion", "csv-source",
        "cnn-single-default-grid", "raw-pixels-6px"])
def test_metrics_json_golden_sha256(tmp_path, monkeypatch, config, lambdas, accuracies,
                                    eval_sizes, sha256):
    """metrics.json bytes are pinned: any change to them is a change of results."""
    # CSV_SOURCE reads relative paths, which keep its config fingerprint fixed
    monkeypatch.chdir(tmp_path)
    write_csv_features(tmp_path, [10] * 4)
    metrics = run_scenario(RunConfig.from_dict({**config, "output_dir": str(tmp_path)}))
    assert metrics["lambdas"] == lambdas
    assert metrics["task_accuracies"] == pytest.approx(accuracies, abs=0.005)
    assert metrics["eval_sizes"] == eval_sizes
    assert hashlib.sha256((tmp_path / "metrics.json").read_bytes()).hexdigest() == sha256


def test_renaming_classes_changes_no_raw_pixel_result(tmp_path):
    """The 6 px case from two manifests, its class names as they are and
    reversed in place (c00 <-> c07, ...; no order-keeping map): the raw-pixel
    branch reads labels only as names, so accuracies and lambda picks agree."""
    ds = synth_dataset(**SPECKLE_6PX, seed=SIX_PX["seed"])
    runs = []
    for name, rename in (("same", dict(zip(ds.classes, ds.classes))),
                         ("reversed", dict(zip(ds.classes, ds.classes[::-1])))):
        renamed = Dataset(classes=[rename[c] for c in ds.classes],
                          samples=[LabeledImage(im.pixels, rename[im.label], im.split)
                                   for im in ds.samples])
        manifest = save_dataset(renamed, tmp_path / name)
        runs.append(run_scenario(RunConfig.from_dict({
            **SIX_PX, "dataset": {"manifest": str(manifest)},
            "class_order": [rename[c] for c in SIX_PX["class_order"]]})))
    same, reversed_ = runs
    assert reversed_["task_accuracies"] == same["task_accuracies"]
    assert reversed_["balanced_accuracies"] == same["balanced_accuracies"]
    assert reversed_["lambdas"] == same["lambdas"]
    assert same["eval_sizes"] == [21, 35, 42, 56]


def test_each_image_is_extracted_and_projected_once(monkeypatch):
    """Over a run, the CNN branch extracts every train and test image once, and
    each branch projects exactly that many rows: later tasks score the cached
    rows of earlier tasks' test images."""
    import proto_cil.harness as harness

    extracted, projected = [], {}
    real_extract, real_project = harness.cnn_mod.cnn_extract, harness.project

    def counting_extract(model, images):
        extracted.append(len(images))
        return real_extract(model, images)

    def counting_project(layer, fm):
        projected[id(layer)] = projected.get(id(layer), 0) + fm.rows.shape[0]
        return real_project(layer, fm)

    monkeypatch.setattr(harness.cnn_mod, "cnn_extract", counting_extract)
    monkeypatch.setattr(harness, "project", counting_project)
    metrics = run_scenario(RunConfig.from_dict(SMALL_FUSION))
    synth = SMALL_FUSION["dataset"]["synth"]
    images = synth["num_classes"] * (synth["per_class_train"] + synth["per_class_test"])
    assert sum(extracted) == images
    assert list(projected.values()) == [images, images]
    assert metrics["eval_sizes"] == [10, 15, 20]


@pytest.mark.parametrize("config, target, fail_on_call, stage", [
    (SMALL_FUSION, "cnn_mod.cnn_train", 1, "base-training(cnn)"),
    ({**BUNDLED, "ssf": {"enabled": True}}, "ssf_train", 1, "base-training(ingested)"),
    (BUNDLED, "init_projection", 1, "projection-init"),
    (BUNDLED, "score", 2, "task1-eval"),
])
def test_stage_failure_names_its_stage(tmp_path, monkeypatch, config, target, fail_on_call,
                                       stage):
    """A failure carries the name of the stage it broke, as perfbench records
    it; a report is written only once a task has completed, marked partial."""
    import proto_cil.harness as harness

    real, calls = operator.attrgetter(target)(harness), []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == fail_on_call:
            raise RuntimeError("boom")
        return real(*args, **kwargs)

    monkeypatch.setattr(f"proto_cil.harness.{target}", failing)
    with pytest.raises(StageFailure) as exc:
        run_scenario(RunConfig.from_dict({**config, "output_dir": str(tmp_path)}))
    assert exc.value.stage == stage
    written = tmp_path / "metrics.json"
    if stage == "task1-eval":
        body = json.loads(written.read_text())
        assert len(body["task_accuracies"]) == 1 and body["partial_after_stage"] == stage
    else:
        assert not written.exists()


SPECKLE_FUSION_RUN = """
import sys
sys.path.insert(0, "perfbench")
from workloads import WORKLOADS
from proto_cil.harness import RunConfig, run_scenario
cfg = WORKLOADS["speckle-fusion"].run_config(int(sys.argv[1]))
run_scenario(RunConfig.from_dict(dict(cfg, output_dir=sys.argv[2])))
"""


def test_metrics_json_independent_of_blas_threads(tmp_path):
    """The benchmark's speckle-fusion config at seed 2, whose raw-pixel branch
    has flat lambda curves, writes the same metrics.json under 1 and 2 BLAS
    threads."""
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-c", SPECKLE_FUSION_RUN, "2", str(out)],
                       cwd=REPO, env=env, check=True, timeout=600)
        digests.add(hashlib.sha256((out / "metrics.json").read_bytes()).hexdigest())
    assert len(digests) == 1, digests
