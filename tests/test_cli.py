import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from proto_cil.cli import main
from proto_cil.features import ingest_features
from proto_cil.harness import RunConfig, report, run_scenario, summary
from proto_cil.pgm import read_pgm, write_pgm
from proto_cil.seeding import derive_seed

from pgm16 import write_pgm16
from test_cnn import MALFORMED_CHECKPOINTS, assert_archive_of_parameters

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "b2inc2_blobs.json"


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


# ---------------------------------------------------------------------------
# synth

def test_synth_writes_dataset(tmp_path):
    out = tmp_path / "ds"
    rc = main(["synth", "--kind", "blobs", "--classes", "5", "--train", "2",
               "--test", "1", "--size", "32", "--seed", "7", "--out", str(out)])
    assert rc == 0
    assert (out / "manifest.csv").exists() and (out / "manifest.json").exists()
    assert len(list(out.glob("*.pgm"))) == 5 * 3


def test_synth_deterministic_bytes(tmp_path):
    args = ["synth", "--kind", "blobs", "--classes", "3", "--train", "2",
            "--test", "1", "--size", "16", "--seed", "5"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for pa in sorted((tmp_path / "a").iterdir()):
        pb = tmp_path / "b" / pa.name
        assert pa.read_bytes() == pb.read_bytes()


def test_synth_and_run_at_one_pixel(tmp_path, capsys):
    """image_size 1 passes the config rules: its constant lowrank_speckle
    template maps to 0, so synth writes the images and a run completes."""
    assert main(["synth", "--kind", "lowrank_speckle", "--classes", "2", "--train", "5",
                 "--test", "1", "--size", "1", "--out", str(tmp_path / "ds")]) == 0
    assert len(list((tmp_path / "ds").glob("*.pgm"))) == 2 * 6
    cfg = {"dataset": {"synth": {"kind": "lowrank_speckle", "num_classes": 4,
                                 "per_class_train": 5, "per_class_test": 2, "image_size": 1}},
           "schedule": [2, 2], "projection_dim": 20}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 0


def test_synth_rejects_bad_counts(tmp_path, capsys):
    rc = main(["synth", "--kind", "blobs", "--classes", "1", "--train", "2",
               "--test", "1", "--size", "8", "--out", str(tmp_path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# denoise

def rank1_pgms(dir_path, n=40, size=8, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.2, 1.0, size=size * size).reshape(size, size)
    u /= u.max()
    dir_path.mkdir(parents=True, exist_ok=True)
    for i in range(n):
        write_pgm16(dir_path / f"im{i:03d}.pgm", u * rng.uniform(0.5, 1.0))


def test_denoise_pipeline(tmp_path):
    rank1_pgms(tmp_path / "in")
    out = tmp_path / "out"
    rc = main(["denoise", "--train-glob", str(tmp_path / "in" / "*.pgm"),
               "--apply-glob", str(tmp_path / "in" / "im00*.pgm"),
               "--rank", "1", "--epochs", "1500", "--lr", "0.5",
               "--out", str(out)])
    assert rc == 0
    produced = sorted(out.glob("*.pgm"))
    assert len(produced) == 10
    for p in produced:
        sidecar = json.loads(Path(str(p) + ".json").read_text())
        sparse = read_pgm(p) * sidecar["scale"] + sidecar["offset"]
        source = read_pgm(tmp_path / "in" / p.name)
        # a well-fit rank-1 map leaves only a small residual
        assert np.abs(sparse).sum() <= 0.05 * np.abs(source).sum() + 1e-6


def test_denoise_rejects_empty_glob(tmp_path, capsys):
    """A glob that matches no file is a bad flag: exit 1, nothing written."""
    rc = main(["denoise", "--train-glob", str(tmp_path / "none*.pgm"),
               "--apply-glob", str(tmp_path / "none*.pgm"),
               "--rank", "1", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "no files match" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_denoise_rejects_empty_apply_glob(tmp_path, capsys):
    rank1_pgms(tmp_path / "in", n=4)
    rc = main(["denoise", "--train-glob", str(tmp_path / "in" / "*.pgm"),
               "--apply-glob", str(tmp_path / "none*.pgm"),
               "--rank", "1", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "no files match --apply-glob" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_denoise_rejects_apply_files_sharing_a_name(tmp_path, capsys, monkeypatch):
    """Two --apply-glob files with one basename would write one output (and
    its sidecar) over the other: exit 1, naming both, before any training and
    before anything is written."""
    import proto_cil.cli as cli

    for d in ("d1", "d2"):
        rank1_pgms(tmp_path / d, n=4)
    trained = []
    monkeypatch.setattr(cli, "train_denoiser", lambda *args: trained.append(args))
    rc = main(["denoise", "--train-glob", str(tmp_path / "d1" / "*.pgm"),
               "--apply-glob", str(tmp_path / "d*" / "im000.pgm"),
               "--rank", "1", "--out", str(tmp_path / "out")])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{tmp_path / 'd1' / 'im000.pgm'} and {tmp_path / 'd2' / 'im000.pgm'}" in err
    assert trained == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("apply_dir", ["data", "elsewhere"])
def test_denoise_refuses_to_write_over_its_inputs(tmp_path, capsys, monkeypatch, apply_dir):
    """An --out directory where an output (`<name>` or `<name>.json`) would
    land on a --train-glob or --apply-glob file: exit 1, naming both paths,
    before any image is read, with every input unchanged."""
    import hashlib

    import proto_cil.cli as cli

    rank1_pgms(tmp_path / "data", n=6)
    rank1_pgms(tmp_path / apply_dir, n=1, seed=1)
    pgms = sorted((tmp_path / "data").iterdir()) + sorted((tmp_path / apply_dir).iterdir())
    before = {p: hashlib.md5(p.read_bytes()).hexdigest() for p in pgms}

    def no_reading(path):
        raise AssertionError(f"{path} read before --out was checked")

    monkeypatch.setattr(cli, "read_pgm", no_reading)
    rc = main(["denoise", "--train-glob", str(tmp_path / "data" / "*.pgm"),
               "--apply-glob", str(tmp_path / apply_dir / "im000.pgm"),
               "--rank", "1", "--out", str(tmp_path / "data")])
    assert rc == 1
    target = tmp_path / "data" / "im000.pgm"  # an output path and a --train-glob file
    assert f"--out would write {target} over the input {target}" in capsys.readouterr().err
    assert {p: hashlib.md5(p.read_bytes()).hexdigest() for p in pgms} == before
    assert not list(tmp_path.rglob("*.json"))


@pytest.mark.parametrize("output, target", [("im000.pgm", "missing/x"),
                                            ("im000.pgm", "im000.pgm"),
                                            ("im000.pgm.json", "missing/x")],
                         ids=["dangling", "loop", "dangling-sidecar"])
def test_denoise_rejects_an_output_symlink_that_leads_nowhere(tmp_path, capsys, monkeypatch,
                                                              output, target):
    """An output `<out>/<name>` or `<out>/<name>.json` that is a symlink to a
    missing path, or a symlink loop, cannot be written: exit 1, naming it,
    before any training, with nothing written."""
    import proto_cil.cli as cli

    rank1_pgms(tmp_path / "in", n=4)
    out = tmp_path / "out"
    out.mkdir()
    (out / output).symlink_to(target)
    trained = []
    monkeypatch.setattr(cli, "train_denoiser", lambda *args: trained.append(args))
    rc = main(["denoise", "--train-glob", str(tmp_path / "in" / "*.pgm"),
               "--apply-glob", str(tmp_path / "in" / "im000.pgm"),
               "--rank", "1", "--out", str(out)])
    assert rc == 1
    assert f"output file {out / output} is a symlink that leads nowhere" in \
        capsys.readouterr().err
    assert trained == [] and [p.name for p in out.iterdir()] == [output]


@pytest.mark.parametrize("flag", ["--train-glob", "--apply-glob"])
def test_denoise_rejects_a_glob_match_that_is_not_a_file(tmp_path, capsys, monkeypatch, flag):
    """A directory that a glob matches is a rejected input: exit 1, naming
    it, before any training."""
    import proto_cil.cli as cli

    rank1_pgms(tmp_path / "ds", n=4)
    (tmp_path / "ds" / "sub.pgm").mkdir()
    trained = []
    monkeypatch.setattr(cli, "train_denoiser", lambda *args: trained.append(args))
    every, pgms = str(tmp_path / "ds" / "*.pgm"), str(tmp_path / "ds" / "im*.pgm")
    train, apply = (every, pgms) if flag == "--train-glob" else (pgms, every)
    rc = main(["denoise", "--train-glob", train, "--apply-glob", apply, "--rank", "1",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"glob match {tmp_path / 'ds' / 'sub.pgm'} is not a file" in capsys.readouterr().err
    assert trained == [] and not (tmp_path / "out").exists()


def test_denoise_trains_the_run_denoiser(tmp_path, monkeypatch):
    """For one seed, `denoise` trains bit for bit the denoiser that the run's
    CNN branch trains on the same images in the same order."""
    import proto_cil.rpca as rpca_mod

    ds = tmp_path / "ds"
    assert main(["synth", "--kind", "lowrank_speckle", "--classes", "2", "--train", "3",
                 "--test", "1", "--size", "32", "--out", str(ds)]) == 0
    real, models = rpca_mod.rpca_train, []

    def recording(*args, **kwargs):
        models.append(real(*args, **kwargs))
        return models[-1]

    monkeypatch.setattr(rpca_mod, "rpca_train", recording)
    train = str(ds / "*_train_*.pgm")
    assert main(["denoise", "--train-glob", train, "--apply-glob", train, "--epochs", "3",
                 "--seed", "5", "--out", str(tmp_path / "sparse")]) == 0
    run_scenario(RunConfig.from_dict({
        "dataset": {"manifest": str(ds / "manifest.csv")}, "schedule": [2],
        "cnn_branch": True, "ingested_branch": False, "rpca": {"enabled": True, "epochs": 3},
        "cnn_train": {"d_cnn": 8, "epochs": 0}, "projection_dim": 8, "seed": 5}))
    cli_model, run_model = models
    assert cli_model.keys() == run_model.keys() == {"A", "B"}
    assert all(np.array_equal(cli_model[k], run_model[k]) for k in cli_model)


def test_denoise_rejects_bad_rank(tmp_path):
    rank1_pgms(tmp_path / "in", n=2)
    rc = main(["denoise", "--train-glob", str(tmp_path / "in" / "*.pgm"),
               "--apply-glob", str(tmp_path / "in" / "*.pgm"),
               "--rank", "0", "--out", str(tmp_path)])
    assert rc == 1


# ---------------------------------------------------------------------------
# flag values follow the rules of the run-config keys they set

@pytest.fixture(scope="module")
def small_manifest(tmp_path_factory):
    ds = tmp_path_factory.mktemp("ds")
    assert main(["synth", "--kind", "blobs", "--classes", "2", "--train", "3", "--test", "1",
                 "--size", "32", "--out", str(ds)]) == 0
    return str(ds / "manifest.csv")


@pytest.mark.parametrize("command, flag, value", [
    ("synth", "--seed", "-1"),
    ("train-backbone", "--d-cnn", "0"),
    ("train-backbone", "--lr", "-1"),
    ("train-backbone", "--epochs", "-1"),
    ("denoise", "--lr", "0"),
    ("denoise", "--epochs", "-1"),
    ("synth", "--classes", "1"),
    ("synth", "--train", "0"),
    ("synth", "--test", "0"),
    ("synth", "--size", "0"),
    ("train-backbone", "--dropout", "1"),
])
def test_bad_flag_value_is_usage_error(tmp_path, capsys, monkeypatch, small_manifest,
                                       command, flag, value):
    import proto_cil.cnn as cnn_mod
    import proto_cil.rpca as rpca_mod

    def no_training(*args, **kwargs):
        raise AssertionError("a model trained before the flags were checked")

    monkeypatch.setattr(rpca_mod, "rpca_train", no_training)
    monkeypatch.setattr(cnn_mod, "cnn_train", no_training)
    rank1_pgms(tmp_path / "in", n=2)
    pgms = str(tmp_path / "in" / "*.pgm")
    out = tmp_path / "out"
    argv = {
        "synth": ["synth", "--kind", "blobs", "--classes", "2", "--train", "1", "--test", "1",
                  "--size", "8"],
        "train-backbone": ["train-backbone", "--manifest", small_manifest],
        "denoise": ["denoise", "--train-glob", pgms, "--apply-glob", pgms, "--rank", "1"],
    }[command]
    capsys.readouterr()
    assert main(argv + ["--out", str(out), flag, value]) == 1
    captured = capsys.readouterr()
    assert f"{flag} must be" in captured.err
    assert captured.out == ""
    assert not out.exists()


# ---------------------------------------------------------------------------
# train-backbone + extract

def test_backbone_and_extract_roundtrip(tmp_path):
    """The checkpoint is an .npz of exactly the parameters; extract reads it back."""
    ds = tmp_path / "ds"
    assert main(["synth", "--kind", "blobs", "--classes", "2", "--train", "3",
                 "--test", "2", "--size", "32", "--out", str(ds)]) == 0
    ckpt = tmp_path / "cnn.bin"
    rc = main(["train-backbone", "--manifest", str(ds / "manifest.csv"),
               "--out", str(ckpt), "--epochs", "1", "--d-cnn", "8"])
    assert rc == 0
    assert_archive_of_parameters(ckpt)
    feats = tmp_path / "feats.csv"
    rc = main(["extract", "--manifest", str(ds / "manifest.csv"), "--model", str(ckpt),
               "--split", "test", "--out", str(feats)])
    assert rc == 0
    fm = ingest_features(feats)
    assert fm.rows.shape == (4, 8)
    assert sorted(set(fm.labels)) == ["c00", "c01"]


@pytest.mark.parametrize("command, target", [
    ("extract", "manifest.csv"), ("extract", "manifest.json"), ("extract", "cnn.bin"),
    ("extract", "link"), ("train-backbone", "manifest.csv"), ("train-backbone", "manifest.json"),
])
def test_extract_and_train_backbone_refuse_to_write_over_their_inputs(tmp_path, capsys,
                                                                      monkeypatch, command,
                                                                      target):
    """An --out that is the manifest, its header, the checkpoint or a symlink
    to one of them: exit 1, naming both paths, before any image is read, with
    every input unchanged."""
    import proto_cil.datahub as datahub
    from proto_cil.cnn import cnn_init, save_cnn

    assert main(["synth", "--kind", "blobs", "--classes", "2", "--train", "1", "--test", "1",
                 "--size", "32", "--out", str(tmp_path)]) == 0
    save_cnn(cnn_init(8, seed=0, num_classes=2), tmp_path / "cnn.bin")
    (tmp_path / "link").symlink_to(tmp_path / "manifest.json")
    before = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}

    def no_reading(path):
        raise AssertionError(f"{path} read before --out was checked")

    monkeypatch.setattr(datahub, "read_pgm", no_reading)
    manifest, out = tmp_path / "manifest.csv", tmp_path / target
    argv = [command, "--manifest", str(manifest), "--out", str(out)]
    if command == "extract":
        argv += ["--model", str(tmp_path / "cnn.bin")]
    capsys.readouterr()
    assert main(argv) == 1
    named = tmp_path / ("manifest.json" if target == "link" else target)
    assert f"--out would write {out} over the input {named}" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


@pytest.mark.parametrize("case", MALFORMED_CHECKPOINTS)
def test_extract_refuses_a_malformed_checkpoint(tmp_path, capsys, monkeypatch, small_manifest,
                                                case):
    """Exit 1 naming the file, before any feature is extracted or written."""
    import proto_cil.cnn as cnn_mod

    def no_extraction(*args):
        raise AssertionError("features extracted before the checkpoint was checked")

    write, message = MALFORMED_CHECKPOINTS[case]
    ckpt, out = tmp_path / "cnn.bin", tmp_path / "feats.csv"
    write(ckpt)
    monkeypatch.setattr(cnn_mod, "cnn_extract", no_extraction)
    capsys.readouterr()
    assert main(["extract", "--manifest", small_manifest, "--model", str(ckpt),
                 "--out", str(out)]) == 1
    assert f"{ckpt}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_extract_checks_the_checkpoint_before_reading_images(tmp_path, capsys, monkeypatch,
                                                             small_manifest):
    """A malformed checkpoint beside a valid manifest exits 1 naming the
    checkpoint, and no image of the manifest is read."""
    import proto_cil.datahub as datahub

    def no_reading(path):
        raise AssertionError(f"{path} read before the checkpoint was checked")

    ckpt = tmp_path / "cnn.bin"
    ckpt.write_bytes(b"not an archive")
    monkeypatch.setattr(datahub, "read_pgm", no_reading)
    capsys.readouterr()
    assert main(["extract", "--manifest", small_manifest, "--model", str(ckpt),
                 "--out", str(tmp_path / "feats.csv")]) == 1
    assert f"{ckpt}: not a cnn checkpoint" in capsys.readouterr().err


def test_extract_of_overflowing_weights_exits_2(tmp_path, capsys, small_manifest):
    """Finite weights that overflow the float32 conv stack pass the checkpoint
    check; extraction then fails at run time and writes no CSV."""
    from proto_cil.cnn import cnn_init, save_cnn

    model = cnn_init(8, seed=0, num_classes=2)
    model["conv0_w"][:] = 1e37
    save_cnn(model, tmp_path / "cnn.bin")
    out = tmp_path / "feats.csv"
    capsys.readouterr()
    assert main(["extract", "--manifest", small_manifest, "--model", str(tmp_path / "cnn.bin"),
                 "--out", str(out)]) == 2
    assert "Divergence: feature entries must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_train_backbone_seeds_flips_from_seed(tmp_path, monkeypatch):
    import proto_cil.harness as harness

    ds = tmp_path / "ds"
    assert main(["synth", "--kind", "blobs", "--classes", "2", "--train", "3",
                 "--test", "1", "--size", "32", "--out", str(ds)]) == 0
    real, calls = harness.augment_array, []

    def recording(px, flip_seed):
        calls.append(flip_seed)
        return real(px, flip_seed)

    monkeypatch.setattr(harness, "augment_array", recording)
    rc = main(["train-backbone", "--manifest", str(ds / "manifest.csv"),
               "--out", str(tmp_path / "cnn.bin"), "--epochs", "0", "--d-cnn", "4",
               "--seed", "5"])
    assert rc == 0
    assert calls == [derive_seed(5, "augment", i) for i in range(6)]


def test_train_backbone_trains_the_run_cnn_branch(tmp_path, monkeypatch):
    """For one seed, `train-backbone` writes bit for bit the network that the
    run's CNN branch trains on the same base task."""
    import proto_cil.harness as harness
    from proto_cil.cnn import load_cnn

    ds = tmp_path / "ds"
    assert main(["synth", "--kind", "blobs", "--classes", "2", "--train", "3",
                 "--test", "1", "--size", "32", "--out", str(ds)]) == 0
    ckpt = tmp_path / "cnn.bin"
    assert main(["train-backbone", "--manifest", str(ds / "manifest.csv"), "--out", str(ckpt),
                 "--epochs", "2", "--d-cnn", "8", "--seed", "5"]) == 0
    branches, real_init = [], harness._CnnBranch.__init__

    def recording(self, *args):
        real_init(self, *args)
        branches.append(self)

    monkeypatch.setattr(harness._CnnBranch, "__init__", recording)
    harness.run_scenario(RunConfig.from_dict({
        "dataset": {"manifest": str(ds / "manifest.csv")}, "schedule": [2],
        "cnn_branch": True, "ingested_branch": False, "rpca": {"enabled": False},
        "cnn_train": {"d_cnn": 8, "epochs": 2}, "projection_dim": 8, "seed": 5}))
    saved, run = load_cnn(ckpt), branches[0].model
    assert saved.keys() == run.keys()
    for k in run:
        assert np.array_equal(saved[k], run[k]), k


@pytest.mark.parametrize("command, flags, argv", [
    ("train-backbone", {**dict.fromkeys(["d_cnn", "dropout", "epochs", "lr", "momentum",
                                         "weight_decay"], "cnn_train"), "seed": ""},
     ["--manifest", "m.csv", "--out", "cnn.bin"]),
    ("denoise", {"rank": "rpca", "epochs": "rpca", "lr": "rpca", "seed": ""},
     ["--train-glob", "*.pgm", "--apply-glob", "*.pgm", "--out", "out"]),
    ("synth", {"seed": ""}, ["--kind", "blobs", "--classes", "2", "--train", "1", "--test", "1",
                             "--size", "8", "--out", "out"]),
], ids=["train-backbone", "denoise", "synth"])
def test_flag_defaults_are_the_run_defaults(monkeypatch, command, flags, argv):
    """Each flag left out takes the run config's default of the key it sets
    (`flags` maps a flag to that key's section; "" is the top level)."""
    import proto_cil.cli as cli
    from proto_cil.harness import defaults

    seen = {}
    handler = "cmd_" + command.replace("-", "_")
    monkeypatch.setattr(cli, handler, lambda args: seen.update(vars(args)) or 0)
    assert main([command] + argv) == 0
    assert {flag: seen[flag] for flag in flags} == {
        flag: defaults(section)[flag] for flag, section in flags.items()}


def test_train_backbone_prints_fit_of_saved_checkpoint(tmp_path, capsys):
    from proto_cil.cnn import cnn_extract, load_cnn
    from proto_cil.datahub import load_dataset
    from proto_cil.features import softmax_cross_entropy
    from proto_cil.harness import prepare_images

    ds = tmp_path / "ds"
    assert main(["synth", "--kind", "blobs", "--classes", "3", "--train", "4",
                 "--test", "1", "--size", "32", "--out", str(ds)]) == 0
    ckpt = tmp_path / "cnn.bin"
    assert main(["train-backbone", "--manifest", str(ds / "manifest.csv"), "--out", str(ckpt),
                 "--epochs", "2", "--d-cnn", "8", "--seed", "3"]) == 0
    printed = re.search(r"final loss (\S+), accuracy (\S+)\)", capsys.readouterr().out)

    model = load_cnn(ckpt)
    train = [im for im in load_dataset(ds / "manifest.csv").samples if im.split == "train"]
    labels = [im.label for im in train]
    y = np.array([sorted(set(labels)).index(c) for c in labels])
    rows = cnn_extract(model, prepare_images(train, 3))  # what the CLI prints from
    logits = rows @ model["head_w"] + model["head_b"]
    assert float(printed.group(1)) == pytest.approx(softmax_cross_entropy(logits, y)[0],
                                                    rel=1e-12)
    assert float(printed.group(2)) == float((logits.argmax(axis=1) == y).mean())


# ---------------------------------------------------------------------------
# run + eval

def test_run_bundled_config(tmp_path, capsys):
    out = tmp_path / "report"
    rc = main(["run", "--config", str(CONFIG_PATH), "--out", str(out)])
    assert rc == 0
    body = json.loads((out / "metrics.json").read_text())
    assert len(body["task_accuracies"]) == 5
    assert body["avg_accuracy"] >= 95.0
    assert "tasks: 5" in capsys.readouterr().out


def test_run_missing_config_is_usage_error(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_run_invalid_json_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["run", "--config", str(bad)])
    assert rc == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_run_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = json.loads(CONFIG_PATH.read_text())
    cfg["mystery"] = True
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    rc = main(["run", "--config", str(p)])
    assert rc == 1
    assert "unknown" in capsys.readouterr().err


def test_run_bad_lambda_grid_is_usage_error(tmp_path, capsys):
    cfg = json.loads(CONFIG_PATH.read_text())
    cfg["lambda_grid"] = [0, 1]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    rc = main(["run", "--config", str(p), "--out", str(tmp_path / "report")])
    assert rc == 1
    assert "lambda_grid" in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


def run_with(tmp_path, **overrides):
    cfg = json.loads(CONFIG_PATH.read_text())
    cfg.update(overrides)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return main(["run", "--config", str(p), "--out", str(tmp_path / "report")])


def test_run_config_without_schedule_is_usage_error(tmp_path, capsys):
    cfg = json.loads(CONFIG_PATH.read_text())
    del cfg["schedule"]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "report")]) == 1
    assert "config is missing ['schedule']" in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


def test_run_bad_schedule_is_usage_error(tmp_path, capsys):
    assert run_with(tmp_path, schedule=["2", 2, 2, 2, 2]) == 1
    assert "schedule" in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


def test_run_too_few_sweep_rows_is_usage_error(tmp_path, capsys):
    rc = main(["run", "--config", str(CONFIG_PATH), "--out", str(tmp_path / "report"),
               "--portion", "0.1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "task 0 has 4 training rows" in err
    assert not (tmp_path / "report").exists()


def test_run_scenario_data_error_in_setup_is_usage_error(tmp_path, capsys):
    assert run_with(tmp_path, schedule=[2, 2]) == 1  # 10 classes, schedule sums to 4
    assert "schedule sums to 4" in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("section, value", [
    ("cnn_train", {"epoch": 1}),
    ("rpca", {"enabled": False, "rnak": 3}),
    ("dataset", {"synth": {"kind": "blobs", "num_classes": 10, "per_class_train": 20,
                           "per_class_test": 10, "image_sise": 16}}),
])
def test_run_unknown_section_key_is_usage_error(tmp_path, capsys, section, value):
    assert run_with(tmp_path, **{section: value}) == 1
    assert "unknown" in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("section, value, message", [
    ("rpca", {"enabled": True, "rank": "abc"}, "rpca.rank must be an integer >= 1"),
    ("rpca", {"enabled": "no"}, "rpca.enabled must be a bool"),
    ("cnn_train", {"dropout": 1.5}, "cnn_train.dropout must be a number in [0, 1)"),
    ("ssf", {"enabled": True, "epochs": -1}, "ssf.epochs must be an integer >= 0"),
])
def test_run_bad_section_value_is_usage_error(tmp_path, capsys, section, value, message):
    assert run_with(tmp_path, **{section: value}) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("key, value, message", [
    ("freeze_lambda", "no", "freeze_lambda must be a bool"),
    ("projection_dim", 1.5, "projection_dim must be an integer >= 1"),
    ("projection_dim", True, "projection_dim must be an integer >= 1"),
    ("seed", "a", "seed must be an integer >= 0"),
    ("seed", -1, "seed must be an integer >= 0"),
    ("class_order", 7, "class_order must be null or a list of strings"),
])
def test_run_bad_top_level_value_is_usage_error(tmp_path, capsys, key, value, message):
    assert run_with(tmp_path, **{key: value}) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


def test_run_non_string_output_dir_is_usage_error(tmp_path, capsys):
    cfg = json.loads(CONFIG_PATH.read_text())
    cfg["output_dir"] = 5
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(p)]) == 1
    assert "output_dir must be null or a nonempty string" in capsys.readouterr().err


@pytest.mark.parametrize("manifest", [0, ""])
def test_run_bad_manifest_is_usage_error(tmp_path, capsys, manifest):
    assert run_with(tmp_path, dataset={"manifest": manifest}) == 1
    assert "dataset.manifest must be a nonempty string" in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


def synth_manifest(out, header_edits):
    """A 4-class, 8 px blobs dataset written to `out`, its manifest.json
    header updated with `header_edits`; returns the manifest path."""
    assert main(["synth", "--kind", "blobs", "--classes", "4", "--train", "3", "--test", "1",
                 "--size", "8", "--out", str(out)]) == 0
    header = json.loads((out / "manifest.json").read_text())
    (out / "manifest.json").write_text(json.dumps({**header, **header_edits}))
    return str(out / "manifest.csv")


@pytest.mark.parametrize("header_edits, message", [
    ({"image_size": 8}, "image_size must be null or two integers >= 1, got 8"),
    ({"image_size": [8]}, "image_size must be null or two integers >= 1, got [8]"),
    ({"image_size": [8, 0]}, "image_size must be null or two integers >= 1, got [8, 0]"),
    ({"image_size": [8, True]}, "image_size must be null or two integers >= 1, got [8, True]"),
    ({"classes": ["c00", "c01", "c02", "c03", "c02"]}, "classes repeat ['c02']"),
    ({"classes": "c00c01c02c03"}, "classes must be a list of strings, got 'c00c01c02c03'"),
], ids=["int", "one-side", "zero-side", "bool-side", "repeated-class", "string-classes"])
def test_run_bad_manifest_header_is_usage_error(tmp_path, capsys, header_edits, message):
    manifest = synth_manifest(tmp_path / "ds", header_edits)
    assert run_with(tmp_path, dataset={"manifest": manifest}, schedule=[2, 2]) == 1
    err = capsys.readouterr().err
    assert "manifest.json" in err and message in err
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("contents, message", [
    (b"P5\n8 8\n255\n" + bytes(10), "truncated raster"),
    (b"P2\n2 1\n255\nx 0\n", "sample 'x' is not a non-negative integer"),
    (b"P2\n2 1\n255\n-1 0\n", "sample '-1' is not a non-negative integer"),
    (b"P6\n8 8\n255\n" + bytes(192), "not a PGM file (magic b'P6')"),
    (b"", "not a PGM file (magic b'')"),
    (b"P5\n8 x\n255\n" + bytes(64), "malformed PGM header"),
    (b"P5\n8 8\n", "malformed PGM header"),
    (b"P5\n0 8\n255\n", "bad PGM dimensions 0x8 maxval 255"),
    (b"P5\n8 8\n65536\n" + bytes(128), "bad PGM dimensions 8x8 maxval 65536"),
    (b"P2\n2 1\n255\n0\n", "expected 2 pixels, got 1"),
    (b"P2\n2 1\n100\n101 0\n", "pixel value exceeds maxval 100"),
], ids=["truncated-raster", "p2-letter", "p2-negative", "p6-magic", "empty", "bad-width-token",
        "no-maxval", "zero-width", "maxval-too-large", "p2-pixel-count", "above-maxval"])
def test_run_malformed_pgm_is_usage_error(tmp_path, capsys, contents, message):
    manifest = synth_manifest(tmp_path / "ds", {})
    (tmp_path / "ds" / "c00_train_0002.pgm").write_bytes(contents)  # manifest line 3
    assert run_with(tmp_path, dataset={"manifest": manifest}, schedule=[2, 2]) == 1
    err = capsys.readouterr().err
    assert "manifest.csv:3:" in err and message in err
    assert not (tmp_path / "report").exists()


BUNDLED_CLASSES = [f"c{i:02d}" for i in range(10)]  # the bundled config's synth classes


def write_feature_csv(path, classes, width=4, rows=5):
    """`rows` random feature rows of `width` columns for each of `classes`;
    five rows let a one-class task pass the lambda sweep's row check."""
    rng = np.random.default_rng(0)
    lines = ["label," + ",".join(f"f{i}" for i in range(width))]
    lines += [c + "," + ",".join(repr(float(v)) for v in rng.random(width))
              for c in classes for _ in range(rows)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_run_csv_width_mismatch_is_usage_error(tmp_path, capsys):
    source = {"kind": "csv", "train": write_feature_csv(tmp_path / "train.csv", BUNDLED_CLASSES),
              "test": write_feature_csv(tmp_path / "test.csv", BUNDLED_CLASSES, width=5)}
    assert run_with(tmp_path, ingested_source=source) == 1
    err = capsys.readouterr().err
    assert "train rows have 4 features, test rows 5" in err
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("split", ["train", "test"])
def test_run_csv_without_a_scenario_class_is_usage_error(tmp_path, capsys, split):
    source = {"kind": "csv"}
    for name in ("train", "test"):
        classes = [c for c in BUNDLED_CLASSES if name != split or c != "c02"]
        source[name] = write_feature_csv(tmp_path / f"{name}.csv", classes)
    assert run_with(tmp_path, ingested_source=source) == 1
    err = capsys.readouterr().err
    assert f"{split}.csv has no rows of scenario classes ['c02']" in err
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("case", ["config", "manifest-header", "csv-source", "symlink",
                                  "hard-link"])
def test_run_refuses_to_write_its_report_over_its_inputs(tmp_path, capsys, monkeypatch, case):
    """A report file under the output directory that is the config file, the
    manifest's header or a CSV source, by its own name or through a symlink or
    hard link: exit 1, naming both paths, before the dataset is read, with
    every file's bytes unchanged."""
    import proto_cil.harness as harness

    d, cfg = tmp_path / "d", json.loads(CONFIG_PATH.read_text())
    d.mkdir()
    config = tmp_path / "cfg.json"  # read from outside d, but for the "config" case
    if case == "config":
        config = d / "config.json"
        written, read = config, config
    elif case == "manifest-header":
        assert main(["synth", "--kind", "blobs", "--classes", "10", "--train", "20",
                     "--test", "10", "--size", "16", "--out", str(d)]) == 0
        for suffix in (".csv", ".json"):  # the manifest is metrics.csv, its header metrics.json
            (d / f"manifest{suffix}").rename(d / f"metrics{suffix}")
        cfg["dataset"] = {"manifest": str(d / "metrics.csv")}
        written, read = d / "metrics.json", d / "metrics.json"
    elif case == "csv-source":
        cfg["ingested_source"] = {
            "kind": "csv", "train": write_feature_csv(d / "accuracy_curve.csv", BUNDLED_CLASSES),
            "test": write_feature_csv(tmp_path / "test.csv", BUNDLED_CLASSES)}
        written, read = d / "accuracy_curve.csv", d / "accuracy_curve.csv"
    else:
        written, read = d / "timings.json", config
    config.write_text(json.dumps(cfg))
    if case == "symlink":
        written.symlink_to(config)
    elif case == "hard-link":
        os.link(config, written)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

    def no_reading(config):
        raise AssertionError("dataset read before the report files were checked")

    monkeypatch.setattr(harness, "_resolve_dataset", no_reading)
    assert main(["run", "--config", str(config), "--out", str(d)]) == 1
    assert f"--out would write {written} over the input {read}" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_run_csv_source_with_portion_flag_is_usage_error(tmp_path, capsys):
    source = {"kind": "csv", "train": write_feature_csv(tmp_path / "train.csv", BUNDLED_CLASSES),
              "test": write_feature_csv(tmp_path / "test.csv", BUNDLED_CLASSES)}
    cfg = {**json.loads(CONFIG_PATH.read_text()), "ingested_source": source}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "report"),
                 "--portion", "0.5"]) == 1
    assert "portion 0.5 < 1 requires ingested_source raw_pixels" in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


def test_run_csv_path_zero_is_usage_error_without_reading_stdin(tmp_path):
    # open(0) would read file descriptor 0, this process's stdin, as the training CSV
    cfg = json.loads(CONFIG_PATH.read_text())
    cfg["ingested_source"] = {"kind": "csv", "train": 0, "test": "test.csv"}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=str(CONFIG_PATH.parent.parent / "src"))
    done = subprocess.run([sys.executable, "-m", "proto_cil.cli", "run", "--config", str(p),
                           "--out", str(tmp_path / "report")], input="label,f0\nc00,1.0\n",
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1
    assert "ingested_source.train must be a nonempty string, got 0" in done.stderr
    assert not (tmp_path / "report").exists()


def test_run_missing_synth_key_is_usage_error(tmp_path, capsys):
    synth = {"kind": "blobs", "num_classes": 10, "per_class_train": 20, "per_class_test": 10}
    assert run_with(tmp_path, dataset={"synth": synth}) == 1
    assert "missing ['image_size']" in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("value", ["16", True, 2.5])
def test_run_bad_synth_value_is_usage_error(tmp_path, capsys, value):
    synth = {"kind": "blobs", "num_classes": 10, "per_class_train": 20, "per_class_test": 10,
             "image_size": value}
    assert run_with(tmp_path, dataset={"synth": synth}) == 1
    assert "dataset.synth.image_size must be an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("splits, message", [(("train", "test"), "nope.csv"),
                                             (("train",), "missing ['test']")])
def test_run_missing_csv_file_is_usage_error(tmp_path, capsys, splits, message):
    source = {"kind": "csv", **{split: str(tmp_path / "nope.csv") for split in splits}}
    assert run_with(tmp_path, ingested_source=source) == 1
    err = capsys.readouterr().err
    assert message in err
    assert not (tmp_path / "report").exists()


def test_run_bad_csv_header_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "feats.csv"
    bad.write_text("f0,f1\n1.0,2.0\n")
    assert run_with(tmp_path, ingested_source={"kind": "csv", "train": str(bad),
                                               "test": str(bad)}) == 1
    assert "header must be" in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


def test_run_cnn_on_small_images_is_usage_error(tmp_path, capsys, monkeypatch):
    import proto_cil.cnn as cnn_mod
    import proto_cil.rpca as rpca_mod

    def no_training(*args, **kwargs):
        raise AssertionError("a model trained before the config was rejected")

    monkeypatch.setattr(rpca_mod, "rpca_train", no_training)
    monkeypatch.setattr(cnn_mod, "cnn_train", no_training)
    # the bundled config's images are 16 px; the CNN branch crops 32 px
    assert run_with(tmp_path, cnn_branch=True, ingested_branch=False,
                    rpca={"enabled": True}) == 1
    assert "at least 32x32 px, got 16x16" in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("flag, value", [("--seed", "1"), ("--out", "report"),
                                         ("--portion", "0.5")])
def test_run_non_object_config_with_flag_is_usage_error(tmp_path, capsys, flag, value):
    p = tmp_path / "cfg.json"
    p.write_text("[]")
    value = str(tmp_path / value) if flag == "--out" else value
    assert main(["run", "--config", str(p), flag, value]) == 1
    assert "the config must be an object, got []" in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("num_classes, branches", [
    (4, {"schedule": [2, 1, 1]}),
    (10, {"cnn_branch": True, "fusion": None, "rpca": {"enabled": True}}),
], ids=["ingested", "cnn-rpca-ingested"])
def test_run_projection_dim_beyond_memory_is_usage_error(tmp_path, capsys, monkeypatch,
                                                         num_classes, branches):
    import proto_cil.cnn as cnn_mod
    import proto_cil.rpca as rpca_mod

    def no_training(*args, **kwargs):
        raise AssertionError("a model trained before the config was rejected")

    monkeypatch.setattr(rpca_mod, "rpca_train", no_training)
    monkeypatch.setattr(cnn_mod, "cnn_train", no_training)
    synth = {"kind": "blobs", "num_classes": num_classes,
             "per_class_train": 20, "per_class_test": 10, "image_size": 32}
    # 8 bytes * (256 + 1024) * 1e11 is far above any machine's memory
    assert run_with(tmp_path, dataset={"synth": synth}, projection_dim=10**11,
                    **branches) == 1
    err = capsys.readouterr().err
    assert "projection_dim 100000000000 needs" in err
    assert not (tmp_path / "report").exists()


# ---------------------------------------------------------------------------
# one rule for the exit code: a rejected input exits 1, any other failure 2

def manifest_with_mixed_sizes(out, size):
    """A 4-class blobs dataset of `size` px whose manifest.json declares no
    image_size, with one train image a pixel larger; returns the manifest path."""
    assert main(["synth", "--kind", "blobs", "--classes", "4", "--train", "3", "--test", "1",
                 "--size", str(size), "--out", str(out)]) == 0
    write_pgm(out / "c00_train_0002.pgm", np.full((size + 1, size + 1), 0.5))
    return str(out / "manifest.csv")


def rejection(case, tmp_path, manifest):
    """(argv, message) of one rejected input; the command would write to
    `tmp_path / "out"`. `manifest` is a 2-class, 32 px blobs dataset."""
    out = str(tmp_path / "out")
    missing = str(tmp_path / "nope.csv")
    if case == "extract-missing-manifest":
        return (["extract", "--manifest", missing, "--model", str(tmp_path / "cnn.bin"),
                 "--out", out], f"manifest not found: {missing}")
    if case == "train-backbone-missing-manifest":
        return (["train-backbone", "--manifest", missing, "--out", out],
                f"manifest not found: {missing}")
    if case == "missing-checkpoint":
        ckpt = str(tmp_path / "nope.bin")
        return (["extract", "--manifest", manifest, "--model", ckpt, "--out", out],
                f"checkpoint not found: {ckpt}")
    if case == "malformed-checkpoint":
        ckpt = tmp_path / "cnn.bin"
        ckpt.write_bytes(b'{"meta": {"kind": "cnn"}, "blocks": [["w"]]}\n')
        return (["extract", "--manifest", manifest, "--model", str(ckpt), "--out", out],
                f"{ckpt}: not a cnn checkpoint: expected an .npz archive")
    if case == "non-finite-checkpoint":
        from proto_cil.cnn import cnn_init, save_cnn

        model, ckpt = cnn_init(8, seed=0, num_classes=2), tmp_path / "cnn.bin"
        model["dense_w"][0, 0] = np.nan
        save_cnn(model, ckpt)
        return (["extract", "--manifest", manifest, "--model", str(ckpt), "--out", out],
                f"{ckpt}: cnn checkpoint has non-finite parameters: dense_w")
    if case == "non-square-denoise":
        rank1_pgms(tmp_path / "train", n=4, size=8)
        rank1_pgms(tmp_path / "apply", n=2, size=6)
        return (["denoise", "--train-glob", str(tmp_path / "train" / "*.pgm"),
                 "--apply-glob", str(tmp_path / "apply" / "*.pgm"), "--rank", "1",
                 "--out", out], "im000.pgm: expected 8x8 square image, got (6, 6)")
    cfg = json.loads(CONFIG_PATH.read_text())
    if case == "mixed-sizes-raw-pixels":
        cfg.update(dataset={"manifest": manifest_with_mixed_sizes(tmp_path / "ds", 8)},
                   schedule=[2, 2])
        message = "ingested_source raw_pixels needs images of one size, got 8x8 and 9x9"
    elif case == "mixed-sizes-rpca":
        cfg.update(dataset={"manifest": manifest_with_mixed_sizes(tmp_path / "ds", 32)},
                   schedule=[2, 2], cnn_branch=True, ingested_branch=False,
                   rpca={"enabled": True})
        message = "rpca needs images of one size, got 32x32 and 33x33"
    elif case == "oversized-rpca-rank":
        cfg.update(dataset={"manifest": manifest}, schedule=[2], cnn_branch=True,
                   ingested_branch=False, rpca={"enabled": True, "rank": 5000})
        message = "rpca.rank must be below the 1024 pixels of an image, got 5000"
    else:
        assert case == "inf-csv-cell"
        train = write_feature_csv(tmp_path / "train.csv", BUNDLED_CLASSES)
        lines = Path(train).read_text().splitlines()
        lines[2] = "c00,inf,0.5,0.5,0.5"
        Path(train).write_text("\n".join(lines) + "\n")
        cfg["ingested_source"] = {"kind": "csv", "train": train,
                                  "test": write_feature_csv(tmp_path / "test.csv",
                                                            BUNDLED_CLASSES)}
        message = "train.csv:3: non-finite cell"
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return ["run", "--config", str(p), "--out", out], message


@pytest.mark.parametrize("case", [
    "extract-missing-manifest", "train-backbone-missing-manifest", "missing-checkpoint",
    "malformed-checkpoint", "non-finite-checkpoint", "non-square-denoise",
    "mixed-sizes-raw-pixels", "mixed-sizes-rpca", "oversized-rpca-rank", "inf-csv-cell"])
def test_rejected_input_exits_1_before_any_work(tmp_path, capsys, monkeypatch, small_manifest,
                                                case):
    import proto_cil.cnn as cnn_mod
    import proto_cil.rpca as rpca_mod

    def no_training(*args, **kwargs):
        raise AssertionError("a model trained before the input was checked")

    argv, message = rejection(case, tmp_path, small_manifest)
    monkeypatch.setattr(rpca_mod, "rpca_train", no_training)
    monkeypatch.setattr(cnn_mod, "cnn_train", no_training)
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"proto-cil {argv[0]}: error: " in captured.err and message in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


LONG_FIELD = b'"' + b"x" * 200_000 + b'"'  # past the csv module's field size limit


@pytest.mark.parametrize("target, contents, message", [
    ("cfg.json", b"\xff", "is not valid JSON"),
    ("manifest.json", b"\xff", "malformed manifest header"),
    ("manifest.csv", b"path,label,split\n\xff,c00,train\n", "unreadable CSV"),
    ("manifest.csv", b"path,label,split\n" + LONG_FIELD + b",c00,train\n",
     "unreadable CSV: field larger than field limit"),
    ("train.csv", b"label,f0\n\xff,0.5\n", "unreadable CSV"),
    ("train.csv", b"label,f0\n" + LONG_FIELD + b",0.5\n",
     "unreadable CSV: field larger than field limit"),
    ("cfg.json", None, "config not found"),
    ("manifest.csv", None, "manifest not found"),
    ("manifest.json", None, "manifest header not found"),
    ("c00_train_0002.pgm", None, "image not found"),
    ("cnn.bin", None, "checkpoint not found"),
], ids=["config-not-utf8", "manifest-header-not-utf8", "manifest-not-utf8",
        "manifest-long-field", "feature-csv-not-utf8", "feature-csv-long-field",
        "config-dir", "manifest-dir", "manifest-header-dir", "image-dir", "checkpoint-dir"])
def test_unreadable_input_file_exits_1_naming_it(tmp_path, capsys, target, contents, message):
    """A text input that is not UTF-8 or that csv cannot parse, or an input
    file that is a directory (contents None), is rejected like a malformed one."""
    classes = [f"c{i:02d}" for i in range(4)]
    manifest = synth_manifest(tmp_path, {})
    cfg = {**json.loads(CONFIG_PATH.read_text()), "schedule": [2, 2],
           "dataset": {"manifest": manifest},
           "ingested_source": {"kind": "csv",
                               "train": write_feature_csv(tmp_path / "train.csv", classes),
                               "test": write_feature_csv(tmp_path / "test.csv", classes)}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    if contents is None:
        (tmp_path / target).unlink(missing_ok=True)
        (tmp_path / target).mkdir()
    else:
        (tmp_path / target).write_bytes(contents)
    argv = (["extract", "--manifest", manifest, "--model", str(tmp_path / "cnn.bin")]
            if target == "cnn.bin" else ["run", "--config", str(tmp_path / "cfg.json")])
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"proto-cil {argv[0]}: error: " in err and message in err
    assert str(tmp_path / target) in err
    assert not (tmp_path / "out").exists()


@pytest.fixture
def paths_but_no_data(tmp_path, monkeypatch):
    """`tmp_path` holding an empty file `file` and a directory `dir`; reading
    a dataset or an image fails the test."""
    import proto_cil.cli as cli
    import proto_cil.harness as harness

    def loading(*args, **kwargs):
        raise AssertionError("data loaded before the output path was checked")

    for module in (cli, harness):
        monkeypatch.setattr(module, "load_dataset", loading)
        monkeypatch.setattr(module, "synth_dataset", loading)
    monkeypatch.setattr(cli, "read_pgm", loading)
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    return tmp_path


def rejects_output(capsys, argv, path):
    """`argv` exits 1 before any work, with an error that names the output `path`."""
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"proto-cil {argv[0]}: error: output" in captured.err and str(path) in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("out", ["dir", "missing/cnn.bin", "file/cnn.bin"])
def test_train_backbone_checks_its_out_before_loading_data(paths_but_no_data, capsys, out):
    out = paths_but_no_data / out
    rejects_output(capsys, ["train-backbone", "--manifest", str(paths_but_no_data / "m.csv"),
                            "--out", str(out)], out)


@pytest.mark.parametrize("out", ["dir", "missing/f.csv"])
def test_extract_checks_its_out_before_loading_data(paths_but_no_data, capsys, out):
    out = paths_but_no_data / out
    rejects_output(capsys, ["extract", "--manifest", str(paths_but_no_data / "m.csv"),
                            "--model", str(paths_but_no_data / "cnn.bin"), "--out", str(out)],
                   out)


@pytest.mark.parametrize("out", ["file", "file/sub/deeper", "dir"])
def test_denoise_checks_its_out_before_reading_images(paths_but_no_data, capsys, out):
    """`--out` must be a directory, or be missing under one; an image's
    output (here `dir/im000.pgm`) must not be a directory."""
    rank1_pgms(paths_but_no_data / "in", n=2)
    pgms, out = str(paths_but_no_data / "in" / "*.pgm"), paths_but_no_data / out
    (paths_but_no_data / "dir" / "im000.pgm").mkdir()
    rejects_output(capsys, ["denoise", "--train-glob", pgms, "--apply-glob", pgms,
                            "--rank", "1", "--out", str(out)], out)


@pytest.mark.parametrize("source", ["--out", "output_dir"])
@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_run_checks_its_output_dir_before_loading_data(paths_but_no_data, capsys, out, source):
    """Setup checks the output directory, from the flag or the config file."""
    out, cfg = paths_but_no_data / out, paths_but_no_data / "cfg.json"
    config, argv = json.loads(CONFIG_PATH.read_text()), ["run", "--config", str(cfg)]
    if source == "--out":
        argv += ["--out", str(out)]
    else:
        config["output_dir"] = str(out)
    cfg.write_text(json.dumps(config))
    rejects_output(capsys, argv, out)


@pytest.mark.parametrize("command", ["run", "synth", "train-backbone", "extract"])
def test_a_symlink_that_leads_nowhere_is_a_rejected_out(paths_but_no_data, capsys, command):
    """`--out` a symlink to a missing path: writing through it would fail
    after the work, so it exits 1 before any."""
    out = paths_but_no_data / "link"
    out.symlink_to(paths_but_no_data / "missing" / "target")
    cfg = paths_but_no_data / "cfg.json"
    cfg.write_text(CONFIG_PATH.read_text())
    manifest, model = str(paths_but_no_data / "m.csv"), str(paths_but_no_data / "cnn.bin")
    argv = {"run": ["run", "--config", str(cfg)],
            "synth": ["synth", "--kind", "blobs", "--classes", "2", "--train", "1",
                      "--test", "1", "--size", "8"],
            "train-backbone": ["train-backbone", "--manifest", manifest],
            "extract": ["extract", "--manifest", manifest, "--model", model]}[command]
    rejects_output(capsys, argv + ["--out", str(out)], out)


def test_synth_checks_its_out_before_generating(paths_but_no_data, capsys):
    out = paths_but_no_data / "file"
    rejects_output(capsys, ["synth", "--kind", "blobs", "--classes", "2", "--train", "1",
                            "--test", "1", "--size", "8", "--out", str(out)], out)


def test_train_backbone_on_one_class_manifest_exits_1_without_a_checkpoint(tmp_path, capsys):
    rows = []
    for split in ("train", "test"):
        for i in range(2):
            write_pgm(tmp_path / f"{split}{i}.pgm", np.full((32, 32), 0.5))
            rows.append(f"{split}{i}.pgm,a,{split}")
    (tmp_path / "manifest.csv").write_text("\n".join(["path,label,split", *rows]) + "\n")
    (tmp_path / "manifest.json").write_text(json.dumps({"name": "one", "classes": ["a"]}))
    ckpt = tmp_path / "cnn.bin"
    assert main(["train-backbone", "--manifest", str(tmp_path / "manifest.csv"),
                 "--out", str(ckpt), "--epochs", "1", "--d-cnn", "8"]) == 1
    assert "base task must contain at least 2 classes" in capsys.readouterr().err
    assert not ckpt.exists()


def test_diverging_trainer_exits_2_naming_its_stage(tmp_path, capsys, small_manifest):
    cfg = {**json.loads(CONFIG_PATH.read_text()), "dataset": {"manifest": small_manifest},
           "schedule": [2], "cnn_branch": True, "ingested_branch": False,
           "cnn_train": {"d_cnn": 8, "epochs": 2, "lr": 1e30}}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    with np.errstate(all="ignore"):
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    assert ("proto-cil run: StageFailure: stage 'base-training(cnn)' failed: "
            "non-finite training loss or weights at epoch 1") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_float32_overflow_after_training_exits_2_at_base_training(tmp_path, capsys,
                                                                   small_manifest):
    """One epoch at lr 1e30 leaves finite float64 weights whose float32 conv
    forward overflows: the trainer's stage fails, not the first extraction."""
    cfg = {**json.loads(CONFIG_PATH.read_text()), "dataset": {"manifest": small_manifest},
           "schedule": [2], "cnn_branch": True, "ingested_branch": False,
           "cnn_train": {"d_cnn": 8, "epochs": 1, "lr": 1e30}}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    with np.errstate(all="ignore"):
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    assert ("proto-cil run: StageFailure: stage 'base-training(cnn)' failed: "
            "the trained weights give non-finite float32 features") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_fusion_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(CONFIG_PATH), "--fusion", "late"])
    assert exc.value.code == 1


def test_threads_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "run", "--config", str(CONFIG_PATH)])
    assert exc.value.code == 1


def test_run_seed_override_changes_fingerprint(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--config", str(CONFIG_PATH), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(CONFIG_PATH), "--out", str(out2),
                 "--seed", "99"]) == 0
    f1 = json.loads((out1 / "metrics.json").read_text())["config_fingerprint"]
    f2 = json.loads((out2 / "metrics.json").read_text())["config_fingerprint"]
    assert f1 != f2


def test_eval_prints_table(tmp_path, capsys):
    out = tmp_path / "report"
    assert main(["run", "--config", str(CONFIG_PATH), "--out", str(out)]) == 0
    capsys.readouterr()
    rc = main(["eval", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "PD" in printed and "Aavg" in printed
    assert str(out) in printed


def test_eval_unreadable_dir_is_runtime_error(tmp_path, capsys):
    rc = main(["eval", str(tmp_path / "missing")])
    assert rc == 2
    assert "cannot read report" in capsys.readouterr().err


@pytest.mark.parametrize("timings", ["{}", "{broken"])
def test_eval_reads_only_metrics_json(tmp_path, capsys, timings):
    """`eval` prints from metrics.json; timings.json is not its input."""
    d = tmp_path / "r"
    report({"task_accuracies": [100.0, 75.0], "balanced_accuracies": [100.0, 75.0],
            "eval_sizes": [4, 8], "lambdas": {"ingested": [1.0, 1.0]},
            "config_fingerprint": "f" * 64, **summary([100.0, 75.0])},
           d, RunConfig.from_dict(json.loads(CONFIG_PATH.read_text())), [0.0, 0.0])
    (d / "timings.json").write_text(timings)
    assert main(["eval", str(d)]) == 0
    printed = capsys.readouterr().out
    assert re.search(r"\|\s+100\.00 \|\s+75\.00 \|\s+25\.00 \|\s+87\.50$", printed, re.M)


STALE_REPORT = {"balanced_accuracies": [100.0, 75.0], "eval_sizes": [4, 8],
                "lambdas": {"ingested": [1.0, 1.0]}, "config_fingerprint": "f" * 64,
                "avg_accuracy": 1.0, "perf_drop": 99.0}


@pytest.mark.parametrize("stored", [STALE_REPORT, {}], ids=["stale-summary", "accuracies-only"])
def test_eval_derives_pd_and_aavg_from_task_accuracies(tmp_path, capsys, stored):
    """PD and Aavg come from `task_accuracies`, never from the stored fields,
    and a report needs no other key."""
    d = tmp_path / "r"
    d.mkdir()
    (d / "metrics.json").write_text(json.dumps({"task_accuracies": [100.0, 75.0], **stored}))
    assert main(["eval", str(d)]) == 0
    printed = capsys.readouterr().out
    assert re.search(r"\|\s+100\.00 \|\s+75\.00 \|\s+25\.00 \|\s+87\.50$", printed, re.M)


def test_eval_aligns_runs_with_fewer_tasks(tmp_path, capsys):
    """A run with fewer tasks than the longest gets blank task cells, so its
    PD and Aavg stay under their headers."""
    config = RunConfig.from_dict(json.loads(CONFIG_PATH.read_text()))
    dirs = []
    for name, accs in (("long", [100.0, 80.0, 60.0]), ("short", [100.0, 90.0])):
        n = len(accs)
        report({"task_accuracies": accs, "balanced_accuracies": accs, "eval_sizes": [4] * n,
                "lambdas": {"ingested": [1.0] * n}, "config_fingerprint": "f" * 64,
                **summary(accs)},
               tmp_path / name, config, [0.0] * n)
        dirs.append(str(tmp_path / name))
    assert main(["eval", *dirs]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len({tuple(i for i, ch in enumerate(line) if ch == "|") for line in lines}) == 1
    assert [c.strip() for c in lines[2].split("|")][1:] == ["100.00", "90.00", "", "10.00",
                                                            "95.00"]


def test_eval_corrupt_metrics_is_runtime_error(tmp_path, capsys):
    d = tmp_path / "r"
    d.mkdir()
    (d / "metrics.json").write_text("{broken")
    rc = main(["eval", str(d)])
    assert rc == 2


@pytest.mark.parametrize("accuracy", [150.0, -0.5, "97", True, None],
                         ids=["above-100", "below-0", "string", "bool", "null"])
def test_eval_rejects_accuracies_that_are_not_percentages(tmp_path, capsys, accuracy):
    """A report whose task accuracies are not all numbers in [0, 100] is
    refused like an unreadable one: exit 2, nothing on stdout."""
    d = tmp_path / "r"
    report({"task_accuracies": [100.0, 75.0], "balanced_accuracies": [100.0, 75.0],
            "eval_sizes": [4, 8], "lambdas": {"ingested": [1.0, 1.0]},
            "config_fingerprint": "f" * 64, **summary([100.0, 75.0])},
           d, RunConfig.from_dict(json.loads(CONFIG_PATH.read_text())), [0.0, 0.0])
    body = json.loads((d / "metrics.json").read_text())
    body["task_accuracies"][1] = accuracy
    (d / "metrics.json").write_text(json.dumps(body))
    assert main(["eval", str(d)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"cannot read report {d}: metrics.json is not a report" in err


@pytest.mark.parametrize("body", ["[]", '{"task_accuracies": []}'])
def test_eval_non_report_metrics_is_runtime_error(tmp_path, capsys, body):
    """A metrics.json that parses but holds no task is refused before any of
    the table reaches stdout."""
    d = tmp_path / "r"
    d.mkdir()
    (d / "metrics.json").write_text(body)
    assert main(["eval", str(d)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"cannot read report {d}: metrics.json is not a report" in err
