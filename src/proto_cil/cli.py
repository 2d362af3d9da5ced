"""Command-line entry point.

Subcommands: synth, denoise, train-backbone, extract, run, eval.
Exit codes: 0 success; 1 for a rejected flag, config or input file (an
InputError, or an argparse usage error); 2 for any other failure, such as a
run stage that diverged or an unreadable `eval` report.
"""

import argparse
import glob
import json
import sys
from pathlib import Path

import numpy as np

from . import cnn as cnn_mod
from . import rpca as rpca_mod
from .datahub import SYNTH_KINDS, file_identity, load_dataset, save_dataset, synth_dataset
from .features import FeatureMatrix, softmax_cross_entropy, write_features
from .errors import InputError
from .harness import (REPORT_FILES, RunConfig, check_key, check_output, defaults, load_report,
                      prepare_images, run_scenario, train_backbone, train_denoiser)
from .pgm import read_pgm

USAGE_EXIT = 1
RUNTIME_EXIT = 2

# subcommand -> flag (its argparse dest) -> the run-config key whose rule it obeys
FLAG_KEYS = {
    "synth": {"kind": "dataset.synth.kind", "classes": "dataset.synth.num_classes",
              "train": "dataset.synth.per_class_train", "test": "dataset.synth.per_class_test",
              "size": "dataset.synth.image_size", "seed": "seed"},
    "denoise": {"rank": "rpca.rank", "epochs": "rpca.epochs", "lr": "rpca.lr", "seed": "seed"},
    "train-backbone": {"manifest": "dataset.manifest", "epochs": "cnn_train.epochs",
                       "lr": "cnn_train.lr", "momentum": "cnn_train.momentum",
                       "weight_decay": "cnn_train.weight_decay", "d_cnn": "cnn_train.d_cnn",
                       "dropout": "cnn_train.dropout", "seed": "seed"},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_EXIT)


def _build_parser() -> _Parser:
    p = _Parser(prog="proto-cil",
                description="Class-incremental learning engine and benchmark harness "
                            "for radar-style imagery.")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic dataset on disk")
    s.add_argument("--kind", choices=SYNTH_KINDS, required=True)
    s.add_argument("--classes", type=int, required=True, help="number of classes (>= 2)")
    s.add_argument("--train", type=int, required=True, help="train samples per class")
    s.add_argument("--test", type=int, required=True, help="test samples per class")
    s.add_argument("--size", type=int, required=True, help="image side length")
    s.add_argument("--seed", type=int)
    s.add_argument("--out", required=True, help="output directory")

    s = sub.add_parser("denoise",
                       help="train the low-rank denoiser and write sparse components")
    s.add_argument("--train-glob", required=True, help="PGM files to train on")
    s.add_argument("--apply-glob", required=True, help="PGM files to filter")
    s.add_argument("--rank", type=int)
    s.add_argument("--epochs", type=int)
    s.add_argument("--lr", type=float)
    s.add_argument("--seed", type=int)
    s.add_argument("--out", required=True, help="output directory")

    s = sub.add_parser("train-backbone",
                       help="train the convnet on a dataset's train split")
    s.add_argument("--manifest", required=True)
    s.add_argument("--out", required=True, help="checkpoint path")
    s.add_argument("--epochs", type=int)
    s.add_argument("--lr", type=float)
    s.add_argument("--momentum", type=float)
    s.add_argument("--weight-decay", type=float)
    s.add_argument("--d-cnn", type=int)
    s.add_argument("--dropout", type=float)
    s.add_argument("--seed", type=int)

    s = sub.add_parser("extract",
                       help="extract features with a trained checkpoint into a CSV "
                            "(the conv stack runs in float32, so features differ from "
                            "a float64 forward at about 1e-6 relative)")
    s.add_argument("--manifest", required=True)
    s.add_argument("--model", required=True, help="checkpoint from train-backbone")
    s.add_argument("--split", choices=["train", "test"], default="train")
    s.add_argument("--out", required=True, help="feature CSV path")

    s = sub.add_parser("run", help="run a full CIL scenario")
    s.add_argument("--config", required=True, help="JSON run configuration")
    s.add_argument("--seed", type=int, help="override config seed")
    s.add_argument("--out", help="override output directory")
    s.add_argument("--portion", type=float, help="override training-data portion")

    s = sub.add_parser("eval",
                       help="print metric tables for one or more report directories")
    s.add_argument("dirs", nargs="+", help="report directories with metrics.json")
    for command, flags in FLAG_KEYS.items():  # a flag defaults to its config key's default
        for dest, path in flags.items():
            section, _, key = path.rpartition(".")
            sub.choices[command].set_defaults(**{dest: defaults(section).get(key)})
    return p


def cmd_synth(args) -> int:
    check_output(args.out, directory=True)
    ds = synth_dataset(args.kind, args.classes, args.train, args.test, args.size, args.seed)
    manifest = save_dataset(ds, args.out)
    print(f"wrote {len(ds.samples)} images and {manifest}")
    return 0


def cmd_denoise(args) -> int:
    train_paths = sorted(glob.glob(args.train_glob))
    apply_paths = sorted(glob.glob(args.apply_glob))
    if not train_paths:
        raise InputError(f"no files match --train-glob {args.train_glob!r}")
    if not apply_paths:
        raise InputError(f"no files match --apply-glob {args.apply_glob!r}")
    matches = train_paths + apply_paths
    inputs = {file_identity(p): p for p in reversed(matches)}  # a file's first match names it
    if None in inputs:
        raise InputError(f"glob match {inputs[None]} is not a file")
    check_output(args.out, directory=True)
    outputs = {}  # output name -> the first --apply-glob file of that name
    for p in apply_paths:
        if outputs.setdefault(Path(p).name, p) != p:
            raise InputError(f"--apply-glob files {outputs[Path(p).name]} and {p} share "
                             f"the output name {Path(p).name}")
    out = Path(args.out)
    for name in outputs if out.is_dir() else ():  # a missing --out holds no outputs yet
        for written in (out / name, out / f"{name}.json"):
            check_output(written, inputs=inputs)
    # every image is read and checked against the first before training
    images = {p: read_pgm(p) for p in matches}
    side = images[train_paths[0]].shape[0]
    for p, im in images.items():
        if im.shape != (side, side):
            raise InputError(f"{p}: expected {side}x{side} square image, got {im.shape}")
    flat = np.stack([images[p].ravel() for p in train_paths])
    model = train_denoiser(flat, vars(args), args.seed)  # args holds the rpca keys
    out.mkdir(parents=True, exist_ok=True)
    for p in apply_paths:
        rpca_mod.export_sparse_pgm(rpca_mod.rpca_apply(model, images[p].ravel()), side,
                                   out / Path(p).name)
    print(f"filtered {len(apply_paths)} images into {out}")
    return 0


def cmd_train_backbone(args) -> int:
    inputs = (args.manifest, Path(args.manifest).with_suffix(".json"))
    check_output(args.out, inputs={file_identity(p): p for p in inputs})
    ds = load_dataset(args.manifest)
    train = [im for im in ds.samples if im.split == "train"]
    labels = [im.label for im in train]
    imgs = prepare_images(train, args.seed)
    model = train_backbone(imgs, labels, vars(args), args.seed)  # args holds the cnn_train keys
    cnn_mod.save_cnn(model, args.out)
    # eval-mode fit of the training head on the training images
    y = np.array([sorted(set(labels)).index(c) for c in labels])
    logits = cnn_mod.cnn_extract(model, imgs) @ model["head_w"]
    logits += model["head_b"]
    loss, acc = softmax_cross_entropy(logits, y)[0], float((logits.argmax(axis=1) == y).mean())
    print(f"saved checkpoint {args.out} (final loss {loss}, accuracy {acc})")
    return 0


def cmd_extract(args) -> int:
    inputs = (args.manifest, Path(args.manifest).with_suffix(".json"), args.model)
    check_output(args.out, inputs={file_identity(p): p for p in inputs})
    if not Path(args.manifest).is_file():  # a missing manifest is named before the checkpoint
        raise InputError(f"manifest not found: {args.manifest}")
    model = cnn_mod.load_cnn(args.model)  # before load_dataset reads every image
    ds = load_dataset(args.manifest)
    samples = [im for im in ds.samples if im.split == args.split]
    imgs = prepare_images(samples, None)
    fm = FeatureMatrix(rows=cnn_mod.cnn_extract(model, imgs),
                       labels=[im.label for im in samples])
    write_features(fm, args.out)
    print(f"wrote {fm.rows.shape[0]}x{fm.dim} features to {args.out}")
    return 0


def cmd_run(args) -> int:
    cfg_path = Path(args.config)
    if not cfg_path.is_file():
        raise InputError(f"config not found: {cfg_path}")
    try:
        raw = json.loads(cfg_path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"config {cfg_path} is not valid JSON: {exc}") from exc
    overrides = {"seed": args.seed, "output_dir": args.out, "portion": args.portion}
    if type(raw) is dict:  # anything else is rejected by from_dict
        raw.update((key, value) for key, value in overrides.items() if value is not None)
    config = RunConfig.from_dict(raw)
    out = config.output_dir and Path(config.output_dir)  # run_scenario checks the files it reads
    for name in REPORT_FILES if out and out.is_dir() else ():  # none may be the config
        check_output(out / name, inputs={file_identity(cfg_path): cfg_path})
    metrics = run_scenario(config)
    print(f"tasks: {len(metrics['task_accuracies'])}  "
          f"avg accuracy: {metrics['avg_accuracy']:.2f}  perf drop: {metrics['perf_drop']:.2f}")
    if config.output_dir:
        print(f"report written to {config.output_dir}")
    return 0


def cmd_eval(args) -> int:
    reports = []
    for d in args.dirs:
        try:
            reports.append((d, load_report(d)))
        except (OSError, ValueError) as exc:  # ValueError: bad JSON too
            print(f"cannot read report {d}: {exc}", file=sys.stderr)
            return RUNTIME_EXIT
    width = max(len(str(d)) for d, _ in reports)
    ntasks = max(len(m["task_accuracies"]) for _, m in reports)
    header = " | ".join(f"{t:>6d}" for t in range(ntasks))
    print(f"{'run':<{width}} | {header} |     PD |   Aavg")
    for d, m in reports:
        # a run with fewer tasks gets blank cells, so PD and Aavg stay in their columns
        cells = " | ".join([f"{a:6.2f}" for a in m["task_accuracies"]]
                           + [" " * 6] * (ntasks - len(m["task_accuracies"])))
        print(f"{str(d):<{width}} | {cells} | {m['perf_drop']:6.2f} | {m['avg_accuracy']:6.2f}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "synth": cmd_synth,
        "denoise": cmd_denoise,
        "train-backbone": cmd_train_backbone,
        "extract": cmd_extract,
        "run": cmd_run,
        "eval": cmd_eval,
    }
    try:
        for dest, path in FLAG_KEYS.get(args.command, {}).items():
            check_key(path, getattr(args, dest), "--" + dest.replace("_", "-"))
        return handlers[args.command](args)
    except InputError as exc:
        print(f"proto-cil {args.command}: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except Exception as exc:  # runtime failures map to exit 2
        print(f"proto-cil {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
