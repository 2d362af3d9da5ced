"""The benchmark's workloads: run configs, expected output shapes, and why each exists.

Each workload's seed is a benchmark argument; it becomes the config's `seed`
(and so the synthetic data seed). Everything else is pinned here, so editing
a repository config never changes what the benchmark measures.
"""

from dataclasses import dataclass

# Copy of configs/b2inc2_blobs.json as it stood when the benchmark was added,
# minus its seed. Pinned so the benchmark input cannot drift with the config.
BLOBS_SWEEP = {
    "dataset": {"synth": {"kind": "blobs", "num_classes": 10, "per_class_train": 20,
                          "per_class_test": 10, "image_size": 16}},
    "schedule": [2, 2, 2, 2, 2],
    "ingested_branch": True,
    "cnn_branch": False,
    "fusion": "single",
    "projection_dim": 1000,
}

SPECKLE_FUSION = {
    "dataset": {"synth": {"kind": "lowrank_speckle", "num_classes": 6, "per_class_train": 20,
                          "per_class_test": 10, "image_size": 32}},
    "schedule": [2, 1, 1, 1, 1],
    "cnn_branch": True,
    "ingested_branch": True,
    "fusion": "late",
    "rpca": {"enabled": True, "rank": 2, "epochs": 50, "lr": 0.5},
    "ssf": {"enabled": True},
    "cnn_train": {"d_cnn": 64, "epochs": 3},
}

# The dataset is written to PGM files before timing and read back through a
# manifest; `dataset` is filled in with the manifest path at run time.
MSTAR_DATA = {"kind": "lowrank_speckle", "num_classes": 10, "per_class_train": 100,
              "per_class_test": 50, "image_size": 64}
MSTAR_STREAM = {
    "schedule": [2, 1, 1, 1, 1, 1, 1, 1, 1],
    "ingested_branch": True,
    "cnn_branch": False,
    "fusion": "single",
    "projection_dim": 2000,
    "freeze_lambda": True,
}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    per_class_test: int
    why: str                       # one line, with the layers it should and should not move
    manifest_data: dict = None     # write this synthetic set as PGM files first
    min_avg_accuracy: float = 0.0  # correctness floor, well above chance

    def run_config(self, seed: int, manifest: str = None) -> dict:
        cfg = dict(self.config, seed=seed)
        if self.manifest_data is not None:
            cfg["dataset"] = {"manifest": manifest}
        return cfg

    def eval_sizes(self) -> list:
        """Expected metrics.json `eval_sizes`: all seen classes' test images."""
        out, seen = [], 0
        for width in self.config["schedule"]:
            seen += width
            out.append(seen * self.per_class_test)
        return out


WORKLOADS = {w.name: w for w in (
    Workload(
        name="blobs-sweep",
        config=BLOBS_SWEEP,
        per_class_test=10,
        why="the bundled config users start from; ~88% of it is the per-task lambda sweep. "
            "Moves: projector.sweep_s -> incr_task_s, run_s. No change: cnn, rpca, ssf, pgm",
        min_avg_accuracy=80.0,
    ),
    Workload(
        name="speckle-fusion",
        config=SPECKLE_FUSION,
        per_class_test=10,
        why="the paper's full pipeline, the only one with cnn, rpca, ssf, late fusion. Moves: "
            "cnn/rpca/ssf/augment -> run_s (base_train_s), incr_task_s, peak_rss_mb",
        min_avg_accuracy=80.0,
    ),
    Workload(
        name="mstar-stream",
        config=MSTAR_STREAM,
        per_class_test=50,
        why="MSTAR-shaped 64 px set read from PGM, M=2000, lambda frozen after task 0. Moves: "
            "project/accumulate/solve/score -> incr_task_s; pgm -> setup_s. No change: sweep",
        manifest_data=MSTAR_DATA,
        min_avg_accuracy=50.0,
    ),
)}
