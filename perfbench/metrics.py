"""Metric definitions, and per-layer metrics derived from one traced sample's spans.

`listed: True` marks the metrics listed in BENCHMARK.json and printed on the
benchmark's last JSON line. The others are printed in the report and kept in
result.json: accuracy and failure share (deterministic per seed; output
changes are caught by the metrics.json fingerprint check), `base_train_s`
(about 15 ms on blobs-sweep, too short to hold a bound on a shared 2-core
host; `run_s` covers it), and per-layer times of layers that not every
listed workload runs.
"""

from collections import defaultdict

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "listed": True},
    {"name": "run_s", "unit": "s", "better": "lower", "listed": True},
    {"name": "base_train_s", "unit": "s", "better": "lower", "listed": False},
    {"name": "incr_task_s", "unit": "s", "better": "lower", "listed": True},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "listed": True},
    {"name": "avg_accuracy", "unit": "%", "better": "higher", "listed": False},
    {"name": "final_accuracy", "unit": "%", "better": "higher", "listed": False},
    {"name": "failed_share", "unit": "share", "better": "lower", "listed": False},
]


def _layer(name, unit, moves, listed=True):
    """Work done, time and bytes are better lower; useful ratios and rates higher."""
    better = "higher" if unit in ("ratio", "1/s") else "lower"
    return {"name": name, "unit": unit, "better": better, "moves": moves, "listed": listed}


SETUP_MSTAR = "setup_s on mstar-stream"
BASE_SPECKLE = "base_train_s on speckle-fusion"
INCR_SPECKLE = "incr_task_s on speckle-fusion"
INCR_MSTAR = "incr_task_s on mstar-stream"
SWEEP = "incr_task_s, run_s on blobs-sweep and speckle-fusion"

PER_LAYER = [
    _layer("pgm.read_calls", "count", SETUP_MSTAR),
    _layer("pgm.read_s", "s", SETUP_MSTAR, listed=False),
    _layer("pgm.bytes_read", "bytes", SETUP_MSTAR),
    _layer("datahub.dataset_s", "s", "setup_s, base_train_s on mstar-stream"),
    _layer("datahub.augment_calls", "count", "base_train_s, incr_task_s on speckle-fusion"),
    _layer("datahub.augment_s", "s", "base_train_s, incr_task_s on speckle-fusion",
           listed=False),
    _layer("rpca.train_s", "s", BASE_SPECKLE, listed=False),
    _layer("rpca.apply_calls", "count", INCR_SPECKLE),
    _layer("rpca.apply_s", "s", INCR_SPECKLE, listed=False),
    _layer("cnn.train_s", "s", "base_train_s, peak_rss_mb on speckle-fusion", listed=False),
    _layer("cnn.train_steps", "count", "base_train_s, peak_rss_mb on speckle-fusion"),
    _layer("cnn.step_s", "s", "base_train_s, peak_rss_mb on speckle-fusion (per step)",
           listed=False),
    _layer("cnn.train_other_s", "s", "base_train_s, peak_rss_mb on speckle-fusion",
           listed=False),
    _layer("cnn.extract_s", "s", INCR_SPECKLE, listed=False),
    _layer("cnn.extract_imgs", "count", INCR_SPECKLE),
    _layer("cnn.extract_imgs_per_s", "1/s", INCR_SPECKLE, listed=False),
    _layer("ssf.train_s", "s", BASE_SPECKLE, listed=False),
    _layer("ssf.apply_s", "s", INCR_SPECKLE, listed=False),
    _layer("projector.sweep_s", "s", SWEEP),
    _layer("projector.sweep_factorizations", "count", SWEEP),
    _layer("projector.sweep_useful_ratio", "ratio", SWEEP),
    _layer("projector.project_s", "s", INCR_MSTAR),
    _layer("projector.project_rows", "count", INCR_MSTAR),
    _layer("projector.project_gflop", "GFLOP", INCR_MSTAR),
    _layer("projector.accumulate_s", "s", INCR_MSTAR),
    _layer("projector.accumulate_rows", "count", INCR_MSTAR),
    _layer("projector.solve_s", "s", INCR_MSTAR),
    _layer("projector.solve_calls", "count", INCR_MSTAR),
    _layer("projector.score_s", "s", INCR_MSTAR),
    _layer("fusion.predict_s", "s", "incr_task_s on every workload"),
    _layer("harness.eval_useful_ratio", "ratio",
           "incr_task_s on speckle-fusion and mstar-stream"),
    _layer("harness.metrics_s", "s", "run_s on every workload"),
    _layer("harness.report_s", "s", "run_s on every workload"),
    _layer("harness.report_bytes", "bytes", "run_s on every workload"),
    _layer("harness.self_s", "s", "run_s on every workload"),
]


def layer_values(dump: dict) -> dict:
    """Per-layer metrics of one traced sample, from its spans.

    A span's self time is its duration minus its direct children's durations
    (calls are sequential, so children never overlap). Accumulate and solve
    count only calls outside the lambda sweep; the sweep's own trial
    accumulate and factorisations are part of `projector.sweep_s`.
    """
    spans = dump["spans"]
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(float)
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        if s["parent"] is not None:
            children[s["parent"]] += s["dur"]

    def parent(s):
        return by_id[s["parent"]]["name"] if s["parent"] is not None else None

    def pick(name, inside_sweep=None):
        return [s for s in spans if s["name"] == name and (
            inside_sweep is None or (parent(s) == "projector.sweep") == inside_sweep)]

    def total(ss):
        return sum(s["dur"] for s in ss)

    def self_time(ss):
        return sum(s["dur"] - children[s["id"]] for s in ss)

    def attr(ss, key):
        return sum(s["attrs"].get(key, 0) for s in ss)

    def ratio(a, b):
        return a / b if b else None

    steps, extract = pick("cnn.step"), pick("cnn.extract")
    sweeps, factorizations = pick("projector.sweep"), pick("projector.solve", True)
    project = pick("projector.project")
    accumulate, solve = pick("projector.accumulate", False), pick("projector.solve", False)
    counters = dump["counters"]
    m = {
        "pgm.read_calls": len(pick("pgm.read")),
        "pgm.read_s": total(pick("pgm.read")),
        "pgm.bytes_read": attr(pick("pgm.read"), "bytes"),
        "datahub.dataset_s": total(pick("datahub.dataset")),
        "datahub.augment_calls": len(pick("datahub.augment")),
        "datahub.augment_s": total(pick("datahub.augment")),
        "rpca.train_s": total(pick("rpca.train")),
        "rpca.apply_calls": len(pick("rpca.apply")),
        "rpca.apply_s": total(pick("rpca.apply")),
        "cnn.train_s": total(pick("cnn.train")),
        "cnn.train_steps": len(steps),
        "cnn.step_s": ratio(total(steps), len(steps)),
        "cnn.train_other_s": self_time(pick("cnn.train")),
        "cnn.extract_s": total(extract),
        "cnn.extract_imgs": attr(extract, "imgs"),
        "cnn.extract_imgs_per_s": ratio(attr(extract, "imgs"), total(extract)),
        "ssf.train_s": total(pick("ssf.train")),
        "ssf.apply_s": total(pick("ssf.apply")),
        "projector.sweep_s": total(sweeps),
        "projector.sweep_factorizations": len(factorizations),
        "projector.sweep_useful_ratio": ratio(len(sweeps), len(factorizations)),
        "projector.project_s": total(project),
        "projector.project_rows": attr(project, "rows"),
        "projector.project_gflop": attr(project, "flop") / 1e9,
        "projector.accumulate_s": total(accumulate),
        "projector.accumulate_rows": attr(accumulate, "rows"),
        "projector.solve_s": total(solve),
        "projector.solve_calls": len(solve),
        "projector.score_s": total(pick("projector.score")),
        "fusion.predict_s": total(pick("fusion.predict")),
        "harness.eval_useful_ratio": ratio(counters.get("eval_distinct", 0),
                                           counters.get("eval_images", 0)),
        "harness.metrics_s": total(pick("harness.metrics")),
        "harness.report_s": total(pick("harness.report")),
        "harness.report_bytes": attr(pick("harness.report"), "bytes"),
        "harness.self_s": self_time(pick("harness.run")),
    }
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for s in spans:
        row = table[s["name"]]
        row["calls"] += 1
        row["total_s"] += s["dur"]
        row["self_s"] += s["dur"] - children[s["id"]]
    return {"metrics": m, "spans": dict(table), "patched": dump["patched"]}
