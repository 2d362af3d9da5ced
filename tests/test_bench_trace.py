"""Guard for the benchmark's traced run: one traced sample of each gated
workload yields a value for every per-layer metric BENCHMARK.json lists.

The tracer counts three internal calls of the package by name:
`select_lambda`'s trial `solve_prototypes` (`projector.sweep_useful_ratio`),
`run_scenario`'s `TaskSequence.eval_set` (`harness.eval_useful_ratio`) and
its `late_fuse` or `single_predict` (`fusion.predict_s`). When one of the
first two is gone, its metric reads None and the benchmark's last line holds
no result even though the run itself succeeds. When the run predicts without
`single_predict` or `late_fuse`, `fusion.predict_s` reads 0, so it must be
above 0."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PERFBENCH = REPO / "perfbench"
LISTED = [m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]]


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


metrics, workloads = _load("metrics"), _load("workloads")


@pytest.mark.parametrize("workload", ["blobs-sweep", "speckle-fusion"])
def test_traced_sample_yields_every_listed_layer_metric(tmp_path, workload):
    request = {"run_id": f"{workload}-seed1", "trace": True,
               "config": dict(workloads.WORKLOADS[workload].run_config(1),
                              output_dir=str(tmp_path / "report")),
               "spans_out": str(tmp_path / "spans.json"),
               "result_out": str(tmp_path / "result.json")}
    (tmp_path / "request.json").write_text(json.dumps(request))
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    subprocess.run([sys.executable, str(PERFBENCH / "sample.py"), "run",
                    str(tmp_path / "request.json")], cwd=REPO, env=env, check=True, timeout=300)
    assert "failure" not in json.loads((tmp_path / "result.json").read_text())
    dump = json.loads((tmp_path / "spans.json").read_text())
    values = metrics.layer_values(dump)["metrics"]
    assert [name for name in LISTED if values.get(name) is None] == []
    assert values["fusion.predict_s"] > 0
