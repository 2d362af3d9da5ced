import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def fake_result(workload, run_s, sha, trace=0):
    e2e = {m: {"median": 1.0, "n": 3} for m in bench_record.METRICS}
    e2e["run_s"] = {"median": run_s, "n": 3, "tail_pct": 50.0, "tail": run_s}
    return {"workload": workload, "seed": 1, "trace": trace, "seconds": 45.0,
            "env": {"nproc": 2}, "end_to_end": e2e,
            "accounting": {"attempted": 3, "failed": 0, "correct": True,
                           "output_fingerprint": {"metrics_sha256": sha}}}


def write(tmp_path, name, result):
    path = tmp_path / name
    path.write_text(json.dumps(result))
    return str(path)


def test_record_keeps_medians_env_and_sha_per_workload(tmp_path):
    parent = write(tmp_path, "p.json", fake_result("speckle-fusion", 10.0, "aa"))
    change = write(tmp_path, "c.json", fake_result("speckle-fusion", 6.0, "aa"))
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--parent", parent, "--change", change, "--out", str(out)]) == 0
    w = json.loads(out.read_text())["workloads"]["speckle-fusion"]
    assert w["parent"]["run_s"] == {"median": 10.0, "n": 3}
    assert w["change"]["metrics_sha256"] == "aa" and w["metrics_identical"]
    assert w["change"]["env"] == {"nproc": 2}
    assert w["change_over_parent"]["run_s"] == pytest.approx(0.6)


@pytest.mark.parametrize("parent, change", [
    (fake_result("blobs-sweep", 1.0, "a"), fake_result("speckle-fusion", 1.0, "a")),
    (fake_result("blobs-sweep", 1.0, "a", trace=1), fake_result("blobs-sweep", 1.0, "a")),
])
def test_record_rejects_unmatched_or_traced_results(tmp_path, capsys, parent, change):
    args = ["--parent", write(tmp_path, "p.json", parent),
            "--change", write(tmp_path, "c.json", change), "--out", str(tmp_path / "B.json")]
    assert bench_record.main(args) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "B.json").exists()
