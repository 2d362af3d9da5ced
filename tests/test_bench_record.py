import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def fake_result(workload, run_s, sha, trace=0, seed=1):
    e2e = {m: {"median": 1.0, "n": 3} for m in bench_record.METRICS}
    e2e["run_s"] = {"median": run_s, "n": 3, "tail_pct": 50.0, "tail": run_s}
    return {"workload": workload, "seed": seed, "trace": trace, "seconds": 45.0,
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


def test_record_marks_the_workloads_the_benchmark_gates(tmp_path):
    names, out = ("blobs-sweep", "mstar-stream"), tmp_path / "BENCH.json"
    parents = [write(tmp_path, f"p-{n}.json", fake_result(n, 2.0, "a")) for n in names]
    changes = [write(tmp_path, f"c-{n}.json", fake_result(n, 1.0, "a")) for n in names]
    assert bench_record.main(["--parent", *parents, "--change", *changes,
                              "--out", str(out)]) == 0
    workloads = json.loads(out.read_text())["workloads"]
    assert workloads["blobs-sweep"]["gated"] and not workloads["mstar-stream"]["gated"]


PARENT_RUNS = [2.0, 2.2, 1.8, 2.1, 1.9, 2.0, 2.2, 1.8, 2.1, 1.9]  # interquartile range 0.2


@pytest.mark.parametrize("change_runs, gain", [
    ([1.0] * 9 + [3.0], True),                    # nine wins of ten, far below the parent
    ([1.0] * 8 + [3.0, 3.0], False),              # eight wins are too few
    ([p - 0.01 for p in PARENT_RUNS], False),     # every pair won, within the parent's spread
])
def test_pairs_count_wins_and_claim_a_gain_only_past_the_parent_spread(
        tmp_path, change_runs, gain):
    parent_runs = PARENT_RUNS
    args = ["--parent", write(tmp_path, "p.json", fake_result("speckle-fusion", 2.0, "a")),
            "--change", write(tmp_path, "c.json", fake_result("speckle-fusion", 1.0, "a")),
            "--out", str(tmp_path / "BENCH.json")]
    for i, (p, c) in enumerate(zip(parent_runs, change_runs)):
        args += ["--pair", write(tmp_path, f"p{i}.json", fake_result("speckle-fusion", p, "a")),
                 write(tmp_path, f"c{i}.json", fake_result("speckle-fusion", c, "a"))]
    assert bench_record.main(args) == 0
    pairs = json.loads((tmp_path / "BENCH.json").read_text())["pairs"]["speckle-fusion"]
    run_s = pairs["metrics"]["run_s"]
    assert pairs["pairs"] == 10 and run_s["parent"] == parent_runs
    assert run_s["change_wins"] == sum(c < p for p, c in zip(parent_runs, change_runs))
    assert run_s["gain"] is gain


def test_pairs_at_a_held_out_seed_are_summarized_apart(tmp_path):
    """Pairs of one workload at two seeds are never pooled: each seed gets its
    own summary, named by seed; a workload run at one seed keeps its name."""
    args = ["--parent", write(tmp_path, "p.json", fake_result("speckle-fusion", 2.0, "a")),
            "--change", write(tmp_path, "c.json", fake_result("speckle-fusion", 1.0, "a")),
            "--out", str(tmp_path / "BENCH.json")]
    runs = [("speckle-fusion", 1, 2.0, 1.0)] * 3 + [("speckle-fusion", 2, 4.0, 3.0)] * 2
    runs += [("blobs-sweep", 1, 0.1, 0.1)] * 2
    for i, (workload, seed, p, c) in enumerate(runs):
        args += ["--pair", write(tmp_path, f"p{i}.json", fake_result(workload, p, "a", seed=seed)),
                 write(tmp_path, f"c{i}.json", fake_result(workload, c, "a", seed=seed))]
    assert bench_record.main(args) == 0
    pairs = json.loads((tmp_path / "BENCH.json").read_text())["pairs"]
    assert sorted(pairs) == ["blobs-sweep", "speckle-fusion seed 1", "speckle-fusion seed 2"]
    assert [pairs[k]["seed"] for k in sorted(pairs)] == [1, 1, 2]
    assert pairs["speckle-fusion seed 2"]["metrics"]["run_s"]["parent"] == [4.0, 4.0]
    assert pairs["speckle-fusion seed 1"]["pairs"] == 3


def test_pairs_at_the_run_seed_set_the_workload_ratio_and_print_first(tmp_path, capsys):
    """The single --parent/--change run (here an outlier, x0.5) does not set the
    ratio of a workload paired at its seed: the medians of the pairs' run
    medians do, and the pair wins are printed before it."""
    args = ["--parent", write(tmp_path, "p.json", fake_result("blobs-sweep", 2.0, "a")),
            "--change", write(tmp_path, "c.json", fake_result("blobs-sweep", 1.0, "a")),
            "--out", str(tmp_path / "BENCH.json")]
    runs = [(2.0, 1.0), (1.0, 1.1), (1.2, 1.2), (0.9, 1.0), (1.1, 1.3)]
    for i, (p, c) in enumerate(runs):
        args += ["--pair", write(tmp_path, f"p{i}.json", fake_result("blobs-sweep", p, "a")),
                 write(tmp_path, f"c{i}.json", fake_result("blobs-sweep", c, "a"))]
    assert bench_record.main(args) == 0
    w = json.loads((tmp_path / "BENCH.json").read_text())["workloads"]["blobs-sweep"]
    assert w["change_over_parent"]["run_s"] == pytest.approx(1.1 / 1.1)
    assert w["ratio_of"] == "medians of the 5 pairs' run medians"
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("blobs-sweep pairs: ") and "run_s 1/5" in lines[0]
    assert lines[1].startswith("blobs-sweep: ") and "run_s x1.000" in lines[1]
    # a workload paired only at another seed keeps the ratio of its single run
    args = args[:6]
    other_seed = fake_result("blobs-sweep", 1.0, "a", seed=2)
    for i in range(2):
        args += ["--pair", write(tmp_path, f"p{i}.json", other_seed),
                 write(tmp_path, f"c{i}.json", other_seed)]
    assert bench_record.main(args) == 0
    w = json.loads((tmp_path / "BENCH.json").read_text())["workloads"]["blobs-sweep"]
    assert w["change_over_parent"]["run_s"] == pytest.approx(0.5)
    assert w["ratio_of"] == "the single --parent and --change runs"
