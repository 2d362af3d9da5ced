import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)
END_TO_END = json.loads(bench_record.BENCHMARK.read_text())["end_to_end"]


def fake_result(workload, run_s, sha, trace=0, seed=1):
    e2e = {m["name"]: {"median": 1.0, "n": 3} for m in END_TO_END}
    e2e["run_s"] = {"median": run_s, "n": 3, "tail_pct": 50.0, "tail": run_s}
    return {"workload": workload, "seed": seed, "trace": trace, "seconds": 45.0,
            "env": {"nproc": 2}, "end_to_end": e2e,
            "accounting": {"attempted": 3, "failed": 0, "correct": True,
                           "output_fingerprint": {"metrics_sha256": sha}}}


def write(tmp_path, name, result):
    path = tmp_path / name
    path.write_text(json.dumps(result))
    return str(path)


def pair_args(tmp_path, runs):
    """`--pair` arguments for (parent result, change result) pairs."""
    args = []
    for i, (p, c) in enumerate(runs):
        args += ["--pair", write(tmp_path, f"p{i}.json", p), write(tmp_path, f"c{i}.json", c)]
    return args


def record_of(tmp_path, runs) -> dict:
    """The workloads of the record the tool writes for `runs`."""
    out = tmp_path / "BENCH.json"
    assert bench_record.main(pair_args(tmp_path, runs) + ["--out", str(out)]) == 0
    return json.loads(out.read_text())["workloads"]


def test_record_keeps_medians_env_and_sha_per_workload(tmp_path):
    runs = [(fake_result("speckle-fusion", p, "aa"), fake_result("speckle-fusion", c, "aa"))
            for p, c in [(10.0, 6.0), (12.0, 5.0), (11.0, 7.0)]]
    runs[1][1]["accounting"]["failed"] = 1
    w = record_of(tmp_path, runs)["speckle-fusion"]
    assert w["seed"] == 1 and w["pairs"] == 3
    assert w["metrics"]["run_s"]["parent"] == [10.0, 12.0, 11.0]
    assert w["metrics"]["run_s"]["change"] == [6.0, 5.0, 7.0]
    assert w["metrics"]["run_s"]["change_over_parent"] == pytest.approx(6.0 / 11.0)
    assert w["change"]["attempted"] == [3, 3, 3] and w["change"]["failed"] == [0, 1, 0]
    assert w["change"]["seconds"] == [45.0] * 3 and w["change"]["correct"] == [True] * 3
    assert w["parent"]["metrics_sha256"] == w["change"]["metrics_sha256"] == ["aa"]
    assert w["metrics_identical"]
    assert w["change"]["env"] == [{"nproc": 2}]
    # a change run that wrote other bytes is kept beside the first sha
    runs[2][1]["accounting"]["output_fingerprint"]["metrics_sha256"] = "bb"
    w = record_of(tmp_path, runs)["speckle-fusion"]
    assert w["change"]["metrics_sha256"] == ["aa", "bb"] and not w["metrics_identical"]


@pytest.mark.parametrize("parent, change", [
    (fake_result("blobs-sweep", 1.0, "a"), fake_result("speckle-fusion", 1.0, "a")),
    (fake_result("blobs-sweep", 1.0, "a", trace=1), fake_result("blobs-sweep", 1.0, "a")),
])
def test_record_rejects_unmatched_or_traced_results(tmp_path, capsys, parent, change):
    args = pair_args(tmp_path, [(parent, change)] * 2) + ["--out", str(tmp_path / "B.json")]
    assert bench_record.main(args) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "B.json").exists()


def test_record_needs_two_pairs_per_workload_and_seed(tmp_path, capsys):
    run = fake_result("blobs-sweep", 1.0, "a")
    args = pair_args(tmp_path, [(run, run)]) + ["--out", str(tmp_path / "B.json")]
    assert bench_record.main(args) == 1
    assert "blobs-sweep: one pair; quartiles need at least two" in capsys.readouterr().err
    assert not (tmp_path / "B.json").exists()


def test_record_marks_the_workloads_the_benchmark_gates(tmp_path):
    runs = [(fake_result(n, 2.0, "a"), fake_result(n, 1.0, "a"))
            for n in ("blobs-sweep", "mstar-stream") for _ in range(2)]
    workloads = record_of(tmp_path, runs)
    assert workloads["blobs-sweep"]["gated"] and not workloads["mstar-stream"]["gated"]


PARENT_RUNS = [2.0, 2.2, 1.8, 2.1, 1.9, 2.0, 2.2, 1.8, 2.1, 1.9]  # interquartile range 0.2


@pytest.mark.parametrize("change_runs, gain", [
    ([1.0] * 9 + [3.0], True),                    # nine wins of ten, far below the parent
    ([1.0] * 8 + [3.0, 3.0], False),              # eight wins are too few
    ([p - 0.01 for p in PARENT_RUNS], False),     # every pair won, within the parent's spread
    ([1.0] * 3, False),                           # every pair won by half, but only 3 pairs
])
def test_pairs_count_wins_and_claim_a_gain_only_past_the_parent_spread(
        tmp_path, change_runs, gain):
    parent_runs = PARENT_RUNS[:len(change_runs)]
    runs = [(fake_result("speckle-fusion", p, "a"), fake_result("speckle-fusion", c, "a"))
            for p, c in zip(parent_runs, change_runs)]
    w = record_of(tmp_path, runs)["speckle-fusion"]
    run_s = w["metrics"]["run_s"]
    assert w["pairs"] == len(change_runs) and run_s["parent"] == parent_runs
    assert run_s["change_wins"] == sum(c < p for p, c in zip(parent_runs, change_runs))
    assert run_s["gain"] is gain


@pytest.mark.parametrize("parent_failed, gain", [(0, False), (2, True)])
def test_a_gain_does_not_count_when_the_change_fails_a_larger_share(
        tmp_path, parent_failed, gain):
    """Ten pairs at half the parent's run_s, with 2 of 3 samples failed in
    every change run: a gain only when the parent failed as large a share."""
    runs = [(fake_result("speckle-fusion", p, "a"), fake_result("speckle-fusion", p / 2, "a"))
            for p in PARENT_RUNS]
    for p, c in runs:
        p["accounting"]["failed"], c["accounting"]["failed"] = parent_failed, 2
    run_s = record_of(tmp_path, runs)["speckle-fusion"]["metrics"]["run_s"]
    assert run_s["change_wins"] == 10 and run_s["gain"] is gain


def test_pairs_at_a_held_out_seed_are_summarized_apart(tmp_path):
    """Pairs of one workload at two seeds are never pooled: each seed gets its
    own summary, named by seed; a workload run at one seed keeps its name."""
    cases = [("speckle-fusion", 1, 2.0, 1.0)] * 3 + [("speckle-fusion", 2, 4.0, 3.0)] * 2
    cases += [("blobs-sweep", 1, 0.1, 0.1)] * 2
    runs = [(fake_result(workload, p, "a", seed=seed), fake_result(workload, c, "a", seed=seed))
            for workload, seed, p, c in cases]
    workloads = record_of(tmp_path, runs)
    assert sorted(workloads) == ["blobs-sweep", "speckle-fusion seed 1", "speckle-fusion seed 2"]
    assert [workloads[k]["seed"] for k in sorted(workloads)] == [1, 1, 2]
    assert workloads["speckle-fusion seed 2"]["metrics"]["run_s"]["parent"] == [4.0, 4.0]
    assert workloads["speckle-fusion seed 1"]["pairs"] == 3


def test_pairs_set_the_workload_ratio_and_its_printed_line(tmp_path, capsys):
    """A workload's ratio is that of the two sides' medians of their run
    medians, and one line per workload prints its wins, ratio and gain."""
    runs = [(fake_result("blobs-sweep", p, "a"), fake_result("blobs-sweep", c, "a"))
            for p, c in [(2.0, 1.0), (1.0, 1.1), (1.2, 1.2), (0.9, 1.0), (1.1, 1.3)]]
    w = record_of(tmp_path, runs)["blobs-sweep"]
    assert w["metrics"]["run_s"]["change_over_parent"] == pytest.approx(1.1 / 1.1)
    assert "ratio_of" not in w
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("blobs-sweep: ")
    assert "run_s 1/5 x1.000 gain=False regressed=False unresolved=False" in lines[0]
    assert lines[0].endswith("metrics identical: True")


@pytest.mark.parametrize("parent_runs, change_runs, regressed, unresolved", [
    ([1.0] * 3, [1.25] * 3, True, False),  # 25 % slower, past run_s's 0.24 bound
    ([1.0] * 3, [1.2] * 3, False, False),  # 20 % slower, within it
    # a parent spread of 30 %, past the bound: unresolved unless every change
    # run beats every parent run
    ([0.7, 1.0, 1.3], [1.0] * 3, False, True),
    ([0.7, 1.0, 1.3], [0.6] * 3, False, False),
    ([0.7, 1.0, 1.3], [0.6, 0.6, 0.8], False, True),
], ids=["1.25-True", "1.2-False", "wide-spread", "wide-spread-all-better",
        "wide-spread-not-all-better"])
def test_a_median_worse_than_its_bound_is_flagged_as_regressed(
        tmp_path, parent_runs, change_runs, regressed, unresolved):
    """Each metric's bound and direction come from BENCHMARK.json. A parent
    spread wider than the bound leaves the metric unresolved."""
    assert {m["name"]: (m["better"], m["bound"]) for m in END_TO_END}["run_s"] == \
        ("lower", 0.24)
    runs = [(fake_result("blobs-sweep", p, "a"), fake_result("blobs-sweep", c, "a"))
            for p, c in zip(parent_runs, change_runs)]
    metrics = record_of(tmp_path, runs)["blobs-sweep"]["metrics"]
    assert metrics["run_s"]["regressed"] is regressed
    assert metrics["run_s"]["unresolved"] is unresolved
    assert not any(metrics[m]["regressed"] or metrics[m]["unresolved"]
                   for m in metrics if m != "run_s")


def test_a_higher_is_better_metric_regresses_when_it_falls():
    """A metric's `better` direction sets what wins and what worsens."""
    pairs = [(fake_result("blobs-sweep", 1.0, "a"), fake_result("blobs-sweep", 0.85, "a"))] * 2

    def run_s(bound):
        metric = {"name": "run_s", "better": "higher", "bound": bound}
        return bench_record.record(pairs, [metric])["workloads"]["blobs-sweep"]["metrics"]["run_s"]

    assert run_s(0.1)["regressed"] and run_s(0.1)["change_wins"] == 0
    assert not run_s(0.2)["regressed"]
