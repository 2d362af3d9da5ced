"""proto-cil benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload blobs-sweep --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 1

Run from the root of a source checkout; the program is imported from its
`src/`. Each sample is one fresh process doing set-up plus one
`run_scenario` (see sample.py). Samples run one after another, a closed
loop of one client, until `--seconds` have passed and at least
MIN_SAMPLES have run. Every output is checked (see `check_sample`).

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates traced
and untraced samples: traced ones give the per-layer metrics, and the
difference of the two `run_s` medians is the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`. The full
result (samples, environment, output fingerprint, failures) is written to
`.perfbench-out/<workload>-seed<seed>-trace<t>/result.json`, and traced
samples' spans beside it.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER, layer_values  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_SAMPLES = 3
DEADLINE_S = 160.0   # start no sample that could end past this
LAMBDA_GRID = [10.0 ** k for k in range(-8, 9)]   # proto_cil's default grid


def blas_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# ---------------------------------------------------------------------------
# samples

def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = str(blas_threads())
    env.pop("PROTO_CIL_THREADS", None)
    return env


def run_child(root: Path, mode: str, request: dict, path: Path, timeout: float) -> str:
    """Run sample.py in a fresh process; returns '' or the error it died with."""
    path.write_text(json.dumps(request))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "sample.py"), mode, str(path)],
                              cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return tail[0]
    return ""


def run_workload(root: Path, out: Path, workload, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Run samples of one workload for `seconds`; returns the raw samples."""
    begin = time.perf_counter()
    manifest = None
    if workload.manifest_data is not None:
        data_dir = out / "data"
        err = run_child(root, "write-dataset",
                        {"seed": seed, "data": workload.manifest_data,
                         "out_dir": str(data_dir)},
                        out / "write-dataset.json", DEADLINE_S)
        if err:
            raise SystemExit(f"could not write the {workload.name} dataset: {err}")
        manifest = str(data_dir / "manifest.csv")
    config = workload.run_config(seed, manifest)

    samples, last = [], 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        if len(samples) >= MIN_SAMPLES and time.perf_counter() - start >= seconds:
            break
        if elapsed + last > DEADLINE_S:
            break
        k = len(samples)
        traced = trace and k % 2 == 0
        run_id = f"{workload.name}-seed{seed}-{k}"
        req = {"run_id": run_id, "trace": traced,
               "config": dict(config, output_dir=str(out / f"report-{k}")),
               "spans_out": str(out / f"spans-{k}.json"),
               "result_out": str(out / f"sample-{k}.json")}
        t0 = time.perf_counter()
        err = run_child(root, "run", req, out / f"request-{k}.json",
                        max(1.0, DEADLINE_S + 15 - elapsed))
        last = time.perf_counter() - t0
        if err:
            sample = {"run_id": run_id, "traced": traced,
                      "failure": {"stage": "benchmark-process", "cause": err}}
        else:
            sample = json.loads((out / f"sample-{k}.json").read_text())
            if traced:
                sample["layers"] = layer_values(
                    json.loads((out / f"spans-{k}.json").read_text()))
        samples.append(sample)
    if manifest is not None:
        shutil.rmtree(out / "data", ignore_errors=True)
    return {"config": config, "samples": samples,
            "measured_s": time.perf_counter() - start}


# ---------------------------------------------------------------------------
# checks

def check_sample(root: Path, workload, sample: dict) -> list:
    """Problems with one completed sample's outputs; empty when correct."""
    problems = []
    m = sample["metrics"]
    n_tasks = len(workload.config["schedule"])
    src = (root / "src").resolve()
    if Path(sample["proto_cil_file"]).resolve().parent.parent != src:
        problems.append(f"proto_cil imported from {sample['proto_cil_file']}, not {src}")
    if m["eval_sizes"] != workload.eval_sizes():
        problems.append(f"eval_sizes {m['eval_sizes']} != {workload.eval_sizes()}")
    accs = m["task_accuracies"]
    if len(accs) != n_tasks or not all(0.0 <= a <= 100.0 for a in accs):
        problems.append(f"task_accuracies {accs} malformed")
    elif not (math.isclose(m["avg_accuracy"], sum(accs) / n_tasks, abs_tol=1e-9)
              and m["final_accuracy"] == accs[-1] and m["base_accuracy"] == accs[0]):
        problems.append("avg/base/final accuracy disagree with task_accuracies")
    elif m["avg_accuracy"] < workload.min_avg_accuracy:
        problems.append(f"avg_accuracy {m['avg_accuracy']:.2f} below the "
                        f"{workload.min_avg_accuracy} floor")
    branches = (["cnn"] if workload.config.get("cnn_branch") else []) + \
        (["ingested"] if workload.config.get("ingested_branch", True) else [])
    if sorted(m["lambdas"]) != sorted(branches):
        problems.append(f"lambda branches {sorted(m['lambdas'])} != {sorted(branches)}")
    for name, picks in m["lambdas"].items():
        if len(picks) != n_tasks or not all(
                any(math.isclose(p, g, rel_tol=1e-12) for g in LAMBDA_GRID) for p in picks):
            problems.append(f"{name} lambda picks {picks} not one per task from the grid")
        elif workload.config.get("freeze_lambda") and len(set(picks)) != 1:
            problems.append(f"{name} lambda picks {picks} not frozen after task 0")
    if m["config_fingerprint"] != sample["config_fingerprint"]:
        problems.append("metrics.json config_fingerprint does not match the config")
    secs = sample["per_task_seconds"]
    if len(secs) != n_tasks or not all(s > 0 for s in secs):
        problems.append(f"timings.json per_task_seconds {secs} malformed")
    if sample["config_threads"] != 1:
        problems.append(f"config threads is {sample['config_threads']}, not the default 1")
    return problems


def account(root: Path, workload, samples: list) -> dict:
    """Failure accounting: a sample fails if it raised, or if its metrics.json
    differs from the majority of the other samples (same seed, same code)."""
    done = [s for s in samples if "failure" not in s]
    shas = Counter(s["metrics_sha256"] for s in done)
    majority = shas.most_common(1)[0][0] if shas else None
    for s in done:
        if s["metrics_sha256"] != majority:
            s["failure"] = {"stage": "output-mismatch",
                            "cause": f"metrics.json sha256 {s['metrics_sha256'][:12]} != "
                                     f"{majority[:12]} of the other samples"}
    problems = sorted({p for s in samples if "failure" not in s
                       for p in check_sample(root, workload, s)})
    failed = [s for s in samples if "failure" in s]
    stages = Counter(s["failure"]["stage"] for s in failed)
    good = [s for s in samples if "failure" not in s]
    fingerprint = None
    if good:
        m = good[0]["metrics"]
        fingerprint = {"metrics_sha256": majority, "lambdas": m["lambdas"],
                       "avg_accuracy": m["avg_accuracy"],
                       "final_accuracy": m["final_accuracy"]}
    return {
        "correct": bool(good) and not problems,
        "problems": problems,
        "attempted": len(samples),
        "failed": len(failed),
        "failed_share": len(failed) / len(samples),
        "failures": [{"run_id": s["run_id"], **s["failure"]} for s in failed],
        "failure_stages": dict(stages),
        "output_fingerprint": fingerprint,
    }


# ---------------------------------------------------------------------------
# metrics

def summary(values: list) -> dict:
    """Median, and the highest percentile with at least ten samples above it."""
    vals = sorted(values)
    out = {"n": len(vals), "median": statistics.median(vals) if vals else None}
    if len(vals) >= 11:
        out["tail_pct"] = round(100.0 * (len(vals) - 10) / len(vals), 1)
        out["tail"] = vals[len(vals) - 11]
    return out


def end_to_end(samples: list, accounting: dict) -> dict:
    """name -> summary, from the untraced samples."""
    plain = [s for s in samples if not s.get("traced")]
    done = [s for s in plain if "failure" not in s]
    series = defaultdict(list)
    for s in plain:
        if "setup_s" in s:
            series["setup_s"].append(s["setup_s"])
    for s in done:
        series["run_s"].append(s["run_s"])
        series["base_train_s"].append(s["run_s"] - sum(s["per_task_seconds"]))
        series["incr_task_s"].extend(s["per_task_seconds"][1:])
        series["peak_rss_mb"].append(s["peak_rss_mb"])
    out = {name: summary(vals) for name, vals in series.items() if vals}
    fp = accounting["output_fingerprint"]
    if fp is not None:
        out["avg_accuracy"] = {"n": len(done), "median": fp["avg_accuracy"]}
        out["final_accuracy"] = {"n": len(done), "median": fp["final_accuracy"]}
    out["failed_share"] = {"n": accounting["attempted"], "median": accounting["failed_share"]}
    return out


def per_layer(samples: list) -> dict:
    """name -> summary over traced samples, plus each span's calls/total/self."""
    traced = [s for s in samples if s.get("traced") and "layers" in s]
    metrics = defaultdict(list)
    spans = defaultdict(lambda: defaultdict(list))
    for s in traced:
        for name, value in s["layers"]["metrics"].items():
            if value is not None:
                metrics[name].append(value)
        for name, row in s["layers"]["spans"].items():
            for key, value in row.items():
                spans[name][key].append(value)
    return {
        "metrics": {name: summary(vals) for name, vals in metrics.items()},
        "spans": {name: {k: statistics.median(v) for k, v in row.items()}
                  for name, row in sorted(spans.items())},
        "patched": traced[0]["layers"]["patched"] if traced else {},
    }


def tracing_overhead(samples: list) -> dict:
    def med(traced):
        vals = [s["run_s"] for s in samples
                if bool(s.get("traced")) == traced and "failure" not in s]
        return (statistics.median(vals), len(vals)) if vals else (None, 0)

    (t_med, t_n), (u_med, u_n) = med(True), med(False)
    return {"traced_run_s": t_med, "traced_n": t_n, "untraced_run_s": u_med,
            "untraced_n": u_n,
            "overhead_s": None if t_med is None or u_med is None else t_med - u_med}


# ---------------------------------------------------------------------------
# report

def env_stamp(samples: list) -> dict:
    child = next((s for s in samples if "env" in s), {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": child.get("env", {}).get("numpy"),
        "scipy": child.get("env", {}).get("scipy"),
        "openblas": child.get("env", {}).get("blas"),
        "blas_threads_env": blas_threads(),
        "config_threads": child.get("config_threads"),
        "config_threads_note": "RunConfig.threads left at its default",
    }


def fmt(value, unit="") -> str:
    if value is None:
        return "missing"
    if isinstance(value, float):
        return f"{value:.6g} {unit}".rstrip()
    return f"{value} {unit}".rstrip()


def print_report(name: str, result: dict, trace: bool) -> None:
    acc = result["accounting"]
    print(f"== {name}  seed={result['seed']}  samples={acc['attempted']}  "
          f"failed={acc['failed']}  correct={acc['correct']}  "
          f"measured {result['measured_s']:.1f} s")
    for p in acc["problems"]:
        print(f"   CHECK FAILED: {p}")
    for stage, n in acc["failure_stages"].items():
        cause = next(f["cause"] for f in acc["failures"] if f["stage"] == stage)
        print(f"   failed at {stage}: {n} of {acc['attempted']} runs; {cause}")
    fp = acc["output_fingerprint"]
    if fp:
        print(f"   metrics.json sha256 {fp['metrics_sha256']}")
        print(f"   lambda picks {json.dumps(fp['lambdas'])}")
    if not trace:
        for spec in END_TO_END:
            s = result["end_to_end"].get(spec["name"])
            if s is None:
                print(f"   {spec['name']:<16} missing")
                continue
            tail = (f"  p{s['tail_pct']:g} {fmt(s['tail'], spec['unit'])}"
                    if "tail" in s else "")
            print(f"   {spec['name']:<16} {fmt(s['median'], spec['unit']):<18} "
                  f"median of n={s['n']}{tail}")
        return
    ov = result["tracing_overhead"]
    print(f"   tracing overhead {fmt(ov['overhead_s'], 's')} (traced run_s median "
          f"{fmt(ov['traced_run_s'], 's')} n={ov['traced_n']}, untraced "
          f"{fmt(ov['untraced_run_s'], 's')} n={ov['untraced_n']})")
    layers = result["per_layer"]
    for spec in PER_LAYER:
        s = layers["metrics"].get(spec["name"])
        value = None if s is None else s["median"]
        print(f"   {spec['name']:<30} {fmt(value, spec['unit']):<22} -> {spec['moves']}")
    print("   span                      calls   total_s    self_s   (median per traced run)")
    for span, row in layers["spans"].items():
        print(f"   {span:<24} {row['calls']:>7g} {row['total_s']:>9.4f} {row['self_s']:>9.4f}")


def result_line(results: dict, trace: bool) -> dict:
    """The last stdout line: the metrics listed in BENCHMARK.json, by name with unit."""
    specs = [m for m in (PER_LAYER if trace else END_TO_END) if m["listed"]]
    metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else f"{name}/"
        table = result["per_layer"]["metrics"] if trace else result["end_to_end"]
        for spec in specs:
            s = table.get(spec["name"])
            if s is not None and s["median"] is not None:
                metrics[prefix + spec["name"]] = {"value": s["median"], "unit": spec["unit"]}
    accs = [r["accounting"] for r in results.values()]
    return {"correct": all(a["correct"] for a in accs),
            "attempted": sum(a["attempted"] for a in accs),
            "failed": sum(a["failed"] for a in accs),
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "proto_cil" / "harness.py").is_file():
        print(f"error: {root} holds no proto_cil source tree (src/proto_cil); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    results = {}
    for name in names:
        workload = WORKLOADS[name]
        out = root / ".perfbench-out" / f"{name}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        raw = run_workload(root, out, workload, args.seed, args.seconds, trace)
        accounting = account(root, workload, raw["samples"])
        result = {"workload": name, "why": workload.why, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "measured_s": raw["measured_s"],
                  "config": raw["config"], "env": env_stamp(raw["samples"]),
                  "accounting": accounting,
                  "end_to_end": end_to_end(raw["samples"], accounting)}
        if trace:
            result["per_layer"] = per_layer(raw["samples"])
            result["tracing_overhead"] = tracing_overhead(raw["samples"])
        result["samples"] = raw["samples"]
        (out / "result.json").write_text(json.dumps(result, indent=1) + "\n")
        print_report(name, result, trace)
        results[name] = result
    env = next(iter(results.values()))["env"]
    print(f"env: nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} "
          f"BLAS threads={env['blas_threads_env']} "
          f"openblas={json.dumps(env['openblas'])} "
          f"config threads={env['config_threads']} (default)")
    print(json.dumps(result_line(results, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
