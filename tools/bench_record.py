"""Turn perfbench results of a parent and a changed checkout into one
committed benchmark record.

    python3 tools/bench_record.py --parent P/.perfbench-out/*-trace0/result.json \
        --change .perfbench-out/*-trace0/result.json --out BENCH_<n>.json

Each `result.json` is what `perfbench/run.py --trace 0` writes for one
workload. Per workload the record keeps, for the parent and the change: the
median and sample count of each end-to-end metric, the sample and failure
counts, the environment stamp and the `metrics.json` sha256; the
change/parent ratio of each median; and whether `BENCHMARK.json` gates the
workload.

`--pair PARENT CHANGE`, repeated, adds runs made in alternating order (see
the choosing-metrics rule for small sandboxes). Per workload and metric the
record keeps each side's run medians and quartiles, the pairs the change won
(ties count for neither side), the ratio of the two sides' medians of their
run medians, and `gain`: the change won at least nine tenths of the pairs and
its median run beats the parent's by more than the parent's interquartile
range. Pairs of one workload at several seeds, a held-out seed beside the
claimed one, are summarized per seed, under the key `<workload> seed <n>`; a
workload with one seed keeps its plain name. A workload with pairs at the
seed of its `--parent`/`--change` runs takes its ratios from the pairs, not
from that single run, and the pair wins are printed first.
"""

import argparse
import json
import statistics
import sys
from collections import Counter
from pathlib import Path

METRICS = ("setup_s", "run_s", "incr_task_s", "peak_rss_mb")  # lower is better
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def summarize(result: dict) -> dict:
    e2e, acc = result["end_to_end"], result["accounting"]
    fingerprint = acc["output_fingerprint"] or {}
    return {
        **{m: {"median": e2e[m]["median"], "n": e2e[m]["n"]} for m in METRICS if m in e2e},
        "attempted": acc["attempted"],
        "failed": acc["failed"],
        "correct": acc["correct"],
        "metrics_sha256": fingerprint.get("metrics_sha256"),
        "env": result["env"],
    }


def load(paths) -> dict:
    """workload name -> result, refusing traced runs and duplicate workloads."""
    out = {}
    for path in paths:
        result = json.loads(Path(path).read_text())
        name = result["workload"]
        if result["trace"]:
            raise ValueError(f"{path}: a --trace 1 result; end-to-end medians need --trace 0")
        if name in out:
            raise ValueError(f"{path}: second result for workload {name!r}")
        out[name] = result
    return out


def pair_summary(pairs) -> dict:
    """workload (and seed, if it has several) -> metric -> both sides' run
    medians, quartiles, wins and gain."""
    by_run = {}
    for p, c in pairs:
        if p["workload"] != c["workload"] or p["seed"] != c["seed"]:
            raise ValueError(f"pair of {p['workload']} seed {p['seed']} and "
                             f"{c['workload']} seed {c['seed']}")
        by_run.setdefault((p["workload"], p["seed"]), []).append((p, c))
    seeds = Counter(workload for workload, _ in by_run)
    out = {}
    for (workload, seed), runs in sorted(by_run.items()):
        name = workload if seeds[workload] == 1 else f"{workload} seed {seed}"
        metrics = {}
        for m in METRICS:
            before = [p["end_to_end"][m]["median"] for p, _ in runs]
            after = [c["end_to_end"][m]["median"] for _, c in runs]
            q = {side: statistics.quantiles(v, n=4, method="inclusive")  # needs 2 pairs
                 for side, v in (("parent", before), ("change", after))}
            wins = sum(a < b for a, b in zip(after, before))
            metrics[m] = {
                "parent": before, "change": after,
                "parent_quartiles": q["parent"], "change_quartiles": q["change"],
                "change_wins": wins,
                "change_over_parent": statistics.median(after) / statistics.median(before),
                "gain": wins >= 0.9 * len(runs)
                and q["parent"][1] - q["change"][1] > q["parent"][2] - q["parent"][0],
            }
        out[name] = {"seed": seed, "pairs": len(runs), "metrics": metrics}
    return out


def record(parent: dict, change: dict, pairs=(), gated=()) -> dict:
    if parent.keys() != change.keys():
        raise ValueError(f"parent workloads {sorted(parent)} differ from change "
                         f"workloads {sorted(change)}")
    paired = pair_summary(pairs)
    workloads = {}
    for name in sorted(parent):
        p, c = parent[name], change[name]
        if p["seed"] != c["seed"]:
            raise ValueError(f"{name}: parent seed {p['seed']} differs from change seed {c['seed']}")
        before, after = summarize(p), summarize(c)
        runs = paired.get(name, paired.get(f"{name} seed {p['seed']}"))
        if runs is not None and runs["seed"] == p["seed"]:
            ratio_of = f"medians of the {runs['pairs']} pairs' run medians"
            ratios = {m: v["change_over_parent"] for m, v in runs["metrics"].items()}
        else:
            ratio_of = "the single --parent and --change runs"
            ratios = {m: after[m]["median"] / before[m]["median"]
                      for m in METRICS if m in before and m in after}
        workloads[name] = {
            "seed": p["seed"],
            "seconds": {"parent": p["seconds"], "change": c["seconds"]},
            "parent": before,
            "change": after,
            "change_over_parent": ratios,
            "ratio_of": ratio_of,
            "metrics_identical": before["metrics_sha256"] == after["metrics_sha256"],
            "gated": name in gated,
        }
    out = {"command": "python3 perfbench/run.py --workload <name> --seed <seed> "
                      "--seconds <seconds> --trace 0",
           "statistic": "median over samples; n is the sample count "
                        "(incr_task_s pools tasks t >= 1 of every sample)",
           "workloads": workloads}
    if pairs:
        out["pairs"] = paired
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", nargs="+", required=True, help="parent result.json files")
    ap.add_argument("--change", nargs="+", required=True, help="change result.json files")
    ap.add_argument("--pair", nargs=2, action="append", default=[],
                    metavar=("PARENT", "CHANGE"), help="one alternating pair of result.json")
    ap.add_argument("--out", required=True, help="record to write, e.g. BENCH_<n>.json")
    args = ap.parse_args(argv)
    try:
        pairs = [tuple(load([path]).popitem()[1] for path in pair) for pair in args.pair]
        gated = {w["name"] for w in json.loads(BENCHMARK.read_text())["workloads"]}
        rec = record(load(args.parent), load(args.change), pairs, gated)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    Path(args.out).write_text(json.dumps(rec, indent=1) + "\n")
    for name, w in rec.get("pairs", {}).items():
        wins = "  ".join(f"{m} {v['change_wins']}/{w['pairs']} gain={v['gain']}"
                         for m, v in w["metrics"].items())
        print(f"{name} pairs: {wins}")
    for name, w in rec["workloads"].items():
        ratios = "  ".join(f"{m} x{r:.3f}" for m, r in w["change_over_parent"].items())
        print(f"{name}: {ratios} (of {w['ratio_of']})  "
              f"metrics identical: {w['metrics_identical']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
