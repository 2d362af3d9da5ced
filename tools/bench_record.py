"""Turn alternating perfbench runs of a parent and a changed checkout into one
committed benchmark record.

    python3 tools/bench_record.py \
        --pair P1/.perfbench-out/*-trace0/result.json C1/.perfbench-out/*-trace0/result.json \
        --pair P2/... C2/... --out BENCH_<n>.json

Each `result.json` is what `perfbench/run.py --trace 0` writes for one
workload, and each `--pair PARENT CHANGE` is one parent run and one change run
of the same workload at the same seed, made in alternating order (see the
choosing-metrics rule for small sandboxes). At least two pairs are needed per
workload and seed.

Runs of one workload at several seeds, a held-out seed beside the claimed one,
are summarized per seed, under the key `<workload> seed <n>`; a workload with
one seed keeps its plain name. Each record keeps, from its pairs alone: the
seed; for each side, every run's seconds, sample and failure counts and
correctness, and the distinct environment stamps and `metrics.json` sha256s;
per end-to-end metric that `BENCHMARK.json` lists, each side's run medians and
quartiles, the pairs the change won (ties count for neither side), the ratio
of the two sides' medians of their run medians, `gain`: there are at least
ten pairs, the change won at least nine tenths of them, its median run
beats the parent's by more than the parent's interquartile range, and its
share of failed samples (summed over its runs) is no higher than the parent's,
`regressed`: the change's median is worse than the parent's by more than the
metric's `bound`, a fraction of the parent's median, and `unresolved`: the
parent's interquartile range is wider than that bound, a fraction of the
parent's median, and not every change run beats every parent run, so an
unchanged median shows nothing; then `metrics_identical`
(every run of both sides wrote the same `metrics.json`) and whether
`BENCHMARK.json` gates the workload. A metric's `better` direction ("lower" or
"higher") sets what wins and worsens.
"""

import argparse
import json
import statistics
import sys
from collections import Counter
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
GAIN_PAIRS = 10  # fewest pairs a gain may be claimed from


def load(path) -> dict:
    """One result, refusing a traced run."""
    result = json.loads(Path(path).read_text())
    if result["trace"]:
        raise ValueError(f"{path}: a --trace 1 result; end-to-end medians need --trace 0")
    return result


def _distinct(values) -> list:
    """`values` without repeats, in first-seen order (they may be dicts)."""
    out = []
    for v in values:
        if v not in out:
            out.append(v)
    return out


def side(runs) -> dict:
    """What one side's runs did, run by run."""
    acc = [r["accounting"] for r in runs]
    return {
        "seconds": [r["seconds"] for r in runs],
        "attempted": [a["attempted"] for a in acc],
        "failed": [a["failed"] for a in acc],
        "correct": [a["correct"] for a in acc],
        "metrics_sha256": _distinct((a["output_fingerprint"] or {}).get("metrics_sha256")
                                    for a in acc),
        "env": _distinct(r["env"] for r in runs),
    }


def record(pairs, end_to_end, gated=()) -> dict:
    """`end_to_end`: BENCHMARK.json's metric entries, each with its `name`,
    `better` direction and `bound`."""
    by_run = {}
    for p, c in pairs:
        if p["workload"] != c["workload"] or p["seed"] != c["seed"]:
            raise ValueError(f"pair of {p['workload']} seed {p['seed']} and "
                             f"{c['workload']} seed {c['seed']}")
        by_run.setdefault((p["workload"], p["seed"]), []).append((p, c))
    seeds = Counter(workload for workload, _ in by_run)
    workloads = {}
    for (workload, seed), runs in sorted(by_run.items()):
        name = workload if seeds[workload] == 1 else f"{workload} seed {seed}"
        if len(runs) < 2:
            raise ValueError(f"{name}: one pair; quartiles need at least two")
        parent, change = side([p for p, _ in runs]), side([c for _, c in runs])
        # the change's failed share <= the parent's, cross-multiplied: a side may attempt 0
        fails_no_more = (sum(change["failed"]) * sum(parent["attempted"])
                         <= sum(parent["failed"]) * sum(change["attempted"]))
        metrics = {}
        for m in end_to_end:
            key, sign = m["name"], 1 if m["better"] == "lower" else -1  # sign * x: lower wins
            before = [p["end_to_end"][key]["median"] for p, _ in runs]
            after = [c["end_to_end"][key]["median"] for _, c in runs]
            q = {s: statistics.quantiles(v, n=4, method="inclusive")
                 for s, v in (("parent", before), ("change", after))}
            wins = sum(sign * a < sign * b for a, b in zip(after, before))
            ratio = statistics.median(after) / statistics.median(before)
            iqr = q["parent"][2] - q["parent"][0]
            every_run_better = max(sign * a for a in after) < min(sign * b for b in before)
            metrics[key] = {
                "parent": before, "change": after,
                "parent_quartiles": q["parent"], "change_quartiles": q["change"],
                "change_wins": wins,
                "change_over_parent": ratio,
                "gain": len(runs) >= GAIN_PAIRS and wins >= 0.9 * len(runs)
                and sign * (q["parent"][1] - q["change"][1]) > iqr and fails_no_more,
                "regressed": sign * (ratio - 1) > m["bound"],
                "unresolved": iqr / statistics.median(before) > m["bound"]
                and not every_run_better,
            }
        shas = parent["metrics_sha256"] + change["metrics_sha256"]
        workloads[name] = {
            "seed": seed,
            "pairs": len(runs),
            "parent": parent,
            "change": change,
            "metrics": metrics,
            "metrics_identical": len(set(shas)) == 1 and None not in shas,
            "gated": workload in gated,
        }
    return {"command": "python3 perfbench/run.py --workload <name> --seed <seed> "
                       "--seconds <seconds> --trace 0",
            "statistic": "per run, the median over its samples (incr_task_s pools tasks "
                         "t >= 1 of every sample); per side, those run medians in pair order",
            "workloads": workloads}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pair", nargs=2, action="append", required=True,
                    metavar=("PARENT", "CHANGE"), help="one alternating pair of result.json")
    ap.add_argument("--out", required=True, help="record to write, e.g. BENCH_<n>.json")
    args = ap.parse_args(argv)
    try:
        pairs = [(load(p), load(c)) for p, c in args.pair]
        bench = json.loads(BENCHMARK.read_text())
        rec = record(pairs, bench["end_to_end"], {w["name"] for w in bench["workloads"]})
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    Path(args.out).write_text(json.dumps(rec, indent=1) + "\n")
    for name, w in rec["workloads"].items():
        wins = "  ".join(f"{m} {v['change_wins']}/{w['pairs']} x{v['change_over_parent']:.3f} "
                         f"gain={v['gain']} regressed={v['regressed']} "
                         f"unresolved={v['unresolved']}"
                         for m, v in w["metrics"].items())
        print(f"{name}: {wins}  metrics identical: {w['metrics_identical']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
