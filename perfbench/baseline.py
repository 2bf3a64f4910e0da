"""Record the benchmark's baseline: two sets of seeded runs of every
workload, then one traced run each.

    python3 perfbench/baseline.py      # writes perfbench/baseline.json

Every run is `run.py` in its own process, one after another: ten seeds per
set, seeds 1-10 and then 11-20, and the traced run on seed 1.  For each set
and end-to-end metric the output holds the median, quartiles, run count and
spread, the spread being (q3 - q1) / median as
`statistics.quantiles(values, n=4)` gives the quartiles, and for each metric
the change of the second set's median from the first as a share of the
first, beside the metric's bound.  For each workload it holds the traced
per-layer medians, each time metric's share of the traced pass, and the
dominant layer next to the predicted one.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED_SETS = (range(1, 11), range(11, 21))

# Where each layer metric should move wall_s and cpu_s ("moves", with the
# predicted share of the pass) and where it should not ("still").  Shares are
# the predictions written down before this benchmark existed; the measured
# ones are stored beside them.
PREDICTIONS = {
    "linalg.exact_rank.s": {"moves": {"certify-exact": 0.86}, "still": ["certify-prime", "verify"]},
    "linalg.modp_rank.s": {"moves": {"certify-prime": 0.92}, "still": ["certify-exact", "verify", "witness"]},
    "linalg.dedupe.s": {"moves": {"certify-exact": 0.08, "certify-prime": 0.01}, "still": ["verify"]},
    "tangent.assembly.self_s": {
        "moves": {"certify-exact": 0.04, "certify-prime": 0.04},
        "still": ["verify", "witness"],
    },
    "tangent.tuples.s": {"moves": {"witness": 0.98}, "still": ["certify-exact", "certify-prime", "verify"]},
    "tangent.tuples.translation_s": {"moves": {"witness": None}, "still": ["certify-exact", "certify-prime", "verify"]},
    "tangent.indep_rank.s": {"moves": {"witness": None}, "still": ["certify-exact", "certify-prime", "verify"]},
    "borderbasis.specialize.s": {"moves": {"verify": 0.70}, "still": ["certify-exact", "certify-prime"]},
    "borderbasis.symcheck.s": {"moves": {"verify": 0.16}, "still": ["certify-exact", "certify-prime", "witness"]},
    "modification.build.s": {"moves": {"verify": 0.04}, "still": ["certify-exact", "certify-prime", "witness"]},
    "borderbasis.spcheck.s": {"moves": {"verify": None, "certify-exact": None, "certify-prime": None}, "still": ["witness"]},
    "borderbasis.powers.s": {"moves": {}, "still": ["certify-exact", "certify-prime", "verify", "witness"]},
    "orderideal.build.s": {"moves": {}, "still": ["certify-exact", "certify-prime", "verify", "witness"]},
    "certify.self_s": {"moves": {}, "still": ["certify-exact", "certify-prime", "verify", "witness"]},
}
PREDICTED_DOMINANT = {
    "certify-exact": "linalg.exact_rank.s",
    "certify-prime": "linalg.modp_rank.s",
    "verify": "borderbasis.specialize.s",
    "witness": "tangent.tuples.s",
}
# Time metrics whose spans do not nest inside one another within a pass; the
# dominant layer is the largest of these.  translation_s lies inside tuples.s
# and indep_rank.s covers dedupe and exact_rank on witness.
DISJOINT = [m for m in PREDICTIONS if m not in ("tangent.tuples.translation_s", "tangent.indep_rank.s")]


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(workload, seed, trace, {k: round(v["value"], 5) for k, v in result["metrics"].items()
                                  if trace == 0 or k.startswith("trace.")},
          "failed", result["failed"], "of", result["attempted"], flush=True)
    return result


def stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "runs": len(values), "spread": (q3 - q1) / med}


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    seconds = contract["run_seconds"]
    out = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "arch": platform.machine(),
        },
        "run_seconds": seconds,
        "seed_sets": [[seeds[0], seeds[-1]] for seeds in SEED_SETS],
        "workloads": {},
    }
    for w in contract["workloads"]:
        name = w["name"]
        sets = [[bench(name, seed, seconds, 0) for seed in seeds] for seeds in SEED_SETS]
        traced = bench(name, SEED_SETS[0][0], seconds, 1)["metrics"]
        layers = {k: v["value"] for k, v in traced.items()}
        wall = layers["trace.wall_s"]
        shares = {m: layers[m] / wall for m in PREDICTIONS}
        end_to_end = {}
        for m in contract["end_to_end"]:
            per_set = [stats([r["metrics"][m["name"]]["value"] for r in runs]) for runs in sets]
            first, second = per_set[0]["median"], per_set[1]["median"]
            end_to_end[m["name"]] = {
                "sets": per_set,
                "median_change": (second - first) / first,
                "bound": m["bound"],
            }
        out["workloads"][name] = {
            "attempted": sum(r["attempted"] for runs in sets for r in runs),
            "failed": sum(r["failed"] for runs in sets for r in runs),
            "end_to_end": end_to_end,
            "traced": layers,
            "shares": shares,
            "dominant": max(DISJOINT, key=shares.get),
            "predicted_dominant": PREDICTED_DOMINANT.get(name),
        }
    out["predictions"] = {
        metric: dict(pred, measured={n: w["shares"][metric] for n, w in out["workloads"].items()})
        for metric, pred in PREDICTIONS.items()
    }
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for name, w in out["workloads"].items():
        print(name, "failed", w["failed"], "dominant", w["dominant"])
        for metric, e in w["end_to_end"].items():
            spreads = [round(st["spread"], 4) for st in e["sets"]]
            print(f"  {metric}: spreads {spreads} median change {e['median_change']:+.4f} bound {e['bound']}")


if __name__ == "__main__":
    main()
