"""Steadiness mode: repeat every workload over many seeds and report the spread.

    python3 perfbench/steady.py [--seeds 1-10] [--sets 1]

Runs ``run.py`` untraced at BENCHMARK.json's ``run_seconds`` once per
(set, seed, workload), alternating the workload order from one seed to the
next, and prints for every end-to-end metric of every workload its median,
quartiles and spread (interquartile distance over the median), next to the
bound in BENCHMARK.json.  A spread above a third of
its bound is flagged.  With two sets it also prints how far the second
set's median moved from the first, and whether the share of failed
operations is the same.  All results go to ``.perfbench_work/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main() -> int:
    config = run.config()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()
    names = [w["name"] for w in config["workloads"]]
    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m for m in config["end_to_end"]}
    results: dict = {w: [[] for _ in range(args.sets)] for w in names}
    for s in range(args.sets):
        for i, seed in enumerate(seeds):
            order = names if (i + s) % 2 == 0 else names[::-1]
            for w in order:
                res = run.invoke(w, seed, trace=0)
                res["seed"] = seed
                results[w][s].append(res)
                line = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                print(f"set {s} seed {seed} {w}: failed {res['failed']}/{res['attempted']} "
                      f"correct={res['correct']} {line}", flush=True)
    report = {}
    for w in names:
        report[w] = {}
        print(f"\n{w}")
        for name, spec in bounds.items():
            sets = [summary([r["metrics"][name]["value"] for r in runs]) for runs in results[w]]
            report[w][name] = sets
            bound = spec["bound"]
            first = sets[0]
            flag = "" if first["spread"] <= bound / 3 else "  <-- above bound/3"
            msg = (f"  {name:14s} median {first['median']:.5g}  q1 {first['q1']:.5g}  "
                   f"q3 {first['q3']:.5g}  spread {first['spread']:.4f}  bound {bound}{flag}")
            if len(sets) > 1:
                worse = 1 if spec["better"] == "lower" else -1
                drift = worse * (sets[1]["median"] - first["median"]) / first["median"]
                msg += f"  spread2 {sets[1]['spread']:.4f}  drift {drift:+.4f}"
            print(msg)
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in results[w]]
        print(f"  failed share per set: {shares}")
    out = run.WORK / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"results": results, "summary": report}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
