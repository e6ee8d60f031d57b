"""Reference figures for the README, from one full run of every workload.

    python3 perfbench/reference.py [--seed 1]

Runs every workload timed and traced at BENCHMARK.json's ``run_seconds``
and prints, as Markdown tables: every end-to-end metric and the tracing
overhead per workload; the layer table in microseconds per call (medians
over the spans of the traced run, at n=1000 for the tilted commands and
n=120 for the surplus-graph draw); and ESS per replicate of the
breadth-first and depth-first tilts at n=1000 for s in {1, 2, 3, 4, 6}.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import refs
import run
import workloads
from tracer import span_self_time

ESS_TILTS = (1, 2, 3, 4, 6)
ESS_REPS = 400
# (label, traced function, workload, indices of the commands whose spans count)
LAYERS = (
    ("`RngStream.generator()`", "samplers.RngStream.generator", "tilted-estimate", (0, 1, 2)),
    ("`sample_uniform_excursion`", "samplers.sample_uniform_excursion", "tilted-estimate",
     (0, 1, 2)),
    ("`tree_of_contour`", "lattice_paths.tree_of_contour", "tilted-estimate", (0, 1, 2)),
    ("`bf_per_index`", "local_time.bf_per_index", "tilted-estimate", (0, 1, 2)),
    ("`df_per_index`", "local_time.df_per_index", "tilted-estimate", (0, 1, 2)),
    ("`sample_corners_bf`, s=1", "samplers.sample_corners_bf", "tilted-estimate", (0, 2)),
    ("`sample_corners_bf`, s=3", "samplers.sample_corners_bf", "tilted-estimate", (1,)),
    ("`TiltSample.distances_from_root` (decode, decoration, BFS)",
     "samplers.TiltSample.distances_from_root", "tilted-estimate", (0, 1)),
    ("`TiltSample.graph_distance` (BFS from a vertex)", "samplers.TiltSample.graph_distance",
     "tilted-estimate", (2,)),
    ("`sample_surplus_graph`, s=2, n=120", "samplers.sample_surplus_graph", "sample-write", (1,)),
    ("`spanning_tree_count`, n=120 (Bareiss)", "samplers.spanning_tree_count", "sample-write",
     (1,)),
)


def span_medians(path: Path, label: str, commands) -> tuple[float, float, int]:
    """Median inclusive and self microseconds per call of one function."""
    z = np.load(path)
    dur = z["end"] - z["start"]
    own = span_self_time(dur, z["parent"])
    pick = (z["name"] == list(z["names"]).index(label)) & np.isin(z["command"], commands)
    if not pick.any():
        return float("nan"), float("nan"), 0
    return float(np.median(dur[pick])) * 1e6, float(np.median(own[pick])) * 1e6, int(pick.sum())


def ess_table(seed: int) -> dict:
    out = {}
    env = run.child_env()
    env["PYTHONPATH"] = str(run.SRC)
    work = run.WORK / f"reference-{os.getpid()}"
    for s in ESS_TILTS:
        argv = ["estimate", "--target", "radius", "--n", "1000", "--s", str(s), "--reps",
                str(ESS_REPS), "--seed", str(workloads.program_seed(seed)), "--out", str(work)]
        subprocess.run([sys.executable, "-m", "surplus_lab.cli", *argv], env=env, check=True,
                       capture_output=True, timeout=600)
        _, rows = refs.read_csv(work / "estimate_radius.csv")
        data = np.array(rows, dtype=np.float64)
        out[s] = {"bf": refs.kish_ess(data[:, 4]) / ESS_REPS,
                  "df": refs.kish_ess(data[:, 6]) / ESS_REPS}
    shutil.rmtree(work)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    timed = {w: run.invoke(w, args.seed, trace=0) for w in workloads.WORKLOADS}
    traced = {w: run.invoke(w, args.seed, trace=1) for w in workloads.WORKLOADS}
    print("| workload | setup_s | wall_s | ess_per_s | peak_rss_mib | trace.overhead_s |"
          " ops attempted / failed |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for w in workloads.WORKLOADS:
        m = timed[w]["metrics"]
        print(f"| {w} | {m['setup_s']['value']:.3f} | {m['wall_s']['value']:.2f} | "
              f"{m['ess_per_s']['value']:.1f} | {m['peak_rss_mib']['value']:.1f} | "
              f"{traced[w]['metrics']['trace.overhead_s']['value']:.2f} | "
              f"{timed[w]['attempted']} / {timed[w]['failed']} |")
    print("\n| layer | median µs/call, inclusive | median µs/call, self | calls |")
    print("| --- | --- | --- | --- |")
    for label, fn, w, commands in LAYERS:
        path = run.WORK / "spans" / f"{w}-seed{args.seed}-round1.npz"
        incl, own, calls = span_medians(path, fn, commands)
        print(f"| {label} | {incl:,.0f} | {own:,.0f} | {calls} |")
    table = ess_table(args.seed)
    print("\n| tilt | " + " | ".join(f"s={s}" for s in ESS_TILTS) + " |")
    print("| --- |" + " --- |" * len(ESS_TILTS))
    for mode in ("bf", "df"):
        print(f"| {mode} | " + " | ".join(f"{table[s][mode]:.2f}" for s in ESS_TILTS) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
