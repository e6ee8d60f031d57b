"""surplus-lab benchmark: one workload, timed or traced, checked, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
Set-up is timed first: fresh interpreters importing ``surplus_lab.cli``.
Then whole rounds of the workload run, each in a fresh single-threaded
child process, until ``--seconds`` have passed, and every operation's
output is checked against :mod:`refs`.  With ``--trace 0`` the rounds run
untraced and the end-to-end metrics are printed; with ``--trace 1`` traced
and untraced rounds alternate and the per-layer metrics are printed.  The
metric names and units are those of BENCHMARK.json.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refs
import workloads
from tracer import MODULES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150

# per-layer aggregates; every other per-layer name is a traced function's
# ``.self_s``/``.calls``, a tracer counter, or a module's total ``.self_s``
FUNCTIONALS = ("local_time.sq_localtime_functional", "local_time.area_functional",
               "local_time.inverse_height_functional", "local_time.level_occupancy")
ESS_PREFIX = "samplers.ess_per_rep."


def config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(workload: str, seed: int, trace: int) -> dict:
    """The JSON result of one run of this script at BENCHMARK.json's ``run_seconds``."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(config()["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def child_env() -> dict:
    """Single-threaded children that see no thread-count override of the program."""
    env = dict(os.environ)
    env.pop("SURPLUS_LAB_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class BenchError(Exception):
    """The benchmark cannot produce a result (missing source, broken child, ...)."""


def measure_setup(env: dict) -> dict:
    """Median of fresh-interpreter imports, after one warm-up that may compile bytecode."""
    samples = []
    for k in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH / "probe.py"), str(SRC)], env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if SRC.resolve() not in Path(probe["module"]).resolve().parents:
            raise BenchError(f"surplus_lab imported from {probe['module']}, not from {SRC}")
        probe["setup_s"] = probe["done"] - t0
        if k:
            samples.append(probe)
    return {key: statistics.median(p[key] for p in samples)
            for key in ("setup_s", "numpy_import_s", "surplus_lab_import_s")} | \
        {"numpy": samples[0]["numpy"]}


def run_round(workload: str, seed: int, trace: bool, workdir: Path, env: dict,
              spans: Path) -> dict:
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    ops = workloads.plan(workload, seed, workdir / "out")
    plan_path, result_path = workdir / "plan.json", workdir / "result.json"
    plan_path.write_text(json.dumps({"src": str(SRC), "ops": ops, "trace": trace,
                                     "spans": str(spans)}))
    proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(plan_path),
                             str(result_path)], env=env, cwd=str(workdir),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"a {workload} round ran longer than {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"child exited with {proc.returncode}: {err.strip()[-800:]}")
    result = json.loads(result_path.read_text())
    checked = []
    for op, record in zip(ops, result["ops"]):
        chk = workloads.check_operation(op, record, seed)
        ran = record["error"] is None and record["rc"] == 0
        checked.append({"name": op["name"], "failed": bool(chk.failures), "ran": ran,
                        "failures": chk.failures, "ess": chk.ess})
    shutil.rmtree(workdir / "out")
    result["checked"] = checked
    result["ess"] = sum(c["ess"] for c in checked)
    return result


def median(values) -> float:
    return float(statistics.median(values))


def layer_value(name: str, trace: dict) -> float:
    """One per-layer metric of BENCHMARK.json, resolved against a traced round."""
    fn, counters = trace["functions"], trace["counters"]
    label, _, key = name.rpartition(".")
    if name == "local_time.functionals.self_s":
        return sum(fn[x]["self_s"] for x in FUNCTIONALS)
    if name.startswith(ESS_PREFIX):
        return trace["ess_per_rep"].get(name[len(ESS_PREFIX):], 0.0)
    if name in counters:
        return counters[name]
    if name == "trace.spans":
        return trace["spans"]
    if label in fn and key in ("self_s", "calls"):
        return fn[label][key]
    if label in MODULES and key == "self_s":
        return sum(v["self_s"] for k, v in fn.items() if k.startswith(label + "."))
    raise BenchError(f"per-layer metric {name} matches no traced function or counter")


def trace_metrics(names: list[str], traced: list[dict], untraced: list[dict],
                  setup: dict) -> dict:
    outside = {"setup.numpy_import_s": setup["numpy_import_s"],
               "setup.surplus_lab_import_s": setup["surplus_lab_import_s"],
               "trace.overhead_s": median(r["wall_s"] for r in traced) -
               median(r["wall_s"] for r in untraced)}
    return {name: outside[name] if name in outside else
            median(layer_value(name, r["trace"]) for r in traced) for name in names}


def environment(seed: int, setup: dict) -> dict:
    return {"seed": seed, "program_seed": workloads.program_seed(seed),
            "python": platform.python_version(), "numpy": setup["numpy"],
            "platform": platform.platform(), "nproc": os.cpu_count()}


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "surplus_lab" / "cli.py").is_file():
        raise BenchError(f"no surplus-lab source under {SRC}")
    bad = refs.selfcheck()
    if bad:
        raise BenchError("reference helpers fail their small cases: " + "; ".join(bad))
    env = child_env()
    setup = measure_setup(env)
    run_dir = WORK / f"{workload}-{seed}-{os.getpid()}"
    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    rounds = []
    start = time.perf_counter()
    try:
        while True:
            traced = trace and len(rounds) % 2 == 1
            spans = spans_dir / f"{workload}-seed{seed}-round{len(rounds)}.npz"
            rounds.append(run_round(workload, seed, traced, run_dir, env, spans))
            rounds[-1]["traced"] = traced
            enough = len(rounds) >= (2 if trace else 1)
            if enough and time.perf_counter() - start >= seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    checked = [c for r in rounds for c in r["checked"]]
    for c in checked:
        for msg in c["failures"]:
            print(f"FAILED {c['name']}: {msg}", file=sys.stderr)
    untraced = [r for r in rounds if not r["traced"]]
    units = {m["name"]: m["unit"] for m in config()["per_layer" if trace else "end_to_end"]}
    if trace:
        metrics = trace_metrics(list(units), [r for r in rounds if r["traced"]], untraced,
                                setup)
    else:
        metrics = {"setup_s": setup["setup_s"], "wall_s": median(r["wall_s"] for r in untraced),
                   "ess_per_s": median(r["ess"] / r["wall_s"] for r in untraced),
                   "peak_rss_mib": median(r["maxrss_kib"] / 1024.0 for r in untraced)}
    return {
        "env": environment(seed, setup),
        "rounds": len(rounds),
        # an operation whose command succeeded but whose output fails a check is wrong
        "correct": not any(c["failed"] and c["ran"] for c in checked),
        "attempted": len(checked),
        "failed": sum(c["failed"] for c in checked),
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        res = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}, {res['rounds']} rounds, trace {args.trace}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    for name, m in res["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted {res['attempted']} operations, failed {res['failed']}")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
