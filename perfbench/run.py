"""Seeded end-to-end benchmark of the slv CLI pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload baseline --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --write-reference

A closed loop with one client: the stages of the pipeline (generate, train,
vote, compare-schemes, evaluate) run in-process through `slv.cli.main`, each
starting when the previous one returns. A workload is a few small datasets
(shards) drawn from the seed; rounds cycle over them until every shard is
measured and the time is up. Each workload runs in its own child process
with one BLAS/OpenMP thread (worker.py).

Times are scaled to a reference host speed measured by a calibration loop
between stages (see worker.measure), because the shared host drifts between
speeds 1.5x apart. Every output file is hashed; a stage fails when it exits
non-zero, raises, or writes outputs whose digests differ from
reference.json (seed 0) or from the shard's first run (other seeds).

`--trace 0` prints the end-to-end metrics of BENCHMARK.json; `--trace 1`
also runs a traced round after each untraced one and prints the per-layer
metrics (see tracer.py; layers.json maps them to the end-to-end metrics and
workloads they should move). The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. The full result
and the spans of the traced rounds go to `.perfbench_work/<workload>/`.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
IMPORT_PROBES = 5
CHILD_TIMEOUT_S = 170
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(*args: str) -> dict:
    """Run worker.py and return the JSON object on its last output line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workloads() -> list[str]:
    return [workload["name"] for workload in benchmark_spec()["workloads"]]


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Import probes, then the workload child; returns the worker's result
    with `setup_s` completed by the median import time."""
    imports = [run_worker("--import-only")["import_s"] for _ in range(IMPORT_PROBES)]
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    result = run_worker(*args, *(["--smoke"] if smoke else []))
    result["import_probes_s"] = imports
    result["end_to_end"]["setup_s"] += statistics.median(imports + [result["import_s"]])
    return result


def report(workload: str, seed: int, trace: bool, result: dict) -> dict:
    spec = benchmark_spec()
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    values = result["per_layer"] if trace else result["end_to_end"]
    failed = result["failed"]
    correct = failed == 0 and not result["leftover_wrappers"] and result.get("counts_repeat", True)
    print(f"workload {workload} seed {seed} trace {int(trace)} rounds {result['rounds']}"
          f" (medians of host-speed-scaled times after one warm-up round)")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    for name, value in {**result["stages"], **result["end_to_end"], **result["quality"]}.items():
        if value >= 0:  # map reads -1 where nothing is evaluated
            print(f"  {name:<20} {value:.6g}")
    for stage, selfs in result.get("self_s_by_stage", {}).items():
        top = sorted(selfs.items(), key=lambda item: -item[1])[:6]
        print(f"  self time in {stage}: " + ", ".join(f"{name} {own:.3f}" for name, own in top))
    stem = WORK / workload / f"seed{seed}-trace{int(trace)}"
    stem.parent.mkdir(parents=True, exist_ok=True)
    spans = result.pop("spans", None)
    if spans is not None:
        stem.with_suffix(".spans.json").write_text(json.dumps(spans))
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1, sort_keys=True))
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }


def smoke() -> int:
    """Every workload at tiny size, traced: every metric name of
    BENCHMARK.json is emitted and well formed, outputs match across traced
    and untraced rounds, and no wrapper is left installed."""
    spec = benchmark_spec()
    problems = []
    for workload in workloads():
        result = measure(workload, 0, 0.0, trace=True, smoke=True)
        for section, key in [("end_to_end", "end_to_end"), ("per_layer", "per_layer")]:
            for metric in spec[section]:
                if metric["name"] not in result[key]:
                    problems.append(f"{workload}: {section} metric {metric['name']} not emitted")
        if result["failed"]:
            problems.append(f"{workload}: {result['failed']} of {result['attempted']} stages failed")
        if result["leftover_wrappers"]:
            problems.append(f"{workload}: wrappers left installed: {result['leftover_wrappers']}")
        if not result["counts_repeat"]:
            problems.append(f"{workload}: counts differ between traced rounds")
        print(f"smoke {workload}: {result['attempted']} stages, {len(result['per_layer'])} layer values")
    mapped = {name for group in json.loads((HERE / "layers.json").read_text())["groups"] for name in group["metrics"]}
    if mapped != {metric["name"] for metric in spec["per_layer"]}:
        problems.append("per_layer metrics of BENCHMARK.json differ from those mapped in layers.json")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if not NAME.match(metric["name"]):
            problems.append(f"bad metric name {metric['name']!r}")
    for problem in problems:
        print("FAIL " + problem, file=sys.stderr)
    print("smoke " + ("ok" if not problems else "failed"))
    return 1 if problems else 0


def write_reference() -> int:
    """Record the output digests of every workload at the reference seed."""
    digests = {}
    for workload in workloads():
        result = run_worker("--workload", workload, "--seed", "0", "--record")
        digests[workload] = result["digests"]
    (HERE / "reference.json").write_text(json.dumps({"seed": 0, "digests": digests}, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads())
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; check the metric names and the tracer")
    parser.add_argument("--write-reference", action="store_true", help="record output digests at seed 0")
    args = parser.parse_args()
    if not (ROOT / "src" / "slv" / "cli.py").is_file():
        print(f"error: no slv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(args.workload, args.seed, bool(args.trace), result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
