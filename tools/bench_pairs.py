"""Paired benchmark runs of two revisions of this repository.

    python3 tools/bench_pairs.py PARENT CHANGE --work DIR [--pairs 10] [--seconds 30]
        [--seed 0] [--trace 0] [--workload NAME ...]

Extracts `git archive` copies of the two revisions into DIR/parent and
DIR/change. The two names have the same length, because the checkout's
directory name alone can move `peak_rss_mb`. Then, per workload, it runs
`perfbench/run.py` in the two copies in alternating pairs: the parent first
in even pairs, the change first in odd ones. For every metric, and every
stage time of the result file a run leaves in its checkout, it prints the
median and quartiles of each side, the change's median against the
parent's, and how many pairs the change won. A metric with a bound reads
"unresolved" when the parent's own interquartile range is wider than that
bound, relative to the parent's median: such a metric cannot tell a change
from noise. `gap>IQR` says whether the medians lie further apart than the
parent's IQR, in either direction. `claim` says whether the metric meets
the rule a claimed gain must meet: the change wins at least 9 in 10 of the
pairs, and its median is better than the parent's by more than the
parent's IQR. A pair with a run that fails or is not correct is left out
of every metric, so the runs of a pair are only ever compared together.

Before the first workload it prints one `environment` line: the Python
and numpy versions the runs use, and whether PYTHONDONTWRITEBYTECODE
reaches them. With that variable set, every import in a run compiles slv's
sources afresh, so `setup_s` grows with the source size.

The summary also goes to DIR/pairs.json, the environment under
"environment" and each workload under its name. The exit code is 1 when
any run is not `correct: true` or does not finish. Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
from collections.abc import Mapping
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")  # equal lengths, see the module docstring


def summarize(parent: list[float], change: list[float], better: str, bound: float | None) -> dict:
    """Medians, quartiles and pair wins of one metric over paired runs;
    run k of `parent` and run k of `change` form pair k."""
    if len(parent) != len(change) or not parent:
        raise ValueError(f"summarize: {len(parent)} parent runs against {len(change)} change runs")

    def quartiles(values: list[float]) -> tuple[float, float, float]:
        if len(values) < 2:
            return values[0], values[0], values[0]
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return q1, q2, q3

    p1, p2, p3 = quartiles(parent)
    c1, c2, c3 = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    iqr = p3 - p1
    return {
        "parent": {"median": p2, "q1": p1, "q3": p3},
        "change": {"median": c2, "q1": c1, "q3": c3},
        "change_pct": 100.0 * (c2 - p2) / p2 if p2 else 0.0,
        "wins": wins,
        "pairs": len(parent),
        "gap_exceeds_iqr": abs(c2 - p2) > iqr,
        "claim_met": 10 * wins >= 9 * len(parent) and sign * (p2 - c2) > iqr,
        "unresolved": bound is not None and p2 != 0 and iqr / abs(p2) > bound,
    }


HEADING = "  metric, parent median [q1, q3], change median [q1, q3], change, wins, gap>IQR, claim"


def row(name: str, s: dict) -> str:
    """The printed line of one metric's `summarize` result, under HEADING."""
    p, c = s["parent"], s["change"]
    return (
        f"  {name:<24} {p['median']:>12.6g} [{p['q1']:.4g}, {p['q3']:.4g}]"
        f" {c['median']:>12.6g} [{c['q1']:.4g}, {c['q3']:.4g}] {s['change_pct']:>+7.1f}%"
        f" {s['wins']:>2}/{s['pairs']:<2} {'yes' if s['gap_exceeds_iqr'] else 'no':>4}"
        f" {'met' if s['claim_met'] else 'no':>4}"
        + ("  unresolved" if s["unresolved"] else "")
    )


def environment(environ: Mapping[str, str]) -> dict:
    """What the runs inherit that moves their numbers: the Python and numpy
    versions of this interpreter, which runs them, and whether `environ`
    sets PYTHONDONTWRITEBYTECODE (Python heeds any non-empty value)."""
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "dont_write_bytecode": bool(environ.get("PYTHONDONTWRITEBYTECODE")),
    }


def environment_line(env: dict) -> str:
    """The printed line of an `environment` result."""
    if env["dont_write_bytecode"]:
        bytecode = "PYTHONDONTWRITEBYTECODE set: every import compiles slv's sources, so setup_s grows with source size"
    else:
        bytecode = "PYTHONDONTWRITEBYTECODE unset"
    return f"environment python {env['python']} numpy {env['numpy']} {bytecode}"


def paired_values(pairs: list[dict[str, dict[str, float] | None]]) -> dict[str, tuple[list[float], list[float]]]:
    """Each metric's parent and change values over the pairs whose two runs
    both succeeded. Pair k is `{"parent": metrics, "change": metrics}`, each
    a name -> value dict, or None for a run that failed or was not correct;
    a metric is kept in a pair only if both its runs report it."""
    values: dict[str, tuple[list[float], list[float]]] = {}
    for pair in pairs:
        parent, change = pair["parent"], pair["change"]
        if parent is None or change is None:
            continue
        for name, value in parent.items():
            if name in change:
                sides = values.setdefault(name, ([], []))
                sides[0].append(value)
                sides[1].append(change[name])
    return values


def extract(revision: str, target: Path) -> None:
    """A fresh `git archive` copy of `revision` at `target`."""
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", "--format=tar", revision], check=True, stdout=subprocess.PIPE
    ).stdout
    if target.exists():
        shutil.rmtree(target)
    target.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, filter="data")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    """The last-line JSON of one benchmark run, its metrics joined by the
    stage times (`train_s`, `evaluate_s`, ...) of the result file the run
    leaves in the checkout; None if the run did not finish."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=checkout, stdout=subprocess.PIPE, text=True
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    saved = json.loads((checkout / ".perfbench_work" / workload / f"seed{seed}-trace{trace}.json").read_text())
    result["metrics"] = {**{name: {"value": v} for name, v in saved["stages"].items()}, **result["metrics"]}
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the base revision")
    parser.add_argument("change", help="the revision to compare against it")
    parser.add_argument("--work", type=Path, required=True, help="directory for the two copies and pairs.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workload", action="append", help="a workload to run (default: all)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    checkouts = {side: args.work / side for side in SIDES}
    for side, revision in zip(SIDES, (args.parent, args.change)):
        extract(revision, checkouts[side])
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    env = environment(os.environ)
    print(environment_line(env))
    ok = True
    summary: dict[str, dict] = {"environment": env}
    for workload in workloads:
        pairs = []
        for k in range(args.pairs):
            pair: dict[str, dict[str, float] | None] = {}
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                result = run_once(checkouts[side], workload, args.seed, args.seconds, args.trace)
                pair[side] = None
                if result is None or not result["correct"]:
                    print(f"{workload} pair {k + 1} {side}: run failed or not correct", file=sys.stderr)
                    ok = False
                else:
                    pair[side] = {name: metric["value"] for name, metric in result["metrics"].items()}
            pairs.append(pair)
            print(f"{workload} pair {k + 1}/{args.pairs} done", file=sys.stderr)
        summary[workload] = {}
        print(f"workload {workload} seed {args.seed} pairs {args.pairs} seconds {args.seconds:g}")
        print(HEADING)
        for name, (parent_values, change_values) in paired_values(pairs).items():
            declared = metrics.get(name, {})
            s = summarize(parent_values, change_values, declared.get("better", "lower"), declared.get("bound"))
            summary[workload][name] = {**s, "runs": {"parent": parent_values, "change": change_values}}
            print(row(name, s))
    (args.work / "pairs.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
