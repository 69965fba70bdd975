"""In-process stage times of two revisions of this repository, in pairs.

    python3 tools/stage_pairs.py PARENT CHANGE --work DIR [--rounds 5] [--runs 5]

Extracts the two revisions as `tools/bench_pairs.py` does: fresh `git
archive` copies in DIR/parent and DIR/change, names of the same length.
Each round then runs each side, the parent first in even rounds and the
change first in odd ones. A side starts one subprocess per workload of the
`WORKLOADS` table of that copy's `perfbench/worker.py` (read as a literal,
not imported), as the benchmark starts one worker per workload. The
subprocess imports that copy's `slv.cli`, makes one shard of the
workload with that copy's `generate` at shard seed 0, and times each CLI
stage through `slv.cli.main`:
- `train --emit-detections`, `vote --scorer --emit-heatmaps`,
  `compare-schemes` without and with `--scorer`, and `evaluate`, on the
  shards of workloads that train (baseline and dense_proposals);
- `vote --emit-heatmaps` and `compare-schemes` on the others
  (large_canvas), which the benchmark never trains.

A stage runs RUNS times in a row, its `--out` removed before each run, and
the round keeps the fastest. Per stage the summary prints the median of
the round minima per side with quartiles, the change in percent, the
rounds the change won, and `gap>IQR`: whether the medians lie further
apart than the parent's own interquartile range. `identical` says whether
both sides wrote the same bytes in every round; the exit code is 1 when
any stage differs or fails. The summary also goes to DIR/stages.json.
Standard library only.

When to quote it. The numbers are raw in-process milliseconds on one
host, with no calibration scaling and without interpreter start or the
other stages: they show where a change moved time, not what the benchmark
will read. A PR may quote a stage's line next to its `bench_pairs` medians
when the benchmark metric reads "unresolved" or cannot separate the stage
(a vote change under baseline `vote_s`), together with the spread of an
A/A run (the same revision on both sides) on the same host. It never
stands in for the benchmark's own reading or claim rule.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

from bench_pairs import SIDES, extract, summarize


def workloads(worker: Path) -> dict[str, dict]:
    """The `WORKLOADS` table of a `perfbench/worker.py`, by name, each with
    its `generate` and `train` (or None) arguments: the assignment's value
    read with `ast.literal_eval`, so the module is never imported."""
    for node in ast.parse(worker.read_text()).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "WORKLOADS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit(f"stage_pairs: {worker} assigns no WORKLOADS table")


def stages(workload: str, train: list[str] | None) -> list[tuple[str, list[str]]]:
    """(stage name, `slv.cli.main` argv without `--out`) for one workload,
    in run order, with paths relative to the side's work directory."""
    data = f"{workload}/data/dataset.jsonl"
    if train is None:
        return [
            (f"{workload}/vote", ["vote", data, "--emit-heatmaps"]),
            (f"{workload}/compare-schemes", ["compare-schemes", data]),
        ]
    scorer = ["--scorer", f"{workload}/train/scorer.json"]
    return [
        (f"{workload}/train", ["train", data, *train, "--emit-detections"]),
        (f"{workload}/vote", ["vote", data, *scorer, "--emit-heatmaps"]),
        (f"{workload}/compare-schemes", ["compare-schemes", data]),
        (f"{workload}/compare-schemes-scorer", ["compare-schemes", data, *scorer]),
        (f"{workload}/evaluate", ["evaluate", f"{workload}/train/detections.jsonl", data]),
    ]


def digest(out: Path) -> str:
    """sha256 over every file under `out`: relative path, then bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def time_stages(runs: int, workload: str, spec: dict) -> dict:
    """Run in the side's work directory, with the copy's `src` first on
    the import path, for one workload of its `workloads` table: the file
    of the `slv.cli` it imported, and per stage the `runs` times in
    seconds and the digest of its last run's output, each stage writing
    to the directory of its name."""
    import slv.cli

    def cli(argv: list[str]) -> None:
        with redirect_stdout(io.StringIO()):
            code = slv.cli.main(["--seed", "0", *argv])
        if code != 0:
            raise SystemExit(f"stage_pairs: slv {' '.join(argv)} exited {code}")

    out: dict[str, dict] = {}
    cli(["--out", f"{workload}/data", "generate", *spec["generate"]])
    for name, argv in stages(workload, spec["train"]):
        target = Path(name)
        times = []
        for _ in range(runs):
            shutil.rmtree(target, ignore_errors=True)
            start = time.perf_counter()
            cli(["--out", str(target), *argv])
            times.append(time.perf_counter() - start)
        out[name] = {"times": times, "digest": digest(target)}
    return {"module": slv.cli.__file__, "stages": out}


def summarize_stages(rounds: list[dict[str, dict[str, dict]]]) -> dict[str, dict]:
    """Per stage, `summarize` over the round minima (round k of each side
    forms pair k), and whether the two sides' digests agreed in every
    round. Round k is `{"parent": stages, "change": stages}`, each the
    "stages" of a `time_stages` result; a stage is summarized only if both
    sides have it in every round."""
    names = [n for n in rounds[0]["parent"] if all(n in r[s] for r in rounds for s in SIDES)]
    summary = {}
    for name in names:
        minima = [[min(r[side][name]["times"]) for r in rounds] for side in SIDES]
        summary[name] = {
            **summarize(*minima, "lower", None),
            "identical": all(r["parent"][name]["digest"] == r["change"][name]["digest"] for r in rounds),
            "minima": dict(zip(SIDES, minima)),
        }
    return summary


HEADING = "  stage, parent median ms [q1, q3], change median ms [q1, q3], change, wins, gap>IQR, identical"


def row(name: str, s: dict) -> str:
    """The printed line of one stage's `summarize_stages` entry."""
    p, c = s["parent"], s["change"]
    return (
        f"  {name:<38} {1e3 * p['median']:>8.3f} [{1e3 * p['q1']:.3f}, {1e3 * p['q3']:.3f}]"
        f" {1e3 * c['median']:>8.3f} [{1e3 * c['q1']:.3f}, {1e3 * c['q3']:.3f}] {s['change_pct']:>+7.1f}%"
        f" {s['wins']:>2}/{s['pairs']:<2} {'yes' if s['gap_exceeds_iqr'] else 'no':>4}"
        f" {'yes' if s['identical'] else 'NO':>4}"
    )


def run_side(tool: Path, checkout: Path, runs: int) -> dict:
    """One round of one side: the stages of `time_stages` in a fresh work
    directory of the copy, one subprocess per workload, as the benchmark
    runs one worker per workload, so no workload's stages run on the heap
    another's left. Each subprocess imports the copy's package. A stage
    that fails ends the tool with exit code 1."""
    work = checkout / ".stage_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    out: dict[str, dict] = {}
    for workload, spec in workloads(checkout / "perfbench" / "worker.py").items():
        code = f"import sys; sys.path[:0] = [{str(checkout / 'src')!r}, {str(tool.parent)!r}]; " \
            f"import json, stage_pairs; print(json.dumps(stage_pairs.time_stages({runs}, {workload!r}, {spec!r})))"
        proc = subprocess.run([sys.executable, "-c", code], cwd=work, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"stage_pairs: the {checkout.name} side failed with exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(result["module"]).is_relative_to(checkout):
            raise SystemExit(f"stage_pairs: the {checkout.name} side imported slv from {result['module']}")
        out.update(result["stages"])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the base revision")
    parser.add_argument("change", help="the revision to compare against it")
    parser.add_argument("--work", type=Path, required=True, help="directory for the two copies and stages.json")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--runs", type=int, default=5, help="runs of each stage per round; the round keeps the fastest")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.runs < 1:
        parser.error("--rounds and --runs must be at least 1")

    checkouts = {side: (args.work / side).resolve() for side in SIDES}
    for side, revision in zip(SIDES, (args.parent, args.change)):
        extract(revision, checkouts[side])
    tool = Path(__file__).resolve()
    rounds = []
    for k in range(args.rounds):
        result = {}
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            result[side] = run_side(tool, checkouts[side], args.runs)
        rounds.append(result)
        print(f"round {k + 1}/{args.rounds} done", file=sys.stderr)
    summary = summarize_stages(rounds)
    print(f"stages rounds {args.rounds} runs {args.runs}")
    print(HEADING)
    for name, s in summary.items():
        print(row(name, s))
    (args.work / "stages.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if all(s["identical"] for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
