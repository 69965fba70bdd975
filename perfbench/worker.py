"""One workload, measured in a fresh interpreter.

Started by run.py with BLAS/OpenMP thread counts set to 1. Imports `slv`
from the checkout's `src/` (timing the import), then runs rounds of the CLI
pipeline in-process through `slv.cli.main`, one stage after another, until
the time is up. Prints one JSON object as its last line.

    python3 perfbench/worker.py --import-only
    python3 perfbench/worker.py --workload baseline --seed 0 --seconds 30 --trace 0
    python3 perfbench/worker.py --workload baseline --seed 0 --record
"""

from __future__ import annotations

import sys
import time

_t0 = time.perf_counter()
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
import slv.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402

import numpy as np  # noqa: E402

from tracer import Tracer, leftover_wrappers  # noqa: E402

HERE = Path(__file__).resolve().parent

# A workload is `shards` datasets drawn from the run's seed, each pushed
# through the whole pipeline in one round. Per-image shapes are fixed by why
# each workload exists (see layers.json). The data-dependent cost of an
# image varies a lot (object sizes and counts are random), so a workload
# spreads its images over many small shards: the total is steady across
# seeds while a round stays short. Once scaled by host speed, reruns of one
# shard agree within about 1 %, so most of the seed-to-seed spread is data:
# a run is better spent on more shards than on more rounds per shard (the
# large_canvas shards are measured only once or twice each).
WORKLOADS = {
    "baseline": {
        "shards": 12,
        "generate": ["--images", "16", "--size", "96", "--proposals", "40", "--objects", "2"],
        "train": ["--iterations", "6", "--ramp", "3"],
    },
    "dense_proposals": {
        "shards": 16,
        "generate": ["--images", "5", "--size", "64", "--proposals", "300", "--objects", "3"],
        "train": ["--iterations", "3", "--ramp", "2"],
    },
    # One class, so every image votes exactly one full-size map; jitter 0.02,
    # because the default keeps objects 4 * 0.05 * 1200 px apart and then
    # most images have room for only two or three of the four objects.
    "large_canvas": {
        "shards": 30,
        "generate": [
            "--images", "1", "--size", "1200", "--proposals", "1000", "--objects", "4",
            "--classes", "1", "--jitter", "0.02",
        ],
        "train": None,
    },
}

# The same stage structure at a few seconds in total, for the smoke check.
SMOKE = {
    "baseline": {
        "shards": 2,
        "generate": ["--images", "3", "--size", "96", "--proposals", "40", "--objects", "2"],
        "train": ["--iterations", "2", "--ramp", "1"],
    },
    "dense_proposals": {
        "shards": 2,
        "generate": ["--images", "2", "--size", "64", "--proposals", "60", "--objects", "3"],
        "train": ["--iterations", "2", "--ramp", "1"],
    },
    "large_canvas": {
        "shards": 2,
        "generate": ["--images", "1", "--size", "300", "--proposals", "200", "--objects", "4", "--classes", "1"],
        "train": None,
    },
}

STAGE_METRICS = {"train": "train_s", "vote": "vote_s", "compare-schemes": "compare_schemes_s", "evaluate": "evaluate_s"}
REFERENCE_SEED = 0
MAX_SHARDS = 100

# Reported times are scaled to a host on which calibrate() takes this long.
REFERENCE_CALIBRATION_S = 0.015


def work_dir(workload: str) -> Path:
    """Where a round writes its outputs; one per process, so that runs
    started side by side do not overwrite each other's files."""
    return ROOT / ".perfbench_work" / workload / f"round-{os.getpid()}"


def shard_seed(seed: int, shard: int) -> int:
    """The CLI seed of one shard. Any integer run seed is accepted (the
    generator wants a non-negative one); seeds 0 to 21474835 map to
    `seed * MAX_SHARDS + shard` unchanged."""
    return (seed * MAX_SHARDS + shard) % 2**31


def stages(spec: dict, seed: int, work: Path) -> list[tuple[str, list[str], Path]]:
    """(stage, argv, output directory) for one round of the pipeline."""
    data = work / "data" / "dataset.jsonl"
    common = ["--seed", str(seed), "--out"]
    out = [("generate", common + [str(work / "data"), "generate", *spec["generate"]], work / "data")]
    scorer = []
    if spec["train"] is not None:
        out.append(
            ("train", common + [str(work / "train"), "train", str(data), *spec["train"], "--emit-detections"], work / "train")
        )
        scorer = ["--scorer", str(work / "train" / "scorer.json")]
    out.append(("vote", common + [str(work / "vote"), "vote", str(data), *scorer, "--emit-heatmaps"], work / "vote"))
    out.append(("compare-schemes", common + [str(work / "cmp"), "compare-schemes", str(data), *scorer], work / "cmp"))
    if spec["train"] is not None:
        detections = work / "train" / "detections.jsonl"
        out.append(("evaluate", common + [str(work / "eval"), "evaluate", str(detections), str(data)], work / "eval"))
    return out


def stage_digest(directory: Path, work: Path) -> str:
    """sha256 over the sha256 of every file a stage wrote, with its path."""
    lines = "".join(
        f"{path.relative_to(work)} {hashlib.sha256(path.read_bytes()).hexdigest()}\n"
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    )
    return hashlib.sha256(lines.encode()).hexdigest()


def run_round(spec: dict, seed: int, work: Path, tracer: Tracer | None, calibration: float) -> dict:
    """One pass of the pipeline. A stage fails when it raises or exits
    non-zero; later stages still run and fail on their missing inputs.

    Every stage is followed by calibration_s(); `calibration` is the reading
    before the first. Scaled times are times multiplied by
    REFERENCE_CALIBRATION_S over the mean of the round's readings (a single
    reading is too noisy for a stage of a few milliseconds)."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    times: dict[str, float] = {}
    readings = [calibration]
    digests: dict[str, str] = {}
    failed: list[str] = []
    for stage, argv, out_dir in stages(spec, seed, work):
        root = tracer.open_root(stage) if tracer else None
        start = time.perf_counter()
        try:
            with redirect_stdout(io.StringIO()):
                code = slv.cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = None
        finally:
            times[stage] = time.perf_counter() - start
            if tracer:
                tracer.close_root(root)
        if code != 0:
            print(f"stage {stage} failed with exit code {code}", file=sys.stderr)
            failed.append(stage)
        digests[stage] = stage_digest(out_dir, work)
        readings.append(calibration_s())
    scale = REFERENCE_CALIBRATION_S / statistics.fmean(readings)
    return {
        "times": times,
        "scaled": {stage: t * scale for stage, t in times.items()},
        "scale": scale,
        "calibration": readings[-1],
        "digests": digests,
        "failed": failed,
        "quality": quality(work),
    }


def quality(work: Path) -> dict[str, float]:
    """mAP and the SLV scheme's mean IoU, read back from the reports.
    Missing reports read as -1, which the range check rejects."""
    out = {"map": -1.0, "slv_mean_iou": -1.0}
    metrics = work / "eval" / "metrics.txt"
    if metrics.is_file():
        for line in metrics.read_text().splitlines():
            if line.startswith("mAP "):
                out["map"] = float(line.split()[1])
    report = work / "cmp" / "scheme_report.txt"
    if report.is_file():
        for line in report.read_text().splitlines():
            if line.startswith("scheme slv overall mean_iou "):
                out["slv_mean_iou"] = float(line.split()[4])
    return out


def check_round(result: dict, reference: dict[str, str], trained: bool) -> list[str]:
    """Stages that failed or whose outputs are wrong: a digest differs from
    the reference, or a reported quality figure is out of range."""
    bad = set(result["failed"])
    bad.update(stage for stage, digest in result["digests"].items() if digest != reference.get(stage))
    q = result["quality"]
    if not 0.0 <= q["slv_mean_iou"] <= 1.0:
        bad.add("compare-schemes")
    if trained and not 0.0 <= q["map"] <= 1.0:
        bad.add("evaluate")
    return sorted(bad)


class _Cell:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c


def calibrate() -> None:
    """A fixed mix of object churn (allocation, attribute and dict access)
    and prefix sums over a grid larger than L2, sharing no code with slv so
    that program changes cannot move it. Of the loops tried, these two
    slowed most like the pipeline when the host did."""
    cells = [_Cell(i, 2 * i, (i, i + 1)) for i in range(20000)]
    index = {i: cell for i, cell in enumerate(cells)}
    acc = sum(cell.a + cell.c[1] for cell in cells) + sum(index[i].b for i in range(0, 20000, 3))
    grid = np.ones((600, 600))
    acc += float(grid.cumsum(axis=0).cumsum(axis=1)[-1, -1])


def calibration_s() -> float:
    start = time.perf_counter()
    calibrate()
    return time.perf_counter() - start


def machine() -> dict:
    """What the numbers depend on: cores, interpreter, numpy and its BLAS,
    the BLAS thread setting, and the data cache sizes of CPU 0, read (never
    written) from sysfs."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}{'d' if kind == 'Data' else ''}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "caches": caches,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Rounds over the workload's shards until every shard is measured and
    `seconds` have passed.

    The shared host this was built on switches between a fast and a slow
    speed (about 1.5x apart) for periods from a second to a minute, so raw
    times of whole runs differ by 30 %. Stage times are therefore scaled by
    the calibration readings taken between the stages of their round (see
    run_round). A stage's metric is the sum over shards of the median of
    that shard's scaled times.
    """
    spec = (SMOKE if smoke else WORKLOADS)[workload]
    shards = spec["shards"]
    trained = spec["train"] is not None
    work = work_dir(workload)
    references: dict[int, dict[str, str]] = {}
    if seed == REFERENCE_SEED and not smoke:
        recorded = json.loads((HERE / "reference.json").read_text())["digests"][workload]
        references = {int(k): v for k, v in recorded.items()}
    plain: dict[int, list[dict]] = {k: [] for k in range(shards)}
    traced: dict[int, list[dict]] = {k: [] for k in range(shards)}
    attempted = failed = 0
    calibration = calibration_s()
    import_scaled = IMPORT_S * REFERENCE_CALIBRATION_S / calibration
    deadline = time.perf_counter() + seconds
    # Round -1 warms caches and lazy set-up on shard 0 and is not measured.
    # With tracing, each shard's untraced round is followed by a traced one
    # on the same shard, so both see the same data and the same host.
    n = -1
    while True:
        want_trace = trace and n >= 0 and n % 2 == 1
        shard = max(n, 0) // (2 if trace else 1) % shards
        tracer = Tracer() if want_trace else None
        try:
            if tracer:
                tracer.install()
            result = run_round(spec, shard_seed(seed, shard), work, tracer, calibration)
        finally:
            if tracer:
                tracer.restore()
        calibration = result["calibration"]
        result["tracer"] = tracer
        # Outputs must match the recorded reference, or else every rerun of
        # the shard must be byte-identical to its first run.
        reference = references.setdefault(shard, result["digests"])
        bad = check_round(result, reference, trained)
        attempted += len(result["times"])
        failed += len(bad)
        if n >= 0:
            (traced if tracer else plain)[shard].append(result)
        n += 1
        complete = all(plain.values()) and (not trace or all(traced.values()))
        if complete and time.perf_counter() >= deadline:
            break

    stage_s = {
        stage: sum(statistics.median(r["scaled"][stage] for r in rounds) for rounds in plain.values())
        for stage in plain[0][0]["times"]
    }
    pipeline_s = sum(t for stage, t in stage_s.items() if stage != "generate")
    out = {
        "import_s": import_scaled,
        "attempted": attempted,
        "failed": failed,
        "rounds": sum(len(r) for r in plain.values()),
        "shards": shards,
        "calibration_s": calibration,
        "end_to_end": {
            "setup_s": stage_s["generate"],  # run.py adds the import time
            "pipeline_s": pipeline_s,
            "vote_s": stage_s["vote"],
            "compare_schemes_s": stage_s["compare-schemes"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_ok_ratio": (attempted - failed) / attempted,
        },
        "stages": {metric: stage_s.get(stage, 0.0) for stage, metric in STAGE_METRICS.items()}
        | {"generate_s": stage_s["generate"]},
        "quality": quality_over_shards(plain),
        "digests": {str(k): references[k] for k in range(shards)},
        "leftover_wrappers": leftover_wrappers(),
        "machine": machine(),
    }
    if trace:
        out.update(layer_report(traced, pipeline_s, out["quality"]))
    return out


def quality_over_shards(plain: dict[int, list[dict]]) -> dict[str, float]:
    firsts = [rounds[0]["quality"] for rounds in plain.values()]
    return {key: statistics.fmean(q[key] for q in firsts) for key in firsts[0]}


def layer_report(traced: dict[int, list[dict]], plain_pipeline_s: float, q: dict) -> dict:
    """Per-layer metrics summed over the first traced round of every shard,
    times scaled like the stage times. A shard's counts must repeat exactly
    in its later traced rounds."""
    layers: dict[str, float] = {}
    counts_repeat = True
    for rounds in traced.values():
        first = rounds[0]
        for name, value in first["tracer"].metrics().items():
            timed = name.endswith((".s", ".self_s"))
            layers[name] = layers.get(name, 0) + (value * first["scale"] if timed else value)
        exact = [
            {k: v for k, v in r["tracer"].metrics().items() if not k.endswith((".s", ".self_s"))}
            for r in rounds
        ]
        counts_repeat &= all(c == exact[0] for c in exact)
    # Ratios do not add up over shards; take them over the summed counts.
    layers.update(Tracer.ratios(layers))
    traced_pipeline = sum(
        t for rounds in traced.values() for stage, t in rounds[0]["scaled"].items() if stage != "generate"
    )
    layers["trace.overhead_ratio"] = traced_pipeline / plain_pipeline_s
    for stage, metric in STAGE_METRICS.items():
        layers[f"cli.{metric[:-2]}.s"] = sum(rounds[0]["scaled"].get(stage, 0.0) for rounds in traced.values())
    layers["evaluation.map"] = max(q["map"], 0.0)
    layers["schemes.slv_mean_iou"] = q["slv_mean_iou"]
    by_stage: dict[str, dict[str, float]] = {}
    for rounds in traced.values():
        for stage, selfs in rounds[0]["tracer"].self_by_stage().items():
            into = by_stage.setdefault(stage, {})
            for name, own in selfs.items():
                into[name] = into.get(name, 0.0) + own * rounds[0]["scale"]
    spans = [
        [shard, *span] for shard, rounds in traced.items() for span in rounds[0]["tracer"].spans
    ]
    return {"per_layer": layers, "counts_repeat": counts_repeat, "self_s_by_stage": by_stage, "spans": spans}


def record(workload: str, seed: int) -> dict | None:
    """One round per shard; the output digests, or None if a stage failed."""
    spec = WORKLOADS[workload]
    digests = {}
    for shard in range(spec["shards"]):
        result = run_round(spec, shard_seed(seed, shard), work_dir(workload), None, calibration_s())
        if check_round(result, result["digests"], spec["train"] is not None):
            return None
        digests[str(shard)] = result["digests"]
    return {"digests": digests}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true", help="one round per shard; print the output digests")
    args = parser.parse_args(argv)
    if not Path(slv.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported slv from {slv.cli.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.import_only:
        print(json.dumps({"import_s": IMPORT_S * REFERENCE_CALIBRATION_S / calibration_s()}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        out = record(args.workload, args.seed) if args.record else measure(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
        )
    finally:
        shutil.rmtree(work_dir(args.workload), ignore_errors=True)
    if out is None:
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
