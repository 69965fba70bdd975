"""Per-layer tracing from outside the package.

The tracer replaces public functions of the `slv` modules (the layers) with
wrappers, at every module attribute that refers to them, because callers
look functions up in their own module's globals (`slv.trainer.build_clusters`
is the same object as `slv.mil.build_clusters`). A wrapper records a span
(name, start, end, parent span) and counts derived from the call's
arguments and result. Nothing runs concurrently, so a span's self time is
its duration minus the durations of its direct children.

`restore()` puts every original object back; `leftover_wrappers()` proves it.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

_MARK = "__perfbench_wrapper__"


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# Counters: f(counts, prefix, args, kwargs, result) adds exact counts taken
# at the call boundary. They run after the span has closed. `fields` names
# every count a counter can add, so an idle layer still reports zeros.


def _fields(*names):
    def mark(fn):
        fn.fields = names
        return fn

    return mark


@_fields("bytes_read")
def _count_bytes_read(counts, p, args, kwargs, result):
    counts[p + "bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


@_fields("bytes_written")
def _count_bytes_written(counts, p, args, kwargs, result):
    counts[p + "bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_len(field):
    @_fields(field)
    def count(counts, p, args, kwargs, result):
        counts[p + field] += len(result)

    return count


@_fields("true_cells")
def _count_true_cells(counts, p, args, kwargs, result):
    counts[p + "true_cells"] += int(result.sum())


@_fields("pairs")
def _count_pairs(counts, p, args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "boxes"))
    counts[p + "pairs"] += n * n


@_fields("clusters", "assigned", "proposals")
def _count_clusters(counts, p, args, kwargs, result):
    counts[p + "clusters"] += len(result.clusters)
    counts[p + "assigned"] += sum(c.size for c in result.clusters)
    counts[p + "proposals"] += result.num_proposals


@_fields("boxes_in", "kept")
def _count_nms(counts, p, args, kwargs, result):
    counts[p + "boxes_in"] += len(_arg(args, kwargs, 0, "boxes"))
    counts[p + "kept"] += len(result)


@_fields("dropped")
def _count_dropped(counts, p, args, kwargs, result):
    counts[p + "dropped"] += result is None


@_fields("cells", "boxes", "bytes_computed")
def _count_accumulate(counts, p, args, kwargs, result):
    height = _arg(args, kwargs, 3, "height")
    width = _arg(args, kwargs, 4, "width")
    boxes = len(_arg(args, kwargs, 0, "candidates"))
    grid = (height + 1) * (width + 1)
    counts[p + "cells"] += height * width
    counts[p + "boxes"] += boxes
    # Computed, not measured: float64 traffic of the difference-array kernel
    # for these arguments. Zero-fill (1 pass) and two prefix sums (read and
    # write each) over the padded grid, the clamp over the map (read and
    # write), and four read-modify-write corner deposits per box.
    counts[p + "bytes_computed"] += 8 * (5 * grid + 2 * height * width + 8 * boxes)


@_fields("boxes_voted", "empty_votes")
def _count_votes(counts, p, args, kwargs, result):
    boxes = len(result.all_boxes())
    counts[p + "boxes_voted"] += boxes
    counts[p + "empty_votes"] += boxes == 0


@_fields("bytes")
def _count_pgm_bytes(counts, p, args, kwargs, result):
    likelihood = _arg(args, kwargs, 0, "likelihood")
    header = f"P5\n{likelihood.width} {likelihood.height}\n255\n"
    counts[p + "bytes"] += len(header) + likelihood.width * likelihood.height


@_fields("fg", "bg", "ignored")
def _count_targets(counts, p, args, kwargs, result):
    labels = result.labels
    num_classes = result.num_classes
    fg = int(((labels >= 0) & (labels < num_classes)).sum())
    bg = int((labels == num_classes).sum())
    counts[p + "fg"] += fg
    counts[p + "bg"] += bg
    counts[p + "ignored"] += len(labels) - fg - bg


@_fields("tp", "flags")
def _count_matches(counts, p, args, kwargs, result):
    counts[p + "tp"] += sum(result)
    counts[p + "flags"] += len(result)


# (module, function, counter). A counter of None records calls and times;
# COUNT_ONLY records calls alone, for functions so small and so frequent
# that a timed wrapper would cost more than the call.
COUNT_ONLY = "count-only"
LAYERS = [
    ("synthetic", "generate_synthetic", None),
    ("datasets", "load_dataset", _count_bytes_read),
    ("datasets", "save_dataset", _count_bytes_written),
    ("datasets", "save_detections", None),
    ("datasets", "save_pseudo_labels", None),
    ("trainer", "train_toy", None),
    ("trainer", "run_inference", _count_len("detections")),
    ("trainer", "vote_dataset", None),
    ("mil", "softmax_over_classes", None),
    ("mil", "softmax_over_proposals", None),
    ("mil", "softmax_backward", None),
    ("mil", "mil_loss", None),
    ("mil", "build_clusters", _count_clusters),
    ("mil", "refinement_loss", None),
    ("mil", "average_refined_scores", None),
    ("voting", "select_candidates", _count_len("candidates")),
    ("voting", "accumulate_fast", _count_accumulate),
    ("voting", "normalize", None),
    ("voting", "binarize", _count_true_cells),
    ("voting", "vote_boxes", _count_len("regions")),
    ("voting", "generate_supervision", _count_votes),
    ("voting", "write_pgm", _count_pgm_bytes),
    ("geometry", "connected_components", _count_len("components")),
    ("geometry", "min_bounding_rect", None),
    ("geometry", "pairwise_iou", _count_pairs),
    ("geometry", "nms", _count_nms),
    ("geometry", "iou", COUNT_ONLY),
    ("targets", "assign_targets", _count_targets),
    ("targets", "encode_offsets", COUNT_ONLY),
    ("targets", "decode_offsets", _count_dropped),
    ("targets", "slv_loss", None),
    ("evaluation", "evaluate_detections", None),
    ("evaluation", "match_detections", _count_matches),
    ("schemes", "compare_schemes", None),
    ("schemes", "label_conventional", None),
    ("schemes", "label_clustering", None),
    ("schemes", "label_slv", None),
]

ROOT = "cli"  # span of one CLI command; its self time is the command glue


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Spans and counts of one traced round, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: Counter = Counter()
        self.stages: dict[int, str] = {}  # root span index -> CLI command
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing and removing wrappers ---------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _slv_modules()
        for module_name, func_name, counter in LAYERS:
            original = getattr(modules["slv." + module_name], func_name)
            key = f"{module_name}.{func_name}"
            if counter is COUNT_ONLY:
                wrapper = self._counting(key, original)
            else:
                wrapper = self._timed(key, original, counter)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _counting(self, key, fn):
        counts = self.counts
        name = key + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _timed(self, key, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        prefix = key + "."

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (key, start, end, parent)
            if counter is not None:
                counter(counts, prefix, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- root spans ---------------------------------------------------------

    def open_root(self, stage: str) -> int:
        index = len(self.spans)
        self.stages[index] = stage
        self.spans.append((ROOT, perf_counter(), 0.0, -1))
        self._stack.append(index)
        return index

    def close_root(self, index: int) -> None:
        self._stack.pop()
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, perf_counter(), parent)

    # -- aggregation --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Calls, inclusive seconds, self seconds and the derived counts of
        every layer function, including idle ones (as zeros)."""
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), own in zip(self.spans, self._self_times()):
            inclusive[name] += end - start
            self_time[name] += own
            calls[name] += 1
        out: dict[str, float] = {}
        for key in [ROOT] + [f"{m}.{f}" for m, f, _ in LAYERS]:
            out[key + ".s"] = inclusive.get(key, 0.0)
            out[key + ".self_s"] = self_time.get(key, 0.0)
            out[key + ".calls"] = calls.get(key, 0)
        for module_name, func_name, counter in LAYERS:
            for field in getattr(counter, "fields", ()):
                out[f"{module_name}.{func_name}.{field}"] = 0
        out.update(self.counts)
        out.update(self.ratios(out))
        return out

    def self_by_stage(self) -> dict[str, dict[str, float]]:
        """Self seconds of every layer function within each CLI command."""
        root_of: list[int] = []
        out: dict[str, dict[str, float]] = {}
        for index, ((name, _, _, parent), own) in enumerate(zip(self.spans, self._self_times())):
            root_of.append(index if parent < 0 else root_of[parent])
            stage = out.setdefault(self.stages[root_of[index]], defaultdict(float))
            stage[name] += own
        return out

    def _self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children
        (a parent always precedes its children in `spans`)."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    @staticmethod
    def ratios(m: dict[str, float]) -> dict[str, float]:
        """Ratios of the counts in `m`, which may be sums over rounds."""
        fg, bg = m["targets.assign_targets.fg"], m["targets.assign_targets.bg"]
        votes = m["voting.generate_supervision.calls"]
        return {
            "mil.build_clusters.assigned_ratio": _ratio(
                m["mil.build_clusters.assigned"], m["mil.build_clusters.proposals"]
            ),
            "targets.assign_targets.valid_ratio": _ratio(
                fg + bg, fg + bg + m["targets.assign_targets.ignored"]
            ),
            "geometry.nms.kept_ratio": _ratio(m["geometry.nms.kept"], m["geometry.nms.boxes_in"]),
            "voting.generate_supervision.useful_ratio": _ratio(
                votes - m["voting.generate_supervision.empty_votes"], votes
            ),
            "evaluation.tp_ratio": _ratio(
                m["evaluation.match_detections.tp"], m["evaluation.match_detections.flags"]
            ),
        }


def _slv_modules() -> dict[str, object]:
    return {
        name: module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "slv" or name.startswith("slv."))
    }


def leftover_wrappers() -> list[str]:
    """Module attributes of `slv` that still hold a tracer wrapper."""
    return [
        f"{name}.{attr}"
        for name, module in _slv_modules().items()
        for attr, value in vars(module).items()
        if getattr(value, _MARK, False)
    ]
