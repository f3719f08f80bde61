"""In-memory span tracing of cdpm's public functions and methods.

A `Tracer` replaces each traced function at every binding where cdpm code
looks it up (the defining module and every cdpm module that imported it by
name) and each traced method on its class, with a wrapper that records a
span: name, start, end and the index of the enclosing span. Nothing under
`src/` is changed; `Tracer.restore` puts every original back.

Self time of a span is its duration minus the durations of its direct
child spans. Inclusive time of a name sums only its outermost spans, so a
name nested in itself is not counted twice.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Target:
    """One function or method to wrap.

    `where` is "module:function" or "module:Class.method" (module relative
    to the cdpm package). `name` is the span name, or a callable taking the
    call's bound arguments and returning it. `counters` maps the bound
    arguments, after the call, to named amounts added to the span name.
    """

    where: str
    name: str | Callable[[inspect.BoundArguments], str]
    counters: Callable[[inspect.BoundArguments], dict[str, float]] | None = None


@dataclass
class NameStats:
    calls: int = 0
    incl_s: float = 0.0  # outermost spans only
    self_s: float = 0.0
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))


class Tracer:
    """Wraps targets on `install`, records spans, aggregates per span name."""

    def __init__(self, package, targets: list[Target]):
        self.package = package
        self.targets = targets
        # spans: [name, start, end, parent index, outermost-of-its-name]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        for target in self.targets:
            module_name, _, attr = target.where.partition(":")
            module = sys.modules[f"{self.package.__name__}.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, self._wrap(original, target))
            else:
                original = getattr(module, attr)
                wrapper = self._wrap(original, target)
                for mod in self._package_modules():
                    for binding, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, binding, wrapper)
        return self

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def _package_modules(self):
        prefix = self.package.__name__
        return [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == prefix or n.startswith(prefix + "."))
        ]

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, target: Target):
        sig = inspect.signature(fn)
        static_name = target.name if isinstance(target.name, str) else None
        spans, stack, depth = self.spans, self._stack, self._depth
        counters = target.counters
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if static_name is None or counters is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            name = static_name if static_name is not None else target.name(bound)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, depth[name] == 0]
            spans.append(span)
            stack.append(index)
            depth[name] += 1
            span[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                depth[name] -= 1
                stack.pop()
            if counters is not None:
                acc = self.counters[name]
                for key, amount in counters(bound).items():
                    acc[key] += amount
            return result

        return wrapper

    # -- aggregation ---------------------------------------------------------

    def stats(self) -> dict[str, NameStats]:
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, NameStats] = defaultdict(NameStats)
        for i, (name, start, end, _, outermost) in enumerate(self.spans):
            s = out[name]
            s.calls += 1
            if outermost:
                s.incl_s += end - start
            s.self_s += (end - start) - child_s[i]
        for name, acc in self.counters.items():
            out[name].counters.update(acc)
        return out


# ---------------------------------------------------------------------------
# cdpm targets and per-layer metrics


def _conv_geometry(b: inspect.BoundArguments):
    x, w = b.arguments["x"], b.arguments["w"]
    stride, pad = b.arguments["stride"], b.arguments["padding"]
    bsz, h, wd, _ = x.shape
    kh, kw, c, d = w.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    return bsz * ho * wo, kh * kw * c, d  # GEMM rows, depth, columns


def _conv_counters(b):
    n, k, d = _conv_geometry(b)
    return {"gflop": 2.0 * n * k * d / 1e9, "cols_mb": 8.0 * n * k / 1e6}


def _conv_backward_counters(b):
    n, k, d = _conv_geometry(b)
    gemms = 2 if b.arguments["need_input_grad"] else 1
    return {"gflop": gemms * 2.0 * n * k * d / 1e9}


def _file_mb(key: str):
    def counters(b):
        return {"mb": os.path.getsize(b.arguments[key]) / 1e6}
    return counters


def _conv_name(suffix: str):
    def name(b):
        layer = b.arguments["self"].w.name.rsplit(".", 1)[0]
        return f"layers.{layer}.{suffix}" if layer.startswith("backbone.") else f"layers.Conv.{suffix}"
    return name


def _train_step_name(b):
    return f"training.train_step.stage{stage_of(b.arguments['flags'])}"


def stage_of(flags) -> int:
    """Training stage of a `StepFlags` for the full model (all modules on)."""
    if not flags.backbone_grad:
        return 2
    return 3 if (flags.refinement or flags.detection or flags.mgf) else 1


def _image_store_hit(b):
    store, path = b.arguments["self"], b.arguments["path"]
    return "training.ImageStore.hit" if path in store._store else "training.ImageStore.miss"


def _method_pair(where: str, span: str) -> list[Target]:
    return [Target(f"{where}.forward", f"{span}.fwd"), Target(f"{where}.backward", f"{span}.bwd")]


#: the only target of an untraced run: per-stage train steps for the step rates
STEP_TARGETS = [
    Target("training:train_step", _train_step_name),
]

TRACE_TARGETS = [
    *STEP_TARGETS,
    Target("training:run_training", "training.run_training"),
    Target("ops:conv2d", "ops.conv2d", _conv_counters),
    Target("ops:conv2d_backward", "ops.conv2d_backward", _conv_backward_counters),
    Target("ops:fully_connected", "ops.fully_connected"),
    Target("ops:fully_connected_backward", "ops.fully_connected_backward"),
    Target("ops:bilinear_resize", "ops.bilinear_resize"),
    Target("ops:bilinear_resize_backward", "ops.bilinear_resize_backward"),
    Target("layers:Conv.forward", _conv_name("fwd")),
    Target("layers:Conv.backward", _conv_name("bwd")),
    *_method_pair("layers:SpatialChannelAttention", "layers.SpatialChannelAttention"),
    *_method_pair("layers:ChannelAttention", "layers.ChannelAttention"),
    *_method_pair("layers:Dense", "layers.Dense"),
    *_method_pair("model:DetectionHeads", "model.DetectionHeads"),
    *_method_pair("model:PartBranch", "model.PartBranch"),
    *_method_pair("model:HolisticBranch", "model.HolisticBranch"),
    Target("model:CdpmNetwork.window_vectors", "model.window_vectors"),
    Target("model:CdpmNetwork.window_vectors_backward", "model.window_vectors_backward"),
    Target("model:CdpmNetwork.calibrate", "model.calibrate"),
    Target("model:CdpmNetwork.select_part_windows", "model.select_part_windows"),
    Target("model:gather_windows", "model.gather_windows"),
    Target("model:scatter_window_grad", "model.scatter_window_grad"),
    Target("losses:part_softmax_loss_with_grad", "losses.part_softmax"),
    Target("losses:window_classification_loss_with_grad", "losses.window_classification"),
    Target("losses:regression_loss_with_grad", "losses.regression"),
    Target("losses:batch_hard_triplet_loss_with_grad", "losses.triplet"),
    Target("training:compose_batch", "training.compose_batch"),
    Target("training:SGDMomentum.step", "training.SGDMomentum.step"),
    Target("training:ImageStore.load", _image_store_hit),
    Target("augment:apply_online", "augment.apply_online"),
    Target("tensorio:save_tensors", "tensorio.save_tensors", _file_mb("path")),
    Target("tensorio:read_descriptors", "tensorio.read_descriptors", _file_mb("path")),
    Target("alignment:soft_label_matrix", "alignment.soft_label_matrix"),
    Target("alignment:select_window", "alignment.select_window"),
    Target("alignment:infer_granularity_layout", "alignment.infer_granularity_layout"),
    Target("data:read_ppm", "data.read_ppm", _file_mb("path")),
    Target("pipeline:extract_descriptors", "pipeline.extract_descriptors"),
    Target("pipeline:alignment_report", "pipeline.alignment_report"),
    Target("evaluate:evaluate_retrieval", "evaluate.evaluate_retrieval"),
    Target("evaluate:cosine_rank", "evaluate.cosine_rank"),
    Target("evaluate:average_precision", "evaluate.average_precision"),
]


def _ms(span):
    return ("ms", lambda s: s[span].incl_s * 1e3)


def _self_ms(span):
    return ("ms", lambda s: s[span].self_s * 1e3)


def _calls(span):
    return ("count", lambda s: float(s[span].calls))


def _counter(span, key, unit):
    return (unit, lambda s: s[span].counters.get(key, 0.0))


def _hit_ratio(s):
    hits = s["training.ImageStore.hit"].calls
    attempts = hits + s["training.ImageStore.miss"].calls
    return hits / attempts if attempts else 0.0


#: per-layer metric -> (unit, function of the per-name stats); totals per operation
LAYER_METRICS: dict[str, tuple[str, Callable]] = {
    "ops.conv2d.ms": _ms("ops.conv2d"),
    "ops.conv2d.calls": _calls("ops.conv2d"),
    "ops.conv2d.gflop": _counter("ops.conv2d", "gflop", "GFLOP"),
    "ops.conv2d.cols_mb": _counter("ops.conv2d", "cols_mb", "MB"),
    "ops.conv2d_backward.ms": _ms("ops.conv2d_backward"),
    "ops.conv2d_backward.gflop": _counter("ops.conv2d_backward", "gflop", "GFLOP"),
    **{
        f"layers.backbone.conv{i}.{d}_ms": _ms(f"layers.backbone.conv{i}.{d}")
        for i in range(1, 6)
        for d in ("fwd", "bwd")
    },
    **{
        f"{layer}.{d}_ms": _ms(f"{layer}.{d}")
        for layer in (
            "layers.SpatialChannelAttention",
            "layers.ChannelAttention",
            "layers.Dense",
            "model.DetectionHeads",
            "model.PartBranch",
            "model.HolisticBranch",
        )
        for d in ("fwd", "bwd")
    },
    **{
        f"{span}.ms": _ms(span)
        for span in (
            "ops.fully_connected",
            "ops.fully_connected_backward",
            "ops.bilinear_resize",
            "ops.bilinear_resize_backward",
            "model.window_vectors",
            "model.window_vectors_backward",
            "model.gather_windows",
            "model.scatter_window_grad",
            "losses.part_softmax",
            "losses.window_classification",
            "losses.regression",
            "losses.triplet",
            "training.compose_batch",
            "training.SGDMomentum.step",
            "augment.apply_online",
            "model.calibrate",
            "tensorio.save_tensors",
            "alignment.soft_label_matrix",
            "data.read_ppm",
            "model.select_part_windows",
            "alignment.select_window",
            "alignment.infer_granularity_layout",
            "evaluate.cosine_rank",
            "evaluate.average_precision",
            "tensorio.read_descriptors",
        )
    },
    **{
        f"training.train_step.stage{k}.self_ms": _self_ms(f"training.train_step.stage{k}")
        for k in (1, 2, 3)
    },
    "training.ImageStore.hit_ratio": ("ratio", _hit_ratio),
    "tensorio.save_tensors.mb": _counter("tensorio.save_tensors", "mb", "MB"),
    "data.read_ppm.mb": _counter("data.read_ppm", "mb", "MB"),
    "tensorio.read_descriptors.mb": _counter("tensorio.read_descriptors", "mb", "MB"),
    "alignment.select_window.calls": _calls("alignment.select_window"),
    "pipeline.extract_descriptors.self_ms": _self_ms("pipeline.extract_descriptors"),
    "pipeline.alignment_report.self_ms": _self_ms("pipeline.alignment_report"),
    "evaluate.evaluate_retrieval.self_ms": _self_ms("evaluate.evaluate_retrieval"),
    "evaluate.cosine_rank.calls": _calls("evaluate.cosine_rank"),
}


def layer_metrics(stats: dict[str, NameStats], ops: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value per operation, unit)."""
    out = {}
    for metric, (unit, value) in LAYER_METRICS.items():
        v = value(stats)
        out[metric] = (v if unit == "ratio" else v / ops, unit)
    return out
