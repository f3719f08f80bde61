"""The benchmark's span tracer (perfbench/spans.py) against this source tree.

The tracer is read, never changed: every target it names must resolve,
installing and restoring it must give back every binding it replaced, and
no call it wraps may run on a convolution block worker, because its span
stack is shared and not thread-safe.
"""
import importlib
import inspect
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

import cdpm
from cdpm import ops, pipeline, training
from cdpm.alignment import SelectionConfig
from cdpm.augment import AugmentationConfig
from cdpm.losses import LossWeights, TripletConfig
from cdpm.model import WINDOW_HEIGHT, CdpmNetwork, ModelConfig, gather_windows

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    """perfbench/spans.py, loaded without writing a bytecode file beside it."""
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    sys.modules[module.__name__] = module  # dataclasses look up their module
    try:
        exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
        for target in module.TRACE_TARGETS:
            importlib.import_module(f"cdpm.{target.where.partition(':')[0]}")
        yield module
    finally:
        del sys.modules[module.__name__]


def _resolve(where: str):
    module_name, _, attr = where.partition(":")
    owner = importlib.import_module(f"cdpm.{module_name}")
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, name


def _bindings() -> dict:
    """Every name bound in a cdpm module or in a class one defines."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "cdpm" or mod_name.startswith("cdpm.")):
            continue
        for name, value in list(vars(mod).items()):
            out[mod_name, name] = value
            if inspect.isclass(value) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    out[mod_name, name, attr] = member
    return out


def test_every_trace_target_resolves_and_is_wrapped(spans):
    for target in spans.TRACE_TARGETS:
        owner, name = _resolve(target.where)
        assert callable(vars(owner)[name]), target.where
    with spans.Tracer(cdpm, spans.TRACE_TARGETS):
        for target in spans.TRACE_TARGETS:
            owner, name = _resolve(target.where)
            assert hasattr(vars(owner)[name], "__wrapped__"), target.where


def test_install_then_restore_gives_back_every_binding(spans):
    before = _bindings()
    tracer = spans.Tracer(cdpm, spans.TRACE_TARGETS).install()
    try:
        during = _bindings()
    finally:
        tracer.restore()
    after = _bindings()
    assert sum(during[k] is not before[k] for k in before) >= len(spans.TRACE_TARGETS)
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_wrapped_calls_run_on_the_calling_thread(spans, monkeypatch, tiny_bench):
    """A two-worker backbone forward (kept and forward-only) and backward
    over several image blocks, a refined part branch's forward and
    backward, and descriptor extraction, alignment scoring and a stage-2
    feature cache build over several chunks, each chunk's backbone
    overlapping the caller's work on the last one, call every traced
    function on this thread."""
    threads = []

    class ThreadRecordingTracer(spans.Tracer):
        def _wrap(self, fn, target):
            wrapped = super()._wrap(fn, target)

            def wrapper(*args, **kwargs):
                threads.append(threading.get_ident())
                return wrapped(*args, **kwargs)

            return wrapper

    monkeypatch.setattr(ops, "WORKERS", 2)
    monkeypatch.setattr(cdpm.model, "FEATURE_CHUNK", 7)
    index, anns = tiny_bench
    assert len(index.split("train")) >= 3 * cdpm.model.FEATURE_CHUNK
    net = CdpmNetwork(ModelConfig(classes=4), np.random.default_rng(0))
    train = training.build_train_set(index, anns, net.cfg,
                                     AugmentationConfig(translation_copies=1),
                                     np.random.default_rng(0))
    images = np.random.default_rng(1).random((3, 384, 128, 3))
    with ThreadRecordingTracer(cdpm, spans.TRACE_TARGETS) as tracer:
        net.backbone.features(images)
        fmap, acts = net.backbone.forward(images)
        net.backbone.backward(acts, np.ones_like(fmap))
        branch = net.part_branches[0]
        _, scores, ctx = branch.forward(gather_windows(fmap, np.zeros(3, int), WINDOW_HEIGHT), True)
        branch.backward(ctx, np.ones_like(scores))
        pipeline.extract_descriptors(net, index, "train", SelectionConfig())
        pipeline.alignment_report(net, index, anns, ("train",))
        training._build_feature_cache(net, train, np.arange(len(train)), training.ImageStore())
    names = {span[0] for span in tracer.spans}
    assert {"layers.Conv.bwd", "ops.conv2d_backward", "model.PartBranch.bwd",
            "pipeline.extract_descriptors", "pipeline.alignment_report", "data.read_ppm",
            "model.DetectionHeads.fwd", "training.ImageStore.miss"} <= names
    assert len(threads) == len(tracer.spans)
    assert set(threads) == {threading.get_ident()}


def test_each_stage_of_the_full_model_has_its_own_step_span(spans):
    """The benchmark names each train step's span after its stage, read off
    the step's flags; on the full model the schedule's three stages map to
    stages 1, 2 and 3, so every per-stage step rate gets samples."""
    full_cfg = ModelConfig(classes=4, with_refinement=True, with_alignment=True, with_mgf=True)
    stages = [spans.stage_of(s.flags)
              for s in training.stage_schedule(CdpmNetwork(full_cfg))]
    assert stages == [1, 2, 3]


def test_heads_and_window_gradient_spans_follow_the_stage(spans, tiny_bench):
    """A traced stage-3 step records the heads' backward and the window-vector
    gradient; a frozen stage-2 step records the heads' backward alone. The
    step calls both itself, so the per-layer metrics keep both spans."""
    index, anns = tiny_bench
    cfg = ModelConfig(classes=index.class_count, backbone_channels=(4, 8, 8, 8, 8),
                      feature_dim=16, holistic_dim=16, attention_reduction=4, with_mgf=True)
    net = CdpmNetwork(cfg, np.random.default_rng(4))
    aug = AugmentationConfig(translation_copies=1)
    train = training.build_train_set(index, anns, cfg, aug, np.random.default_rng(0))
    tri = TripletConfig(identities_per_batch=3, images_per_identity=2)
    batch = training.compose_batch(train, training.ImageStore(), np.random.default_rng(5),
                                   aug, 6, tri)
    assert batch.aligned_idx.size
    _, stage2, stage3 = (s.flags for s in training.stage_schedule(net))
    recorded = {}
    for stage, flags, fmap in ((2, stage2, net.backbone.features(batch.images)),
                               (3, stage3, None)):
        with spans.Tracer(cdpm, spans.TRACE_TARGETS) as tracer:
            training.train_step(net, batch, flags, LossWeights(), tri, fmap=fmap)
        recorded[stage] = {span[0] for span in tracer.spans}
    assert {"training.train_step.stage3", "model.DetectionHeads.bwd",
            "model.window_vectors_backward"} <= recorded[3]
    assert {"training.train_step.stage2", "model.DetectionHeads.bwd"} <= recorded[2]
    assert "model.window_vectors_backward" not in recorded[2]
