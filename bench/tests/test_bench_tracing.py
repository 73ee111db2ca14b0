"""The tracer changes no numerics and accounts for a training step."""

import numpy as np
import pytest

from arcd import checkpoint, trainer
from arcd.data import pnm, synth

import tracing
import workloads


def _short_train(out, tracer=None):
    """Three iterations at batch 2 on 64x64 scenes; returns the clock."""
    samples = synth.generate(synth.SyntheticSceneSpec(
        size=64, change_fraction=1.0, seed=5), 4)
    cfg = trainer.TrainConfig(lr0=1e-3, max_iteration=3, batch_size=2,
                              seed=5, checkpoint_every=0)
    if tracer is not None:
        tracer.set_phase("train")
    clock = tracing.StepClock().install()
    try:
        result = trainer.train(samples, cfg, out)
    finally:
        clock.uninstall()
    return result, clock


@pytest.fixture
def tracer():
    t = tracing.Tracer().install()
    try:
        yield t
    finally:
        t.uninstall()


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _short_train(tmp_path_factory.mktemp("plain"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced short training, shared: (result, clock, tracer)."""
    t = tracing.Tracer().install()
    try:
        result, clock = _short_train(tmp_path_factory.mktemp("traced"), t)
    finally:
        t.uninstall()
    return result, clock, t


def _pair_outputs(seed=9):
    model = workloads.ChangeDetector(seed=seed)
    s = synth.generate(synth.SyntheticSceneSpec(size=64, seed=seed), 1)[0]
    return workloads.eval_outputs(model, s.image_t1, s.image_t2)


def test_tracing_leaves_loss_log_byte_identical(untraced, traced):
    result, _, tracer = traced
    assert result.log_path.read_bytes() == untraced[0].log_path.read_bytes()
    assert len(tracer.name) > 0


def test_tracing_leaves_inference_bit_identical(tracer):
    traced = _pair_outputs()
    tracer.uninstall()
    plain = _pair_outputs()
    for a, b in zip(traced, plain):
        assert a.tobytes() == b.tobytes()


def test_uninstall_restores_every_function(tracer):
    patched = [(owner, attr, getattr(owner, attr))
               for owner, attr, _ in tracer._saved]
    originals = list(tracer._saved)
    tracer.uninstall()
    for (owner, attr, original), (_, _, wrapped) in zip(originals, patched):
        assert getattr(owner, attr) is original
        assert wrapped is not original


def test_self_times_add_up_to_step_wall_time(traced):
    """Spans starting inside one middle iteration cover its wall time.

    The sum of self times over spans is the time the outermost spans
    cover; what lies outside them is untraced loop code (the schedule,
    zero_grad, the log line).  The stated margin: the spans cover at
    least 90 % of the step and never more than all of it.
    """
    _, clock, tracer = traced
    cols = tracer.arrays()
    assert (cols["self_ns"] >= 0).all()
    start, end = clock.ticks[1], clock.ticks[2]
    inside = (cols["t0"] >= start) & (cols["t0"] < end)
    assert (cols["t1"][inside] <= end).all()
    covered = int(cols["self_ns"][inside].sum())
    wall = end - start
    assert 0.90 * wall <= covered <= wall


def test_every_per_layer_metric_is_reported_and_nonzero(tmp_path):
    """A traced set-up, short training and one inferred pair exercise
    every layer the benchmark reports."""
    tracer = tracing.Tracer().install()
    try:
        tracer.set_phase("setup")
        paths = workloads.write_pairs(64, 1, 3, tmp_path)
        result, _ = _short_train(tmp_path / "train", tracer)
        tracer.set_phase("check")
        model = workloads.ChangeDetector(seed=4)
        checkpoint.load(model, result.checkpoint_path)
        tracer.set_phase("infer")
        img1, img2 = (pnm.read_image(p) for p in paths[0])
        probs, unc = workloads.eval_outputs(model, img1, img2)
        pnm.write_mask(tmp_path / "c.pgm", (probs >= 0.5).astype(np.uint8))
        pnm.write_gray(tmp_path / "u.pgm", unc)
    finally:
        tracer.uninstall()
    layers = tracer.per_layer(iterations=3, pairs=1, setups=1)
    assert set(layers) == set(tracing.per_layer_names())
    zero = sorted(name for name, (value, _) in layers.items()
                  if not value > 0)
    assert zero == []
