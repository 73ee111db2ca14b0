"""Finite-difference verification of every primitive and composed block."""

import numpy as np
import pytest

from arcd.autodiff import Tensor, backward, gradcheck, ops, projected_sum
from arcd.gradsuite import build_suite

PRIMITIVE_TOL = 1e-4
COMPOSITE_TOL = 1e-3

CASES = {case.name: case for case in build_suite()}


@pytest.mark.parametrize("name", [n for n in CASES if n != "full_network_32"])
def test_suite_case(name):
    case = CASES[name]
    report = case.run(0)
    assert report.ok(case.tolerance), f"{name}:\n{report}"


@pytest.mark.slow
def test_full_network_case():
    case = CASES["full_network_32"]
    report = case.run(0)
    assert report.ok(case.tolerance), f"full_network_32:\n{report}"


def test_gradcheck_is_deterministic():
    case = CASES["conv2d"]
    first = case.run(5)
    second = case.run(5)
    assert [e.max_rel_err for e in first.entries] == \
        [e.max_rel_err for e in second.entries]


def test_gradcheck_flags_missing_gradient_path():
    # Cutting half the product rule must surface as a failing entry,
    # not an exception.
    def half_grad(x):
        return ops.sum_all(ops.mul(x, x.detach()))

    report = gradcheck(half_grad, [(3,)], seed=0)
    assert not report.ok(1e-4)


def test_relu_kink_redraw_engages():
    # Values within the margin of the relu kink force input redraws.
    calls = {"n": 0}

    def loss(x):
        calls["n"] += 1
        shifted = ops.add(x, -float(x.data.reshape(-1)[0]))  # pins one zero
        return ops.sum_all(ops.relu(shifted))

    report = gradcheck(loss, [(4,)], seed=0, max_redraws=3)
    assert report.redraws == 3  # every draw has an exact-zero preactivation


@pytest.mark.parametrize("kernel,stride,padding", [
    ((1, 1), 1, 1),   # padding wider than the kernel reach: cropped adjoint
    ((3, 3), 1, 3),
    ((3, 1), 1, 1),   # unequal kernel sides
    ((3, 3), 3, 2),   # stride that leaves padded rows and columns unread
])
def test_conv2d_gradients_beyond_network_shapes(kernel, stride, padding):
    report = gradcheck(
        lambda x, w, b: projected_sum(
            ops.conv2d(x, w, b, stride=stride, padding=padding), 4),
        [(2, 3, 5, 6), (4, 3) + kernel, (4,)], seed=4)
    assert report.ok(PRIMITIVE_TOL)


def test_log_clamp_chain():
    # bce at the training loss's clamp bounds, against a binary target.
    target = np.eye(4)
    report = gradcheck(
        lambda x: ops.bce(ops.sigmoid(x), target, 1e-7, 1 - 1e-7),
        [(4, 4)], seed=2)
    assert report.ok(PRIMITIVE_TOL)


def test_reshape_and_stack_gradients():
    def fn(a, b):
        stacked = ops.stack_time(a, b)
        n, c, t, h, w = stacked.shape
        return projected_sum(ops.reshape(stacked, (n, c * t, h, w)), 3)

    report = gradcheck(fn, [(1, 2, 3, 3), (1, 2, 3, 3)], seed=3)
    assert report.ok(PRIMITIVE_TOL)


def test_upsample_large_factors():
    for factor in (4, 8):
        report = gradcheck(
            lambda x: projected_sum(ops.upsample_bilinear(x, factor), factor),
            [(1, 2, 3, 3)], seed=factor)
        assert report.ok(PRIMITIVE_TOL)


def test_mini_encoder_gradcheck():
    # The first two encoder stages as a standalone composite.
    from arcd.network import Encoder

    enc = Encoder(rng=np.random.default_rng(11), dtype=np.float64)

    def two_stages(x):
        for block in (*enc.stage2, *enc.stage3):
            x = block(x)
        return projected_sum(x, 13)

    params = [(n, p) for n, p in enc.named_parameters()
              if n.startswith(("stage2", "stage3"))]
    report = gradcheck(two_stages, [(2, 3, 16, 16)], seed=6, params=params,
                       max_checks=6, kink_margin=0.0)
    assert report.ok(COMPOSITE_TOL), str(report)


def test_independent_records_across_threads():
    # Two threads differentiate separate models with no shared state.
    import threading
    from arcd.network import TemporalDifference

    results = {}

    def work(tag, seed):
        tde = TemporalDifference(4, rng=np.random.default_rng(seed),
                                 dtype=np.float64)
        rng = np.random.default_rng(seed + 1)
        a = Tensor(rng.standard_normal((1, 4, 6, 6)), requires_grad=True)
        b = Tensor(rng.standard_normal((1, 4, 6, 6)), requires_grad=True)
        pair = ops.concat([a, b], axis=0)     # stacked, as in training
        backward(ops.sum_all(ops.mul(tde(pair), tde(pair))))
        results[tag] = a.grad.copy()

    serial = {}
    work("t1", 1)
    work("t2", 2)
    serial = dict(results)
    results.clear()
    threads = [threading.Thread(target=work, args=(tag, seed))
               for tag, seed in (("t1", 1), ("t2", 2))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for tag in ("t1", "t2"):
        assert np.array_equal(results[tag], serial[tag])


def test_detached_uncertainty_target_blocks_gradient():
    """The prediction-derived uncertainty target is a stop-gradient."""
    from arcd.loss import bce, uncertainty_target

    rng = np.random.default_rng(4)
    logit = Tensor(rng.standard_normal((1, 1, 4, 4)), requires_grad=True)
    unc_logit = Tensor(rng.standard_normal((1, 1, 4, 4)), requires_grad=True)
    g = (rng.uniform(size=(1, 1, 4, 4)) < 0.5).astype(float)

    p = ops.sigmoid(logit)
    target = uncertainty_target(p, g)
    assert not target.requires_grad
    loss = bce(ops.sigmoid(unc_logit), target)
    backward(loss)
    assert logit.grad is None          # no path through the target
    assert unc_logit.grad is not None  # the branch itself trains
