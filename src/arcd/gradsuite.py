"""The standard gradient-verification suite.

Each case pairs a differentiable computation with the tolerance its
class of ops must meet: 1e-4 for primitives, 1e-6 for smooth elementwise
chains, 1e-3 for composed network blocks and the full model.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .autodiff import GradCheckReport, gradcheck, ops, projected_sum
from .errors import ArcdError
from .loss import total_loss
from .network import (AblationConfig, ChangeDetector, GatedFusion,
                      ReviewBlock, TemporalDifference, UncertaintyBranch)
from .nn import BatchNorm, SqueezeExcite


@dataclass
class SuiteCase:
    name: str
    tolerance: float
    run: Callable[[int], GradCheckReport]


def _bn_case(seed):
    bn = BatchNorm(3, dtype=np.float64)
    params = list(bn.named_parameters())
    return gradcheck(lambda x: projected_sum(bn(x), seed),
                     [(2, 3, 4, 4)], seed, params=params)


def _bn_grouped_case(seed):
    # Two groups of two samples, each normalized by its own statistics.
    bn = BatchNorm(3, groups=2, dtype=np.float64)
    params = list(bn.named_parameters())
    return gradcheck(lambda x: projected_sum(bn(x), seed),
                     [(4, 3, 4, 4)], seed, params=params)


def _bn_eval_case(seed):
    bn = BatchNorm(3, dtype=np.float64)
    rng = np.random.default_rng(seed)
    bn.running_mean = rng.standard_normal(3)
    bn.running_var = rng.uniform(0.5, 2.0, 3)
    bn.eval()
    params = list(bn.named_parameters())
    return gradcheck(lambda x: projected_sum(bn(x), seed),
                     [(2, 3, 4, 4)], seed, params=params)


def _module_case(build, shapes, max_checks=24):
    def run(seed):
        module = build(np.random.default_rng(seed + 1))
        params = list(module.named_parameters())
        return gradcheck(lambda *xs: projected_sum(module(*xs), seed),
                         shapes, seed, params=params, max_checks=max_checks)
    return run


def _fam(rng):
    return GatedFusion(6, 4, 4, gated=True, rng=rng, dtype=np.float64)


def _tde(rng):
    return TemporalDifference(4, rng=rng, dtype=np.float64)


def _se(rng):
    return SqueezeExcite(8, rng=rng, dtype=np.float64)


def _krm(rng):
    block = ReviewBlock(4, 6, use_conflict=True, use_reverse=True,
                        rng=rng, dtype=np.float64)

    def wrapped(d_low, d_high, logit_low, logit_high):
        p_low = ops.sigmoid(logit_low)
        p_high = ops.sigmoid(logit_high)
        refined, p_hat = block(d_low, d_high, p_low, p_high)
        return ops.add(projected_sum(refined, 11), projected_sum(p_hat, 12))

    wrapped.named_parameters = block.named_parameters
    return wrapped


def _oue(rng):
    branch = UncertaintyBranch(4, 4, gated=True, rng=rng, dtype=np.float64)

    def wrapped(images, d2):
        u, p = branch(images, d2)
        return ops.add(projected_sum(u, 21), projected_sum(p, 22))

    wrapped.named_parameters = branch.named_parameters
    return wrapped


def _full_network_case(seed):
    # Batch of 2: at stride 32 a 32x32 input leaves one value per channel
    # and train-mode batch norm requires more than one.  Boundary
    # supervision keeps the uncertainty target a constant of the ground
    # truth; the default supervision applies a stop-gradient that central
    # differences cannot honor.
    cfg = AblationConfig(uncertainty_supervision="boundary")
    model = ChangeDetector(cfg, seed=seed + 1, dtype=np.float64)
    params = list(model.named_parameters())
    g = np.zeros((2, 1, 32, 32))
    g[:, :, 8:20, 10:24] = 1.0

    def loss_fn(t1, t2):
        bundle = model(t1, t2)
        objective = total_loss(bundle.side_probs(), bundle.change,
                               bundle.uncertainty, g, model.cfg).total
        outputs = projected_sum(bundle.change, 31)
        outputs = ops.add(outputs, projected_sum(bundle.uncertainty, 32))
        outputs = ops.add(outputs, projected_sum(bundle.features, 33))
        return ops.add(objective, outputs)

    # Thousands of relu units at this size always leave some preactivation
    # inside any fixed margin, so the draw-level resample cannot converge;
    # the per-coordinate kink-crossing redraw inside gradcheck is the
    # safeguard that matters here.
    return gradcheck(loss_fn, [(2, 3, 32, 32), (2, 3, 32, 32)], seed,
                     params=params, max_checks=3, kink_margin=0.0)


def _soft_target(seed):
    rng = np.random.default_rng(seed + 0x5EED)
    return rng.uniform(0.0, 1.0, (2, 1, 4, 4))


def _bce_case(seed):
    # Bounds at 0.2 and 0.8 clip part of the sigmoid's range, so the
    # check covers both the clipped (zero-gradient) and the free values.
    return gradcheck(
        lambda x: ops.bce(ops.sigmoid(x), _soft_target(seed), 0.2, 0.8),
        [(2, 1, 4, 4)], seed)


def _loss_case(seed):
    # Boundary supervision makes the uncertainty target a pure constant of
    # the ground truth, so the full objective is finite-difference exact.
    # (The default supervision detaches a prediction-derived target; that
    # stop-gradient is asserted separately in the unit tests.)
    g = (np.arange(36).reshape(1, 1, 6, 6) % 3 == 0).astype(float)
    cfg = AblationConfig(uncertainty_supervision="boundary")

    def loss_fn(logit_a, logit_b, logit_u):
        pa = ops.sigmoid(logit_a)
        pb = ops.sigmoid(logit_b)
        pu = ops.sigmoid(logit_u)
        return total_loss([pa], pb, pu, g, cfg).total

    return gradcheck(loss_fn, [(1, 1, 6, 6)] * 3, seed)


def build_suite() -> list[SuiteCase]:
    return [
        SuiteCase("conv2d", 1e-4, lambda s: gradcheck(
            lambda x, w, b: projected_sum(
                ops.conv2d(x, w, b, stride=2, padding=1), s),
            [(2, 3, 6, 6), (4, 3, 3, 3), (4,)], s)),
        SuiteCase("conv2d_same", 1e-4, lambda s: gradcheck(
            lambda x, w, b: projected_sum(
                ops.conv2d(x, w, b, stride=1, padding=1), s),
            [(2, 3, 5, 5), (4, 3, 3, 3), (4,)], s)),
        SuiteCase("conv2d_1x1", 1e-4, lambda s: gradcheck(
            lambda x, w, b: projected_sum(ops.conv2d(x, w, b), s),
            [(2, 4, 5, 5), (3, 4, 1, 1), (3,)], s)),
        SuiteCase("conv3d", 1e-4, lambda s: gradcheck(
            lambda x, w, b: projected_sum(
                ops.conv3d(x, w, b, padding=(0, 1, 1)), s),
            [(1, 3, 2, 4, 4), (4, 3, 2, 3, 3), (4,)], s)),
        SuiteCase("batch_norm_train", 1e-4, _bn_case),
        SuiteCase("batch_norm_grouped", 1e-4, _bn_grouped_case),
        SuiteCase("batch_norm_eval", 1e-4, _bn_eval_case),
        SuiteCase("elementwise_chain", 1e-4, lambda s: gradcheck(
            lambda a, b: projected_sum(
                ops.mul(ops.relu(ops.add(a, b)),
                        ops.one_minus(ops.add(a, ops.mul(b, -1.0)))), s),
            [(3, 5), (3, 5)], s)),
        SuiteCase("sigmoid_chain", 1e-6, lambda s: gradcheck(
            lambda x: projected_sum(ops.sigmoid(ops.sigmoid(x)), s),
            [(4, 5)], s)),
        SuiteCase("upsample_bilinear", 1e-4, lambda s: gradcheck(
            lambda x: projected_sum(ops.upsample_bilinear(x, 2), s),
            [(2, 3, 4, 4)], s)),
        SuiteCase("global_avg_pool", 1e-4, lambda s: gradcheck(
            lambda x: projected_sum(ops.global_avg_pool(x), s),
            [(2, 5, 4, 4)], s)),
        SuiteCase("mul_broadcast", 1e-4, lambda s: gradcheck(
            lambda x, v, m: projected_sum(ops.add(
                ops.mul(x, ops.sigmoid(v)), ops.mul(x, ops.sigmoid(m))), s),
            [(2, 3, 4, 4), (2, 3, 1, 1), (2, 1, 4, 4)], s)),
        SuiteCase("scale_channels", 1e-4, lambda s: gradcheck(
            lambda x, v: projected_sum(ops.mul(x, ops.sigmoid(v)), s),
            [(2, 3, 4, 4), (2, 3, 1, 1)], s)),
        SuiteCase("scale_map", 1e-4, lambda s: gradcheck(
            lambda x, m: projected_sum(ops.mul(x, ops.sigmoid(m)), s),
            [(2, 3, 4, 4), (2, 1, 4, 4)], s)),
        SuiteCase("concat", 1e-4, lambda s: gradcheck(
            lambda a, b: projected_sum(ops.concat([a, b], axis=1), s),
            [(2, 3, 4, 4), (2, 2, 4, 4)], s)),
        SuiteCase("narrow", 1e-4, lambda s: gradcheck(
            lambda x: projected_sum(ops.narrow(x, 1, 1, 3), s),
            [(2, 4, 3, 3)], s)),
        SuiteCase("bce", 1e-4, _bce_case),
        SuiteCase("dice", 1e-4, lambda s: gradcheck(
            lambda x: ops.dice(ops.sigmoid(x), _soft_target(s), 1.0),
            [(2, 1, 4, 4)], s)),
        SuiteCase("loss_total", 1e-4, _loss_case),
        SuiteCase("fam_block", 1e-3, _module_case(
            _fam, [(1, 6, 4, 4), (1, 4, 8, 8)])),
        # Training-mode blocks take a stacked Siamese pair, as in the network.
        SuiteCase("tde_block", 1e-3, _module_case(_tde, [(4, 4, 5, 5)])),
        SuiteCase("channel_attention", 1e-3, _module_case(_se, [(2, 8, 4, 4)])),
        SuiteCase("krm_block", 1e-3, _module_case(
            _krm, [(1, 4, 8, 8), (1, 6, 4, 4), (1, 1, 8, 8), (1, 1, 4, 4)])),
        SuiteCase("oue_branch", 1e-3, _module_case(
            _oue, [(2, 3, 32, 32), (1, 4, 8, 8)],
            max_checks=8)),
        SuiteCase("full_network_32", 1e-3, _full_network_case),
    ]


def run_suite(seed: int = 0, only: Optional[list[str]] = None,
              out=None) -> bool:
    """Run the suite, print one line per case, return overall pass/fail.

    ``only`` names the cases to run; a name that matches no case raises
    ArcdError before any case runs.
    """
    out = out or sys.stdout
    cases = build_suite()
    names = [case.name for case in cases]
    unknown = [name for name in only or () if name not in names]
    if unknown:
        raise ArcdError(f"unknown gradcheck case(s) {', '.join(unknown)} "
                        f"(valid: {', '.join(names)})")
    all_ok = True
    for case in cases:
        if only and case.name not in only:
            continue
        report = case.run(seed)
        ok = report.ok(case.tolerance)
        all_ok &= ok
        status = "PASS" if ok else "FAIL"
        print(f"{case.name}: {status} (max rel err {report.max_rel_err:.3e}, "
              f"tol {case.tolerance:.0e})", file=out)
    return all_ok
