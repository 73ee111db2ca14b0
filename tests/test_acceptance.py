"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one machine-readable line:
    ACCEPTANCE <n> <name>: PASS|FAIL (<details>)
Run with ``pytest tests/test_acceptance.py -v -s``.  The suite trains
several desk-scale models; expect a few minutes of CPU time.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest

from arcd import checkpoint
from arcd.autodiff import Tensor, arct, no_grad, ops
from arcd.data import (SyntheticSceneSpec, generate, read_image,
                       read_mask, write_image, write_mask)
from arcd.gradsuite import build_suite
from arcd.loss import uncertainty_target
from arcd.metrics import (ConfusionMatrix, confusion, score,
                          uncertainty_separation)
from arcd.network import (VARIANTS, ChangeDetector, conflict_attention,
                          reverse_attention, variant_config)
from arcd.trainer import TrainConfig, evaluate_model, poly_lr, predict, train

pytestmark = pytest.mark.acceptance


def report(n, name, ok, details=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({details})" if details else ""
    print(f"\nACCEPTANCE {n} {name}: {status}{suffix}", flush=True)
    assert ok, f"criterion {n} {name} failed: {details}"


def map_trainings(fn, jobs):
    """``[fn(job) for job in jobs]``, spread over up to two processes.

    C6 and C7 train several independent models.  Each training is
    deterministic given its config and BLAS runs one thread per process
    (the root conftest's caps reach the workers through the
    environment), so the results are the same wherever a job runs.  Two
    workers bound the memory the suite takes.
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(len(jobs), cpus, 2)
    if workers < 2:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
        return list(pool.map(fn, jobs))


# -------------------------------------------------------------------------
# 1. Gradient suite
# -------------------------------------------------------------------------

def test_c1_gradient_suite():
    start = time.perf_counter()
    failures = []
    worst = 0.0
    for case in build_suite():
        rep = case.run(0)
        worst = max(worst, rep.max_rel_err / case.tolerance)
        if not rep.ok(case.tolerance):
            failures.append(f"{case.name}={rep.max_rel_err:.2e}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    report(1, "gradient-suite", ok,
           f"worst rel-to-tol {worst:.3f}, {elapsed:.0f}s"
           + (f", failures: {failures}" if failures else ""))


# -------------------------------------------------------------------------
# 2. Oracle equivalence
# -------------------------------------------------------------------------

def test_c2_oracle_equivalence():
    from test_metrics import counting_oracle
    from test_tensor_ops import naive_conv2d, naive_conv3d

    rng = np.random.default_rng(2)
    conv_err = 0.0
    for stride, padding in ((1, 0), (2, 1)):
        x = rng.standard_normal((2, 3, 6, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        got = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride,
                         padding=padding).data
        conv_err = max(conv_err, np.abs(
            got - naive_conv2d(x, w, b, stride, padding)).max())
    x3 = rng.standard_normal((1, 2, 2, 5, 5))
    w3 = rng.standard_normal((3, 2, 2, 3, 3))
    b3 = rng.standard_normal(3)
    got3 = ops.conv3d(Tensor(x3), Tensor(w3), Tensor(b3),
                      padding=(0, 1, 1)).data
    conv_err = max(conv_err, np.abs(
        got3 - naive_conv3d(x3, w3, b3, (0, 1, 1))[:, :, 0]).max())

    counts_exact = True
    for _ in range(100):
        pred = (rng.uniform(size=(16, 16)) < 0.5).astype(np.uint8)
        gt = (rng.uniform(size=(16, 16)) < 0.5).astype(np.uint8)
        cm = confusion(pred, gt)
        counts_exact &= (cm.tp, cm.fp, cm.fn, cm.tn) == \
            counting_oracle(pred, gt)

    s = score(ConfusionMatrix(6, 2, 2, 90))
    metric_ok = (abs(s.kappa - 0.728261) < 1e-6
                 and abs(s.f1 - 0.75) < 1e-6
                 and abs(s.iou - 0.6) < 1e-6)

    ok = conv_err < 1e-12 and counts_exact and metric_ok
    report(2, "oracle-equivalence", ok,
           f"conv max err {conv_err:.1e}, counts exact: {counts_exact}, "
           f"kappa {s.kappa:.6f}")


# -------------------------------------------------------------------------
# 3. Formula fidelity
# -------------------------------------------------------------------------

def test_c3_formula_fidelity():
    xor_ok = True
    for a_bits in range(16):
        for b_bits in range(16):
            a = np.array([(a_bits >> k) & 1 for k in range(4)],
                         dtype=float).reshape(2, 2)
            b = np.array([(b_bits >> k) & 1 for k in range(4)],
                         dtype=float).reshape(2, 2)
            got = uncertainty_target(Tensor(a), Tensor(b)).data
            xor_ok &= np.array_equal(got, np.logical_xor(a, b).astype(float))

    rng = np.random.default_rng(3)
    att_err = 0.0
    for _ in range(20):
        p1 = rng.uniform(size=(1, 1, 8, 8))
        p2 = rng.uniform(size=(1, 1, 8, 8))
        coa = conflict_attention(Tensor(p1), Tensor(p2)).data
        att_err = max(att_err, np.abs(
            coa - (p1 * (1 - p2) + p2 * (1 - p1))).max())
        rea = reverse_attention(Tensor(p2)).data
        att_err = max(att_err, np.abs(rea - (1 - p2)).max())

    cfg = TrainConfig(lr0=5e-4, power=0.9, max_iteration=20000)
    poly_err = max(abs(poly_lr(it, cfg) - 5e-4 * (1 - it / 20000) ** 0.9)
                   for it in (0, 1, 10000, 19999))

    ok = xor_ok and att_err < 1e-12 and poly_err < 1e-12
    report(3, "formula-fidelity", ok,
           f"xor 256/256: {xor_ok}, attention err {att_err:.1e}, "
           f"poly err {poly_err:.1e}")


# -------------------------------------------------------------------------
# 4. Temporal-swap invariance
# -------------------------------------------------------------------------

def test_c4_temporal_swap_invariance():
    max32 = 0.0
    exact64 = True
    for draw in range(20):
        rng = np.random.default_rng(400 + draw)
        t1 = rng.uniform(0, 1, (1, 3, 64, 64))
        t2 = rng.uniform(0, 1, (1, 3, 64, 64))

        m32 = ChangeDetector(seed=draw, dtype=np.float32)
        m32.eval()
        with no_grad():
            a = m32(Tensor(t1.astype(np.float32)),
                    Tensor(t2.astype(np.float32))).change.data
            b = m32(Tensor(t2.astype(np.float32)),
                    Tensor(t1.astype(np.float32))).change.data
        max32 = max(max32, float(np.abs(a - b).max()))

        m64 = ChangeDetector(seed=draw, dtype=np.float64)
        m64.eval()
        with no_grad():
            a = m64(Tensor(t1), Tensor(t2)).change.data
            b = m64(Tensor(t2), Tensor(t1)).change.data
        exact64 &= np.array_equal(a, b)

    ok = max32 < 1e-6 and exact64
    report(4, "temporal-swap-invariance", ok,
           f"float32 max diff {max32:.2e}, float64 bit-exact: {exact64}")


# -------------------------------------------------------------------------
# 5. Desk-scale learning
# -------------------------------------------------------------------------

def test_c5_desk_scale_learning(tmp_path):
    start = time.perf_counter()
    samples = generate(
        SyntheticSceneSpec(size=64, change_fraction=1.0, seed=11), 8)
    cfg = TrainConfig(lr0=1e-3, max_iteration=1000, batch_size=4, seed=3,
                      checkpoint_every=500)
    result = train(samples, cfg, tmp_path / "c5", progress=False)
    scores, _ = evaluate_model(result.model, samples)
    elapsed = time.perf_counter() - start
    ratio = result.final_loss / result.first_loss
    ok = scores.f1 >= 0.95 and ratio < 0.20 and elapsed < 900.0
    report(5, "desk-scale-learning", ok,
           f"F1 {scores.f1:.4f}, loss ratio {ratio:.3f}, {elapsed:.0f}s")


# -------------------------------------------------------------------------
# 6. Uncertainty behavior
# -------------------------------------------------------------------------

def c6_uncertainty_means(seed):
    data_spec = SyntheticSceneSpec(size=64, seed=600 + seed)
    pool = generate(data_spec, 48)
    train_set, held_out = pool[:32], pool[32:]
    cfg = TrainConfig(max_iteration=500, batch_size=4, seed=seed,
                      checkpoint_every=0)
    result = train(train_set, cfg, f"/tmp/arcd_accept_c6_{seed}",
                   progress=False)
    outputs = [predict(result.model, s.image_t1, s.image_t2)
               for s in held_out]
    sep = uncertainty_separation(
        np.concatenate([unc.reshape(-1) for _, unc in outputs]),
        np.concatenate([(probs >= 0.5).reshape(-1) for probs, _ in outputs]),
        np.concatenate([s.gt_change.reshape(-1) for s in held_out]))
    return sep.mean_on_errors, sep.mean_on_correct


def test_c6_uncertainty_separation():
    means = map_trainings(c6_uncertainty_means, (0, 1, 2))
    err_means = [mean_err for mean_err, _ in means]
    ok_means = [mean_ok for _, mean_ok in means]
    avg_err = float(np.mean(err_means))
    avg_ok = float(np.mean(ok_means))
    ok = avg_err > avg_ok
    report(6, "uncertainty-separation", ok,
           f"mean u on errors {avg_err:.4f} > on correct {avg_ok:.4f}; "
           f"per-seed err {['%.3f' % v for v in err_means]}")


# -------------------------------------------------------------------------
# 7. Ablation ordering
# -------------------------------------------------------------------------

def c7_variant_f1(name):
    samples = generate(SyntheticSceneSpec(size=64, seed=700), 8)
    cfg = TrainConfig(max_iteration=300, batch_size=4, seed=7,
                      checkpoint_every=0,
                      ablation=variant_config(name))
    result = train(samples, cfg, f"/tmp/arcd_accept_c7_{name}",
                   progress=False)
    scores, _ = evaluate_model(result.model, samples)
    return scores.f1


def test_c7_ablation_ordering():
    f1 = dict(zip(VARIANTS, map_trainings(c7_variant_f1, list(VARIANTS))))
    ok = (f1["wo-krm"] <= f1["full"]
          and f1["krm-wo-coa-rea"] <= f1["full"]
          and len(f1) == 9)
    details = ", ".join(f"{k}={v:.3f}" for k, v in sorted(f1.items()))
    report(7, "ablation-ordering", ok, details)


# -------------------------------------------------------------------------
# 8. Persistence
# -------------------------------------------------------------------------

def test_c8_persistence(tmp_path):
    model = ChangeDetector(seed=8, dtype=np.float32)
    rng = np.random.default_rng(80)
    warm1 = Tensor(rng.uniform(0, 1, (2, 3, 64, 64)).astype(np.float32))
    warm2 = Tensor(rng.uniform(0, 1, (2, 3, 64, 64)).astype(np.float32))
    model.train()
    model(warm1, warm2)   # move running statistics off their init
    from arcd.autodiff import clear_record
    clear_record()

    path = tmp_path / "model.ckpt"
    checkpoint.save(model, path)
    reloaded = ChangeDetector(seed=9, dtype=np.float32)
    checkpoint.load(reloaded, path)

    model.eval(), reloaded.eval()
    bit_identical = True
    for k in range(5):
        t1 = Tensor(rng.uniform(0, 1, (1, 3, 64, 64)).astype(np.float32))
        t2 = Tensor(rng.uniform(0, 1, (1, 3, 64, 64)).astype(np.float32))
        with no_grad():
            a = model(t1, t2)
            b = reloaded(t1, t2)
        bit_identical &= np.array_equal(a.change.data, b.change.data)
        bit_identical &= np.array_equal(a.uncertainty.data,
                                        b.uncertainty.data)

    arr = rng.standard_normal((3, 5, 7)).astype(np.float32)
    arct.save(tmp_path / "t.arct", arr)
    arct_ok = np.array_equal(arct.load(tmp_path / "t.arct"), arr)

    mask = (rng.uniform(size=(64, 64)) < 0.5).astype(np.uint8)
    write_mask(tmp_path / "m.pgm", mask)
    mask_ok = np.array_equal(read_mask(tmp_path / "m.pgm"), mask)
    img = np.round(rng.uniform(0, 1, (3, 64, 64)) * 255) / 255.0
    write_image(tmp_path / "i.ppm", img)
    img_ok = np.abs(read_image(tmp_path / "i.ppm") - img).max() < 1e-12

    ok = bit_identical and arct_ok and mask_ok and img_ok
    report(8, "persistence", ok,
           f"checkpoint bit-identical: {bit_identical}, arct: {arct_ok}, "
           f"pgm/ppm: {mask_ok and img_ok}")
