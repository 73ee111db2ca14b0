"""Correctness checks on the program's outputs.

Every check returns a list of failure messages (empty when it passes).
Expected values are computed here, apart from the program, or are
properties the method must have; none is a stored copy of an earlier
output.
"""

from __future__ import annotations

import math

import numpy as np

# A float32 sum of three terms, each rounded once, stays within a few ulps.
_F32_SUM_ULPS = 4
# The tail loss must fall at least this far below the first iteration's.
TAIL_RATIO_MAX = 0.6
SWAP_TOL = 1e-6


def poly_lr(lr0: float, power: float, iteration: int,
            max_iteration: int) -> float:
    return lr0 * (1.0 - iteration / max_iteration) ** power


def parse_loss_log(text: str) -> list[list[float]]:
    return [[float(v) for v in line.split("\t")]
            for line in text.splitlines()]


def tail_mean(totals: list[float]) -> float:
    """Mean of the last tenth (at least one value)."""
    k = max(len(totals) // 10, 1)
    return sum(totals[-k:]) / k


def loss_log_failures(text: str, *, lr0: float, power: float,
                      max_iteration: int) -> list[str]:
    """Finite lines, the poly schedule, total = sum of terms, a falling loss."""
    try:
        rows = parse_loss_log(text)
    except ValueError as e:
        return [f"loss log: unparsable line ({e})"]
    fails = []
    if len(rows) != max_iteration:
        fails.append(f"loss log: {len(rows)} lines, expected {max_iteration}")
    for i, row in enumerate(rows):
        if len(row) != 6:
            fails.append(f"loss log line {i}: {len(row)} fields, expected 6")
            continue
        it, bce, dice, unc, total, lr = row
        if not all(math.isfinite(v) for v in row):
            fails.append(f"loss log line {i}: non-finite value")
            continue
        if it != i:
            fails.append(f"loss log line {i}: iteration column reads {it}")
        want_lr = poly_lr(lr0, power, i, max_iteration)
        if not math.isclose(lr, want_lr, rel_tol=1e-12, abs_tol=0.0):
            fails.append(f"loss log line {i}: lr {lr!r}, expected {want_lr!r}")
        parts = bce + dice + unc
        tol = _F32_SUM_ULPS * np.finfo(np.float32).eps * max(abs(parts), 1.0)
        if abs(total - parts) > tol:
            fails.append(f"loss log line {i}: total {total!r} differs from "
                         f"l_bce + l_dice + l_u = {parts!r}")
    if not fails and rows:
        first = rows[0][4]
        tail = tail_mean([r[4] for r in rows])
        if not tail <= TAIL_RATIO_MAX * first:
            fails.append(f"loss log: tail loss {tail:.4f} is not below "
                         f"{TAIL_RATIO_MAX} x first loss {first:.4f}")
    return fails


def f1_from_counts(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def f1_failures(preds: list[np.ndarray], gts: list[np.ndarray],
                reported_f1: float) -> list[str]:
    """Recount F1 from the predicted masks; it must beat all-changed."""
    tp = fp = fn = 0
    for pred, gt in zip(preds, gts):
        p, g = pred.astype(bool), gt.astype(bool)
        tp += int(np.count_nonzero(p & g))
        fp += int(np.count_nonzero(p & ~g))
        fn += int(np.count_nonzero(~p & g))
    f1 = f1_from_counts(tp, fp, fn)
    positives = sum(int(np.count_nonzero(g)) for g in gts)
    negatives = sum(g.size for g in gts) - positives
    all_changed = f1_from_counts(positives, negatives, 0)
    fails = []
    if abs(f1 - reported_f1) > 1e-12:
        fails.append(f"held-out F1: evaluate_model gives {reported_f1!r}, "
                     f"pixel counts give {f1!r}")
    if not f1 > all_changed:
        fails.append(f"held-out F1 {f1:.4f} does not beat the all-changed "
                     f"prediction's {all_changed:.4f}")
    return fails


def map_failures(probs: np.ndarray, unc: np.ndarray, mask_read: np.ndarray,
                 gray_read: np.ndarray) -> list[str]:
    """Maps finite and in [0, 1]; the written PGMs match the maps."""
    fails = []
    for name, m in (("change", probs), ("uncertainty", unc)):
        if not np.isfinite(m).all():
            fails.append(f"{name} map has non-finite values")
        elif m.min() < 0.0 or m.max() > 1.0:
            fails.append(f"{name} map leaves [0, 1]: "
                         f"[{m.min()}, {m.max()}]")
    want = probs >= 0.5
    if mask_read.shape != want.shape:
        fails.append(f"change PGM has shape {mask_read.shape}, map "
                     f"{want.shape}")
    elif not np.array_equal(mask_read.astype(bool), want):
        bad = int(np.count_nonzero(mask_read.astype(bool) != want))
        fails.append(f"change PGM differs from probs >= 0.5 at {bad} pixels")
    if gray_read.shape != unc.shape:
        fails.append(f"uncertainty PGM has shape {gray_read.shape}, map "
                     f"{unc.shape}")
    else:
        # 8-bit quantisation moves a value by at most half a step (plus
        # float32 rounding of the scaled value).
        err = float(np.abs(gray_read - np.clip(unc, 0.0, 1.0)).max())
        if err > 0.5 / 255 + 1e-6:
            fails.append(f"uncertainty PGM is off the map by {err:.3g}")
    return fails


def swap_failures(probs: np.ndarray, swapped: np.ndarray) -> list[str]:
    """Swapping the two epochs must leave the change map unchanged."""
    diff = float(np.abs(probs.astype(np.float64) - swapped).max())
    if not diff < SWAP_TOL:
        return [f"epoch swap moves the change map by {diff:.3g} "
                f"(limit {SWAP_TOL})"]
    return []


def identical_failures(what: str, first: list[np.ndarray],
                       again: list[np.ndarray]) -> list[str]:
    """Outputs that must be bit-identical."""
    if len(first) != len(again):
        return [f"{what}: {len(again)} outputs, expected {len(first)}"]
    for a, b in zip(first, again):
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            return [f"{what}: outputs are not bit-identical"]
    return []
