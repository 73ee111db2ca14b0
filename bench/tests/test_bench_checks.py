"""Each correctness check passes on good output and fails on a corrupted one."""

import numpy as np
import pytest

from arcd.data import pnm

import checks
import workloads

LR0, POWER, ITERS = 1e-3, 0.9, 20


def _log_lines(decay=0.04):
    """A loss log as the trainer writes it: float32 totals, poly lr."""
    lines = []
    for it in range(ITERS):
        bce, dice, unc = (np.float32(v * (1.0 - decay * it))
                          for v in (6.25, 4.5, 0.75))
        total = np.float32(np.float32(bce + dice) + unc)
        lr = checks.poly_lr(LR0, POWER, it, ITERS)
        lines.append(f"{it}\t{bce:.17g}\t{dice:.17g}\t{unc:.17g}"
                     f"\t{total:.17g}\t{lr:.17g}\n")
    return lines


def _log_failures(lines):
    return checks.loss_log_failures("".join(lines), lr0=LR0, power=POWER,
                                    max_iteration=ITERS)


def _with_field(lines, row, col, value):
    fields = lines[row].rstrip("\n").split("\t")
    fields[col] = value
    out = list(lines)
    out[row] = "\t".join(fields) + "\n"
    return out


def test_clean_loss_log_passes():
    assert _log_failures(_log_lines()) == []


@pytest.mark.parametrize("row,col,value,expect", [
    (7, 4, "nan", "non-finite"),
    (7, 5, "0.00099", "lr"),
    (7, 4, "12.5", "differs from"),
    (7, 0, "8", "iteration column"),
])
def test_altered_log_line_fails(row, col, value, expect):
    fails = _log_failures(_with_field(_log_lines(), row, col, value))
    assert any(expect in f for f in fails), fails


def test_missing_log_line_fails():
    assert _log_failures(_log_lines()[:-1])


def test_flat_loss_fails():
    assert any("tail loss" in f for f in _log_failures(_log_lines(0.0)))


def _masks(seed=0):
    rng = np.random.default_rng(seed)
    gts = [(rng.uniform(size=(32, 32)) < 0.3).astype(np.uint8)
           for _ in range(3)]
    preds = []
    for g in gts:
        p = g.copy()
        p[rng.uniform(size=g.shape) < 0.1] ^= 1
        preds.append(p)
    return preds, gts


def _f1(preds, gts):
    tp = sum(int((p & g).sum()) for p, g in zip(preds, gts))
    fp = sum(int((p & (1 - g)).sum()) for p, g in zip(preds, gts))
    fn = sum(int(((1 - p) & g).sum()) for p, g in zip(preds, gts))
    return 2 * tp / (2 * tp + fp + fn)


def test_f1_check_passes_and_catches_one_flipped_pixel():
    preds, gts = _masks()
    reported = _f1(preds, gts)
    assert checks.f1_failures(preds, gts, reported) == []
    preds[1][4, 4] ^= 1
    assert checks.f1_failures(preds, gts, reported)


def test_f1_check_rejects_all_changed_prediction():
    _, gts = _masks()
    preds = [np.ones_like(g) for g in gts]
    fails = checks.f1_failures(preds, gts, _f1(preds, gts))
    assert any("all-changed" in f for f in fails)


@pytest.fixture(scope="module")
def written_maps(tmp_path_factory):
    """Real outputs of one 64x64 pair, written and read back as PGMs."""
    out = tmp_path_factory.mktemp("maps")
    paths = workloads.write_pairs(64, 1, 4, out)
    model = workloads.ChangeDetector(seed=4)
    img1, img2 = (pnm.read_image(p) for p in paths[0])
    probs, unc = workloads.eval_outputs(model, img1, img2)
    pnm.write_mask(out / "c.pgm", (probs >= 0.5).astype(np.uint8))
    pnm.write_gray(out / "u.pgm", unc)
    swapped, _ = workloads.eval_outputs(model, img2, img1)
    return (probs, unc, pnm.read_mask(out / "c.pgm"),
            pnm.read_gray(out / "u.pgm"), swapped)


def test_written_maps_pass(written_maps):
    probs, unc, mask, gray, swapped = written_maps
    assert checks.map_failures(probs, unc, mask, gray) == []
    assert checks.swap_failures(probs, swapped) == []


def test_one_flipped_mask_pixel_fails(written_maps):
    probs, unc, mask, gray, _ = written_maps
    mask = mask.copy()
    mask[10, 20] ^= 1
    assert any("change PGM" in f
               for f in checks.map_failures(probs, unc, mask, gray))


def test_off_by_one_uncertainty_level_fails(written_maps):
    probs, unc, mask, gray, _ = written_maps
    gray = gray.copy()
    # One grey level further from the map value than the written one.
    step = 1.0 / 255 if gray[3, 3] >= unc[3, 3] else -1.0 / 255
    gray[3, 3] = gray[3, 3] + step
    assert any("uncertainty PGM" in f
               for f in checks.map_failures(probs, unc, mask, gray))


@pytest.mark.parametrize("bad", [np.nan, 1.5, -0.25])
def test_map_outside_unit_interval_fails(written_maps, bad):
    probs, unc, mask, gray, _ = written_maps
    for i in range(2):
        maps = [probs.copy(), unc.copy()]
        maps[i][5, 5] = bad
        assert checks.map_failures(maps[0], maps[1], mask, gray)


def test_swap_check_catches_a_small_difference(written_maps):
    probs = written_maps[0]
    moved = probs.copy()
    moved[7, 7] += 2e-6
    assert checks.swap_failures(probs, moved)


def test_identical_check_catches_one_ulp(written_maps):
    probs = written_maps[0]
    moved = probs.copy()
    moved[0, 0] = np.nextafter(moved[0, 0], np.float32(2))
    assert checks.identical_failures("x", [probs], [probs.copy()]) == []
    assert checks.identical_failures("x", [probs], [moved])
