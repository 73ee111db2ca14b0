"""Objective functions against direct formula evaluation."""

import math

import numpy as np
import pytest

from arcd.autodiff import Tensor, backward, collect_kinks, ops
from arcd.loss import (bce, boundary_target, dice, total_loss,
                       uncertainty_target)
from arcd.network import AblationConfig


def tmap(values):
    return Tensor(np.asarray(values, dtype=np.float64))


class TestBce:
    def test_perfect_prediction_near_zero(self):
        g = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert bce(tmap(g), tmap(g)).item() <= 1e-6

    def test_half_everywhere_is_ln2(self):
        rng = np.random.default_rng(0)
        g = (rng.uniform(size=(8, 8)) < 0.5).astype(float)
        p = np.full((8, 8), 0.5)
        assert bce(tmap(p), tmap(g)).item() == pytest.approx(math.log(2),
                                                             abs=1e-12)

    def test_single_pixel_value(self):
        got = bce(tmap([[0.9]]), tmap([[1.0]])).item()
        assert got == pytest.approx(-math.log(0.9), abs=1e-12)

    def test_non_negative_random(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            p = rng.uniform(size=(6, 6))
            g = rng.uniform(size=(6, 6))
            assert bce(tmap(p), tmap(g)).item() >= 0.0

    def test_nan_input_rejected(self):
        bad = np.full((2, 2), np.nan)
        with pytest.raises(ValueError, match="NaN"):
            bce(tmap(bad), tmap(np.zeros((2, 2))))

    def test_shape_mismatch_rejected(self):
        from arcd.errors import ShapeError
        with pytest.raises(ShapeError):
            bce(tmap(np.zeros((2, 2))), tmap(np.zeros((2, 3))))


class TestDice:
    def test_perfect_overlap_near_zero(self):
        g = np.zeros((4, 4))
        g[1:3, 1:3] = 1.0
        assert dice(tmap(g), tmap(g)).item() == pytest.approx(0.0, abs=1e-12)

    def test_empty_empty_with_smoothing(self):
        z = np.zeros((4, 4))
        assert dice(tmap(z), tmap(z)).item() == 0.0

    def test_disjoint_halves_worked_value(self):
        # p marks 2 of 4 pixels, g the other 2: 1 - 1/5 = 0.8 with smooth 1.
        p = np.array([[1.0, 1.0], [0.0, 0.0]])
        g = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert dice(tmap(p), tmap(g)).item() == pytest.approx(0.8, abs=1e-12)

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            p = rng.uniform(size=(5, 5))
            g = (rng.uniform(size=(5, 5)) < 0.5).astype(float)
            v = dice(tmap(p), tmap(g)).item()
            assert 0.0 <= v <= 1.0


def composed_bce(p, g, lo, hi):
    """Reference: bce and its gradient as direct float64 formulas."""
    pc = np.clip(p, lo, hi)
    value = -np.mean(g * np.log(pc) + (1 - g) * np.log(1 - pc))
    grad = np.where((p > lo) & (p < hi), (pc - g) / (pc * (1 - pc)), 0.0)
    return value, grad / p.size


def composed_dice(p, g, smooth):
    """Reference: dice and its gradient as direct float64 formulas."""
    num = 2 * np.sum(p * g) + smooth
    den = np.sum(p) + np.sum(g) + smooth
    return 1 - num / den, (num - 2 * g * den) / den ** 2


class TestFusedLosses:
    LO, HI = 1e-7, 1 - 1e-7

    def _probs(self):
        # Random interior values plus values at and beyond both bounds.
        rng = np.random.default_rng(9)
        edge = [-0.5, 0.0, 1e-9, self.LO, self.HI, 1 - 1e-9, 1.0, 1.5]
        p = np.concatenate([rng.uniform(size=56), edge]).reshape(1, 1, 8, 8)
        soft = rng.uniform(size=p.shape)
        binary = (rng.uniform(size=p.shape) < 0.5).astype(float)
        return p, (soft, binary)

    @staticmethod
    def _fused(op, p, *args):
        x = Tensor(p, requires_grad=True)
        loss = op(x, *args)
        backward(loss)
        return loss.item(), x.grad

    def test_bce_matches_composed_formula(self):
        p, targets = self._probs()
        for g in targets:
            value, grad = self._fused(ops.bce, p, g, self.LO, self.HI)
            want_value, want_grad = composed_bce(p, g, self.LO, self.HI)
            assert value == pytest.approx(want_value, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(grad, want_grad, rtol=1e-12,
                                       atol=1e-12)

    def test_dice_matches_composed_formula(self):
        p, targets = self._probs()
        for g in targets:
            value, grad = self._fused(ops.dice, p, g, 1.0)
            want_value, want_grad = composed_dice(p, g, 1.0)
            assert value == pytest.approx(want_value, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(grad, want_grad, rtol=1e-12,
                                       atol=1e-12)

    def test_bce_records_its_clamp_kink(self):
        p = np.array([0.07, 0.3, 0.95, 0.5])
        with collect_kinks() as sink:
            ops.bce(Tensor(p), np.zeros(4), 0.1, 0.9)
        (pattern, margin), = sink
        assert np.array_equal(pattern, [False, True, False, True])
        assert margin == pytest.approx(0.03, rel=1e-12)

    def test_target_is_a_constant(self):
        p = Tensor(np.full((2, 2), 0.4), requires_grad=True)
        g = Tensor(np.eye(2), requires_grad=True)
        backward(ops.add(ops.bce(p, g, self.LO, self.HI), ops.dice(p, g, 1.0)))
        assert p.grad is not None and g.grad is None


class TestUncertaintyTarget:
    def test_false_positive_is_maximal(self):
        got = uncertainty_target(tmap([[1.0]]), tmap([[0.0]]))
        assert got.data.item() == 1.0

    def test_correct_binary_is_zero(self):
        g = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert (uncertainty_target(tmap(g), tmap(g)).data == 0.0).all()

    def test_soft_value(self):
        got = uncertainty_target(tmap([[0.7]]), tmap([[1.0]]))
        assert got.data.item() == pytest.approx(0.3, abs=1e-15)

    def test_equals_xor_on_all_2x2_binary_pairs(self):
        # Exhaustive: 16 x 16 binary 2x2 map pairs.
        for a_bits in range(16):
            for b_bits in range(16):
                a = np.array([(a_bits >> k) & 1 for k in range(4)],
                             dtype=float).reshape(2, 2)
                b = np.array([(b_bits >> k) & 1 for k in range(4)],
                             dtype=float).reshape(2, 2)
                got = uncertainty_target(tmap(a), tmap(b)).data
                assert np.array_equal(got, np.logical_xor(a, b).astype(float))

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(size=(4, 4))
        g = rng.uniform(size=(4, 4))
        ab = uncertainty_target(tmap(p), tmap(g)).data
        ba = uncertainty_target(tmap(g), tmap(p)).data
        assert np.array_equal(ab, ba)


class TestBoundaryTarget:
    def test_all_zero_mask(self):
        assert (boundary_target(np.zeros((5, 5))) == 0.0).all()

    def test_single_interior_pixel(self):
        g = np.zeros((5, 5))
        g[2, 2] = 1.0
        want = np.zeros((5, 5))
        want[2, 2] = 1.0
        want[1, 2] = want[3, 2] = want[2, 1] = want[2, 3] = 1.0
        assert np.array_equal(boundary_target(g), want)

    def test_half_plane_two_pixel_divide(self):
        g = np.zeros((6, 6))
        g[3:, :] = 1.0
        want = np.zeros((6, 6))
        want[2, :] = want[3, :] = 1.0
        assert np.array_equal(boundary_target(g), want)

    def test_matches_neighborhood_enumeration(self):
        rng = np.random.default_rng(4)
        g = (rng.uniform(size=(9, 9)) < 0.4).astype(float)
        got = boundary_target(g)
        h, w = g.shape
        for i in range(h):
            for j in range(w):
                diff = False
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ni, nj = i + di, j + dj
                    if 0 <= ni < h and 0 <= nj < w and g[ni, nj] != g[i, j]:
                        diff = True
                assert got[i, j] == float(diff), (i, j)


class TestTotalLoss:
    def _bundle(self, rng, n_aux=2):
        g = (rng.uniform(size=(1, 1, 8, 8)) < 0.4).astype(float)
        aux = [ops.sigmoid(Tensor(rng.standard_normal((1, 1, 8, 8))))
               for _ in range(n_aux)]
        final = ops.sigmoid(Tensor(rng.standard_normal((1, 1, 8, 8))))
        unc = ops.sigmoid(Tensor(rng.standard_normal((1, 1, 8, 8))))
        return aux, final, unc, g

    def test_perfect_predictions_tiny_total(self):
        g = np.zeros((1, 1, 8, 8))
        g[:, :, 2:5, 3:6] = 1.0
        perfect = tmap(g)
        zero_unc = tmap(np.zeros_like(g))
        bundle = total_loss([perfect, perfect], perfect, zero_unc, g,
                            AblationConfig())
        assert bundle.total.item() <= 1e-5

    def test_bundle_identities(self):
        rng = np.random.default_rng(5)
        aux, final, unc, g = self._bundle(rng)
        b = total_loss(aux, final, unc, g, AblationConfig())
        assert b.change.item() == pytest.approx(b.bce.item() + b.dice.item(),
                                                rel=1e-12)
        assert b.total.item() == pytest.approx(
            b.change.item() + b.uncertainty.item(), rel=1e-12)
        for value in b.values().values():
            assert np.isfinite(value)

    def test_without_uncertainty_total_equals_change(self):
        rng = np.random.default_rng(6)
        aux, final, _, g = self._bundle(rng)
        cfg = AblationConfig(use_oue=False, use_uncertainty_aware_fusion=False)
        b = total_loss(aux, final, None, g, cfg)
        assert b.uncertainty.item() == 0.0
        assert b.total.item() == b.change.item()

    def test_boundary_supervision_switches_target(self):
        rng = np.random.default_rng(7)
        aux, final, unc, g = self._bundle(rng)
        default = total_loss(aux, final, unc, g, AblationConfig())
        alt = total_loss(aux, final, unc, g,
                         AblationConfig(uncertainty_supervision="boundary"))
        assert default.uncertainty.item() != alt.uncertainty.item()

    def test_sums_over_all_supervised_predictions(self):
        rng = np.random.default_rng(8)
        aux, final, unc, g = self._bundle(rng, n_aux=3)
        cfg = AblationConfig()
        all_terms = total_loss(aux, final, unc, g, cfg)
        fewer = total_loss(aux[:1], final, unc, g, cfg)
        expected_extra = sum(bce(p, tmap(g)).item() + dice(p, tmap(g)).item()
                             for p in aux[1:])
        assert all_terms.change.item() == pytest.approx(
            fewer.change.item() + expected_extra, rel=1e-10)
