"""Operator-surface behavior through the argparse entry point."""

import os
import subprocess
import sys

import numpy as np
import pytest

import arcd
from arcd import cli
from arcd.data import read_mask


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds") / "data"
    assert run_cli("synth", "--out", root, "--count", "2", "--size", "64",
                   "--seed", "3") == 0
    return root


@pytest.fixture(scope="module")
def trained(tmp_path_factory, dataset):
    out = tmp_path_factory.mktemp("run") / "out"
    cfg = tmp_path_factory.mktemp("cfg") / "cfg.txt"
    cfg.write_text("lr0=0.0005\nmax_iteration=8\nbatch_size=2\n"
                   "checkpoint_every=4\nseed=1\n")
    assert run_cli("train", "--config", cfg, "--data", dataset, "--out", out,
                   "--quiet") == 0
    return out


class TestSynth:
    def test_layout_and_determinism(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run_cli("synth", "--out", out, "--count", "2",
                           "--size", "64", "--seed", "5") == 0
        for rel in ("A/0000.ppm", "B/0001.ppm", "label/0000.pgm"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_zero_change_fraction_empty_labels(self, tmp_path):
        out = tmp_path / "z"
        assert run_cli("synth", "--out", out, "--count", "2", "--size", "64",
                       "--change-frac", "0", "--seed", "1") == 0
        for i in range(2):
            assert (read_mask(out / "label" / f"000{i}.pgm") == 0).all()

    def test_nonempty_dir_needs_force(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert run_cli("synth", "--out", out, "--count", "1", "--size", "64") == 0
        assert run_cli("synth", "--out", out, "--count", "1", "--size", "64") == 1
        assert capsys.readouterr().err.startswith("error:")
        assert run_cli("synth", "--out", out, "--count", "1", "--size", "64",
                       "--force") == 0

    def test_indivisible_size_rejected(self, tmp_path, capsys):
        assert run_cli("synth", "--out", tmp_path / "x", "--count", "1",
                       "--size", "50") == 1
        assert "divisible by 32" in capsys.readouterr().err

    @pytest.mark.parametrize("size", [0, -32])
    def test_size_below_32_rejected_naming_field(self, tmp_path, capsys,
                                                 size):
        out = tmp_path / "x"
        assert run_cli("synth", "--out", out, "--count", "1",
                       f"--size={size}") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"size {size}" in err
        assert not out.exists()

    def test_empty_dataset_rejected(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run_cli("synth", "--out", out, "--count", "0") == 1
        assert "--count" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_outputs_exist(self, trained):
        assert (trained / "model.ckpt").exists()
        assert (trained / "ckpt-000004.ckpt").exists()
        log = (trained / "loss_log.tsv").read_text().splitlines()
        assert len(log) == 8

    def test_malformed_config_cites_line(self, tmp_path, dataset, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("lr0=0.001\noops\n")
        assert run_cli("train", "--config", cfg, "--data", dataset,
                       "--out", tmp_path / "o") == 1
        assert "line 2" in capsys.readouterr().err

    def test_missing_lr0_warns(self, tmp_path, dataset, capsys):
        cfg = tmp_path / "nolr.txt"
        cfg.write_text("max_iteration=1\nbatch_size=1\ncheckpoint_every=0\n")
        assert run_cli("train", "--config", cfg, "--data", dataset,
                       "--out", tmp_path / "o", "--quiet") == 0
        assert "warning" in capsys.readouterr().err.lower()


class TestThreadCap:
    @pytest.mark.parametrize("imports,warns", [("numpy, arcd", True),
                                               ("arcd, numpy", False)])
    def test_warns_when_numpy_came_first(self, imports, warns):
        env = {k: v for k, v in os.environ.items() if k not in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(arcd.__file__))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c",
             f"import {imports}"], env=env, capture_output=True, text=True,
            timeout=60)
        assert (proc.returncode != 0) == warns, proc.stderr
        assert ("cannot cap" in proc.stderr) == warns


class TestInfer:
    def test_swapped_inputs_bit_identical_mask(self, tmp_path, dataset,
                                               trained):
        ckpt = trained / "model.ckpt"
        args = ["infer", "--checkpoint", ckpt,
                "--out-change", tmp_path / "c1.pgm",
                "--out-uncertainty", tmp_path / "u1.pgm"]
        assert run_cli(*args, "--t1", dataset / "A" / "0000.ppm",
                       "--t2", dataset / "B" / "0000.ppm") == 0
        assert run_cli("infer", "--checkpoint", ckpt,
                       "--t1", dataset / "B" / "0000.ppm",
                       "--t2", dataset / "A" / "0000.ppm",
                       "--out-change", tmp_path / "c2.pgm",
                       "--out-uncertainty", tmp_path / "u2.pgm") == 0
        assert (tmp_path / "c1.pgm").read_bytes() == \
            (tmp_path / "c2.pgm").read_bytes()

    def test_output_shapes_match_input(self, tmp_path, dataset, trained):
        assert run_cli("infer", "--checkpoint", trained / "model.ckpt",
                       "--t1", dataset / "A" / "0001.ppm",
                       "--t2", dataset / "B" / "0001.ppm",
                       "--out-change", tmp_path / "c.pgm",
                       "--out-uncertainty", tmp_path / "u.pgm",
                       "--out-prob", tmp_path / "p.arct") == 0
        mask = read_mask(tmp_path / "c.pgm")
        assert mask.shape == (64, 64)
        from arcd.autodiff import arct
        probs = arct.load(tmp_path / "p.arct")
        assert probs.shape == (1, 64, 64)
        assert (probs > 0).all() and (probs < 1).all()

    def test_checkpoint_architecture_mismatch_names_parameter(
            self, tmp_path, dataset, trained, capsys):
        assert run_cli("infer", "--checkpoint", trained / "model.ckpt",
                       "--variant", "wo-oue",
                       "--t1", dataset / "A" / "0000.ppm",
                       "--t2", dataset / "B" / "0000.ppm",
                       "--out-change", tmp_path / "c.pgm",
                       "--out-uncertainty", tmp_path / "u.pgm") == 1
        err = capsys.readouterr().err
        assert "mismatched parameter" in err

    def test_variant_without_uncertainty_writes_nothing(self, tmp_path,
                                                         dataset, capsys):
        from arcd import checkpoint
        from arcd.network import ChangeDetector, variant_config
        ckpt = tmp_path / "wo-oue.ckpt"
        checkpoint.save(ChangeDetector(variant_config("wo-oue")), ckpt)
        assert run_cli("infer", "--checkpoint", ckpt, "--variant", "wo-oue",
                       "--t1", dataset / "A" / "0000.ppm",
                       "--t2", dataset / "B" / "0000.ppm",
                       "--out-change", tmp_path / "c.pgm",
                       "--out-uncertainty", tmp_path / "u.pgm") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "no uncertainty branch" in err[0]
        assert not (tmp_path / "c.pgm").exists()

    def test_failed_output_leaves_no_output(self, tmp_path, dataset, trained,
                                            capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert run_cli("infer", "--checkpoint", trained / "model.ckpt",
                       "--t1", dataset / "A" / "0000.ppm",
                       "--t2", dataset / "B" / "0000.ppm",
                       "--out-change", out / "c.pgm",
                       "--out-uncertainty", out / "u.pgm",
                       "--out-prob", tmp_path / "missing" / "p.arct") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert list(out.iterdir()) == []

    def test_indivisible_image_rejected(self, tmp_path, trained, capsys):
        from arcd.data import write_image
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 1, (3, 48, 48))
        for name in ("a.ppm", "b.ppm"):
            write_image(tmp_path / name, img)
        assert run_cli("infer", "--checkpoint", trained / "model.ckpt",
                       "--t1", tmp_path / "a.ppm", "--t2", tmp_path / "b.ppm",
                       "--out-change", tmp_path / "c.pgm",
                       "--out-uncertainty", tmp_path / "u.pgm") == 1
        assert "divisible by 32" in capsys.readouterr().err


class TestEval:
    def test_perfect_match_scores_one(self, dataset, capsys):
        assert run_cli("eval", "--pred-dir", dataset / "label",
                       "--gt-dir", dataset / "label") == 0
        out = capsys.readouterr().out
        assert "f1=1.000000" in out
        assert "kappa=1.000000" in out

    def test_missing_prediction_lists_id(self, tmp_path, dataset, capsys):
        pred = tmp_path / "preds"
        pred.mkdir()
        (pred / "0000.pgm").write_bytes(
            (dataset / "label" / "0000.pgm").read_bytes())
        assert run_cli("eval", "--pred-dir", pred,
                       "--gt-dir", dataset / "label") == 1
        assert "0001" in capsys.readouterr().err

    def test_matches_counting_oracle(self, tmp_path, capsys):
        from arcd.data import write_mask
        rng = np.random.default_rng(1)
        gt_dir = tmp_path / "gt"
        pred_dir = tmp_path / "pred"
        gt_dir.mkdir(), pred_dir.mkdir()
        tp = fp = fn = tn = 0
        for i in range(4):
            gt = (rng.uniform(size=(16, 16)) < 0.5).astype(np.uint8)
            pr = (rng.uniform(size=(16, 16)) < 0.5).astype(np.uint8)
            write_mask(gt_dir / f"{i:04d}.pgm", gt)
            write_mask(pred_dir / f"{i:04d}.pgm", pr)
            tp += int((pr & gt).sum())
            fp += int((pr & ~gt.astype(bool)).sum())
            fn += int((~pr.astype(bool) & gt).sum())
            tn += int((~pr.astype(bool) & ~gt.astype(bool)).sum())
        assert run_cli("eval", "--pred-dir", pred_dir, "--gt-dir", gt_dir) == 0
        out = capsys.readouterr().out
        pre = tp / (tp + fp)
        rec = tp / (tp + fn)
        want_f1 = 2 * pre * rec / (pre + rec)
        got = dict(line.split("=") for line in out.splitlines()
                   if "=" in line and " " not in line)
        assert abs(float(got["f1"]) - want_f1) < 1e-6
        assert abs(float(got["oa"]) - (tp + tn) / (tp + fp + fn + tn)) < 1e-6


class TestGradcheckCommand:
    def test_subset_passes(self, capsys):
        assert run_cli("gradcheck", "--seed", "0",
                       "--only", "conv2d,sigmoid_chain,mul_broadcast") == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3

    def test_unknown_case_is_an_error(self, capsys):
        # A stale name must not pass by running nothing.
        assert run_cli("gradcheck", "--only", "conv2d,bogus_case") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "bogus_case" in err[0]
        assert "conv2d" in err[0] and "mul_broadcast" in err[0]


class TestAblate:
    def test_unknown_variant_lists_names(self, tmp_path, dataset, capsys):
        assert run_cli("ablate", "--variant", "bogus", "--data", dataset,
                       "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert "full" in err and "wo-krm" in err

    def test_full_variant_matches_plain_train(self, tmp_path, dataset,
                                              trained):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("lr0=0.0005\nmax_iteration=8\nbatch_size=2\n"
                       "checkpoint_every=4\nseed=1\n")
        out = tmp_path / "ablate_full"
        assert run_cli("ablate", "--variant", "full", "--data", dataset,
                       "--out", out, "--config", cfg, "--quiet") == 0
        assert (out / "loss_log.tsv").read_text() == \
            (trained / "loss_log.tsv").read_text()
        assert (out / "report.txt").read_text().startswith("variant=full")

    def test_wo_krm_has_fewer_parameters(self):
        from arcd.network import ChangeDetector, variant_config
        full = ChangeDetector(seed=0).num_parameters()
        wo = ChangeDetector(variant_config("wo-krm"), seed=0).num_parameters()
        assert wo < full
