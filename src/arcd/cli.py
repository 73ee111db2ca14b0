"""Command-line interface.

Subcommands: synth, train, infer, eval, gradcheck, ablate.  Every
command is deterministic given its flags and seeds; failures exit
nonzero with one machine-parsable line ``error: <message>`` on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import checkpoint, data, metrics
from .autodiff import arct
from .errors import ArcdError, DataError
from .network import VARIANTS, ChangeDetector, variant_config
from .trainer import (TrainConfig, evaluate_model, parse_config, predict,
                      train)


def cmd_synth(args) -> int:
    if args.size % 32:
        raise DataError(f"--size {args.size} must be divisible by 32")
    spec = data.SyntheticSceneSpec(size=args.size,
                                   change_fraction=args.change_frac,
                                   seed=args.seed)
    samples = data.generate(spec, args.count)
    data.write_dataset(args.out, samples, force=args.force)
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = parse_config(args.config) if args.config else TrainConfig()
    samples = data.read_dataset(args.data)
    result = train(samples, cfg, args.out, progress=not args.quiet)
    print(f"finished {result.iterations} iterations; "
          f"final loss {result.final_loss:.4f}; "
          f"checkpoint {result.checkpoint_path}")
    return 0


def _load_model(ckpt_path, variant: str) -> ChangeDetector:
    model = ChangeDetector(variant_config(variant), dtype=np.float32)
    checkpoint.load(model, ckpt_path)
    return model


def _write_all(outputs) -> None:
    """Write every (path, writer, array) or none: each goes to a temporary
    beside its target, renamed into place once all writes succeeded."""
    temps = []
    try:
        for path, write, arr in outputs:
            path = Path(path)
            temps.append((path.with_name(path.name + ".tmp"), path))
            write(temps[-1][0], arr)
        for tmp, path in temps:
            os.replace(tmp, path)
    finally:
        for tmp, _ in temps:
            tmp.unlink(missing_ok=True)


def cmd_infer(args) -> int:
    model = _load_model(args.checkpoint, args.variant)
    if not model.cfg.use_oue:
        raise ArcdError(f"variant '{args.variant}' has no uncertainty branch; "
                        f"cannot write {args.out_uncertainty}")
    img1 = data.read_image(args.t1)
    img2 = data.read_image(args.t2)
    if img1.shape != img2.shape:
        raise DataError(f"image shapes differ: {img1.shape} vs {img2.shape}")
    if img1.shape[1] % 32 or img1.shape[2] % 32:
        raise DataError(f"image dims {img1.shape[1]}x{img1.shape[2]} must be "
                        f"divisible by 32")
    probs, unc = predict(model, img1, img2)
    outputs = [(args.out_change, data.write_mask,
                (probs >= 0.5).astype(np.uint8)),
               (args.out_uncertainty, data.write_gray, unc)]
    if args.out_prob:
        outputs.append((args.out_prob, arct.save, probs[None]))
    _write_all(outputs)
    print(f"wrote {args.out_change} and {args.out_uncertainty}")
    return 0


def cmd_eval(args) -> int:
    gt_dir = Path(args.gt_dir)
    pred_dir = Path(args.pred_dir)
    ids = sorted(p.stem for p in gt_dir.glob("*.pgm"))
    if not ids:
        raise DataError(f"{gt_dir}: no ground-truth masks found")
    missing = [sid for sid in ids if not (pred_dir / f"{sid}.pgm").exists()]
    if missing:
        raise DataError(f"missing predictions for: {', '.join(missing)}")
    total = metrics.ConfusionMatrix(0, 0, 0, 0)
    for sid in ids:
        total = total + metrics.confusion(
            data.read_mask(pred_dir / f"{sid}.pgm"),
            data.read_mask(gt_dir / f"{sid}.pgm"))
    scores = metrics.score(total)
    print(metrics.format_table(scores))
    print(metrics.format_kv(scores))
    return 0


def cmd_gradcheck(args) -> int:
    from .gradsuite import run_suite
    only = args.only.split(",") if args.only else None
    return 0 if run_suite(seed=args.seed, only=only) else 1


def cmd_ablate(args) -> int:
    if args.variant not in VARIANTS:
        raise ArcdError(f"unknown variant '{args.variant}' "
                        f"(valid: {', '.join(VARIANTS)})")
    base = parse_config(args.config) if args.config else TrainConfig()
    from dataclasses import replace
    cfg = replace(base, ablation=variant_config(args.variant))
    samples = data.read_dataset(args.data)
    out_dir = Path(args.out)
    result = train(samples, cfg, out_dir, progress=not args.quiet)
    scores, _ = evaluate_model(result.model, samples)
    report = (f"variant={args.variant}\n"
              + metrics.format_kv(scores) + "\n")
    (out_dir / "report.txt").write_text(report)
    print(metrics.format_table(scores))
    print(report, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcd",
        description="Bi-temporal change detection with pixel-wise "
                    "uncertainty: synthesize data, train, infer, evaluate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--change-frac", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true",
                   help="overwrite a non-empty output directory")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train on a dataset directory")
    p.add_argument("--config", default=None,
                   help="key=value config file (defaults apply when omitted)")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("infer", help="run a checkpoint on one image pair")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--t1", required=True)
    p.add_argument("--t2", required=True)
    p.add_argument("--out-change", required=True)
    p.add_argument("--out-uncertainty", required=True)
    p.add_argument("--out-prob", default=None,
                   help="optional raw probability tensor (ARCT)")
    p.add_argument("--variant", default="full", choices=sorted(VARIANTS))
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--pred-dir", required=True)
    p.add_argument("--gt-dir", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--only", default=None,
                   help="comma-separated case names to run")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("ablate", help="train a variant and report metrics")
    p.add_argument("--variant", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ArcdError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
