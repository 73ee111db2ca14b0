"""The benchmark's two workloads: train a model, then infer with it.

Each run trains AR-CDNet and then runs the trained model without ground
truth, the two ways arcd is used, as a closed loop of one operation at a
time.  Both workloads train the same way and differ in the scenes they
infer on:

train phase  ``trainer.train`` on 8 synthetic 64x64 scenes (change
             fraction 1.0), batch 4, lr0 1e-3, poly schedule to zero, a
             periodic checkpoint halfway and at the end.  One operation
             is one training iteration.
infer phase  the final checkpoint loaded into a fresh model; per pair,
             read two PPMs, forward pass in eval mode under ``no_grad``,
             write the change PGM and the uncertainty PGM.  One operation
             is one pair.
patch-256    infers on 8 distinct 256x256 pairs, each a 2x2 mosaic of
             128x128 synthetic scenes (the LEVIR-CD patch size).
scene-1024   infers on 2 distinct 1024x1024 pairs, 8x8 mosaics (the
             LEVIR-CD tile size).

Run lengths are fixed counts derived from ``--seconds`` with the rates
below, half of the seconds for each phase, so a run does the same work
whatever the program's speed: a faster program finishes sooner instead
of doing more, the training schedule stays the same, and memory figures
compare like with like.  Every infer pair runs at least twice.

Every input comes from the workload seed: scene seeds and the training
seed, which also seeds the model.

Every timing is taken with a ``hostspeed.HostProbe`` run after each
operation and reported at the probe's reference host speed; the raw
figures and the measured slowdowns go to ``run.json``.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from arcd import checkpoint, trainer
from arcd.autodiff import Tensor, no_grad
from arcd.data import pnm, synth
from arcd.errors import ArcdError
from arcd.network import ChangeDetector

import checks
from hostspeed import HostProbe
from tracing import StepClock

SETUP_REPEATS = 5
IMPORT_REPEATS = 5
# What a workload imports from numpy and arcd; prints when it is done.
IMPORT_PROBE = ("import time, numpy, arcd.trainer, arcd.checkpoint, "
                "arcd.network, arcd.data.pnm, arcd.data.synth; "
                "print(time.monotonic_ns())")
TILE = 128

TRAIN_ITERS_PER_S, TRAIN_ITERS_MIN = 5.5, 60
TRAIN_SCENES, HELD_OUT_SCENES, BATCH, LR0 = 8, 32, 4, 1e-3
INFER = {  # workload: (side, distinct pairs, pairs per second)
    "patch-256": (256, 8, 5.5),
    "scene-1024": (1024, 2, 0.3),
}
WORKLOADS = tuple(INFER)

# Every run prints every one of these.
E2E: dict[str, str] = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "infer_mpix_per_s": "Mpx/s",
    "train_loss_tail": "loss",
    "eval_f1": "F1",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    """What one workload run did; ``metrics`` maps name -> value."""

    attempted: int
    failed: int
    failures: list[str]
    metrics: dict[str, float]
    iterations: int         # training iterations timed
    pairs: int              # infer pairs timed
    extra: dict = field(default_factory=dict)


@dataclass
class Inputs:
    train_set: list
    held_out: list
    pair_paths: list[tuple[Path, Path]]


def _phase(tracer, name: str) -> None:
    if tracer is not None:
        tracer.set_phase(name)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_length(workload: str, seconds: int) -> tuple[int, int]:
    """(training iterations, infer pairs) for a run of ``seconds``."""
    _, distinct, rate = INFER[workload]
    iterations = max(TRAIN_ITERS_MIN,
                     math.ceil(TRAIN_ITERS_PER_S * seconds / 2))
    pairs = max(2 * distinct, math.ceil(rate * seconds / 2))
    return iterations, pairs


def eval_outputs(model: ChangeDetector, img1: np.ndarray, img2: np.ndarray):
    """Public eval-mode forward of one pair: (change probs, uncertainty)."""
    model.eval()
    with no_grad():
        bundle = model(Tensor(img1[None].astype(np.float32)),
                       Tensor(img2[None].astype(np.float32)))
    return bundle.change.data[0, 0], bundle.uncertainty.data[0, 0]


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def train_config(seed: int, iterations: int) -> trainer.TrainConfig:
    return trainer.TrainConfig(lr0=LR0, max_iteration=iterations,
                               batch_size=BATCH, seed=seed,
                               checkpoint_every=max(iterations // 2, 1))


def train_data(seed: int):
    spec = synth.SyntheticSceneSpec(size=64, change_fraction=1.0,
                                    seed=2 * seed)
    held = synth.SyntheticSceneSpec(size=64, change_fraction=1.0,
                                    seed=2 * seed + 1)
    return synth.generate(spec, TRAIN_SCENES), synth.generate(
        held, HELD_OUT_SCENES)


def scene_pairs(side: int, distinct: int, seed: int):
    """``distinct`` image pairs of side x side, each a mosaic of
    TILE x TILE synthetic scenes (one scene when side <= TILE).

    Generation time varies with how often object placement retries, so a
    single 1024x1024 scene takes 0.3 to 1.5 s depending on the seed; many
    small scenes average that out, which keeps ``setup_s`` from depending
    on the seed.  A mosaic also fills the whole frame with objects, as a
    LEVIR-CD tile is filled with buildings.
    """
    tile = min(side, TILE)
    k = side // tile
    scenes = synth.generate(synth.SyntheticSceneSpec(size=tile, seed=seed),
                            distinct * k * k)
    pairs = []
    for i in range(distinct):
        grid = scenes[i * k * k:(i + 1) * k * k]
        pairs.append(tuple(
            np.block([[getattr(s, attr) for s in grid[r * k:(r + 1) * k]]
                      for r in range(k)])
            for attr in ("image_t1", "image_t2")))
    return pairs


def write_pairs(side: int, distinct: int, seed: int,
                out: Path) -> list[tuple[Path, Path]]:
    """Scene pairs as PPM files; returns their paths."""
    paths = []
    for i, (img1, img2) in enumerate(scene_pairs(side, distinct, seed)):
        a, b = out / f"t1_{i}.ppm", out / f"t2_{i}.ppm"
        pnm.write_image(a, img1)
        pnm.write_image(b, img2)
        paths.append((a, b))
    return paths


def setup(workload: str, seed: int, out: Path) -> Inputs:
    side, distinct, _ = INFER[workload]
    train_set, held_out = train_data(seed)
    return Inputs(train_set, held_out,
                  write_pairs(side, distinct, seed + 1, out))


def import_seconds() -> float:
    """Interpreter start to the end of arcd's imports, in a fresh
    interpreter with this process's environment."""
    start = time.monotonic_ns()
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                          capture_output=True, text=True, check=True,
                          timeout=60)
    return (int(proc.stdout.split()[-1]) - start) * 1e-9


def measure_setup(workload: str, seed: int, out: Path, own_import_s: float,
                  time_imports: bool):
    """Median import time (IMPORT_REPEATS fresh interpreters, or this
    process's own import time) plus the median of SETUP_REPEATS set-ups,
    probing the host after each.  Returns (inputs, setup_s, extra)."""
    probe = HostProbe()
    imports = []
    for _ in range(IMPORT_REPEATS if time_imports else 0):
        imports.append(import_seconds())
        probe.after(imports[-1])
    times, inputs = [], None
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        inputs = setup(workload, seed, out)
        times.append(time.perf_counter() - t)
        probe.after(times[-1])
    raw = (statistics.median(imports) if imports else own_import_s) \
        + statistics.median(times)
    extra = {"import_samples_s": imports, "own_import_s": own_import_s,
             "setup_samples_s": times, "setup_raw_s": raw,
             "setup_slowdown": probe.slowdown()}
    return inputs, raw / probe.slowdown(), extra


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

def train_phase(inputs: Inputs, seed: int, iterations: int, out: Path,
                tracer):
    """Train, then check the log, held-out F1 and the final checkpoint.

    Returns (result, metrics, failures, extra)."""
    cfg = train_config(seed, iterations)
    _phase(tracer, "train")
    probe = HostProbe()
    clock = StepClock(probe).install()
    try:
        t = time.perf_counter()
        result = trainer.train(inputs.train_set, cfg, out / "train")
        wall = time.perf_counter() - t - probe.ns * 1e-9
    finally:
        clock.uninstall()

    _phase(tracer, "check")
    held_out = inputs.held_out
    log_text = result.log_path.read_text()
    fails = checks.loss_log_failures(log_text, lr0=cfg.lr0, power=cfg.power,
                                     max_iteration=iterations)
    totals = [row[4] for row in checks.parse_loss_log(log_text)]
    scores, _ = trainer.evaluate_model(result.model, held_out)
    outputs = [eval_outputs(result.model, s.image_t1, s.image_t2)
               for s in held_out]
    fails += checks.f1_failures([p >= 0.5 for p, _ in outputs],
                                [s.gt_change for s in held_out], scores.f1)
    fresh = ChangeDetector(cfg.ablation, seed=seed + 1)
    checkpoint.load(fresh, result.checkpoint_path)
    again = [eval_outputs(fresh, s.image_t1, s.image_t2)
             for s in held_out[:4]]
    fails += checks.identical_failures(
        "final checkpoint reloaded", [a for pair in outputs[:4] for a in pair],
        [a for pair in again for a in pair])

    raw = BATCH * iterations / wall
    metrics = {"train_samples_per_s": raw * probe.slowdown(),
               "train_loss_tail": checks.tail_mean(totals),
               "eval_f1": scores.f1}
    extra = {"iterations": iterations, "first_loss": totals[0],
             "train_wall_s": wall, "train_samples_per_s_raw": raw,
             "train_slowdown": probe.slowdown(), "step_ms": clock.step_ms()}
    return result, metrics, fails, extra


def _digest(*arrays: np.ndarray) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.digest()


def infer_phase(workload: str, inputs: Inputs, ckpt: Path, seed: int,
                n: int, out: Path, tracer):
    """Load the trained model, infer ``n`` pairs, check every output.

    Returns (metrics, failures, errors, extra)."""
    side, distinct, _ = INFER[workload]
    _phase(tracer, "check")
    model = ChangeDetector(seed=seed + 2)
    checkpoint.load(model, ckpt)
    model.eval()

    probe = HostProbe()
    times: list[float] = []
    rss: list[float] = []
    first: dict[int, tuple] = {}
    fails: list[str] = []
    errors: list[str] = []
    for i in range(n):
        k = i % distinct
        a, b = inputs.pair_paths[k]
        change_path, unc_path = out / f"change_{k}.pgm", out / f"unc_{k}.pgm"
        _phase(tracer, "infer")
        t = time.perf_counter()
        try:
            probs, unc = eval_outputs(model, pnm.read_image(a),
                                       pnm.read_image(b))
            pnm.write_mask(change_path, (probs >= 0.5).astype(np.uint8))
            pnm.write_gray(unc_path, unc)
        except ArcdError as e:
            errors.append(f"pair {i}: {type(e).__name__}: {e}")
            continue
        times.append(time.perf_counter() - t)
        probe.after(times[-1])
        _phase(tracer, "check")
        rss.append(peak_rss_mb())
        fails += checks.map_failures(probs, unc, pnm.read_mask(change_path),
                                     pnm.read_gray(unc_path))
        digest = _digest(probs, unc)
        if k not in first:
            first[k] = (probs, digest)
        elif digest != first[k][1]:
            fails.append(f"pair {k}: a second run gives different output")

    _phase(tracer, "check")
    if 0 in first:
        a, b = inputs.pair_paths[0]
        swapped, _ = eval_outputs(model, pnm.read_image(b), pnm.read_image(a))
        fails += checks.swap_failures(first[0][0], swapped)

    raw = len(times) * side * side / 1e6 / sum(times) if times else 0.0
    metrics = {"infer_mpix_per_s": raw * probe.slowdown() if times else 0.0}
    extra = {"pairs": n, "distinct_pairs": distinct, "errors": errors,
             "infer_mpix_per_s_raw": raw,
             "infer_slowdown": probe.slowdown() if times else None,
             "pair_ms": [t * 1e3 for t in times], "peak_rss_mb_by_pair": rss}
    return metrics, fails, errors, extra


def run(workload: str, seed: int, seconds: int, out: Path, tracer,
        own_import_s: float, time_imports: bool) -> Outcome:
    inputs, setup_s, extra = measure_setup(workload, seed, out, own_import_s,
                                           time_imports)
    iterations, pairs = run_length(workload, seconds)
    result, train_metrics, fails, train_extra = train_phase(
        inputs, seed, iterations, out, tracer)
    infer_metrics, infer_fails, errors, infer_extra = infer_phase(
        workload, inputs, result.checkpoint_path, seed, pairs, out, tracer)
    metrics = {"setup_s": setup_s, **train_metrics, **infer_metrics,
               "peak_rss_mb": peak_rss_mb()}
    extra.update(train_extra, **infer_extra)
    return Outcome(iterations + pairs, len(errors), fails + infer_fails,
                   metrics, iterations, len(infer_extra["pair_ms"]), extra)
