"""Central finite-difference verification of recorded gradients.

The checker draws inputs from a seed, compares analytic gradients against
(f(x+h) - f(x-h)) / 2h (h = 1e-5) at 64-bit precision, and reports the worst
relative error per checked tensor.  Failures are report entries, never
exceptions.

Two safeguards keep the comparison meaningful near relu/clamp kinks:

* an initial draw is rejected and resampled while any kinked op reports a
  margin below ``kink_margin``;
* a coordinate whose +h/-h evaluations land on different sides of a kink
  is redrawn elsewhere in the tensor (crossing a kink invalidates the
  central difference for that coordinate only).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor, backward, collect_kinks, no_grad

__all__ = ["gradcheck", "GradCheckReport", "GradCheckEntry", "projected_sum"]

_H = 1e-5
# Relative error floor: guards the quotient for near-zero gradients, well
# above the ~1e-9 absolute noise floor of 64-bit central differences.
_REL_FLOOR = 1e-2


@dataclass
class GradCheckEntry:
    name: str
    max_rel_err: float
    checked: int
    skipped: int = 0

    def ok(self, tol: float) -> bool:
        return self.max_rel_err < tol


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry] = field(default_factory=list)
    redraws: int = 0

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    def ok(self, tol: float) -> bool:
        return all(e.ok(tol) for e in self.entries)

    def __str__(self) -> str:
        lines = [f"{e.name}: max rel err {e.max_rel_err:.3e} "
                 f"({e.checked} coords)" for e in self.entries]
        return "\n".join(lines)


def projected_sum(t: Tensor, seed: int = 0) -> Tensor:
    """Reduce a tensor to a scalar with fixed pseudo-random weights.

    A plain sum sends a uniform upstream gradient through the op under
    test, which lets transposition errors cancel; a fixed projection does
    not.
    """
    from . import ops
    rng = np.random.default_rng(seed + 0x9E37)
    r = Tensor(rng.uniform(0.5, 1.5, size=t.shape).astype(t.dtype))
    return ops.sum_all(ops.mul(t, r))


def _signatures_match(a, b) -> bool:
    if len(a) != len(b):
        return False
    return all(pa.shape == pb.shape and np.array_equal(pa, pb)
               for (pa, _), (pb, _) in zip(a, b))


def gradcheck(build_loss: Callable[..., Tensor],
              input_shapes: Sequence[tuple[int, ...]],
              seed: int = 0,
              *,
              params: Sequence[tuple[str, Tensor]] = (),
              max_checks: int = 128,
              kink_margin: float = 1e-3,
              max_redraws: int = 50) -> GradCheckReport:
    """Check d(build_loss)/d(input) and d/d(param) against finite differences.

    ``build_loss(*inputs)`` must return a scalar Tensor.  Inputs are drawn
    standard-normal at float64 from ``seed``; ``params`` are additional
    named tensors (typically module parameters) perturbed in place.
    Tensors larger than ``max_checks`` are verified on a random coordinate
    subset.
    """
    rng = np.random.default_rng(seed)
    report = GradCheckReport()

    inputs = None
    for attempt in range(max_redraws + 1):
        candidate = [Tensor(rng.standard_normal(s), requires_grad=True)
                     for s in input_shapes]
        with no_grad(), collect_kinks() as sink:
            build_loss(*candidate)
        margin = min((m for _, m in sink), default=np.inf)
        inputs = candidate
        if margin >= kink_margin or attempt == max_redraws:
            break
        report.redraws += 1

    # Analytic pass.
    for t in inputs:
        t.grad = None
    for _, p in params:
        p.grad = None
    loss = build_loss(*inputs)
    backward(loss)

    def eval_loss() -> tuple[float, list]:
        with no_grad(), collect_kinks() as sink:
            value = build_loss(*inputs).item()
        return value, sink

    targets = [(f"input{i}", t) for i, t in enumerate(inputs)]
    targets += [(name, p) for name, p in params]

    for name, t in targets:
        flat = t.data.reshape(-1)
        analytic = (np.zeros_like(flat) if t.grad is None
                    else t.grad.reshape(-1))
        n = flat.size
        if n <= max_checks:
            coords = list(range(n))
            spare: list[int] = []
        else:
            perm = rng.permutation(n)
            coords = list(perm[:max_checks])
            spare = list(perm[max_checks:max_checks + max_checks])
        worst = 0.0
        checked = 0
        skipped = 0
        queue = list(coords)
        while queue:
            i = queue.pop()
            orig = flat[i]
            flat[i] = orig + _H
            f_plus, sig_plus = eval_loss()
            flat[i] = orig - _H
            f_minus, sig_minus = eval_loss()
            flat[i] = orig
            if not _signatures_match(sig_plus, sig_minus):
                # Perturbation crossed a kink; this coordinate's central
                # difference is invalid.  Try another coordinate instead.
                skipped += 1
                if spare:
                    queue.append(spare.pop())
                continue
            numeric = (f_plus - f_minus) / (2.0 * _H)
            a = float(analytic[i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), _REL_FLOOR)
            worst = max(worst, rel)
            checked += 1
        report.entries.append(GradCheckEntry(name, worst, checked, skipped))

    return report
