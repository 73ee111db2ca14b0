"""Spans around arcd's public functions, recorded from outside the program.

``Tracer.install`` replaces public functions of arcd with wrappers that
time each call and restores them on ``uninstall``.  The program itself is
unchanged; only the names it looks up at call time are swapped:

* every public primitive in ``arcd.autodiff.ops`` (forward time, output
  bytes, conv2d flops);
* ``ops.record``, so that each adjoint closure a primitive registers is
  timed and charged to that primitive and to the network module whose
  scope was active when it was recorded;
* ``Module.__call__`` on the top-level children of every
  ``ChangeDetector`` and ``ChangeDetector.forward`` itself;
* ``backward``, ``AdamW.step``, ``augment`` and ``total_loss`` as the
  trainer calls them;
* ``checkpoint.save`` and ``checkpoint.load``;
* the PNM readers and writers and the synthetic scene generator.

Spans stay in memory in flat arrays (no per-span Python objects, so the
garbage collector does not slow the traced run down) and are written out
once at the end.  A span's self time is its duration minus the durations
of its direct children.

``StepClock`` takes one timestamp per training iteration by wrapping
``trainer.poly_lr``, which the loop calls exactly once per iteration, and
runs the host-speed probe there when it is given one.
"""

from __future__ import annotations

import math
import time
import weakref
from array import array
from pathlib import Path

import numpy as np

from arcd import checkpoint, nn, trainer
from arcd.autodiff import ops, tensor
from arcd.data import pnm, synth
from arcd.network import ChangeDetector

# Primitives reported on their own; every other primitive is pooled as
# ``autodiff.other``.
OPS = ("conv2d", "conv3d", "batch_norm", "upsample_bilinear", "concat",
       "sigmoid", "relu")
# Top-level children of ChangeDetector that get their own span.  The rest
# of ChangeDetector.forward (side heads, side-map upsampling, sigmoids)
# is its self time, reported as ``heads``.
MODULES = ("encoder", "decoder", "diffs", "reviews", "uncertainty",
           "final_fuse")
SCOPES = MODULES + ("heads",)

PHASES = ("setup", "train", "infer", "check")
_SETUP, _TRAIN, _INFER, _CHECK = range(4)

_READERS = ("read_image", "read_mask", "read_gray")
_WRITERS = ("write_image", "write_mask", "write_gray")


def op_label(op: str) -> str:
    return op if op in OPS else "other"


def per_layer_names() -> dict[str, str]:
    """Per-layer metric name -> unit.

    ``train.*`` figures are per training iteration, ``infer.*`` per
    inferred pair; the checkpoint figures are per call and
    ``data.generate_ms`` per set-up.  Every run exercises every layer
    named here, so none of them reads zero.
    """
    names: dict[str, str] = {}
    for phase in ("train", "infer"):
        for op in OPS + ("other",):
            names[f"{phase}.autodiff.{op}.fwd_ms"] = "ms"
            if phase == "train":
                names[f"{phase}.autodiff.{op}.adj_ms"] = "ms"
            names[f"{phase}.autodiff.{op}.calls"] = "count"
        names[f"{phase}.autodiff.conv2d.gflops_per_s"] = "GFLOP/s"
        names[f"{phase}.autodiff.out_mb"] = "MB"
        for m in SCOPES:
            names[f"{phase}.network.{m}.fwd_ms"] = "ms"
            if phase == "train":
                names[f"{phase}.network.{m}.adj_ms"] = "ms"
    names.update({"train.autodiff.backward_ms": "ms",
                  "train.autodiff.record_len": "count",
                  "train.loss.fwd_ms": "ms", "train.loss.adj_ms": "ms",
                  "train.trainer.data_ms": "ms",
                  "train.trainer.adamw_ms": "ms",
                  "infer.data.read_ms": "ms", "infer.data.write_ms": "ms",
                  "checkpoint.save_ms": "ms", "checkpoint.load_ms": "ms",
                  "checkpoint.mb": "MB", "data.generate_ms": "ms"})
    return names


class Tracer:
    """In-memory span recorder; install() wraps arcd, uninstall() undoes it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.t0 = array("q")
        self.t1 = array("q")
        self.phase = array("b")
        self.amount = array("q")   # output bytes, record length or file size
        self.flops = array("d")
        self._stack: list[int] = []
        self._phase = _SETUP
        self._data_span: int | None = None
        self.scope = "other"
        self._tags: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def set_phase(self, phase: str) -> None:
        self._phase = PHASES.index(phase)

    def open(self, label: str) -> int:
        sid = len(self.name)
        nid = self._ids.get(label)
        if nid is None:
            nid = self._ids[label] = len(self.names)
            self.names.append(label)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.phase.append(self._phase)
        self.amount.append(0)
        self.flops.append(0.0)
        self.t1.append(0)
        self._stack.append(sid)
        self.t0.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int) -> None:
        self.t1[sid] = time.perf_counter_ns()
        top = self._stack.pop()
        if top != sid:
            raise RuntimeError(f"span {self.names[self.name[sid]]} closed "
                               f"while {self.names[self.name[top]]} is open")

    def _call(self, label, scope, fn, *args, **kwargs):
        sid = self.open(label)
        prev = self.scope
        if scope is not None:
            self.scope = scope
        try:
            return fn(*args, **kwargs)
        finally:
            self.scope = prev
            self.close(sid)

    # -- wrappers ------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _wrap_op(self, name: str):
        label = "op." + op_label(name)

        def make(fn):
            def traced(*args, **kwargs):
                sid = self.open(label)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.close(sid)
                self.amount[sid] = out.data.nbytes
                if name == "conv2d":
                    weight = args[1] if len(args) > 1 else kwargs["weight"]
                    self.flops[sid] = 2.0 * out.size * math.prod(
                        weight.shape[1:])
                return out
            return traced
        return make

    def _make_record(self, record):
        def traced_record(op, inputs, output, adjoint):
            label = f"adj.{op_label(op)}@{self.scope}"
            flops = 0.0
            if op == "conv2d":
                x, weight = inputs[0], inputs[1]
                grads = int(x.requires_grad) + int(weight.requires_grad)
                flops = grads * 2.0 * output.size * math.prod(weight.shape[1:])

            def traced_adjoint(g):
                sid = self.open(label)
                self.flops[sid] = flops
                try:
                    adjoint(g)
                finally:
                    self.close(sid)
            return record(op, inputs, output, traced_adjoint)
        return traced_record

    def _make_init(self, init):
        tags = self._tags

        def traced_init(model, *args, **kwargs):
            init(model, *args, **kwargs)
            for name in MODULES:
                child = getattr(model, name, None)
                if isinstance(child, nn.ModuleList):
                    for item in child:
                        tags[item] = name
                elif child is not None:
                    tags[child] = name
        return traced_init

    def _make_module_call(self, call):
        tags = self._tags

        def traced_call(module, *args, **kwargs):
            scope = tags.get(module)
            if scope is None:
                return call(module, *args, **kwargs)
            return self._call("mod." + scope, scope, call, module,
                              *args, **kwargs)
        return traced_call

    def _make_forward(self, forward):
        def traced_forward(model, *args, **kwargs):
            if self._data_span is not None:
                self.close(self._data_span)
                self._data_span = None
            return self._call("net.forward", "heads", forward, model,
                              *args, **kwargs)
        return traced_forward

    def _make_augment(self, augment):
        def traced_augment(*args, **kwargs):
            # Augmentation opens the iteration's data span; the forward
            # pass closes it, so batching is inside it too.
            if self._data_span is None:
                self._data_span = self.open("trainer.data")
            return self._call("trainer.augment", None, augment,
                              *args, **kwargs)
        return traced_augment

    def _make_backward(self, backward):
        def traced_backward(loss):
            sid = self.open("autodiff.backward")
            self.amount[sid] = tensor.record_length()
            try:
                return backward(loss)
            finally:
                self.close(sid)
        return traced_backward

    def _make_save(self, save):
        def traced_save(model, path):
            sid = self.open("checkpoint.save")
            try:
                save(model, path)
            finally:
                self.close(sid)
            self.amount[sid] = Path(path).stat().st_size
        return traced_save

    def _simple(self, label: str, scope=None):
        def make(fn):
            def traced(*args, **kwargs):
                return self._call(label, scope, fn, *args, **kwargs)
            return traced
        return make

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for name in ops.__all__:
            self._patch(ops, name, self._wrap_op(name))
        self._patch(ops, "record", self._make_record)
        self._patch(nn.Module, "__call__", self._make_module_call)
        self._patch(ChangeDetector, "__init__", self._make_init)
        self._patch(ChangeDetector, "forward", self._make_forward)
        self._patch(trainer, "augment", self._make_augment)
        self._patch(trainer, "total_loss", self._simple("loss.fwd", "loss"))
        self._patch(trainer, "backward", self._make_backward)
        self._patch(trainer.AdamW, "step", self._simple("trainer.adamw"))
        self._patch(checkpoint, "save", self._make_save)
        self._patch(checkpoint, "load", self._simple("checkpoint.load"))
        for name in _READERS:
            self._patch(pnm, name, self._simple("data.read"))
        for name in _WRITERS:
            self._patch(pnm, name, self._simple("data.write"))
        self._patch(synth, "generate", self._simple("data.generate"))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as columns; ``self_ns`` is duration minus direct children."""
        if self._stack:
            raise RuntimeError("spans are still open")
        # Copies, so that the arrays can keep growing afterwards.
        parent = np.array(self.parent, dtype=np.int64)
        t0 = np.array(self.t0, dtype=np.int64)
        t1 = np.array(self.t1, dtype=np.int64)
        dur = t1 - t0
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return {"name": np.array(self.name, dtype=np.int32),
                "parent": parent,
                "phase": np.array(self.phase, dtype=np.int8),
                "t0": t0, "t1": t1, "dur_ns": dur, "self_ns": dur - child,
                "amount": np.array(self.amount, dtype=np.int64),
                "flops": np.array(self.flops, dtype=np.float64)}

    def write(self, path) -> None:
        """Save every span (npz columns plus the label and phase tables)."""
        cols = self.arrays()
        np.savez(path, labels=np.array(self.names),
                 phases=np.array(PHASES), **cols)

    def per_layer(self, iterations: int, pairs: int,
                  setups: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: per iteration of the train phase, per pair
        of the infer phase, per call for checkpoints, per set-up for the
        generator."""
        c = self.arrays()
        ms = 1e-6
        out: dict[str, tuple[float, str]] = {}

        def where(pred, phase_mask):
            ids = [i for i, n in enumerate(self.names) if pred(n)]
            return phase_mask & np.isin(c["name"], ids)

        for phase, code, units in (("train", _TRAIN, iterations),
                                   ("infer", _INFER, pairs)):
            in_phase = c["phase"] == code

            def spans(pred, in_phase=in_phase):
                return where(pred, in_phase)

            def total_ms(mask, col="dur_ns", units=units):
                return float(c[col][mask].sum()) * ms / units

            conv_flops = conv_ns = 0.0
            for op in OPS + ("other",):
                fwd = spans(lambda n, op=op: n == "op." + op)
                out[f"{phase}.autodiff.{op}.fwd_ms"] = (
                    total_ms(fwd, "self_ns"), "ms")
                out[f"{phase}.autodiff.{op}.calls"] = (
                    int(fwd.sum()) / units, "count")
                adj = spans(lambda n, op=op: n.startswith(f"adj.{op}@"))
                if phase == "train":
                    out[f"{phase}.autodiff.{op}.adj_ms"] = (total_ms(adj),
                                                            "ms")
                if op == "conv2d":
                    conv_flops = float(c["flops"][fwd | adj].sum())
                    conv_ns = float(c["self_ns"][fwd].sum()
                                    + c["dur_ns"][adj].sum())
            out[f"{phase}.autodiff.conv2d.gflops_per_s"] = (
                conv_flops / conv_ns if conv_ns else 0.0, "GFLOP/s")
            op_fwd = spans(lambda n: n.startswith("op."))
            out[f"{phase}.autodiff.out_mb"] = (
                float(c["amount"][op_fwd].sum()) / 2**20 / units, "MB")

            forward = spans(lambda n: n == "net.forward")
            in_forward = np.isin(c["parent"], np.flatnonzero(forward))
            child_ms = 0.0
            for m in MODULES:
                mod = spans(lambda n, m=m: n == "mod." + m)
                child_ms += total_ms(mod & in_forward)
                out[f"{phase}.network.{m}.fwd_ms"] = (total_ms(mod), "ms")
            out[f"{phase}.network.heads.fwd_ms"] = (
                total_ms(forward) - child_ms, "ms")
            if phase == "train":
                for m in SCOPES:
                    adj = spans(lambda n, m=m: n.startswith("adj.")
                                and n.endswith("@" + m))
                    out[f"train.network.{m}.adj_ms"] = (total_ms(adj), "ms")
                backward = spans(lambda n: n == "autodiff.backward")
                out["train.autodiff.backward_ms"] = (total_ms(backward),
                                                     "ms")
                out["train.autodiff.record_len"] = (
                    float(c["amount"][backward].mean())
                    if backward.any() else 0.0, "count")
                out["train.loss.fwd_ms"] = (total_ms(spans(
                    lambda n: n == "loss.fwd")), "ms")
                out["train.loss.adj_ms"] = (total_ms(spans(
                    lambda n: n.startswith("adj.") and n.endswith("@loss"))),
                    "ms")
                out["train.trainer.data_ms"] = (total_ms(spans(
                    lambda n: n == "trainer.data")), "ms")
                out["train.trainer.adamw_ms"] = (total_ms(spans(
                    lambda n: n == "trainer.adamw")), "ms")
            else:
                out["infer.data.read_ms"] = (total_ms(spans(
                    lambda n: n == "data.read")), "ms")
                out["infer.data.write_ms"] = (total_ms(spans(
                    lambda n: n == "data.write")), "ms")

        every = np.ones(len(c["phase"]), dtype=bool)
        for what in ("save", "load"):
            calls = where(lambda n, w=what: n == "checkpoint." + w, every)
            out[f"checkpoint.{what}_ms"] = (
                float(c["dur_ns"][calls].mean()) * ms if calls.any() else 0.0,
                "ms")
        saves = where(lambda n: n == "checkpoint.save", every)
        out["checkpoint.mb"] = (
            float(c["amount"][saves].mean()) / 2**20 if saves.any() else 0.0,
            "MB")
        gen = where(lambda n: n == "data.generate", c["phase"] == _SETUP)
        out["data.generate_ms"] = (
            float(c["dur_ns"][gen].sum()) * ms / setups, "ms")
        return out


class StepClock:
    """One ``perf_counter_ns`` timestamp per training iteration.

    With a ``probe`` (``hostspeed.HostProbe``), each timestamp after the
    first also runs the probe for its share of the iteration that just
    ended; ``step_ms`` leaves the probe's time out.
    """

    def __init__(self, probe=None):
        self.ticks: list[int] = []
        self.resumed: list[int] = []   # when the loop went on after a tick
        self.probe = probe
        self._original = None

    def install(self) -> "StepClock":
        original = self._original = trainer.poly_lr
        ticks, resumed, probe = self.ticks, self.resumed, self.probe

        def ticking_poly_lr(iteration, cfg):
            now = time.perf_counter_ns()
            spent = 0
            if probe is not None and resumed:
                spent = probe.after((now - resumed[-1]) * 1e-9)
            ticks.append(now)
            resumed.append(now + spent)
            return original(iteration, cfg)

        trainer.poly_lr = ticking_poly_lr
        return self

    def uninstall(self) -> None:
        trainer.poly_lr = self._original

    def step_ms(self) -> list[float]:
        """Time from one iteration's timestamp to the next, probe left out."""
        return [(b - a) * 1e-6 for a, b in zip(self.resumed, self.ticks[1:])]
