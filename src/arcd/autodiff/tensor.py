"""Reverse-mode tensor engine: values, the operation record, and backward.

Every differentiable primitive records itself on a per-thread operation
record while gradients are enabled.  ``backward`` replays the recorded
adjoints in exact reverse execution order and consumes the record, so a
record is used at most once; each entry, its closure's activations and
its output's gradient are released as soon as its adjoint has run.
Distinct threads own distinct records and never share mutable state.

An output that will not be recorded (see :func:`will_record`) has no
adjoint to feed, so a primitive may build it in place in a buffer that
only the recorded path would have kept; the values are the same either
way.  An output's array may be a strided view into a larger buffer that
it alone holds, such as a convolution's output grid at batch size 1.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import ShapeError

__all__ = [
    "Tensor",
    "Parameter",
    "backward",
    "no_grad",
    "grad_enabled",
    "record",
    "will_record",
    "collect_kinks",
    "ShapeError",
]


class _ThreadState(threading.local):
    def __init__(self):
        self.entries: list[_RecordEntry] = []
        self.grad_enabled: bool = True
        self.kinks: Optional[list[np.ndarray]] = None


_STATE = _ThreadState()


class _RecordEntry:
    """One executed primitive: inputs, output, and its adjoint closure."""

    __slots__ = ("op", "inputs", "output", "adjoint")

    def __init__(self, op: str, inputs: Sequence["Tensor"], output: "Tensor",
                 adjoint: Callable[[np.ndarray], None]):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.adjoint = adjoint


class Tensor:
    """N-dimensional real array with an optional gradient accumulator.

    ``data`` is a numpy float array (float64 for tests, float32 is fine
    for training).  ``grad`` is populated by :func:`backward` for every
    leaf with ``requires_grad`` that the loss depends on.  A tensor is
    immutable after construction except for gradient accumulation and
    explicit parameter updates between steps.
    """

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if not (type(data) is np.ndarray and dtype is None
                and data.dtype.kind == "f"):
            data = np.asarray(data, dtype=dtype)
            if not np.issubdtype(data.dtype, np.floating):
                data = data.astype(np.float64)
        self.data = data
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """A non-recorded view of the same values."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # Small amount of operator sugar for tests; every dunder routes
    # through a recorded primitive in ops.py.
    def __add__(self, other):
        from . import ops
        return ops.add(self, other)

    def __radd__(self, other):
        from . import ops
        return ops.add(self, other)

    def __mul__(self, other):
        from . import ops
        return ops.mul(self, other)

    def __rmul__(self, other):
        from . import ops
        return ops.mul(self, other)

    def __neg__(self):
        from . import ops
        return ops.mul(self, -1.0)

    def sum(self) -> "Tensor":
        from . import ops
        return ops.sum_all(self)

    def __repr__(self) -> str:
        flags = []
        if self.requires_grad:
            flags.append("requires_grad")
        if self.grad is not None:
            flags.append("grad")
        tail = (", " + ", ".join(flags)) if flags else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{tail})"


class Parameter(Tensor):
    """Trainable leaf tensor.

    ``decay`` marks whether the weight-decay term applies; biases and
    normalization scales set it to False.  ``grad_slot``, when an
    optimizer has set it, is the preallocated array that receives the
    parameter's gradient.
    """

    def __init__(self, data, decay: bool = True, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self.decay = bool(decay)
        self.grad_slot: Optional[np.ndarray] = None


def grad_enabled() -> bool:
    return _STATE.grad_enabled


@contextmanager
def no_grad():
    """Disable recording inside the block (inference, data paths)."""
    prev = _STATE.grad_enabled
    _STATE.grad_enabled = False
    try:
        yield
    finally:
        _STATE.grad_enabled = prev


def will_record(inputs: Sequence[Tensor]) -> bool:
    """Whether :func:`record` would register an output of ``inputs``."""
    return _STATE.grad_enabled and any(
        isinstance(t, Tensor) and t.requires_grad for t in inputs)


def record(op: str, inputs: Sequence[Tensor], output: Tensor,
           adjoint: Callable[[np.ndarray], None]) -> Tensor:
    """Register ``output`` on the active record if any input needs grads."""
    if will_record(inputs):
        output.requires_grad = True
        _STATE.entries.append(_RecordEntry(op, tuple(inputs), output, adjoint))
    return output


def accumulate(t, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``; gradients add across reuses of a tensor.

    A parameter's gradient lives in its ``grad_slot`` when it has one: the
    first gradient is copied in and later ones add in place.  Any other
    tensor keeps a first gradient that is a C-contiguous, writeable array
    of its dtype as it is (adjoints build fresh arrays, and ``add`` hands
    one array to both inputs), and grows later ones out of place, so an
    array shared between two gradients is never written through either.
    """
    if not (isinstance(t, Tensor) and t.requires_grad):
        return
    slot = getattr(t, "grad_slot", None)
    if t.grad is None:
        if slot is not None:
            np.copyto(slot, g)
            t.grad = slot
        elif (isinstance(g, np.ndarray) and g.dtype == t.data.dtype
              and g.flags.c_contiguous and g.flags.writeable):
            t.grad = g
        else:
            t.grad = np.array(g, dtype=t.data.dtype, copy=True)
    elif t.grad is slot:
        t.grad += g
    else:
        t.grad = np.add(t.grad, g, out=np.empty_like(t.grad))


def backward(loss: Tensor) -> None:
    """Populate d(loss)/d(leaf) for every leaf the scalar loss depends on.

    Consumes the thread's operation record: adjoints run in exact reverse
    execution order.  Each entry is dropped, and its output's gradient
    cleared, before its adjoint runs, so activations and intermediate
    gradients are freed once their last use has passed; afterwards only
    leaves hold gradients.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor loss")
    if loss.ndim != 0:
        raise ShapeError(
            f"backward requires a scalar loss, got shape {loss.shape}")
    entries = _STATE.entries
    _STATE.entries = []
    loss.grad = np.ones((), dtype=loss.data.dtype)
    while entries:
        entry = entries.pop()
        g, entry.output.grad = entry.output.grad, None
        if g is not None:
            entry.adjoint(g)


def clear_record() -> None:
    """Drop any recorded-but-unconsumed operations on this thread."""
    _STATE.entries = []


def record_length() -> int:
    return len(_STATE.entries)


@contextmanager
def collect_kinks():
    """Collect kink signatures (relu signs, bce clip masks) in forwards.

    Used by the gradient checker to detect evaluations whose perturbation
    crosses a non-differentiable point.  Yields a list of
    ``(pattern, margin)`` pairs: the boolean side-of-kink pattern and the
    smallest distance of any element to the kink.
    """
    prev = _STATE.kinks
    sink: list[tuple[np.ndarray, float]] = []
    _STATE.kinks = sink
    try:
        yield sink
    finally:
        _STATE.kinks = prev


def kinks_active() -> bool:
    """Whether a :func:`collect_kinks` block is open on this thread.

    Ops test it before computing a kink margin, a full reduction that
    only the gradient checker reads.
    """
    return _STATE.kinks is not None


def note_kink(pattern: np.ndarray, margin: float) -> None:
    if _STATE.kinks is not None:
        _STATE.kinks.append((pattern, margin))


def as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x, dtype=dtype)


def same_shape(name: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{name}: operand shapes {a.shape} and {b.shape} "
                         f"differ; only identical-shape operands are supported")
