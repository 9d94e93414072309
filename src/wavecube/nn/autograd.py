"""Minimal reverse-mode autodiff over numpy arrays.

Operations executed inside a `with GradientTape():` block, in the thread
that opened it, append one record per op (a Wengert list).
`backward(tape, loss)` walks the list once, in reverse, calling each op's
adjoint closure and dropping each record, with what its closure saved,
once that adjoint has run.  Creation order is already a topological
order, so no graph search is needed.  Outside a tape, ops run in
inference mode and record nothing.

Every op is declared through `op(output, inputs, vjp)`: the op computes
one output array, and its `vjp` maps that output's cotangent to one
cotangent per input.  The tape alone decides which inputs need a
gradient, adds the cotangents and checks their shapes.  An op with two
results (`dwt_layer`) records each as an op of its own.

The tape keeps no activation.  Every Tensor owns a gradient slot: its
`.grad`, `requires_grad`, shape and dtype, but not its data.  A record
holds its output's slot and its adjoint, and the adjoint holds its
inputs' slots plus whatever the vjp closes over.  So an op's output lives
only while the caller, or a vjp that reads it, holds it.  Nor does the
walk keep a cotangent: it hands each one over to the vjp, which may drop
it once read (on CPython 3.11 and later, where a call moves its arguments
into the callee's frame).

The tape copies no cotangent: a tensor's first one becomes its `.grad`
as given, so a `.grad` may share memory with another gradient (a slice
of a `concat_channels` cotangent, or a `requires_grad` output's `.grad`)
and is read-only.  A vjp never writes its incoming cotangent; it may
write, and return, an array it saved in the forward, since the record,
and so the vjp, runs once.
"""

from __future__ import annotations

import threading

import numpy as np

from .._blas import one_blas_thread
from ..errors import ShapeMismatchError, TapeConsumedError, TapeMisuseError


class _TapeStack(threading.local):
    """The tapes open in the current thread, innermost last.  Per thread, so
    that an op run in one thread never records onto another thread's tape."""

    def __init__(self):
        self.tapes: list[GradientTape] = []


_TAPE_STACK = _TapeStack()


class _Slot:
    """A tensor's gradient slot: its `.grad`, `requires_grad`, whether a tape
    recorded it, and the shape and dtype that a cotangent must have."""

    __slots__ = ("grad", "requires_grad", "recorded", "shape", "dtype")

    def __init__(self, data: np.ndarray, requires_grad: bool):
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.recorded = False
        self.shape, self.dtype = data.shape, data.dtype

    def wants_grad(self) -> bool:
        """True when a gradient must be accumulated here: a `requires_grad`
        tensor, or a recorded op's output, which passes its gradient on."""
        return self.requires_grad or self.recorded

    def _accumulate(self, g: np.ndarray):
        """Add the cotangent `g` to `.grad`: the first is kept as given (cast
        only to a different dtype), later ones are added out of place."""
        if g.shape != self.shape:
            raise ShapeMismatchError(
                f"gradient of shape {g.shape} for a tensor of shape {self.shape}")
        if self.grad is None:
            self.grad = g.astype(self.dtype, copy=False)
        else:
            self.grad = (self.grad + g).astype(self.dtype, copy=False)


class Tensor:
    """A numpy array plus its gradient slot.

    `requires_grad=True` marks trainable leaves (parameters or probed
    inputs); tensors produced by recorded ops propagate gradients
    regardless so the chain stays connected.  `.grad` and `requires_grad`
    read and write the slot, which the tape keeps after the tensor is gone.
    """

    __slots__ = ("data", "_slot")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        self._slot = _Slot(self.data, requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def grad(self) -> np.ndarray | None:
        return self._slot.grad

    @grad.setter
    def grad(self, value: np.ndarray | None):
        self._slot.grad = value

    @property
    def requires_grad(self) -> bool:
        return self._slot.requires_grad

    @requires_grad.setter
    def requires_grad(self, value: bool):
        self._slot.requires_grad = value

    @property
    def _recorded(self) -> bool:
        return self._slot.recorded

    def zero_grad(self):
        self._slot.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def as_tensor(x, dtype=None) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, dtype=dtype)


class GradientTape:
    """Recorded operation sequence; each record is (output slot, adjoint_fn)."""

    def __init__(self):
        self._records: list[tuple[_Slot, callable]] = []
        self.consumed = False

    def __enter__(self):
        _TAPE_STACK.tapes.append(self)
        return self

    def __exit__(self, *exc):
        tapes = _TAPE_STACK.tapes
        if not (tapes and tapes[-1] is self):
            raise TapeMisuseError(
                "a gradient tape must be closed innermost first, in the thread that opened it")
        tapes.pop()
        return False

    def __len__(self):
        return len(self._records)


def active_tape() -> GradientTape | None:
    tapes = _TAPE_STACK.tapes
    return tapes[-1] if tapes else None


def record(output: Tensor, adjoint) -> None:
    """Register an op's output on the active tape (no-op in inference mode).

    The record keeps the output's gradient slot, not the output.
    `adjoint(g)` receives the output's cotangent, and is not called when no
    gradient flowed into the output; it must accumulate into the slots of
    the op's inputs.  `op` builds every such adjoint.
    """
    tape = active_tape()
    if tape is not None:
        output._slot.recorded = True
        tape._records.append((output._slot, adjoint))


def op(output, inputs, vjp):
    """Wrap an op's output array in a Tensor and record it on the active
    tape; returns the Tensor.

    `vjp(g, needs)` gets the output's cotangent and, per input in `inputs`,
    whether that input needs a gradient.  It returns one cotangent per
    input; the tape adds those that are needed, with a shape check, and
    ignores the rest, which may be None.  `vjp` is not called when no input
    needs a gradient.  It must not write `g`, which the tape may have made
    another tensor's `.grad`; a returned array is kept, not copied.  The
    adjoint holds the inputs' slots, not the inputs, so an input's data
    outlives the forward only if `vjp` closes over it.  Neither the
    adjoint nor `backward` holds `g` while `vjp` runs, so a vjp that has
    read it can `del g` before its heavy part; the cotangent is then freed
    unless something else, such as a `requires_grad` tensor's `.grad`,
    holds it.
    """
    result = Tensor(output)
    slots = tuple(t._slot if isinstance(t, Tensor) else None for t in inputs)

    def adjoint(g):
        needs = tuple(s is not None and s.wants_grad() for s in slots)
        if not any(needs):
            return
        held = [g]  # handed to vjp without a reference of this frame's own
        del g
        for s, need, gi in zip(slots, needs, vjp(held.pop(), needs), strict=True):
            if need:
                s._accumulate(gi)

    record(result, adjoint)
    return result


def backward(tape: GradientTape, loss: Tensor, parameters=()) -> None:
    """Run the reverse pass of `tape` seeded at scalar `loss`.

    Leaves gradients on the `.grad` of every `requires_grad` tensor (leaves,
    and any recorded tensor so marked); any tensor in `parameters` that the
    loss never touched gets an explicit zero gradient.

    The pass consumes the tape as it walks it: each record is popped, the
    `.grad` of its output is cleared, unless it is `requires_grad`, and
    handed over to its adjoint, and the record is dropped once the adjoint
    returns.  So the arrays an op saved for its backward, and each intermediate
    gradient, are freed as soon as nothing later in the pass needs them:
    the pass's peak stays near what the forward held, not the whole tape
    plus every gradient.  Afterwards the tape is empty (`len(tape) == 0`)
    and the `.grad` of an intermediate tensor, the loss included, is None.
    A tape can only be consumed once, and only with a loss it recorded.

    The walk runs with numpy's OpenBLAS on one thread (`one_blas_thread`),
    so no gradient depends on the caller's thread count; the count is
    restored on return, also when an adjoint raises.  Inside an open cap
    (`fit`), entering it again only counts one more user.
    """
    if tape.consumed:
        raise TapeConsumedError("backward already ran on this tape")
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
    if not loss._recorded:
        raise ValueError("loss was not recorded on a tape")
    # the loss is normally the last record, so this walk stops at once
    if not any(s is loss._slot for s, _ in reversed(tape._records)):
        raise TapeMisuseError("loss was recorded on another tape than the one given")
    tape.consumed = True

    loss._slot._accumulate(np.ones_like(loss.data))
    records = tape._records
    with one_blas_thread():
        while records:
            slot, adjoint = records.pop()
            if slot.grad is None:
                continue
            held = [slot.grad]  # handed over as in `op`
            if not slot.requires_grad:
                slot.grad = None
            adjoint(held.pop())
            del slot, adjoint

    for p in parameters:
        if p.requires_grad and p.grad is None:
            p.grad = np.zeros_like(p.data)
