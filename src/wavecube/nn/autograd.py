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


class Tensor:
    """A numpy array plus gradient slot.

    `requires_grad=True` marks trainable leaves (parameters or probed
    inputs); tensors produced by recorded ops propagate gradients
    regardless so the chain stays connected.
    """

    __slots__ = ("data", "grad", "requires_grad", "_recorded")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._recorded = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        """Add the cotangent `g` to `.grad`: the first is kept as given (cast
        only to a different dtype), later ones are added out of place."""
        if g.shape != self.data.shape:
            raise ShapeMismatchError(
                f"gradient of shape {g.shape} for a tensor of shape {self.data.shape}")
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=False)
        else:
            self.grad = (self.grad + g).astype(self.data.dtype, copy=False)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def as_tensor(x, dtype=None) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, dtype=dtype)


class GradientTape:
    """Recorded operation sequence; each record is (output, adjoint_fn)."""

    def __init__(self):
        self._records: list[tuple[Tensor, callable]] = []
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


def wants_grad(t) -> bool:
    """True when a gradient must be accumulated into `t`."""
    return isinstance(t, Tensor) and (t.requires_grad or t._recorded)


def record(output: Tensor, adjoint) -> None:
    """Register an op's output on the active tape (no-op in inference mode).

    `adjoint(g)` receives the output's cotangent, and is not called when no
    gradient flowed into the output; it must accumulate into the op's
    parents via `Tensor._accumulate`.  `op` builds every such adjoint.
    """
    tape = active_tape()
    if tape is not None:
        output._recorded = True
        tape._records.append((output, adjoint))


def op(output, inputs, vjp):
    """Wrap an op's output array in a Tensor and record it on the active
    tape; returns the Tensor.

    `vjp(g, needs)` gets the output's cotangent and, per input in `inputs`,
    whether that input needs a gradient.  It returns one cotangent per
    input; the tape adds those that are needed, with a shape check, and
    ignores the rest, which may be None.  `vjp` is not called when no input
    needs a gradient.  It must not write `g`, which the tape may have made
    another tensor's `.grad`; a returned array is kept, not copied.
    """
    result = Tensor(output)

    def adjoint(g):
        needs = tuple(wants_grad(t) for t in inputs)
        if not any(needs):
            return
        for t, need, gi in zip(inputs, needs, vjp(g, needs), strict=True):
            if need:
                t._accumulate(gi)

    record(result, adjoint)
    return result


def backward(tape: GradientTape, loss: Tensor, parameters=()) -> None:
    """Run the reverse pass of `tape` seeded at scalar `loss`.

    Leaves gradients on the `.grad` of every `requires_grad` tensor (leaves,
    and any recorded tensor so marked); any tensor in `parameters` that the
    loss never touched gets an explicit zero gradient.

    The pass consumes the tape as it walks it: each record is popped, the
    `.grad` of its output is cleared, unless it is `requires_grad`, before
    its adjoint runs, and the record is dropped once the adjoint returns.
    So the arrays an op saved for its backward, and each intermediate
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
    if not any(o is loss for o, _ in reversed(tape._records)):
        raise TapeMisuseError("loss was recorded on another tape than the one given")
    tape.consumed = True

    loss._accumulate(np.ones_like(loss.data))
    records = tape._records
    with one_blas_thread():
        while records:
            output, adjoint = records.pop()
            g = output.grad
            if g is None:
                continue
            if not output.requires_grad:
                output.grad = None
            adjoint(g)
            del output, adjoint, g

    for p in parameters:
        if p.requires_grad and p.grad is None:
            p.grad = np.zeros_like(p.data)
