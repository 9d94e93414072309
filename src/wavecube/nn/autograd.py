"""Minimal reverse-mode autodiff over numpy arrays.

Operations executed inside a `with GradientTape():` block, in the thread
that opened it, append one record per op (a Wengert list).
`backward(tape, loss)` walks the list once, in reverse, calling each op's
adjoint closure.  Creation order is already a topological order, so no
graph search is needed.  Outside a tape, ops run in inference mode and
record nothing.

Every op is declared through `op(outputs, inputs, vjp)`: the op computes
its output arrays, and its `vjp` returns one cotangent per input.  The
tape alone decides which inputs need a gradient, adds the cotangents and
checks their shapes.
"""

from __future__ import annotations

import threading

import numpy as np

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
        if g.shape != self.data.shape:
            raise ShapeMismatchError(
                f"gradient of shape {g.shape} for a tensor of shape {self.data.shape}")
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def as_tensor(x, dtype=None) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, dtype=dtype)


class GradientTape:
    """Recorded operation sequence; each record is (outputs, adjoint_fn)."""

    def __init__(self):
        self._records: list[tuple[tuple[Tensor, ...], callable]] = []
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

    def _append(self, outputs: tuple[Tensor, ...], adjoint):
        for o in outputs:
            o._recorded = True
        self._records.append((outputs, adjoint))


def active_tape() -> GradientTape | None:
    tapes = _TAPE_STACK.tapes
    return tapes[-1] if tapes else None


def wants_grad(t) -> bool:
    """True when a gradient must be accumulated into `t`."""
    return isinstance(t, Tensor) and (t.requires_grad or t._recorded)


def record(outputs, adjoint) -> None:
    """Register an op on the active tape (no-op in inference mode).

    `adjoint(grads)` receives one cotangent per output (zeros for outputs
    no gradient flowed into) and must accumulate into the op's parents via
    `Tensor._accumulate`.  `op` builds every such adjoint.
    """
    tape = active_tape()
    if tape is not None:
        if not isinstance(outputs, tuple):
            outputs = (outputs,)
        tape._append(outputs, adjoint)


def op(outputs, inputs, vjp):
    """Wrap an op's output array, or tuple of arrays, in Tensors and record
    them on the active tape; returns the Tensors in the form given.

    `vjp(grads, needs)` gets one cotangent per output and, per input in
    `inputs`, whether that input needs a gradient.  It returns one cotangent
    per input; the tape adds those that are needed, with a shape check, and
    ignores the rest, which may be None.  `vjp` is not called when no input
    needs a gradient.
    """
    results = tuple(map(Tensor, outputs)) if isinstance(outputs, tuple) else (Tensor(outputs),)

    def adjoint(grads):
        needs = tuple(wants_grad(t) for t in inputs)
        if not any(needs):
            return
        for t, need, g in zip(inputs, needs, vjp(grads, needs), strict=True):
            if need:
                t._accumulate(g)

    record(results, adjoint)
    return results if isinstance(outputs, tuple) else results[0]


def backward(tape: GradientTape, loss: Tensor, parameters=()) -> None:
    """Run the reverse pass of `tape` seeded at scalar `loss`.

    Leaves gradients on the `.grad` of every tensor that wanted one; any
    tensor in `parameters` that the loss never touched gets an explicit
    zero gradient.  A tape can only be consumed once.
    """
    if tape.consumed:
        raise TapeConsumedError("backward already ran on this tape")
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
    if not loss._recorded:
        raise ValueError("loss was not recorded on a tape")
    tape.consumed = True

    loss._accumulate(np.ones_like(loss.data))
    for outputs, adjoint in reversed(tape._records):
        if all(o.grad is None for o in outputs):
            continue
        grads = tuple(
            o.grad if o.grad is not None else np.zeros_like(o.data) for o in outputs
        )
        adjoint(grads)

    for p in parameters:
        if p.requires_grad and p.grad is None:
            p.grad = np.zeros_like(p.data)
