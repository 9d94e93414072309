"""Wrap the package's public functions from outside, for timing and tracing.

Nothing under src/ changes.  A wrapper is bound in place of the original
wherever a wavecube module holds it (for example `wavecube.train.record`
and `wavecube.nn.functional.record` are the same function), so callers
inside the package pick it up; `uninstall` restores every binding.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
import time
from functools import wraps

from spans import Tracer, op_roots, self_times
from stats import conv3_cost, median

LEVELS = 5  # full resolution (L0) down to the bottom of a four-level network
FUNCTIONAL_LEVELS = {
    "conv3": range(LEVELS),
    "batchnorm": range(LEVELS),
    "relu": range(LEVELS),
    "dwt_layer": range(LEVELS - 1),
    "idwt_layer": range(LEVELS - 1),
    "hard_shrink_layer": range(1, LEVELS),
    "maxpool2_with_indices": range(LEVELS - 1),
    "maxunpool2": range(LEVELS - 1),
}
BANKS = ("haar", "db2", "db3", "db4", "ch2.2", "ch4.4")
# spans that belong to a training run but sit outside its steps
OUTSIDE_STEP = ("train.eval", "checkpoint.save")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric, as (name, unit), in report order."""
    out = []
    for op, levels in FUNCTIONAL_LEVELS.items():
        for lvl in levels:
            out += [(f"functional.{op}.L{lvl}.fwd_s", "s"),
                    (f"functional.{op}.L{lvl}.adj_s", "s")]
        if op == "conv3":
            out += [("functional.conv3.gflop", "GFLOP"), ("functional.conv3.im2col_mb", "MB")]
    out += [("autograd.records", "count"), ("autograd.tape_mb", "MB"),
            ("autograd.backward_s", "s"), ("autograd.self_s", "s"),
            ("arch.forward_s", "s"), ("arch.self_s", "s"),
            ("train.loss_s", "s"), ("train.sgd_s", "s"), ("train.eval_s", "s"),
            ("train.self_s", "s"), ("checkpoint.save_s", "s"), ("checkpoint.mb", "MB"),
            ("pipeline.partition_s", "s"), ("pipeline.assemble_s", "s"),
            ("pipeline.forward_s", "s"), ("pipeline.self_s", "s"),
            ("pipeline.worker_util", "ratio")]
    out += [(f"transform.dwt3_s.{b}", "s") for b in BANKS]
    out += [(f"transform.idwt3_s.{b}", "s") for b in BANKS]
    out += [("transform.hard_shrink_s", "s"), ("data.phantom_s", "s"),
            ("trace.op_s.p50", "s"), ("trace.untraced_op_s.p50", "s"),
            ("trace.overhead_s", "s"), ("trace.accounted_s", "s"),
            ("trace.unattributed_s", "s"), ("trace.spans", "count")]
    return out


class Patches:
    """Rebinds functions across the loaded wavecube modules and undoes it."""

    def __init__(self):
        self._undo = []

    def replace(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "wavecube" and not mod_name.startswith("wavecube."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def replace_method(self, cls, name: str, wrapper) -> None:
        self._undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class StepClock(Patches):
    """Times training steps: from the `poly_lr` call that opens a step to
    the return of its `sgd_step`.  The gap between steps (batch stacking,
    validation, checkpoints) is not part of a step."""

    def __init__(self):
        super().__init__()
        self.durations: list[float] = []
        self._start = None

    def install(self) -> "StepClock":
        from wavecube import train

        poly_lr, sgd_step = train.poly_lr, train.sgd_step

        @wraps(poly_lr)
        def timed_poly_lr(*args, **kw):
            self._start = time.perf_counter()
            return poly_lr(*args, **kw)

        @wraps(sgd_step)
        def timed_sgd_step(*args, **kw):
            out = sgd_step(*args, **kw)
            self.durations.append(time.perf_counter() - self._start)
            return out

        self.replace(poly_lr, timed_poly_lr)
        self.replace(sgd_step, timed_sgd_step)
        return self


def _z_extent(value):
    if isinstance(value, tuple):
        value = value[0]
    shape = getattr(getattr(value, "data", value), "shape", ())
    return shape[2] if len(shape) == 5 else None


class Instrument(Patches):
    """Spans around every layer's public functions.

    `base_extent` is the z extent of the network input, so that an op on a
    z extent of base/2**l is labelled level l.  An op that changes
    resolution is labelled by its finer side.
    """

    def __init__(self, tracer: Tracer, base_extent: int | None = None):
        super().__init__()
        self.tracer = tracer
        self.base_extent = base_extent

    def _level(self, *values):
        extents = [z for z in map(_z_extent, values) if z]
        if not extents:
            return None
        return int(round(math.log2(self.base_extent / max(extents))))

    def _spanned(self, name, fn, attrs=None, after=None):
        tracer = self.tracer

        @wraps(fn)
        def wrapper(*args, **kw):
            span = tracer.open(name, **(attrs(args, kw) if attrs else {}))
            try:
                out = fn(*args, **kw)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, args, kw, out)
            return out

        return wrapper

    def install_data(self) -> "Instrument":
        from wavecube.data import phantom

        self.replace(phantom.generate_phantom,
                     self._spanned("data.phantom", phantom.generate_phantom))
        return self

    def install(self) -> "Instrument":
        from wavecube import arch, nn, pipeline, train, transform
        from wavecube.nn import autograd, functional

        tracer = self.tracer
        conv3_sig = inspect.signature(functional.conv3)

        def level_after(span, args, kw, out):
            span.attrs["level"] = self._level(args[0] if args else None, out)

        def conv3_after(span, args, kw, out):
            level_after(span, args, kw, out)
            bound = conv3_sig.bind(*args, **kw)
            bound.apply_defaults()
            x, w = bound.arguments["x"], bound.arguments["weight"]
            x_data = getattr(x, "data", x)
            flops, nbytes = conv3_cost(x_data.shape, w.data.shape, bound.arguments["stride"],
                                       bound.arguments["padding"], x_data.dtype.itemsize)
            span.attrs.update(flops=flops, im2col_bytes=nbytes)

        for name in nn.__all__:
            fn = getattr(functional, name, None)
            if inspect.isfunction(fn) and fn.__module__ == functional.__name__:
                after = conv3_after if name == "conv3" else level_after
                self.replace(fn, self._spanned(f"functional.{name}", fn, after=after))

        record = autograd.record

        @wraps(record)
        def traced_record(outputs, adjoint):
            op = tracer.current()
            if op is None or autograd.active_tape() is None:
                return record(outputs, adjoint)
            outs = outputs if isinstance(outputs, tuple) else (outputs,)
            op.attrs["tape_bytes"] = op.attrs.get("tape_bytes", 0) + sum(
                o.data.nbytes for o in outs)

            def timed_adjoint(grads):
                with tracer.span(op.name + ".adj", level=op.attrs.get("level")):
                    adjoint(grads)

            return record(outputs, timed_adjoint)

        self.replace(record, traced_record)

        self.replace_method(arch.Network, "forward",
                            self._spanned("arch.forward", arch.Network.forward))

        poly_lr, sgd_step = train.poly_lr, train.sgd_step

        @wraps(poly_lr)
        def step_open(*args, **kw):
            tracer.open("train.step")
            return poly_lr(*args, **kw)

        timed_sgd = self._spanned("train.sgd", sgd_step)

        @wraps(sgd_step)
        def step_close(*args, **kw):
            out = timed_sgd(*args, **kw)
            step = tracer.current()
            if step is not None and step.name == "train.step":
                tracer.close(step)
            return out

        self.replace(poly_lr, step_open)
        self.replace(sgd_step, step_close)
        self.replace(train.weighted_cross_entropy,
                     self._spanned("train.loss", train.weighted_cross_entropy))
        self.replace(train.backward, self._spanned("autograd.backward", train.backward))
        self.replace(train.evaluate_iou, self._spanned("train.eval", train.evaluate_iou))

        def saved_bytes(span, args, kw, out):
            span.attrs["bytes"] = os.path.getsize(args[0])

        self.replace(train.save_state,
                     self._spanned("checkpoint.save", train.save_state, after=saved_bytes))

        self.replace(pipeline.partition,
                     self._spanned("pipeline.partition", pipeline.partition))
        self.replace(pipeline.assemble, self._spanned("pipeline.assemble", pipeline.assemble))
        segment_volume = pipeline.segment_volume

        @wraps(segment_volume)
        def traced_segment(*args, **kw):
            workers = inspect.signature(segment_volume).bind(*args, **kw)
            workers.apply_defaults()
            with tracer.span("pipeline.segment_volume",
                             workers=workers.arguments["workers"]) as span:
                tracer.ambient = span
                try:
                    return segment_volume(*args, **kw)
                finally:
                    tracer.ambient = None

        self.replace(segment_volume, traced_segment)

        bank_of = lambda args, kw: {"bank": args[1].name}
        self.replace(transform.dwt3, self._spanned("transform.dwt3", transform.dwt3, bank_of))
        self.replace(transform.idwt3, self._spanned("transform.idwt3", transform.idwt3, bank_of))
        self.replace(transform.hard_shrink,
                     self._spanned("transform.hard_shrink", transform.hard_shrink))
        return self


def per_layer_metrics(spans, op_root: str, n_ops: int) -> dict[str, float]:
    """Per-op means of every per-layer metric over the traced phase.

    Only spans inside an op (`op_root` subtree) count, except validation
    and checkpoint spans, which run between training steps and are spread
    over the steps.  `trace.accounted_s` is the median over ops of the
    self times summed over the spans below the op's root span: the op time
    that the layers' wrappers account for.  `trace.unattributed_s` is the
    median self time of the root span itself, the glue no wrapper covers.
    The other `trace.*` entries are filled in by the caller.
    """
    spans = [s for s in spans if s.end is not None]
    selfs = self_times(spans)
    roots = op_roots(spans, (op_root,))
    by_id = {s.id: s for s in spans}
    totals = {name: 0.0 for name, _ in per_layer_names()}
    per_op: dict[int, float] = {}
    glue: list[float] = []
    saves = 0
    busy = wall = workers = 0.0

    def add(key, value):
        if key in totals:
            totals[key] += value

    for s in spans:
        inside = s.id in roots
        if not inside and s.name not in OUTSIDE_STEP:
            continue
        name, d = s.name, s.duration
        if inside and roots[s.id] == s.id:
            per_op.setdefault(s.id, 0.0)
            glue.append(selfs[s.id])
        elif inside:
            per_op[roots[s.id]] = per_op.get(roots[s.id], 0.0) + selfs[s.id]
        if "tape_bytes" in s.attrs:
            add("autograd.records", 1)
            add("autograd.tape_mb", s.attrs["tape_bytes"] / 1e6)
        if name.startswith("functional."):
            op = name.split(".")[1]
            kind = "adj_s" if name.endswith(".adj") else "fwd_s"
            add(f"functional.{op}.L{s.attrs.get('level')}.{kind}", d)
            if "flops" in s.attrs:
                add("functional.conv3.gflop", s.attrs["flops"] / 1e9)
                add("functional.conv3.im2col_mb", s.attrs["im2col_bytes"] / 1e6)
        elif name == "autograd.backward":
            add("autograd.backward_s", d)
            add("autograd.self_s", selfs[s.id])
        elif name == "arch.forward":
            add("arch.forward_s", d)
            add("arch.self_s", selfs[s.id])
            parent = by_id.get(s.parent)
            if parent is not None and parent.name == "pipeline.segment_volume":
                busy += d
        elif name in ("train.loss", "train.loss.adj"):
            add("train.loss_s", d)
        elif name == "train.sgd":
            add("train.sgd_s", d)
        elif name == "train.eval":
            add("train.eval_s", d)
        elif name == "train.step":
            add("train.self_s", selfs[s.id])
        elif name == "checkpoint.save":
            add("checkpoint.save_s", d)
            add("checkpoint.mb", s.attrs["bytes"] / 1e6)
            saves += 1
        elif name == "pipeline.segment_volume":
            add("pipeline.self_s", selfs[s.id])
            wall += d
            workers = s.attrs["workers"]
        elif name in ("pipeline.partition", "pipeline.assemble"):
            add(name + "_s", d)
        elif name in ("transform.dwt3", "transform.idwt3"):
            add(f"{name}_s.{s.attrs['bank']}", d)
        elif name == "transform.hard_shrink":
            add("transform.hard_shrink_s", d)

    out = {k: v / n_ops for k, v in totals.items()}
    out["checkpoint.mb"] = totals["checkpoint.mb"] / saves if saves else 0.0
    out["pipeline.forward_s"] = busy / n_ops
    out["pipeline.worker_util"] = busy / (workers * wall) if wall else 0.0
    # On a training step every span below the step is a functional, autograd,
    # arch or train span, so this is the step time those four layers account for.
    out["trace.accounted_s"] = median(per_op.values()) if per_op else 0.0
    out["trace.unattributed_s"] = median(glue) if glue else 0.0
    return out
