"""Time seeded training steps of two source trees in alternating pairs, in one
process, and print each tree's median step time, minor page faults per
step, tracemalloc bytes held after one step's forward and that step's
peak, and the paired time ratio.

Both trees build the same seeded network and batch and run the same
training step, `digest_networks.Run`'s (the step that tool digests): a
forward under a gradient tape, the weighted loss, `backward` and a
momentum-SGD update, each tree under its own `one_blas_thread`.  Pair i
runs the parent's step first when i is even and this tree's first when
it is odd.  A machine whose speed drifts by a quarter between runs moves
both halves of a pair alike, so the paired ratio resolves changes that
separate runs cannot:

    python tools/step_pairs.py --src ../parent/src --arch PU --shape 1x1x32x128x128
    python tools/step_pairs.py --src ../parent/src --arch DIDn --shape 4x1x16x64x64

The faults are the process's minor page faults (`resource.getrusage`)
around each step, that is, fresh pages the step touched.  They depend on
what the heap holds between steps: like `fit`'s loop, each tree keeps
its last logits and loss until its next step.  After the timed pairs
each tree runs one more, untimed step under `tracemalloc`.  What it holds
once the forward and the loss have run, the tape's saved arrays and the
logits, and its peak (numpy's buffers included, what the heap held
before the step not) are per-step memory figures that repeat exactly
from run to run.  The last line says whether both trees computed bitwise
the same losses.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from digest_networks import Run

WARMUP = 2  # untimed steps per tree: the first steps set up the heap
PAIRS = 16  # timed steps per tree


def load_tree(src: Path, name: str):
    """The `wavecube` package under `src`, imported as the package `name`, so
    that two trees live side by side in one process (the package imports
    its own modules relatively)."""
    root = src / "wavecube"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class TimedRun(Run):
    """A `Run` of the training step, timed under its own tree's
    `one_blas_thread`."""

    def __init__(self, package: str, kind: str, shape):
        super().__init__(package, kind, None, shape)
        self.blas = importlib.import_module(f"{package}._blas")
        self.kept = None

    def timed_step(self, after_forward=None):
        """One training step and its update, with `after_forward` passed to
        `step`: returns (seconds, minor faults, loss)."""
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        with self.blas.one_blas_thread():
            logits, loss = self.step(True, after_forward)
            self.update()
        seconds = time.perf_counter() - t0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        # kept until the next step replaces them, as in `fit`'s loop
        self.kept = logits, loss
        return seconds, faults, float(loss.data)

    def traced_mib(self) -> tuple[float, float]:
        """tracemalloc's bytes held after the forward and its peak, in MiB,
        of one more `timed_step`."""
        held = []
        tracemalloc.start()
        try:
            self.timed_step(lambda: held.append(tracemalloc.get_traced_memory()[0]))
            return held[0] / 2**20, tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()


def quartiles(values) -> list[float]:
    return [float(q) for q in np.percentile(values, [25, 50, 75])]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True,
                        help="src directory of the parent tree (holding its wavecube package)")
    parser.add_argument("--arch", default="PU",
                        help="dual structure, built with paper_spec (haar for wavelet ones)")
    parser.add_argument("--shape", default="1x1x32x128x128", help="batch shape BxCxZxYxX")
    args = parser.parse_args(argv)
    shape = tuple(int(e) for e in args.shape.split("x"))

    trees = {}
    for name, src in (("parent", Path(args.src).resolve()),
                      ("change", Path(__file__).resolve().parents[1] / "src")):
        load_tree(src, f"wavecube_{name}")
        trees[name] = TimedRun(f"wavecube_{name}", args.arch, shape)
    for _ in range(WARMUP):
        for run in trees.values():
            run.timed_step()
    runs = {name: [] for name in trees}
    for i in range(PAIRS):
        for name in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[name].append(trees[name].timed_step())

    report = {"arch": args.arch, "shape": args.shape, "pairs": PAIRS}
    for name, steps in runs.items():
        held, peak = trees[name].traced_mib()
        report[name] = {"step_s.p50": float(np.median([s for s, _, _ in steps])),
                        "minor_faults.p50": float(np.median([f for _, f, _ in steps])),
                        "traced_forward_mib": round(held, 1),
                        "traced_peak_mib": round(peak, 1)}
    ratios = [c[0] / p[0] for p, c in zip(runs["parent"], runs["change"])]
    report["time_ratio.q1_p50_q3"] = quartiles(ratios)
    report["change_faster_pairs"] = sum(r < 1.0 for r in ratios)
    report["same_losses"] = ([l for _, _, l in runs["parent"]]
                             == [l for _, _, l in runs["change"]])
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
