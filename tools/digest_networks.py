"""Print sha256 digests of what nine network configurations compute, as one
JSON object.

Eight configurations run on one seeded 2x1x16x32x32 batch, and DIDn(haar)
runs once more on the 4x1x16x64x64 desk batch: there, from level 1 down,
a kernel gradient with 8 or more output channels spans several gemm blocks
per sample, the path whose bits OpenBLAS's thread count would change if
`backward` did not run on one thread.  Each runs two train steps under a
gradient tape (`train1`, `train2`), one tape-less eval forward
(`forward_trained`), two eval steps under a tape (`eval1`, `eval2`) and
one more tape-less eval forward (`forward`); each step is followed by a
momentum-SGD update.  A step's digest covers its loss, every parameter
gradient, every BN running buffer and the logits; a forward's digest
covers its logits.  A change to the arithmetic of eval under a tape moves
`eval1`, `eval2` and, through the updated weights, `forward`; the
tape-less eval path (BN folded into the convs) is checked apart from it by
`forward_trained`.  Two source trees compute bitwise the same losses,
gradients, buffers and logits when their outputs are equal:

    python tools/digest_networks.py > change.json
    python tools/digest_networks.py --src ../parent/src > parent.json
    diff parent.json change.json

The digests agree at any OpenBLAS thread count; this checks that one tree
computes the same bits on one thread as on two:

    OPENBLAS_NUM_THREADS=1 python tools/digest_networks.py > t1.json
    OPENBLAS_NUM_THREADS=2 python tools/digest_networks.py > t2.json
    diff t1.json t2.json
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import sys
from pathlib import Path

import numpy as np

CONFIGS = (("PU", None), ("PDc", None), ("ScIn", None), ("DDc", "haar"), ("DI", "haar"),
           ("DIDn", "haar"), ("DIn", "db2"), ("DIDn", "db4"))
SHAPE = (2, 1, 16, 32, 32)
DESK = ("DIDn", "haar", (4, 1, 16, 64, 64))
LR = 0.01


def _digest(items) -> str:
    h = hashlib.sha256()
    for name, arr in items:
        arr = np.ascontiguousarray(arr)
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


class Run:
    """The seeded network, batch and momentum-SGD state of one configuration,
    built by the `wavecube` package imported under the name `package`.
    This is the one definition of a training step that this tool digests
    and `step_pairs.py` times."""

    def __init__(self, package: str, kind: str, wavelet: str | None, shape):
        arch = importlib.import_module(f"{package}.arch")
        self.nn = importlib.import_module(f"{package}.nn")
        self.train = importlib.import_module(f"{package}.train")
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal(shape).astype(np.float32)
        self.y = (rng.random(shape[:1] + shape[2:]) < 0.2).astype(np.int64)
        self.net = arch.build(arch.paper_spec(kind, wavelet), seed=0)
        self.params = dict(self.net.named_parameters())
        self.cfg, self.state = self.train.TrainConfig(), self.train.TrainState()

    def step(self, training: bool, after_forward=None):
        """Forward under a gradient tape, the weighted loss and `backward`,
        which leaves the parameter gradients in `.grad`: returns (logits,
        loss).  `after_forward()`, if given, runs between the loss and the
        backward."""
        self.net.zero_grad()
        with self.nn.GradientTape() as tape:
            logits = self.net.forward(self.x, training=training)
            loss = self.train.weighted_cross_entropy(logits, self.y, self.cfg.class_weights)
        if after_forward is not None:
            after_forward()
        self.nn.backward(tape, loss, parameters=self.params.values())
        return logits, loss

    def update(self):
        """The momentum-SGD update from the last step's gradients."""
        self.train.sgd_step({p: t.data for p, t in self.params.items()},
                            {p: t.grad for p, t in self.params.items()}, self.state, LR, self.cfg)


def digest_config(kind: str, wavelet: str | None, shape=SHAPE) -> dict[str, str]:
    run = Run("wavecube", kind, wavelet, shape)
    out = {}
    for phase, training, forward in (("train", True, "forward_trained"),
                                     ("eval", False, "forward")):
        for k in (1, 2):
            logits, loss = run.step(training)
            out[f"{phase}{k}"] = _digest(
                [("loss", loss.data), ("logits", logits.data)]
                + [(f"grad:{p}", t.grad) for p, t in run.params.items()]
                + [(f"buffer:{p}", b) for p, b in run.net.named_buffers()])
            run.update()
        out[forward] = _digest([("logits", run.net.forward(run.x, training=False).data)])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the wavecube package (default: this tree's src)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    digests = {f"{kind}({wavelet})" if wavelet else kind: digest_config(kind, wavelet)
               for kind, wavelet in CONFIGS}
    kind, wavelet, shape = DESK
    digests[f"{kind}({wavelet})@{'x'.join(map(str, shape))}"] = digest_config(*DESK)
    print(json.dumps(digests, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
