"""Weighted cross-entropy training with momentum SGD and polynomial LR decay."""

from __future__ import annotations

import itertools
import math
import resource
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._blas import one_blas_thread
from .arch import Network, NetworkSpec, build, config_of
from .errors import NonFiniteGradientError, NonFiniteLossError
from .nn.autograd import GradientTape, Tensor, as_tensor, backward, op
from .nn.checkpoint import save_state
from .nn.functional import first_max
from .pipeline import iou_counts, iou_from_counts


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    base_lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0001
    batch_size: int = 32
    class_weights: tuple = (1.0, 5.0)
    poly_power: float = 0.9
    seed: int = 0
    val_fraction: float = 0.1

    def __post_init__(self):
        if self.base_lr <= 0 or self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs, base_lr and batch_size must be positive")
        for name in ("base_lr", "momentum", "weight_decay", "poly_power"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.poly_power < 0:
            raise ValueError(f"poly_power must be >= 0, got {self.poly_power}")
        if len(self.class_weights) != 2:
            raise ValueError("class_weights must have length 2")
        if not all(0.0 <= w < math.inf for w in self.class_weights) or not any(self.class_weights):
            raise ValueError("class_weights must be finite, non-negative and not all zero, "
                             f"got {self.class_weights}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must lie in [0, 1), got {self.val_fraction}")


# The estimator's and `wavecube train`'s defaults are TrainConfig's but
# for this shorter schedule.
SHORT_SCHEDULE = {"epochs": 10, "batch_size": 4}


@dataclass
class TrainState:
    iteration: int = 0
    velocity: dict = field(default_factory=dict)


def weighted_cross_entropy(logits, labels: np.ndarray, weights) -> Tensor:
    """Per-voxel weighted softmax cross-entropy, normalized by total weight.

    loss = sum_v w[y_v] * (-log softmax(logits_v)[y_v]) / sum_v w[y_v]

    `labels` may be of any integer dtype; each class's voxels are picked by
    `labels == c`.  The backward keeps the softmax, the labels and the
    per-class weights w / sum_v w[y_v], not the per-voxel weights.
    """
    logits = as_tensor(logits)
    labels = np.asarray(labels)
    n_classes = logits.data.shape[1]
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(
            f"labels must lie in [0, {n_classes - 1}], found range "
            f"[{labels.min()}, {labels.max()}]")
    if labels.shape != logits.data.shape[:1] + logits.data.shape[2:]:
        raise ValueError(
            f"labels shape {labels.shape} does not match logits {logits.data.shape}")
    w = np.asarray(weights, dtype=logits.data.dtype)

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    ez_sum = ez.sum(axis=1, keepdims=True)
    softmax = ez / ez_sum
    del ez  # each full-size temporary goes once read: the loss is a step's peak
    logp = z - np.log(ez_sum)
    del z
    # one pass per class picks each voxel's log-probability and, in the
    # backward, subtracts its one-hot label, with no gather or scatter
    logp_y = np.empty(labels.shape, dtype=logp.dtype)
    for c in range(n_classes):
        np.copyto(logp_y, logp[:, c], where=labels == c)
    del logp
    w_vox = w[labels]
    total_w = w_vox.sum()
    loss_val = -(w_vox * logp_y).sum() / total_w
    del w_vox, logp_y
    w_norm = w / total_w  # w_vox / total_w, voxel by voxel, is w_norm[labels]

    def vjp(g, needs):
        d = np.empty_like(softmax)
        for c in range(n_classes):
            np.subtract(softmax[:, c], labels == c, out=d[:, c])
        d *= w_norm[labels][:, None]
        d *= g
        return (d,)

    return op(np.asarray(loss_val, dtype=logits.data.dtype), (logits,), vjp)


def poly_lr(iteration: int, max_iter: int, cfg: TrainConfig) -> float:
    """base_lr * (1 - iteration/max_iter) ** poly_power."""
    if max_iter <= 0:
        raise ValueError("max_iter must be positive")
    if not 0 <= iteration <= max_iter:
        raise ValueError(f"iteration {iteration} outside [0, {max_iter}]")
    return cfg.base_lr * (1.0 - iteration / max_iter) ** cfg.poly_power


def sgd_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             state: TrainState, lr: float, cfg: TrainConfig) -> TrainState:
    """In-place momentum SGD update:
    v <- momentum*v + grad + weight_decay*param;  param <- param - lr*v."""
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(name)
        v = state.velocity.get(name)
        if v is None:
            v = state.velocity[name] = np.zeros_like(p)
        v *= cfg.momentum
        v += g
        if cfg.weight_decay:
            v += cfg.weight_decay * p
        p -= lr * v
    return state


@dataclass
class EpochStats:
    mean_loss: float
    iteration_losses: list
    bg_iou: float
    fg_iou: float
    mean_iou: float


@dataclass
class FitResult:
    network: Network
    history: list
    checkpoints: list

    @property
    def final_iou(self):
        last = self.history[-1]
        return (last.bg_iou, last.fg_iou, last.mean_iou)


def _as_pair(item):
    """Accept (image, label) tuples or CubeRecord-like objects."""
    if hasattr(item, "image") and hasattr(item, "label"):
        return item.image, item.label
    img, lbl = item
    return img, lbl


def _label_array(label) -> np.ndarray:
    """A label cube as the loss reads it: integer labels as they are, any
    other dtype (bool, float) converted to int64, which would truncate a
    label that is not integer-valued (a fraction, NaN or inf): ValueError."""
    label = np.asarray(label)
    if label.dtype.kind in "iu":
        return label
    with np.errstate(invalid="ignore"):  # NaN and inf are caught below
        out = label.astype(np.int64)
    if label.dtype != bool and not np.array_equal(out, label):
        raise ValueError(f"labels must be integer-valued, got non-integer {label.dtype} labels")
    return out


def argmax_batches(network: Network, images, batch_size: int):
    """Yield the argmax label cubes of `images`, forwarded `batch_size` at a
    time in eval mode, one (batch, z, y, x) array per batch; ties go to the
    lower class, as in `segment_volume`."""
    for start in range(0, len(images), batch_size):
        chunk = images[start : start + batch_size]
        x = np.stack([np.asarray(img, dtype=network.dtype) for img in chunk])[:, None]
        yield first_max(network.forward(x, training=False).data.swapaxes(0, 1))


def evaluate_iou(network: Network, cubes, batch_size: int = 4) -> tuple[float, float, float]:
    """Aggregate per-class IoU of argmax predictions over (image, label) cubes."""
    items = [_as_pair(c) for c in cubes]
    counts = np.zeros((2, 2), dtype=np.int64)
    preds = argmax_batches(network, [img for img, _ in items], batch_size)
    for (_, lbl), pred in zip(items, itertools.chain.from_iterable(preds)):
        counts += iou_counts(pred, lbl)
    return iou_from_counts(counts)


def fit(spec: NetworkSpec, dataset, cfg: TrainConfig, out_dir=None,
        val_dataset=None, log_fn=None) -> FitResult:
    """Train a network on (image, label) cubes.

    Deterministic given cfg.seed: the same seed fixes initialization,
    shuffling and the validation split, and every step runs with numpy's
    OpenBLAS on one thread (`one_blas_thread`), so no result depends on the
    caller's thread count.  Writes one checkpoint per epoch plus a
    tab-separated metrics log when `out_dir` is given.  The run record,
    every spec and `cfg` field plus `blas_threads` as `key=value` text, is
    the log's second header line; each checkpoint's meta is the run record
    plus `epoch`.

    A step holds no more than its backward reads: the forward's logits go
    straight into the loss, which keeps its softmax instead, and integer
    labels keep their own dtype (a uint8 cube is not widened to int64).
    """
    items = [_as_pair(it) for it in dataset]
    if not items:
        raise ValueError("dataset is empty")
    rng = np.random.default_rng(cfg.seed)
    network = build(spec, seed=cfg.seed)

    if val_dataset is None:
        n_val = int(round(cfg.val_fraction * len(items)))
        order = rng.permutation(len(items))
        val_idx = set(order[:n_val].tolist())
        train_items = [items[i] for i in range(len(items)) if i not in val_idx]
        val_items = [items[i] for i in sorted(val_idx)]
        if not train_items:  # tiny datasets train on everything
            train_items, val_items = items, []
    else:
        train_items = items
        val_items = [_as_pair(it) for it in val_dataset]

    params = {path: t for path, t in network.named_parameters()}
    param_arrays = {path: t.data for path, t in params.items()}
    state = TrainState()
    n_train = len(train_items)
    iters_per_epoch = max(1, (n_train + cfg.batch_size - 1) // cfg.batch_size)
    max_iter = cfg.epochs * iters_per_epoch

    out_dir = Path(out_dir) if out_dir is not None else None
    weights = np.asarray(cfg.class_weights, dtype=np.float64)
    history: list[EpochStats] = []
    checkpoints: list[str] = []
    t0 = time.monotonic()

    with ExitStack() as stack:
        run = {**spec.to_config(), **config_of(cfg),
               "blas_threads": str(stack.enter_context(one_blas_thread()))}
        metrics_fh = None
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            metrics_fh = stack.enter_context(open(out_dir / "metrics.log", "w"))
            metrics_fh.write("# epoch\titeration\tlr\tloss\tbg_iou\tfg_iou\tmean_iou\n")
            metrics_fh.write("# " + " ".join(f"{k}={v}" for k, v in run.items()) + "\n")
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(n_train)
            losses = []
            for start in range(0, n_train, cfg.batch_size):
                batch = [train_items[i] for i in order[start : start + cfg.batch_size]]
                x = np.stack([np.asarray(img, dtype=network.dtype) for img, _ in batch])[:, None]
                y = np.stack([_label_array(lbl) for _, lbl in batch])
                lr = poly_lr(state.iteration, max_iter, cfg)

                network.zero_grad()
                with GradientTape() as tape:
                    loss = weighted_cross_entropy(network.forward(x, training=True), y, weights)
                loss_val = float(loss.data)
                if not np.isfinite(loss_val):
                    raise NonFiniteLossError(state.iteration + 1, loss_val)
                backward(tape, loss, parameters=params.values())
                grads = {path: t.grad for path, t in params.items()}
                sgd_step(param_arrays, grads, state, lr, cfg)

                state.iteration += 1
                losses.append(loss_val)
                if metrics_fh is not None:
                    metrics_fh.write(
                        f"{epoch}\t{state.iteration}\t{lr:.6g}\t{loss_val:.6g}\t\t\t\n")

            if val_items:
                bg, fg, mean = evaluate_iou(network, val_items, cfg.batch_size)
            else:
                bg = fg = mean = float("nan")
            stats = EpochStats(float(np.mean(losses)), losses, bg, fg, mean)
            history.append(stats)
            if metrics_fh is not None:
                metrics_fh.write(
                    f"{epoch}\t{state.iteration}\t\t{stats.mean_loss:.6g}\t"
                    f"{bg:.4f}\t{fg:.4f}\t{mean:.4f}\n")
                metrics_fh.flush()
            if log_fn is not None:
                # ru_maxrss is in KiB on Linux: the process's peak so far
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                log_fn(f"epoch {epoch}/{cfg.epochs} loss={stats.mean_loss:.4f} "
                       f"val_iou bg={bg:.4f} fg={fg:.4f} mean={mean:.4f} "
                       f"peak_rss_mb={peak_rss_mb:.1f} [{time.monotonic() - t0:.1f}s]")

            if out_dir is not None:
                ckpt = out_dir / f"epoch_{epoch:03d}.ckpt"
                save_state(ckpt, network.state_dict(), {**run, "epoch": str(epoch)})
                checkpoints.append(str(ckpt))

    return FitResult(network, history, checkpoints)
