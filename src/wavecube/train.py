"""Weighted cross-entropy training with momentum SGD and polynomial LR decay."""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .arch import Network, NetworkSpec, build
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
        if len(self.class_weights) != 2:
            raise ValueError("class_weights must have length 2")
        if not all(0.0 <= w < math.inf for w in self.class_weights) or not any(self.class_weights):
            raise ValueError("class_weights must be finite, non-negative and not all zero, "
                             f"got {self.class_weights}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must lie in [0, 1), got {self.val_fraction}")


@dataclass
class TrainState:
    iteration: int = 0
    velocity: dict = field(default_factory=dict)


def weighted_cross_entropy(logits, labels: np.ndarray, weights) -> Tensor:
    """Per-voxel weighted softmax cross-entropy, normalized by total weight.

    loss = sum_v w[y_v] * (-log softmax(logits_v)[y_v]) / sum_v w[y_v]
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
    softmax = ez / ez.sum(axis=1, keepdims=True)
    labels_e = labels[:, None]
    logp_y = np.take_along_axis(
        z - np.log(ez.sum(axis=1, keepdims=True)), labels_e, axis=1)[:, 0]
    w_vox = w[labels]
    total_w = w_vox.sum()
    loss_val = -(w_vox * logp_y).sum() / total_w

    def vjp(grads, needs):
        onehot = np.zeros_like(softmax)
        np.put_along_axis(onehot, labels_e, 1.0, axis=1)
        g = (softmax - onehot) * (w_vox / total_w)[:, None]
        return (g * grads[0],)

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
    shuffling and the validation split.  Writes one checkpoint per epoch
    plus a tab-separated metrics log when `out_dir` is given.
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
    metrics_fh = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        metrics_fh = open(out_dir / "metrics.log", "w")
        metrics_fh.write("# epoch\titeration\tlr\tloss\tbg_iou\tfg_iou\tmean_iou\n")
        metrics_fh.write("# " + " ".join(f"{key}={val}" for key, val in
                                         {**spec.to_config(), **asdict(cfg)}.items()) + "\n")

    weights = np.asarray(cfg.class_weights, dtype=np.float64)
    history: list[EpochStats] = []
    checkpoints: list[str] = []
    t0 = time.monotonic()

    try:
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(n_train)
            losses = []
            for start in range(0, n_train, cfg.batch_size):
                batch = [train_items[i] for i in order[start : start + cfg.batch_size]]
                x = np.stack([np.asarray(img, dtype=network.dtype) for img, _ in batch])[:, None]
                y = np.stack([np.asarray(lbl, dtype=np.int64) for _, lbl in batch])
                lr = poly_lr(state.iteration, max_iter, cfg)

                network.zero_grad()
                with GradientTape() as tape:
                    logits = network.forward(x, training=True)
                    loss = weighted_cross_entropy(logits, y, weights)
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
                log_fn(f"epoch {epoch}/{cfg.epochs} loss={stats.mean_loss:.4f} "
                       f"val_iou bg={bg:.4f} fg={fg:.4f} mean={mean:.4f} "
                       f"[{time.monotonic() - t0:.1f}s]")

            if out_dir is not None:
                ckpt = out_dir / f"epoch_{epoch:03d}.ckpt"
                meta = {**spec.to_config(), "epoch": str(epoch), "seed": str(cfg.seed)}
                save_state(ckpt, network.state_dict(), meta)
                checkpoints.append(str(ckpt))
    finally:
        if metrics_fh is not None:
            metrics_fh.close()

    return FitResult(network, history, checkpoints)
