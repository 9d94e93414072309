"""Estimator-style facade: fit/predict over cube stacks, sklearn conventions.

Duck-typed to compose with the wider ecosystem (get_params/set_params,
fit returns self) without importing scikit-learn.  X is a stack of image
cubes shaped (n_cubes, d, m, n); y holds the matching binary label cubes.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .arch import NetworkSpec, WAVELET_STRUCTURES
from .pipeline import segment_volume
from .train import SHORT_SCHEDULE, TrainConfig, argmax_batches, evaluate_iou, fit


def _check_cube_stack(X, name: str = "X") -> np.ndarray:
    X = np.asarray(X)
    if X.ndim != 4:
        raise ValueError(f"{name} must be (n_cubes, d, m, n), got shape {X.shape}")
    return X


class WaveUNetSegmenter:
    """Volumetric segmentation estimator wrapping one of the seven networks.

    Its parameters are `arch`, `wavelet` and `shrink_threshold` for the
    network plus every `TrainConfig` field, all keywords; the training
    defaults are `TrainConfig`'s except for the shorter schedule
    `SHORT_SCHEDULE`, 10 epochs at batch size 4.
    """

    _DEFAULTS = {
        "arch": "DIDn",
        "wavelet": "haar",
        "shrink_threshold": NetworkSpec.__dataclass_fields__["shrink_threshold"].default,
        **{f.name: f.default for f in fields(TrainConfig)},
        **SHORT_SCHEDULE,
    }

    def __init__(self, **params):
        unknown = sorted(set(params) - self._DEFAULTS.keys())
        if unknown:
            raise TypeError(f"invalid parameters {unknown} for WaveUNetSegmenter")
        for name, default in self._DEFAULTS.items():
            setattr(self, name, params.get(name, default))

    # -- sklearn plumbing ----------------------------------------------------
    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._DEFAULTS}

    def set_params(self, **params) -> "WaveUNetSegmenter":
        for key, val in params.items():
            if key not in self._DEFAULTS:
                raise ValueError(f"invalid parameter {key!r} for WaveUNetSegmenter")
            setattr(self, key, val)
        return self

    def _spec(self) -> NetworkSpec:
        wavelet = self.wavelet if self.arch in WAVELET_STRUCTURES else None
        return NetworkSpec(dual_structure=self.arch, wavelet=wavelet,
                           shrink_threshold=self.shrink_threshold)

    # -- estimator API ---------------------------------------------------
    def fit(self, X, y, out_dir=None) -> "WaveUNetSegmenter":
        X = _check_cube_stack(X)
        y = _check_cube_stack(np.asarray(y), "y")
        if X.shape != y.shape:
            raise ValueError(f"X and y shapes differ: {X.shape} vs {y.shape}")
        cfg = TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})
        dataset = [(X[i], y[i]) for i in range(X.shape[0])]
        result = fit(self._spec(), dataset, cfg, out_dir=out_dir)
        self.network_ = result.network
        self.history_ = result.history
        return self

    def _require_fitted(self):
        if not hasattr(self, "network_"):
            raise RuntimeError("this WaveUNetSegmenter is not fitted yet")

    def predict(self, X) -> np.ndarray:
        """Binary label cube per input cube (argmax over class logits)."""
        self._require_fitted()
        X = _check_cube_stack(X)
        out = np.empty(X.shape, dtype=np.uint8)
        bs = max(1, self.batch_size)
        for start, pred in zip(range(0, X.shape[0], bs), argmax_batches(self.network_, X, bs)):
            out[start:start + bs] = pred
        return out

    def predict_volume(self, volume, cube_shape=(32, 128, 128), workers: int = 1):
        """Segment an arbitrary-extent volume via the tiling pipeline."""
        self._require_fitted()
        return segment_volume(volume, self.network_, cube_shape, workers)

    def score(self, X, y) -> float:
        """Mean two-class IoU aggregated over the given cubes."""
        self._require_fitted()
        X = _check_cube_stack(X)
        y = _check_cube_stack(np.asarray(y), "y")
        dataset = [(X[i], y[i]) for i in range(X.shape[0])]
        return evaluate_iou(self.network_, dataset, self.batch_size)[2]
