from dataclasses import fields

import numpy as np
import pytest

from wavecube.arch import DUAL_STRUCTURES
from wavecube.data import PhantomConfig, generate_phantom_dataset
from wavecube.estimator import WaveUNetSegmenter
from wavecube.train import TrainConfig


def _cube_stack(n=6, extents=(16, 32, 32)):
    cfg = PhantomConfig(extents=extents, tube_count=2, radius_range=(3.0, 5.0), seed=10)
    ds = generate_phantom_dataset(n, cfg)
    X = np.stack([img for img, _ in ds])
    y = np.stack([lbl for _, lbl in ds])
    return X, y


def test_get_set_params_roundtrip():
    est = WaveUNetSegmenter(arch="DI", wavelet="db2", epochs=3)
    params = est.get_params()
    assert params["arch"] == "DI" and params["wavelet"] == "db2"
    est.set_params(epochs=7, base_lr=0.05)
    assert est.epochs == 7 and est.base_lr == 0.05
    assert est.set_params() is est
    with pytest.raises(ValueError):
        est.set_params(bogus=1)


def test_params_are_spec_keys_plus_train_config_fields():
    names = {"arch", "wavelet", "shrink_threshold"} | {f.name for f in fields(TrainConfig)}
    assert set(WaveUNetSegmenter().get_params()) == names
    with pytest.raises(TypeError):
        WaveUNetSegmenter(bogus=1)


@pytest.mark.parametrize("arch", DUAL_STRUCTURES)
def test_default_wavelet_is_dropped_for_structures_that_take_none(arch):
    # set_params(arch="PU") on a default estimator leaves wavelet="haar"
    spec = WaveUNetSegmenter().set_params(arch=arch)._spec()
    assert spec.wavelet == (None if arch in ("PU", "PDc", "ScIn") else "haar")


def test_clone_compatible_param_cycle():
    # sklearn-style clone contract: type(est)(**est.get_params())
    est = WaveUNetSegmenter(arch="PU", wavelet=None, epochs=2, seed=3)
    clone = WaveUNetSegmenter(**est.get_params())
    assert clone.get_params() == est.get_params()


def test_fit_predict_score_cycle():
    X, y = _cube_stack()
    est = WaveUNetSegmenter(arch="DDc", wavelet="haar", epochs=2, batch_size=2,
                            base_lr=0.3, seed=0, val_fraction=0.0)
    assert est.fit(X, y) is est
    pred = est.predict(X)
    assert pred.shape == X.shape
    assert pred.dtype == np.uint8
    assert set(np.unique(pred)) <= {0, 1}
    score = est.score(X, y)
    assert 0.0 <= score <= 1.0


def test_predict_before_fit_raises():
    with pytest.raises(RuntimeError):
        WaveUNetSegmenter().predict(np.zeros((1, 16, 16, 16), dtype=np.float32))


def test_input_validation():
    est = WaveUNetSegmenter(epochs=1)
    with pytest.raises(ValueError):
        est.fit(np.zeros((16, 16, 16)), np.zeros((16, 16, 16)))  # not 4D
    X, y = _cube_stack(2)
    with pytest.raises(ValueError):
        est.fit(X, y[:1])


def test_predict_volume_tiles_arbitrary_extents():
    X, y = _cube_stack(4)
    est = WaveUNetSegmenter(arch="PU", wavelet=None, epochs=1, batch_size=2,
                            seed=0, val_fraction=0.0)
    est.fit(X, y)
    vol = np.random.default_rng(0).random((20, 40, 40)).astype(np.float32)
    result = est.predict_volume(vol, cube_shape=(16, 32, 32))
    assert result.labels.shape == (20, 40, 40)
