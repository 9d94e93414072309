import math
import re

import numpy as np
import pytest

from wavecube import _blas, train
from wavecube.arch import NetworkSpec, paper_spec
from wavecube.data import PhantomConfig, generate_phantom_dataset
from wavecube.errors import NonFiniteGradientError, NonFiniteLossError
from wavecube.estimator import WaveUNetSegmenter
from wavecube.nn import GradientTape, Tensor, backward, load_state
from wavecube.train import (
    TrainConfig,
    TrainState,
    evaluate_iou,
    fit,
    poly_lr,
    sgd_step,
    weighted_cross_entropy,
)

rng = np.random.default_rng(31)


# -- weighted cross entropy ----------------------------------------------------

def test_ce_confident_correct_is_tiny():
    labels = (rng.random((1, 4, 4, 4)) < 0.5).astype(np.int64)
    logits = np.zeros((1, 2, 4, 4, 4))
    logits[0, 0] = np.where(labels[0] == 0, 20.0, -20.0)
    logits[0, 1] = -logits[0, 0]
    loss = weighted_cross_entropy(Tensor(logits), labels, (1.0, 5.0))
    assert float(loss.data) < 1e-3


def test_ce_uniform_logits_all_background():
    labels = np.zeros((1, 4, 4, 4), dtype=np.int64)
    loss = weighted_cross_entropy(Tensor(np.zeros((1, 2, 4, 4, 4))), labels, (1.0, 5.0))
    assert float(loss.data) == pytest.approx(math.log(2), abs=1e-12)


def test_ce_uniform_logits_balanced_labels_weighted_mean():
    # closed form: every voxel's loss is ln 2; the weighted mean of equal
    # values is ln 2 regardless of the weights
    labels = np.zeros((1, 4, 4, 4), dtype=np.int64)
    labels.reshape(-1)[::2] = 1
    loss = weighted_cross_entropy(Tensor(np.zeros((1, 2, 4, 4, 4))), labels, (1.0, 5.0))
    assert float(loss.data) == pytest.approx(math.log(2), abs=1e-12)


def test_ce_rejects_bad_labels():
    with pytest.raises(ValueError):
        weighted_cross_entropy(Tensor(np.zeros((1, 2, 2, 2, 2))),
                               np.full((1, 2, 2, 2), 2, dtype=np.int64), (1.0, 5.0))


def test_ce_gradient_matches_finite_differences():
    logits0 = rng.standard_normal((1, 2, 2, 2, 2))
    labels = (rng.random((1, 2, 2, 2)) < 0.4).astype(np.int64)
    w = (1.0, 5.0)
    t = Tensor(logits0.copy(), requires_grad=True, dtype=np.float64)
    with GradientTape() as tape:
        loss = weighted_cross_entropy(t, labels, w)
    backward(tape, loss)
    h = 1e-6
    for _ in range(6):
        idx = tuple(rng.integers(0, s) for s in logits0.shape)
        lp = logits0.copy(); lp[idx] += h
        lm = logits0.copy(); lm[idx] -= h
        fd = (float(weighted_cross_entropy(Tensor(lp), labels, w).data)
              - float(weighted_cross_entropy(Tensor(lm), labels, w).data)) / (2 * h)
        assert t.grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-9)


# -- schedule and optimizer ------------------------------------------------------

def test_poly_lr_anchors():
    cfg = TrainConfig(epochs=1, base_lr=0.1, poly_power=0.9)
    assert poly_lr(0, 100, cfg) == pytest.approx(0.1)
    assert poly_lr(100, 100, cfg) == 0.0
    assert poly_lr(50, 100, cfg) == pytest.approx(0.1 * 0.5 ** 0.9, abs=1e-6)
    with pytest.raises(ValueError):
        poly_lr(0, 0, cfg)


def test_sgd_zero_grad_keeps_params():
    cfg = TrainConfig(momentum=0.0, weight_decay=0.0)
    p = {"w": np.array([1.5, -2.0])}
    sgd_step(p, {"w": np.zeros(2)}, TrainState(), 0.1, cfg)
    np.testing.assert_array_equal(p["w"], [1.5, -2.0])


def test_sgd_single_step():
    cfg = TrainConfig(momentum=0.0, weight_decay=0.0)
    p = {"w": np.array([1.0])}
    sgd_step(p, {"w": np.array([1.0])}, TrainState(), 0.1, cfg)
    assert p["w"][0] == pytest.approx(0.9)


def test_sgd_two_steps_with_momentum():
    # v1 = 1 -> dp 0.1; v2 = 0.9 + 1 = 1.9 -> dp 0.19; total 0.29
    cfg = TrainConfig(momentum=0.9, weight_decay=0.0)
    p = {"w": np.array([1.0])}
    state = TrainState()
    sgd_step(p, {"w": np.array([1.0])}, state, 0.1, cfg)
    sgd_step(p, {"w": np.array([1.0])}, state, 0.1, cfg)
    assert p["w"][0] == pytest.approx(1.0 - 0.29)


def test_sgd_lr_zero_is_bitwise_noop():
    cfg = TrainConfig()
    w0 = rng.standard_normal(5)
    p = {"w": w0.copy()}
    sgd_step(p, {"w": rng.standard_normal(5)}, TrainState(), 0.0, cfg)
    assert p["w"].tobytes() == w0.tobytes()


def test_sgd_nonfinite_gradient_names_layer():
    cfg = TrainConfig()
    with pytest.raises(NonFiniteGradientError) as err:
        sgd_step({"enc1.conv.weight": np.ones(2)},
                 {"enc1.conv.weight": np.array([1.0, np.nan])},
                 TrainState(), 0.1, cfg)
    assert "enc1.conv.weight" in str(err.value)


# -- fit ------------------------------------------------------------------------

def _clean_phantoms(n=10):
    cfg = PhantomConfig(extents=(16, 32, 32), tube_count=2,
                        radius_range=(4.0, 6.0), seed=10)
    return generate_phantom_dataset(n, cfg)


def test_fit_sanity_run_reaches_iou():
    # trivially separable: fg intensity 1, bg 0, no noise; 5 epochs
    ds = _clean_phantoms(10)
    cfg = TrainConfig(epochs=5, batch_size=1, base_lr=0.3, seed=0, val_fraction=0.0)
    result = fit(paper_spec("DDc", "haar"), ds, cfg)
    bg, fg, mean = evaluate_iou(result.network, ds)
    assert fg >= 0.9, f"foreground IoU {fg:.4f} on the training split"
    # smoothed (per-epoch mean) loss non-increasing across the first 3 epochs
    losses = [st.mean_loss for st in result.history[:3]]
    assert losses[0] >= losses[1] >= losses[2]


def test_fit_deterministic_given_seed():
    ds = _clean_phantoms(4)
    cfg = TrainConfig(epochs=1, batch_size=2, seed=123, val_fraction=0.0)
    a = fit(paper_spec("PU"), ds, cfg)
    b = fit(paper_spec("PU"), ds, cfg)
    assert a.history[0].iteration_losses == b.history[0].iteration_losses


def test_fit_oversized_batch_is_single_batch():
    ds = _clean_phantoms(3)
    cfg = TrainConfig(epochs=1, batch_size=64, seed=0, val_fraction=0.0)
    result = fit(paper_spec("PU"), ds, cfg)
    assert len(result.history[0].iteration_losses) == 1


def test_fit_writes_checkpoints_and_metrics(tmp_path):
    ds = _clean_phantoms(4)
    cfg = TrainConfig(epochs=2, batch_size=2, seed=0, val_fraction=0.25)
    result = fit(paper_spec("DIDn", "haar"), ds, cfg, out_dir=tmp_path)
    assert len(result.checkpoints) == 2
    log = (tmp_path / "metrics.log").read_text().splitlines()
    data_rows = [l for l in log if not l.startswith("#")]
    # two iteration rows + one epoch row per epoch; tab-separated fields
    assert len(data_rows) == 2 * (2 + 1)
    assert all(len(r.split("\t")) == 7 for r in data_rows)

    state, meta = load_state(result.checkpoints[-1])
    assert meta["dual_structure"] == "DIDn" and meta["wavelet"] == "haar"
    got = dict(result.network.state_dict())
    assert all(state[k].tobytes() == got[k].tobytes() for k in state)


def test_fit_log_line_reports_peak_rss():
    lines = []
    cfg = TrainConfig(epochs=2, batch_size=2, seed=0, val_fraction=0.0)
    fit(paper_spec("PU"), _clean_phantoms(2), cfg, log_fn=lines.append)
    assert len(lines) == 2
    for line in lines:
        peak = re.search(r" peak_rss_mb=(\d+\.\d) ", line)
        assert peak is not None, line
        assert float(peak.group(1)) > 0


def test_fit_reads_uint8_int64_and_bool_labels_alike_and_keeps_uint8(monkeypatch):
    # the loss picks each class by `labels == c`, so a uint8 cube trains
    # without an int64 copy; bool labels are widened as before
    ds = _clean_phantoms(3)
    assert ds[0][1].dtype == np.uint8
    seen = []
    loss_fn = train.weighted_cross_entropy

    def spy(logits, labels, weights):
        seen.append(labels.dtype)
        return loss_fn(logits, labels, weights)

    monkeypatch.setattr(train, "weighted_cross_entropy", spy)
    cfg = TrainConfig(epochs=2, batch_size=2, seed=0, val_fraction=0.0)
    runs = []
    for dtype in (np.uint8, np.int64, bool):
        seen.clear()
        result = fit(paper_spec("PU"), [(img, lbl.astype(dtype)) for img, lbl in ds], cfg)
        assert seen == [np.dtype(np.int64 if dtype is bool else dtype)] * 4
        runs.append(([s.iteration_losses for s in result.history],
                     {k: v.tobytes() for k, v in result.network.state_dict().items()}))
    assert any("running_mean" in k for k in runs[0][1])
    assert runs[0] == runs[1] == runs[2]


OPENBLAS = _blas.openblas()


@pytest.mark.skipif(OPENBLAS is None, reason="numpy's OpenBLAS not found")
def test_fit_gives_the_same_bits_at_any_caller_blas_thread_count(tmp_path):
    # the 1->8 conv's kernel gradient over an 8x32x32 cube spans several
    # gemm blocks per sample, and OpenBLAS sums those N = 8 products in
    # another order on two threads than on one
    get, set_ = OPENBLAS
    spec = NetworkSpec("PU", levels=1, encoder_channels=((1, 8),), bottom_channels=(8, 8),
                       decoder_channels=((8, 8),))
    local = np.random.default_rng(0)
    items = [(local.standard_normal((8, 32, 32)).astype(np.float32),
              (local.random((8, 32, 32)) < 0.3).astype(np.int64)) for _ in range(4)]
    cfg = TrainConfig(epochs=3, batch_size=2, val_fraction=0.0)
    runs = {}
    before = get()
    try:
        for threads in (1, 2):
            set_(threads)
            result = fit(spec, items, cfg, out_dir=tmp_path / str(threads))
            assert get() == threads
            runs[threads] = ([s.iteration_losses for s in result.history],
                             result.network.state_dict())
    finally:
        set_(before)
    assert runs[1][0] == runs[2][0]
    assert all(runs[1][1][k].tobytes() == runs[2][1][k].tobytes() for k in runs[1][1])
    header = (tmp_path / "2" / "metrics.log").read_text().splitlines()[1].split()
    assert "blas_threads=1" in header


def test_fit_metrics_header_without_openblas_reads_unknown(tmp_path, monkeypatch):
    monkeypatch.setattr(_blas, "openblas", lambda: None)
    cfg = TrainConfig(epochs=1, batch_size=2, seed=0, val_fraction=0.0)
    fit(paper_spec("PU"), _clean_phantoms(2), cfg, out_dir=tmp_path)
    assert "blas_threads=unknown" in (tmp_path / "metrics.log").read_text().splitlines()[1]


def test_fit_run_record_is_the_metrics_header_and_the_checkpoint_meta(tmp_path):
    cfg = TrainConfig(epochs=2, batch_size=2, seed=3, val_fraction=0.0)
    spec = paper_spec("DIDn", "haar")
    result = fit(spec, _clean_phantoms(2), cfg, out_dir=tmp_path)
    line = (tmp_path / "metrics.log").read_text().splitlines()[1]
    header = dict(t.split("=", 1) for t in line[2:].split())
    assert header == {**spec.to_config(), "epochs": "2", "base_lr": "0.1", "momentum": "0.9",
                      "weight_decay": "0.0001", "batch_size": "2", "class_weights": "1.0,5.0",
                      "poly_power": "0.9", "seed": "3", "val_fraction": "0.0",
                      "blas_threads": header["blas_threads"]}
    for epoch, ckpt in enumerate(result.checkpoints, start=1):
        _, meta = load_state(ckpt)
        assert meta.pop("epoch") == str(epoch)
        assert meta == header


def test_fit_nonfinite_loss_raises_before_backward():
    ds = _clean_phantoms(2)
    ds[0][0][3, 5, 7] = np.nan
    cfg = TrainConfig(epochs=1, batch_size=2, seed=0, val_fraction=0.0)
    with pytest.raises(NonFiniteLossError) as err:
        fit(paper_spec("PU"), ds, cfg)
    assert err.value.iteration == 1
    assert math.isnan(err.value.value)


def test_fit_rejects_labels_that_are_not_integer_valued():
    # 0.7 used to truncate to background without a word
    ds = _clean_phantoms(2)
    cfg = TrainConfig(epochs=1, batch_size=2, seed=0, val_fraction=0.0)
    image, label = ds[0]
    for bad in (0.7, 1.5, math.inf):
        with pytest.raises(ValueError, match="integer-valued"):
            fit(paper_spec("PU"), [(image, np.where(label, bad, 0.0)), ds[1]], cfg)
    # integer-valued float labels and bool labels train as uint8 labels do
    states = [fit(paper_spec("PU"), [(img, convert(lbl)) for img, lbl in ds], cfg)
              .network.state_dict()
              for convert in (np.asarray, lambda a: a.astype(np.float32),
                              lambda a: a.astype(bool))]
    for other in states[1:]:
        assert all(states[0][k].tobytes() == other[k].tobytes() for k in states[0])


@pytest.mark.parametrize("fraction", [-0.5, 1.0, 1.5, float("nan")])
def test_train_config_rejects_val_fraction_outside_unit_interval(fraction):
    # -0.5 would hold out half the cubes (order[:-n]); 1.0 would hold out all
    # of them, and the empty-split fallback would then train on every cube
    with pytest.raises(ValueError, match="val_fraction"):
        TrainConfig(val_fraction=fraction)
    for ok in (0.0, 0.5, 0.99):
        assert TrainConfig(val_fraction=ok).val_fraction == ok


@pytest.mark.parametrize("weights", [(0.0, 0.0), (1.0, -5.0), (float("nan"), 1.0),
                                     (1.0, float("inf"))])
def test_train_config_rejects_class_weights_it_cannot_train_with(weights):
    # all-zero and NaN weights would only fail at step 1 as a non-finite
    # loss; a negative weight would train away from its class
    with pytest.raises(ValueError, match="class_weights"):
        TrainConfig(class_weights=weights)
    cubes = np.zeros((1, 16, 16, 16), dtype=np.float32)
    with pytest.raises(ValueError, match="class_weights"):
        WaveUNetSegmenter(class_weights=weights).fit(cubes, cubes.astype(np.int64))
    for ok in ((1.0, 5.0), (0.0, 1.0), (2.5, 0.0)):
        assert TrainConfig(class_weights=ok).class_weights == ok


@pytest.mark.parametrize("name, value", [
    ("base_lr", math.nan), ("base_lr", math.inf), ("momentum", math.nan),
    ("poly_power", math.nan), ("weight_decay", math.inf), ("weight_decay", -math.inf),
    ("weight_decay", -1e-4), ("momentum", 1.5), ("momentum", 1.0), ("momentum", -0.5),
    ("poly_power", -2.0),
])
def test_train_config_rejects_hyperparameters_it_cannot_train_with(name, value):
    # base_lr=nan used to train to all-NaN parameters without an error;
    # momentum >= 1 lets the SGD velocity grow without bound, and a negative
    # poly_power raises the learning rate as training runs
    with pytest.raises(ValueError, match=name):
        TrainConfig(**{name: value})
    assert TrainConfig(momentum=0.0, weight_decay=0.0, poly_power=0.0).weight_decay == 0.0


def test_fit_rejects_empty_dataset():
    with pytest.raises(ValueError):
        fit(paper_spec("PU"), [], TrainConfig())
