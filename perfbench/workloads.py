"""The four workloads.  Each is a closed loop driven by one process: the next
call starts when the previous one returns.

A workload builds its inputs from the seed alone; the package receives
only the generated arrays and the seed it trains with.  `setup` runs once
per set-up repetition, `prepare` once before the timed phase (checker
references, not counted as set-up), `call` is one timed call, and `check`
returns how many of the call's operations failed.

There are REFERENCE_SEEDS input sets, and reference.json holds the
package's results on every one of them, computed at the commit that wrote
the table; `input_seed` maps any benchmark seed onto one of them, so every
run checks against fixed values.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import wavecube
from wavecube import pipeline, transform
from wavecube.data.phantom import PhantomConfig, generate_phantom_dataset
from wavecube.filters import SUBBAND_TAGS

from instrument import BANKS

REFERENCE = Path(__file__).with_name("reference.json")
REFERENCE_SEEDS = 32
# Losses are float32 sums over ~1e5 voxels after a few SGD steps: reordering
# a kernel's sums moves them by ~1e-6; a 5% error in the conv3 weight
# gradient fails the check from the second step on.
LOSS_RTOL, LOSS_ATOL = 1e-3, 1e-4
# Eval-mode summaries: a rounding change flips only voxels whose class
# margin is within ~1e-5 of zero, a few in 1e5.
IOU_ATOL = 2e-3
SUMMARY_RTOL = 1e-3
# Round-trip error of a float32 volume with |x| <= ~2 is ~1e-6 for every bank.
RECON_ATOL = 1e-4
SHRINK = 0.25


def input_seed(seed: int) -> int:
    """The input set a benchmark seed runs on."""
    return seed % REFERENCE_SEEDS


def reference(workload: str, seed: int) -> dict:
    """The table's entry for one workload and input set."""
    table = json.loads(REFERENCE.read_text())
    return table[workload][str(seed)]


def _phantoms(count: int, extents, tubes: int, seed: int):
    cfg = PhantomConfig(extents=extents, tube_count=tubes, radius_range=(2.0, 3.5),
                        noise_sigma=0.3, impulse_fraction=0.05)
    return generate_phantom_dataset(count, cfg, seed=seed)


class _Train:
    """Repeated `fit` calls with a fresh network from the same seed, so every
    call trains identically and its losses can be checked."""

    arch = wavelet = None
    op_root = "train.step"

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.ckpt_dir = tmp / "ckpt"
        self.spec = wavecube.paper_spec(self.arch, self.wavelet)

    def _fit(self, train_items, val_items, epochs):
        cfg = wavecube.TrainConfig(epochs=epochs, batch_size=self.batch, base_lr=0.2,
                                   seed=self.seed, val_fraction=0.0)
        return wavecube.fit(self.spec, train_items, cfg, out_dir=self.ckpt_dir,
                            val_dataset=val_items)

    def setup(self):
        cubes = self.make_data()
        self.train_items, self.val_items = cubes[:self.n_train], cubes[self.n_train:]
        self._fit(self.train_items[:self.batch], [], epochs=1)  # warm-up: one step

    def prepare(self):
        self.reference = reference(self.name, self.seed)

    def call(self):
        return self._fit(self.train_items, self.val_items, self.epochs)

    reference_result = call

    def ops_per_call(self) -> int:
        return self.epochs * -(-self.n_train // self.batch)

    def voxels(self, result) -> int:
        per_epoch = sum(img.size for img, _ in self.train_items)
        return per_epoch * len(result.history)

    def summary(self, result) -> dict:
        """What reference.json records of one call: the training losses and,
        with validation cubes, each epoch's eval-mode (bg, fg, mean) IoU."""
        out = {"losses": [v for st in result.history for v in st.iteration_losses]}
        if self.n_val:
            out["val_iou"] = [[st.bg_iou, st.fg_iou, st.mean_iou] for st in result.history]
        return out

    def check(self, result) -> int:
        got, ref = self.summary(result), self.reference
        losses = np.asarray(got["losses"], dtype=np.float64)
        ref_losses = np.asarray(ref["losses"], dtype=np.float64)
        if losses.shape != ref_losses.shape:
            return self.ops_per_call()
        bad = ~np.isfinite(losses) | ~np.isclose(losses, ref_losses,
                                                 rtol=LOSS_RTOL, atol=LOSS_ATOL)
        failed = int(bad.sum())
        if self.n_val and not np.allclose(got["val_iou"], ref["val_iou"], rtol=0.0,
                                          atol=IOU_ATOL):
            failed = self.ops_per_call()
        return failed


class TrainDidnDesk(_Train):
    name = "train-didn-desk"
    why = ("fit of DIDn(haar) at batch 4 on 16x64x64 cubes, criterion 6's step; full-res "
           "conv3 is ~55% of a step and DWT, shrink and IDWT with the tape ~15%")
    arch, wavelet = "DIDn", "haar"
    base_extent = 16
    batch, n_train, n_val, epochs = 4, 16, 2, 1

    def make_data(self):
        return _phantoms(self.n_train + self.n_val, (16, 64, 64), 3, 100 * self.seed)


class TrainPuPaper(_Train):
    name = "train-pu-paper"
    why = ("fit of PU at batch 1 on one 32x128x128 cube: no DWT and a ~1.6 GB peak kept "
           "alive by the tape, so a wavelet change reads no change and a conv3 memory change shows")
    arch, wavelet = "PU", None
    base_extent = 32
    batch, n_train, n_val, epochs = 1, 1, 0, 3

    def make_data(self):
        return _phantoms(1, (32, 128, 128), 6, 100 * self.seed)


class SegmentDidn:
    name = "segment-didn"
    why = ("segment_volume of a 64x256x256 volume, 8 cubes of 32x128x128, workers=2: "
           "forward only, eval BN, no tape, plus tiling, thread pool and assembly")
    base_extent = 32
    op_root = "pipeline.segment_volume"
    cube_shape = (32, 128, 128)
    workers = 2

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed

    def setup(self):
        (self.volume, _), = _phantoms(1, (64, 256, 256), 16, 100 * self.seed)
        net = wavecube.build(wavecube.paper_spec("DIDn", "haar"), seed=self.seed)
        state = dict(net.state_dict())
        rng = np.random.default_rng(self.seed)

        def draw(key, sample):
            state[key] = sample(state[key].shape).astype(state[key].dtype)

        # the built head is zero, which would make every label background
        draw("head.weight", rng.standard_normal)
        # a built BN is the identity in eval mode, which would leave its
        # buffers and affine parameters unchecked; give them trained-like values
        for key in sorted(state):
            kind = key.rsplit(".", 1)[-1]
            if kind in ("gamma", "running_var"):
                draw(key, lambda shape: rng.uniform(0.5, 1.5, shape))
            elif kind in ("beta", "running_mean"):
                draw(key, lambda shape: rng.normal(0.0, 0.1, shape))
        net.load_state_dict(state)
        self.network = net
        cube = self.volume[:self.cube_shape[0], :self.cube_shape[1], :self.cube_shape[2]]
        pipeline.segment_volume(cube, net, self.cube_shape, workers=self.workers)  # warm-up

    def reference_result(self):
        return pipeline.segment_volume(self.volume, self.network, self.cube_shape,
                                       workers=1, retain_logits=True)

    def prepare(self):
        ref = self.reference_result()
        self.reference = ref.labels
        expected = reference(self.name, self.seed)
        got = self.summary(ref)
        # a wrong eval-mode forward fails every op of the run
        atol = SUMMARY_RTOL * expected["margin_std"]  # the margin mean may be near 0
        self.reference_ok = all(np.isclose(value, expected[k], rtol=SUMMARY_RTOL, atol=atol)
                                for k, value in got.items())

    def summary(self, result) -> dict:
        """What reference.json records of a `retain_logits` call: the
        foreground voxel count and the mean and standard deviation of the
        class margin (foreground minus background logit) over all cubes."""
        margins = np.concatenate([(lg[1].astype(np.float64) - lg[0]).ravel()
                                  for lg in result.cube_logits.values()])
        return {"fg_voxels": int(np.count_nonzero(result.labels)),
                "margin_mean": float(margins.mean()), "margin_std": float(margins.std())}

    def call(self):
        return pipeline.segment_volume(self.volume, self.network, self.cube_shape,
                                       workers=self.workers)

    def ops_per_call(self) -> int:
        return 1

    def voxels(self, result) -> int:
        return self.volume.size

    def check(self, result) -> int:
        return int(not self.reference_ok or result.labels.tobytes() != self.reference.tobytes())


class WaveletBanks:
    name = "wavelet-banks"
    why = ("dwt3, hard_shrink, idwt3 on a 64x128x128 volume for each of the six banks "
           "(filter length 2-10): the only workload running banks other than haar")
    base_extent = 64
    op_root = "bench.call"

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.banks = [wavecube.builtin_bank(name) for name in BANKS]
        self.shrink = wavecube.ShrinkConfig(SHRINK)
        self.checked = 0

    def setup(self):
        (self.volume, _), = _phantoms(1, (64, 128, 128), 8, 100 * self.seed)
        self.call()  # warm-up

    def prepare(self):
        pass

    def call(self):
        out = []
        for bank in self.banks:
            subbands = transform.dwt3(self.volume, bank)
            shrunk = transform.hard_shrink(subbands, self.shrink)
            out.append((bank, subbands, shrunk, transform.idwt3(shrunk, bank)))
        return out

    def ops_per_call(self) -> int:
        return 1

    def voxels(self, result) -> int:
        return self.volume.size * len(self.banks)

    def check(self, result) -> int:
        """Checks one bank per call, in turn, so that the check costs less
        than the call; each bank is checked every sixth call."""
        if any(denoised.shape != self.volume.shape for *_, denoised in result):
            return 1
        bank, subbands, shrunk, _ = result[self.checked % len(result)]
        self.checked += 1
        recon = transform.idwt3(subbands, bank)
        if not np.allclose(recon, self.volume, rtol=0.0, atol=RECON_ATOL):
            return 1
        for tag in SUBBAND_TAGS:
            coeffs = subbands[tag]
            keep = coeffs if tag == "lll" else np.where(
                np.abs(coeffs) > SHRINK, coeffs, np.zeros((), coeffs.dtype))
            if shrunk[tag].tobytes() != keep.tobytes():
                return 1
        return 0


WORKLOADS = {w.name: w for w in (TrainDidnDesk, TrainPuPaper, SegmentDidn, WaveletBanks)}
