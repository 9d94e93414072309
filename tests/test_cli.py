from dataclasses import fields

import numpy as np
import pytest

from wavecube import WaveUNetSegmenter
from wavecube.arch import NetworkSpec, build, paper_spec
from wavecube.cli import build_parser, main
from wavecube.data import PhantomConfig, generate_phantom_dataset, read_volume, write_volume
from wavecube.filters import SUBBAND_TAGS, builtin_bank
from wavecube.nn import save_state
from wavecube.pipeline import segment_volume
from wavecube.train import TrainConfig, fit
from wavecube.transform import dwt3


@pytest.fixture()
def vol_file(tmp_path):
    vol = np.random.default_rng(0).standard_normal((8, 16, 16)).astype(np.float32)
    path = tmp_path / "vol.nvol"
    write_volume(path, vol)
    return path, vol


def test_dwt_writes_eight_subbands(tmp_path, vol_file, capsys):
    path, vol = vol_file
    prefix = str(tmp_path / "a_")
    assert main(["dwt", "--wavelet", "haar", "--in", str(path),
                 "--out-prefix", prefix]) == 0
    expect = dwt3(vol.astype(np.float64), builtin_bank("haar"))
    for tag in SUBBAND_TAGS:
        sub = read_volume(f"{prefix}{tag}.nvol")
        assert sub.shape == (4, 8, 8)
        np.testing.assert_allclose(sub, expect[tag], atol=1e-5)


def test_dwt_idwt_cli_roundtrip(tmp_path, vol_file):
    path, vol = vol_file
    prefix = str(tmp_path / "s_")
    out = tmp_path / "rec.nvol"
    assert main(["dwt", "--wavelet", "db2", "--in", str(path), "--out-prefix", prefix]) == 0
    assert main(["idwt", "--wavelet", "db2", "--in-prefix", prefix,
                 "--out", str(out)]) == 0
    rec = read_volume(out)
    np.testing.assert_allclose(rec, vol, atol=1e-4)


def test_denoise_roundtrip(tmp_path, vol_file):
    path, _ = vol_file
    out = tmp_path / "den.nvol"
    assert main(["denoise", "--wavelet", "haar", "--threshold", "0.25",
                 "--in", str(path), "--out", str(out)]) == 0
    assert read_volume(out).shape == (8, 16, 16)


def test_unknown_wavelet_exits_1_and_names_valid(tmp_path, vol_file, capsys):
    path, _ = vol_file
    code = main(["dwt", "--wavelet", "nosuch", "--in", str(path),
                 "--out-prefix", str(tmp_path / "x_")])
    assert code == 1
    err = capsys.readouterr().err
    assert "haar" in err and "ch4.4" in err


def test_unknown_command_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_file_exits_2(tmp_path):
    assert main(["dwt", "--wavelet", "haar", "--in", str(tmp_path / "nope.nvol"),
                 "--out-prefix", str(tmp_path / "x_")]) == 2


def test_bad_volume_exits_2(tmp_path):
    bad = tmp_path / "bad.nvol"
    bad.write_bytes(b"JUNK")
    assert main(["dwt", "--wavelet", "haar", "--in", str(bad),
                 "--out-prefix", str(tmp_path / "x_")]) == 2


def test_count_params_prints_single_integer(capsys):
    assert main(["count-params", "--arch", "DI", "--wavelet", "haar"]) == 0
    out = capsys.readouterr().out.strip()
    assert 145_000 <= int(out) <= 195_000


def test_describe_prints_layers(capsys):
    assert main(["describe", "--arch", "DIDn", "--wavelet", "haar"]) == 0
    out = capsys.readouterr().out
    assert "enc1.block1" in out and "head" in out and "total" in out


def test_describe_wavelet_required_for_wavelet_arch(capsys):
    assert main(["describe", "--arch", "DIDn"]) == 1


def test_train_options_are_train_config_fields_with_the_estimator_defaults():
    # every TrainConfig field but the loss's class weights and the LR decay's
    # power is an option of `train`, typed and defaulted as the estimator's
    args = vars(build_parser().parse_args(
        ["train", "--arch", "PU", "--data", "cubes", "--out", "run"]))
    names = {f.name for f in fields(TrainConfig)} - {"class_weights", "poly_power"}
    assert set(args) == names | {"command", "func", "arch", "wavelet", "data", "out"}
    for name in names:
        default = WaveUNetSegmenter._DEFAULTS[name]
        assert (type(args[name]), args[name]) == (type(default), default), name


@pytest.mark.parametrize("argv", [
    ["count-params", "--arch", "PU", "--wavelet", "bogus"],
    ["describe", "--arch", "ScIn", "--wavelet", "haar"],
    ["train", "--arch", "PU", "--wavelet", "db2", "--data", "none", "--out", "none"],
])
def test_wavelet_for_a_structure_that_takes_none_exits_1(argv, capsys):
    assert main(argv) == 1
    assert "takes no wavelet" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    "dual_structure=PU\nencoder_channels=1,4;5,8;8,16;16,32\n",
    "dual_structure=DI\nwavelet=haar\ndecoder_channels=32,16;16,12;8,4;4,4\n",
])
def test_describe_schedule_that_cannot_run_exits_2(tmp_path, capsys, config):
    path = tmp_path / "net.cfg"
    path.write_text(config)
    assert main(["describe", "--config", str(path)]) == 2
    assert "data error: level 2:" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    "wavelet=haar\nlevels=4\n",
    "dual_structure=PU\nencoder_channel=1,4;4,8;8,16;16,32\n",
])
def test_describe_bad_config_exits_2(tmp_path, capsys, config):
    path = tmp_path / "net.cfg"
    path.write_text(config)
    assert main(["describe", "--config", str(path)]) == 2
    assert "data error:" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    "dual_structure=PDc\nbottom_channels=32\n",
    "dual_structure=PDc\nencoder_channels=1,0;0,8;8,16;16,32\n",
])
def test_describe_config_with_a_schedule_that_cannot_build_exits_2(tmp_path, capsys, config):
    # both used to end in a traceback from build
    path = tmp_path / "net.cfg"
    path.write_text(config)
    assert main(["describe", "--config", str(path)]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("data error:")]
    assert len(errors) == 1 and "pairs of channel counts >= 1" in errors[0]


@pytest.mark.parametrize("classes", ["1", "0"])
def test_describe_config_with_fewer_than_two_classes_exits_2(tmp_path, capsys, classes):
    path = tmp_path / "net.cfg"
    path.write_text(f"dual_structure=PU\nclasses={classes}\n")
    assert main(["describe", "--config", str(path)]) == 2
    assert f"data error: classes must be at least 2, got {classes}" in capsys.readouterr().err


def test_gen_phantom_deterministic(tmp_path, capsys):
    out1 = tmp_path / "d1"
    out2 = tmp_path / "d2"
    args = ["gen-phantom", "--count", "2", "--shape", "8x16x16", "--tubes", "2",
            "--sigma", "0.1", "--impulse", "0.02", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("cube_00000.img.nvol", "cube_00001.lbl.nvol"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_swc2label_and_eval(tmp_path, capsys):
    swc = tmp_path / "n.swc"
    swc.write_text("# test\n1 2 8.0 8.0 8.0 2.0 -1\n")
    lbl = tmp_path / "n.nvol"
    assert main(["swc2label", "--swc", str(swc), "--extents", "16x16x16",
                 "--out", str(lbl)]) == 0
    labels = read_volume(lbl)
    assert int(labels.sum()) == 33
    capsys.readouterr()
    assert main(["eval", "--pred", str(lbl), "--truth", str(lbl)]) == 0
    out = capsys.readouterr().out.strip()
    assert out.split("\t") == ["1.0000", "1.0000", "1.0000"]


@pytest.mark.parametrize("scale", ["0,1,1", "-1,1,1", "1,nan,1", "1,1,inf"])
def test_swc2label_rejects_a_bad_scale_as_a_usage_error(tmp_path, capsys, scale):
    swc = tmp_path / "n.swc"
    swc.write_text("1 2 8.0 8.0 8.0 2.0 -1\n")
    lbl = tmp_path / "n.nvol"
    assert main(["swc2label", "--swc", str(swc), "--extents", "16x16x16",
                 "--out", str(lbl), f"--scale={scale}"]) == 1
    err = capsys.readouterr().err
    assert "usage error: --scale" in err and "Traceback" not in err
    assert not lbl.exists()


def test_make_cubes(tmp_path, vol_file):
    path, vol = vol_file
    lbl_path = tmp_path / "lbl.nvol"
    write_volume(lbl_path, np.ones(vol.shape, dtype=np.uint8))
    out = tmp_path / "cubes"
    assert main(["make-cubes", "--image", str(path), "--labels", str(lbl_path),
                 "--out", str(out), "--count", "3", "--cube-shape", "8x16x16",
                 "--seed", "1", "--min-foreground", "0"]) == 0
    assert len(list(out.glob("*.img.nvol"))) == 3


def test_train_and_segment_cli(tmp_path, capsys):
    data_dir = tmp_path / "cubes"
    assert main(["gen-phantom", "--out", str(data_dir), "--count", "6",
                 "--shape", "16x16x16", "--tubes", "2", "--radius-min", "3",
                 "--radius-max", "5", "--seed", "3"]) == 0
    run_dir = tmp_path / "run"
    assert main(["train", "--arch", "PU", "--data", str(data_dir),
                 "--out", str(run_dir), "--epochs", "1", "--batch-size", "2",
                 "--seed", "0", "--val-fraction", "0.34"]) == 0
    captured = capsys.readouterr()
    fields = captured.out.strip().split("\t")
    assert len(fields) == 3  # bg, fg, mean IoU on stdout only
    ckpt = run_dir / "epoch_001.ckpt"
    assert ckpt.exists()
    assert (run_dir / "metrics.log").exists()

    seg_out = tmp_path / "seg.nvol"
    vol = tmp_path / "big.nvol"
    write_volume(vol, np.random.default_rng(5).random((20, 20, 20)).astype(np.float32))
    # arch/wavelet default from checkpoint meta
    assert main(["segment", "--ckpt", str(ckpt), "--in", str(vol),
                 "--out", str(seg_out), "--cube-shape", "16x16x16",
                 "--workers", "2"]) == 0
    assert "(blas threads " in capsys.readouterr().err
    seg = read_volume(seg_out)
    assert seg.shape == (20, 20, 20)
    assert set(np.unique(seg)) <= {0, 1}


def test_segment_rebuilds_spec_from_checkpoint(tmp_path, capsys):
    spec = NetworkSpec(dual_structure="DIDn", wavelet="db2", levels=3,
                       encoder_channels=((1, 3), (3, 5), (5, 6)), bottom_channels=(7, 6),
                       decoder_channels=((9, 5), (7, 3), (4, 2)), shrink_threshold=0.1)
    cubes = generate_phantom_dataset(2, PhantomConfig(extents=(16, 16, 16), tube_count=2,
                                                      radius_range=(3.0, 5.0), seed=3))
    cfg = TrainConfig(epochs=1, batch_size=2, seed=0, val_fraction=0.0)
    result = fit(spec, cubes, cfg, out_dir=tmp_path / "run")
    volume = np.random.default_rng(5).random((20, 20, 20)).astype(np.float32)
    vol, seg_out = tmp_path / "big.nvol", tmp_path / "seg.nvol"
    write_volume(vol, volume)
    assert main(["segment", "--ckpt", result.checkpoints[-1], "--in", str(vol),
                 "--out", str(seg_out), "--cube-shape", "16x16x16"]) == 0
    expect = segment_volume(volume, result.network, (16, 16, 16)).labels
    seg = read_volume(seg_out)
    assert seg.shape == expect.shape and seg.tobytes() == expect.tobytes()


def test_segment_checkpoint_without_spec_exits_2(tmp_path, capsys):
    ckpt = tmp_path / "old.ckpt"
    save_state(ckpt, build(paper_spec("PU")).state_dict(), {"arch": "PU", "epoch": "1"})
    vol = tmp_path / "big.nvol"
    write_volume(vol, np.zeros((16, 16, 16), dtype=np.float32))
    assert main(["segment", "--ckpt", str(ckpt), "--in", str(vol),
                 "--out", str(tmp_path / "seg.nvol"), "--cube-shape", "16x16x16"]) == 2
    assert "data error:" in capsys.readouterr().err


def test_segment_non_finite_volume_exits_2(tmp_path, capsys):
    ckpt = tmp_path / "pu.ckpt"
    spec = paper_spec("PU")
    save_state(ckpt, build(spec).state_dict(), {**spec.to_config(), "epoch": "1"})
    volume = np.zeros((16, 16, 16), dtype=np.float32)
    volume[8, 8, 8] = np.nan
    vol = tmp_path / "big.nvol"
    write_volume(vol, volume)
    assert main(["segment", "--ckpt", str(ckpt), "--in", str(vol),
                 "--out", str(tmp_path / "seg.nvol"), "--cube-shape", "16x16x16"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "data error: volume contains non-finite values"
    assert not (tmp_path / "seg.nvol").exists()


def test_segment_non_finite_checkpoint_exits_2(tmp_path, capsys):
    # such weights used to segment the whole volume as background, exit 0
    ckpt = tmp_path / "pu.ckpt"
    spec = paper_spec("PU")
    state = build(spec).state_dict()
    state["enc1.block1.conv.weight"][0, 0, 1, 1, 1] = np.nan
    save_state(ckpt, state, {**spec.to_config(), "epoch": "1"})
    vol = tmp_path / "big.nvol"
    write_volume(vol, np.zeros((16, 16, 16), dtype=np.float32))
    assert main(["segment", "--ckpt", str(ckpt), "--in", str(vol),
                 "--out", str(tmp_path / "seg.nvol"), "--cube-shape", "16x16x16"]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert errors == ["data error: non-finite entries in 'enc1.block1.conv.weight'"]
    assert not (tmp_path / "seg.nvol").exists()


def test_segment_unknown_checkpoint_dtype_code_exits_2(tmp_path, capsys):
    ckpt = tmp_path / "bad.ckpt"
    save_state(ckpt, {"a": np.ones(3, dtype=np.float32)}, paper_spec("PU").to_config())
    ckpt.write_bytes(ckpt.read_bytes().replace(b"a f4 3 12\n", b"a f2 3 12\n"))
    vol = tmp_path / "big.nvol"
    write_volume(vol, np.zeros((16, 16, 16), dtype=np.float32))
    assert main(["segment", "--ckpt", str(ckpt), "--in", str(vol),
                 "--out", str(tmp_path / "seg.nvol"), "--cube-shape", "16x16x16"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"data error: {ckpt}: unknown dtype code f2"


@pytest.mark.parametrize("shape", ["ax64x64", "0x64x64", "16x-64x64", "16x64"])
def test_bad_shape_exits_1(tmp_path, capsys, shape):
    assert main(["gen-phantom", "--out", str(tmp_path / "cubes"), "--count", "1",
                 "--shape", shape]) == 1
    assert "expected DxMxN shape of positive integers" in capsys.readouterr().err


def test_segment_checkpoint_weights_not_matching_spec_exits_2(tmp_path, capsys):
    # four-level weights under a three-level spec: enc4/dec4 entries are unknown
    spec = NetworkSpec(dual_structure="PU", levels=3,
                       encoder_channels=((1, 4), (4, 8), (8, 16)), bottom_channels=(16, 16),
                       decoder_channels=((16, 8), (8, 4), (4, 4)))
    ckpt = tmp_path / "mixed.ckpt"
    save_state(ckpt, build(paper_spec("PU")).state_dict(), {**spec.to_config(), "epoch": "1"})
    vol = tmp_path / "big.nvol"
    write_volume(vol, np.zeros((16, 16, 16), dtype=np.float32))
    assert main(["segment", "--ckpt", str(ckpt), "--in", str(vol),
                 "--out", str(tmp_path / "seg.nvol"), "--cube-shape", "16x16x16"]) == 2
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.splitlines()[-1].startswith("data error: unknown state entries")
    assert "enc4.block1.conv.weight" in err and "Traceback" not in err


def test_train_nonfinite_loss_exits_3(tmp_path, capsys):
    data_dir = tmp_path / "cubes"
    assert main(["gen-phantom", "--out", str(data_dir), "--count", "2",
                 "--shape", "16x16x16", "--seed", "3"]) == 0
    img_path = sorted(data_dir.glob("*.img.nvol"))[0]
    img = read_volume(img_path)
    img[1, 2, 3] = np.nan
    write_volume(img_path, img)
    assert main(["train", "--arch", "PU", "--data", str(data_dir),
                 "--out", str(tmp_path / "run"), "--epochs", "1",
                 "--batch-size", "2", "--val-fraction", "0"]) == 3
    assert "numeric failure: non-finite loss" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--base-lr", "nan"), ("--momentum", "nan"),
                                         ("--weight-decay", "inf"), ("--weight-decay", "-1"),
                                         ("--momentum", "1.5"), ("--momentum", "-0.5")])
def test_train_hyperparameter_it_cannot_train_with_exits_2(tmp_path, capsys, flag, value):
    data_dir = tmp_path / "cubes"
    assert main(["gen-phantom", "--out", str(data_dir), "--count", "2",
                 "--shape", "16x16x16", "--seed", "3"]) == 0
    assert main(["train", "--arch", "PU", "--data", str(data_dir),
                 "--out", str(tmp_path / "run"), "--epochs", "1", "--val-fraction", "0",
                 flag, value]) == 2
    name = flag[2:].replace("-", "_")
    assert capsys.readouterr().err.splitlines()[-1].startswith(f"data error: {name} must be")
    assert not (tmp_path / "run").exists()


def test_train_val_fraction_outside_unit_interval_exits_2(tmp_path, capsys):
    data_dir = tmp_path / "cubes"
    assert main(["gen-phantom", "--out", str(data_dir), "--count", "2",
                 "--shape", "16x16x16", "--seed", "3"]) == 0
    assert main(["train", "--arch", "PU", "--data", str(data_dir),
                 "--out", str(tmp_path / "run"), "--epochs", "1",
                 "--val-fraction", "-0.5"]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("data error: val_fraction")
    assert not (tmp_path / "run").exists()


def test_provenance_header_on_stderr_not_stdout(tmp_path, capsys):
    assert main(["count-params", "--arch", "PU"]) == 0
    captured = capsys.readouterr()
    assert "wavecube" in captured.err and "config=" in captured.err
    assert "wavecube" not in captured.out  # stdout carries only the value
