import numpy as np
import pytest

from wavecube.cli import main
from wavecube.data import read_volume, write_volume
from wavecube.filters import SUBBAND_TAGS, builtin_bank
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
    seg = read_volume(seg_out)
    assert seg.shape == (20, 20, 20)
    assert set(np.unique(seg)) <= {0, 1}


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


def test_provenance_header_on_stderr_not_stdout(tmp_path, capsys):
    assert main(["count-params", "--arch", "PU"]) == 0
    captured = capsys.readouterr()
    assert "wavecube" in captured.err and "config=" in captured.err
    assert "wavecube" not in captured.out  # stdout carries only the value
