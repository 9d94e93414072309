"""The wavecube command line: the full workflow as subcommands.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Diagnostics (provenance header, progress) go to stderr; data outputs
(files, metric values) go to files or stdout, never mixed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .arch import (
    DUAL_STRUCTURES,
    NetworkSpec,
    WAVELET_STRUCTURES,
    build,
    count_parameters,
    format_description,
)
from .data.cubes import cut_cubes
from .data.phantom import PhantomConfig, generate_phantom
from .data.rasterize import rasterize
from .data.swc import parse_swc
from .data.volume_io import read_volume, write_volume
from .errors import (
    NonFiniteGradientError,
    NonFiniteLossError,
    UnknownWaveletError,
    WavecubeError,
)
from .filters import SUBBAND_TAGS, builtin_bank
from .nn.checkpoint import load_state
from .pipeline import iou, segment_volume
from .train import TrainConfig, fit
from .transform import ShrinkConfig, SubbandSet, dwt3, hard_shrink, idwt3
from .wavelet_tables import WAVELET_NAMES


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_shape(text: str) -> tuple[int, int, int]:
    parts = text.lower().replace("x", ",").split(",")
    if len(parts) != 3:
        raise UsageError(f"expected DxMxN shape, got {text!r}")
    return tuple(int(p) for p in parts)


def _provenance(cmd: str, args: argparse.Namespace) -> None:
    payload = {k: repr(v) for k, v in sorted(vars(args).items()) if k != "func"}
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:12]
    print(f"# wavecube {__version__} | cmd={cmd} | config={digest}", file=sys.stderr)
    for key, val in sorted(payload.items()):
        print(f"#   {key}={val}", file=sys.stderr)


def _network_spec(args) -> NetworkSpec:
    wavelet = getattr(args, "wavelet", None)
    if args.arch in WAVELET_STRUCTURES:
        if wavelet is None:
            raise UsageError(f"--wavelet is required for arch {args.arch}")
    else:
        wavelet = None
    threshold = getattr(args, "threshold", None)
    if threshold is None:
        return NetworkSpec(dual_structure=args.arch, wavelet=wavelet)
    return NetworkSpec(dual_structure=args.arch, wavelet=wavelet,
                       shrink_threshold=threshold)


# -- subcommand implementations ---------------------------------------------

def cmd_gen_phantom(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = PhantomConfig(
        extents=_parse_shape(args.shape), tube_count=args.tubes,
        radius_range=(args.radius_min, args.radius_max),
        foreground=args.fg, background=args.bg, noise_sigma=args.sigma,
        impulse_fraction=args.impulse, gap_count=args.gaps,
        gap_length=args.gap_length, seed=args.seed)
    for i in range(args.count):
        sub_cfg = PhantomConfig(**{**vars(cfg), "seed": args.seed + i})
        image, labels = generate_phantom(sub_cfg)
        write_volume(out / f"cube_{i:05d}.img.nvol", image)
        write_volume(out / f"cube_{i:05d}.lbl.nvol", labels)
    print(f"# wrote {args.count} cube pairs to {out}", file=sys.stderr)
    return 0


def cmd_swc2label(args) -> int:
    morph = parse_swc(Path(args.swc).read_text())
    scale = tuple(float(s) for s in args.scale.split(",")) if args.scale else None
    if scale is not None and len(scale) != 3:
        raise UsageError("--scale expects sz,sy,sx")
    labels = rasterize(morph, _parse_shape(args.extents), scale)
    write_volume(args.out, labels)
    print(f"# rasterized {len(morph)} nodes -> {args.out} "
          f"({int(labels.sum())} foreground voxels)", file=sys.stderr)
    return 0


def cmd_make_cubes(args) -> int:
    image = read_volume(args.image)
    labels = read_volume(args.labels)
    records = cut_cubes(image, labels, _parse_shape(args.cube_shape), args.count,
                        args.seed, args.min_foreground)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, rec in enumerate(records):
        write_volume(out / f"cube_{i:05d}.img.nvol", rec.image.astype(np.float32))
        write_volume(out / f"cube_{i:05d}.lbl.nvol", rec.label)
    print(f"# cut {len(records)} of {args.count} requested cubes to {out}",
          file=sys.stderr)
    return 0


def cmd_dwt(args) -> int:
    bank = builtin_bank(args.wavelet)
    volume = read_volume(args.infile).astype(np.float64)
    subbands = dwt3(volume, bank)
    for tag in SUBBAND_TAGS:
        write_volume(f"{args.out_prefix}{tag}.nvol", subbands[tag].astype(np.float32))
    print(f"# wrote 8 subbands with prefix {args.out_prefix}", file=sys.stderr)
    return 0


def cmd_idwt(args) -> int:
    bank = builtin_bank(args.wavelet)
    arrays = {tag: read_volume(f"{args.in_prefix}{tag}.nvol").astype(np.float64)
              for tag in SUBBAND_TAGS}
    volume = idwt3(SubbandSet(arrays, bank.name), bank)
    write_volume(args.out, volume.astype(np.float32))
    print(f"# reconstructed {volume.shape} -> {args.out}", file=sys.stderr)
    return 0


def cmd_denoise(args) -> int:
    bank = builtin_bank(args.wavelet)
    volume = read_volume(args.infile).astype(np.float64)
    shrunk = hard_shrink(dwt3(volume, bank), ShrinkConfig(args.threshold))
    write_volume(args.out, idwt3(shrunk, bank).astype(np.float32))
    print(f"# denoised with {args.wavelet}, threshold {args.threshold}", file=sys.stderr)
    return 0


def cmd_describe(args) -> int:
    if args.config:
        spec = NetworkSpec.from_config_text(Path(args.config).read_text())
    elif args.arch:
        spec = _network_spec(args)
    else:
        raise UsageError("describe needs --arch or --config")
    print(format_description(spec))
    return 0


def cmd_count_params(args) -> int:
    print(count_parameters(_network_spec(args)))
    return 0


def _load_cube_dir(path: Path):
    imgs = sorted(path.glob("*.img.nvol"))
    if not imgs:
        raise WavecubeError(f"no '*.img.nvol' cubes found in {path}")
    dataset = []
    for img_path in imgs:
        lbl_path = img_path.with_name(img_path.name.replace(".img.", ".lbl."))
        if not lbl_path.exists():
            raise WavecubeError(f"missing label volume {lbl_path}")
        dataset.append((read_volume(img_path), read_volume(lbl_path)))
    return dataset


def cmd_train(args) -> int:
    spec = _network_spec(args)
    dataset = _load_cube_dir(Path(args.data))
    cfg = TrainConfig(epochs=args.epochs, base_lr=args.base_lr,
                      momentum=args.momentum, weight_decay=args.weight_decay,
                      batch_size=args.batch_size, seed=args.seed,
                      val_fraction=args.val_fraction)
    print(f"# training {spec.dual_structure}({spec.wavelet or '-'}) on "
          f"{len(dataset)} cubes, {cfg.epochs} epochs, seed {cfg.seed}", file=sys.stderr)
    result = fit(spec, dataset, cfg, out_dir=args.out,
                 log_fn=lambda msg: print(f"# {msg}", file=sys.stderr))
    bg, fg, mean = result.final_iou
    print(f"{bg:.4f}\t{fg:.4f}\t{mean:.4f}")
    return 0


def cmd_segment(args) -> int:
    state, meta = load_state(args.ckpt)
    arch = args.arch or meta.get("arch")
    wavelet = args.wavelet or (None if meta.get("wavelet", "none") == "none"
                               else meta.get("wavelet"))
    if arch is None:
        raise UsageError("--arch not given and checkpoint carries no arch meta")
    if arch in WAVELET_STRUCTURES and wavelet is None:
        raise UsageError(f"--wavelet is required for arch {arch}")
    if arch not in WAVELET_STRUCTURES:
        wavelet = None
    spec = NetworkSpec(dual_structure=arch, wavelet=wavelet,
                       shrink_threshold=float(meta.get("shrink_threshold", 0.25)))
    network = build(spec)
    network.load_state_dict(state)
    volume = read_volume(args.infile)
    result = segment_volume(volume, network, _parse_shape(args.cube_shape),
                            workers=args.workers)
    write_volume(args.out, result.labels)
    print(f"# segmented {volume.shape} with {arch}({wavelet or '-'}) "
          f"ckpt epoch {meta.get('epoch', '?')} -> {args.out}", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    pred = read_volume(args.pred)
    truth = read_volume(args.truth)
    bg, fg, mean = iou(pred, truth)
    print(f"{bg:.4f}\t{fg:.4f}\t{mean:.4f}")
    return 0


# -- wiring -------------------------------------------------------------------

def build_parser() -> Parser:
    parser = Parser(prog="wavecube", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("gen-phantom", help="generate synthetic tubular cube pairs")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--shape", default="16x64x64")
    p.add_argument("--tubes", type=int, default=3)
    p.add_argument("--radius-min", type=float, default=1.2)
    p.add_argument("--radius-max", type=float, default=2.5)
    p.add_argument("--fg", type=float, default=1.0)
    p.add_argument("--bg", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--impulse", type=float, default=0.0)
    p.add_argument("--gaps", type=int, default=0)
    p.add_argument("--gap-length", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_phantom)

    p = sub.add_parser("swc2label", help="rasterize an SWC trace to a label volume")
    p.add_argument("--swc", required=True)
    p.add_argument("--extents", required=True, help="DxMxN")
    p.add_argument("--out", required=True)
    p.add_argument("--scale", default=None, help="per-axis voxel size sz,sy,sx")
    p.set_defaults(func=cmd_swc2label)

    p = sub.add_parser("make-cubes", help="randomly cut image/label cube pairs")
    p.add_argument("--image", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--cube-shape", default="32x128x128")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-foreground", type=float, default=0.001)
    p.set_defaults(func=cmd_make_cubes)

    p = sub.add_parser("dwt", help="decompose a volume into eight subbands")
    p.add_argument("--wavelet", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_dwt)

    p = sub.add_parser("idwt", help="reconstruct a volume from eight subbands")
    p.add_argument("--wavelet", required=True)
    p.add_argument("--in-prefix", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_idwt)

    p = sub.add_parser("denoise", help="hard-shrink wavelet denoising")
    p.add_argument("--wavelet", required=True)
    p.add_argument("--threshold", type=float, default=0.25)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("describe", help="layer-by-layer architecture report")
    p.add_argument("--arch", default=None, choices=DUAL_STRUCTURES)
    p.add_argument("--wavelet", default=None)
    p.add_argument("--config", default=None,
                   help="read the network spec from a key=value config file")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("count-params", help="count trainable parameters")
    p.add_argument("--arch", required=True, choices=DUAL_STRUCTURES)
    p.add_argument("--wavelet", default=None)
    p.set_defaults(func=cmd_count_params)

    p = sub.add_parser("train", help="train a network on a cube directory")
    p.add_argument("--arch", required=True, choices=DUAL_STRUCTURES)
    p.add_argument("--wavelet", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch-size", type=int, default=4)
    p.add_argument("--base-lr", type=float, default=0.1)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--weight-decay", type=float, default=0.0001)
    p.add_argument("--val-fraction", type=float, default=0.1)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("segment", help="segment a whole volume with a checkpoint")
    p.add_argument("--arch", default=None, choices=DUAL_STRUCTURES)
    p.add_argument("--wavelet", default=None)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--cube-shape", default="32x128x128")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("eval", help="IoU of a prediction against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        _provenance(args.command, args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(f"valid wavelets: {', '.join(WAVELET_NAMES)}", file=sys.stderr)
        return 1
    except UnknownWaveletError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (NonFiniteGradientError, NonFiniteLossError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (WavecubeError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
