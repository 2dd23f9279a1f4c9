"""Command-line interface: train-lifter, infer, eval, synth.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
failure. Options can come from a JSON config file (--config); explicit
flags win over config values. All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .fileio import DataFormatError
from .geometry import (
    DegeneratePoseError,
    error_2d,
    image_to_crop,
    mpjpe,
    procrustes_error,
)
from .inference import (
    GENERATORS,
    PRIOR_MODES,
    PRIOR_PERSPECTIVE,
    InferenceConfig,
    infer,
)
from .lifter import (
    BATCH_SIZE,
    INPUT_MODES,
    LEARNING_RATE,
    MOMENTUM,
    NOISE_STD,
    LifterTrainConfig,
    TrainingDivergedError,
    check_hidden_sizes,
    load_model,
    save_model,
    train_lifter,
)
from .synth import (
    DEPTH_RANGE,
    GRID_SIZE,
    IMAGE_SIZE,
    CorruptionSpec,
    _frames,
    check_grid_size,
    default_camera,
    default_skeleton,
    # unused: bench/spans.py names cli.generate_frames, and since cmd_synth
    # streams from _frames, that span reads 0 s
    generate_frames,  # noqa: F401
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _config_flags(path, parser, command) -> list[str]:
    """The JSON config file as `command` flags; unknown keys rejected.

    The flags go before the user's own arguments, so an explicit flag wins
    even when it equals its default, and every value passes through its
    option's type and choices. A null value leaves the option unset.
    """
    try:
        with open(path, encoding="utf-8") as f:
            config = json.load(f)
    except OSError as e:
        raise UsageError(f"cannot read config file: {e}")
    except UnicodeDecodeError as e:
        raise UsageError(f"{path}: config file is not UTF-8 text: {e}")
    except json.JSONDecodeError as e:
        raise UsageError(f"{path}: config file is not valid JSON: {e}")
    if not isinstance(config, dict):
        raise UsageError(f"{path}: config file must hold a JSON object")
    defaults = vars(parser.parse_args([command]))
    flags = []
    for key, value in config.items():
        dest = key.replace("-", "_")
        if dest not in defaults or dest in ("command", "config"):
            raise UsageError(f"unknown config key {key!r}")
        option = "--" + dest.replace("_", "-")
        if value is not None:
            if "\0" in str(value):  # no path or number holds one
                raise UsageError(f"config key {key!r} holds a NUL byte")
            flags.append(f"{option}={value}")
    return flags


def _digits(text: str) -> int:
    """int(text) if text is a fileio.FRAME_INDEX (the manifest rule), else
    ValueError: int() alone also reads " 7", "+3", "1_000" and "１"."""
    if not fileio.FRAME_INDEX.fullmatch(text):
        raise ValueError(text)
    return int(text)


def _int(text: str) -> int:
    """Type of the integer options: sizes and counts meet float arithmetic,
    so one that a float cannot hold is refused before anything is written."""
    try:
        value = _digits(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if abs(value) > sys.float_info.max:
        raise argparse.ArgumentTypeError("integer too large for a float")
    return value


def _seed(text: str) -> int:
    """Type of --seed: an integer >= 0, of any size (numpy takes it as it is)."""
    with contextlib.suppress(ValueError):
        if _digits(text) >= 0:
            return int(text)
    raise argparse.ArgumentTypeError(f"a seed is an integer >= 0, got {text!r}")


def _float(text: str) -> float:
    """Type of the real-valued options: what float() reads, less the
    non-ASCII characters, whitespace and underscores that it also takes."""
    if text.isascii() and not re.search(r"[\s_]", text):
        with contextlib.suppress(ValueError):
            return float(text)
    raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")


def _sizes(text: str) -> tuple[int, ...]:
    """Type of --hidden-sizes: comma-separated integers that
    lifter.check_hidden_sizes accepts; "" is no hidden layer."""
    sizes = tuple(_int(s) for s in text.split(",")) if text else ()
    try:
        check_hidden_sizes(sizes)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return sizes


def build_parser() -> _Parser:
    parser = _Parser(prog="poselift")
    sub = parser.add_subparsers(dest="command", required=True)
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")

    p = sub.add_parser("train-lifter", parents=[common], help="fit the 2D-to-3D lifter")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--poses-2d", required=False)
    p.add_argument("--poses-3d", required=False)
    p.add_argument("--out", required=False, help="output model file")
    p.add_argument("--epochs", type=_int, default=LifterTrainConfig.epochs)
    p.add_argument("--hidden-sizes", type=_sizes, default=LifterTrainConfig.hidden_sizes)
    p.add_argument("--input-mode", choices=INPUT_MODES, default=LifterTrainConfig.input_mode)

    p = sub.add_parser("infer", parents=[common], help="run the full pipeline on heat-map volumes")
    p.add_argument("--manifest", required=False)
    p.add_argument("--model", required=False)
    p.add_argument("--camera", help="camera file (perspective prior only)")
    p.add_argument("--out-dir", required=False)
    p.add_argument("--prior-strength", type=_float, default=InferenceConfig.prior_strength)
    p.add_argument("--bandwidth", type=_float, default=InferenceConfig.bandwidth)
    p.add_argument("--num-candidates", type=_int, default=InferenceConfig.num_candidates)
    p.add_argument("--prior", choices=PRIOR_MODES, default=InferenceConfig.prior_mode)
    p.add_argument("--generator", choices=GENERATORS, default=InferenceConfig.generator)

    p = sub.add_parser("eval", parents=[common], help="score predictions against ground truth")
    p.add_argument("--pred-3d")
    p.add_argument("--gt-3d")
    p.add_argument("--pred-2d")
    p.add_argument("--gt-2d")
    p.add_argument("--manifest", help="map 2D poses into crop coordinates")
    p.add_argument("--out", required=False, help="output report file")

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic dataset")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out-dir", required=False)
    p.add_argument("--frames", type=_int, default=100)
    p.add_argument("--grid-size", type=_int, default=GRID_SIZE)
    p.add_argument("--depth-min", type=_float, default=DEPTH_RANGE[0])
    p.add_argument("--depth-max", type=_float, default=DEPTH_RANGE[1])
    p.add_argument("--distractor-prob", type=_float, default=CorruptionSpec.distractor_prob)
    p.add_argument("--distractor-strength", type=_float, default=CorruptionSpec.strength)
    p.add_argument("--noise-floor", type=_float, default=CorruptionSpec.noise_floor)
    return parser


@contextlib.contextmanager
def _option_values():
    """Turns the ValueError of a check on option values into UsageError."""
    try:
        yield
    except ValueError as e:
        raise UsageError(str(e)) from None


def _require(args, *names):
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise UsageError(f"--{name} is required")


def _check_output(option, path, *, directory=False, empty=False):
    """Refuses an output location that cannot be written, before any input
    is read, so no work is done for it. A file output must not be a
    directory and goes into a directory that exists. An output directory is
    made, with its parents, only once the work is done, so it and the
    nearest of its parents that exists must be directories; with `empty`,
    it must also be new or empty."""
    path = Path(path)
    where = f"--{option} {path}"
    if directory:
        nearest = next(p for p in (path, *path.parents) if p.exists())
    elif path.is_dir():
        raise UsageError(f"{where}: is a directory")
    elif not path.parent.exists():
        raise UsageError(f"{where}: directory {path.parent} does not exist")
    else:
        nearest = path.parent
    if not nearest.is_dir():
        raise UsageError(f"{where}: {nearest} is not a directory")
    if empty and path.is_dir() and any(path.iterdir()):
        raise UsageError(f"{where}: exists and is not empty")


def _load_paired(path_a, dim_a, path_b, dim_b):
    """(frames, poses_a, poses_b) of two pose files that pair up frame by
    frame; empty files, differing frame indices or more than one joint
    count across both files are data errors naming both files."""
    frames_a, poses_a = fileio.load_poses(path_a, dim=dim_a)
    frames_b, poses_b = fileio.load_poses(path_b, dim=dim_b)
    pair = f"{path_a} and {path_b}"
    if not frames_a and not frames_b:
        raise DataFormatError(f"{pair} hold no pose records")
    if frames_a != frames_b:
        raise DataFormatError(f"{pair} do not align by frame index")
    counts = sorted({len(p) for p in poses_a + poses_b})
    if len(counts) > 1:
        raise DataFormatError(f"{pair}: joint counts differ {counts}")
    return frames_a, poses_a, poses_b


def cmd_train_lifter(args) -> int:
    _require(args, "poses-2d", "poses-3d", "out")
    with _option_values():
        config = LifterTrainConfig(
            epochs=args.epochs,
            hidden_sizes=args.hidden_sizes,
            input_mode=args.input_mode,
            seed=args.seed,
        )
    out = Path(args.out)
    _check_output("out", out)
    sidecar = out.with_suffix(out.suffix + ".txt")
    if sidecar.is_dir():
        raise UsageError(f"--out {out}: its sidecar {sidecar} is a directory")
    _, poses_2d, poses_3d = _load_paired(args.poses_2d, 2, args.poses_3d, 3)
    try:
        model, final_loss = train_lifter(poses_2d, poses_3d, config)
    except DegeneratePoseError as e:  # "pose k" counts in frame order
        raise DataFormatError(f"{args.poses_2d}: {e}") from None
    save_model(model, out)
    summary = {
        "num_joints": model.num_joints,
        "layer_sizes": list(model.layer_sizes),
        "input_mode": model.input_mode,
        "mean_offset": model.mean_offset.tolist(),
        "final_loss": final_loss,
        "train_frames": len(poses_2d),
        "config": {  # hidden_sizes and input_mode are reported above
            "learning_rate": LEARNING_RATE,
            "momentum": MOMENTUM,
            "epochs": config.epochs,
            "noise_std": NOISE_STD,
            "batch_size": BATCH_SIZE,
            "seed": config.seed,
        },
    }
    fileio.atomic_write_text(sidecar, json.dumps(summary, indent=2) + "\n")
    print(f"trained on {len(poses_2d)} frames, final loss {final_loss:.6f}")
    return EXIT_OK


def cmd_infer(args) -> int:
    _require(args, "manifest", "model", "out-dir")
    with _option_values():
        config = InferenceConfig(
            prior_strength=args.prior_strength,
            bandwidth=args.bandwidth,
            num_candidates=args.num_candidates,
            prior_mode=args.prior,
            generator=args.generator,
        )
    if config.prior_mode == PRIOR_PERSPECTIVE and not args.camera:
        raise UsageError("perspective prior requires --camera")
    _check_output("out-dir", args.out_dir, directory=True)
    camera = fileio.load_camera(args.camera) if args.camera else None
    model = load_model(args.model)
    entries = fileio.load_manifest(args.manifest)
    manifest_dir = Path(args.manifest).parent
    out_dir = Path(args.out_dir)

    frames, poses_2d, poses_3d, poses_3d_abs, selections = [], [], [], [], []
    failures = 0
    for frame, rel in entries:
        path = manifest_dir / rel
        try:
            volume = fileio.load_volume(path)
            if volume.num_joints != model.num_joints:
                raise DataFormatError(
                    f"{path}: volume has {volume.num_joints} joints, "
                    f"model expects {model.num_joints}"
                )
            result = infer(volume, model, config, camera=camera)
        except (DataFormatError, OSError) as e:
            error = str(e)
        except FloatingPointError as e:  # the lift overflows on this input
            error = f"{path} with model {args.model}: {e}"
        else:
            error = None
        if error is not None:
            print(f"frame {frame}: failed: {error}", file=sys.stderr)
            failures += 1
            selections.append({"frame": frame, "failed": True, "error": error})
            continue
        frames.append(frame)
        poses_2d.append(result.pose_2d)
        poses_3d.append(result.pose_3d)
        poses_3d_abs.append(result.pose_3d_absolute)
        selections.append(
            {
                "frame": frame,
                "chosen": result.chosen_index,
                "energies": [
                    c.energy if np.isfinite(c.energy) else None
                    for c in result.candidates
                ],
                "scores": [c.score for c in result.candidates],
            }
        )
    # created only now, so a run that stops on an error leaves none behind
    out_dir.mkdir(parents=True, exist_ok=True)
    fileio.save_poses(out_dir / "poses_2d.jsonl", poses_2d, frames)
    fileio.save_poses(out_dir / "poses_3d.jsonl", poses_3d, frames)
    fileio.save_poses(out_dir / "poses_3d_absolute.jsonl", poses_3d_abs, frames)
    fileio.atomic_write_text(
        out_dir / "selection.jsonl",
        "".join(json.dumps(s) + "\n" for s in selections),
    )
    print(f"processed {len(frames)} frames, {failures} failed")
    return EXIT_DATA if failures else EXIT_OK


def _load_boxes(manifest_path):
    entries = fileio.load_manifest(manifest_path)
    manifest_dir = Path(manifest_path).parent
    return {frame: fileio.load_box(manifest_dir / rel) for frame, rel in entries}


def cmd_eval(args) -> int:
    have_3d, have_2d = bool(args.pred_3d), bool(args.pred_2d)
    if have_3d != bool(args.gt_3d):
        raise UsageError("--pred-3d and --gt-3d must be given together")
    if have_2d != bool(args.gt_2d):
        raise UsageError("--pred-2d and --gt-2d must be given together")
    if not have_3d and not have_2d:
        raise UsageError("need --pred-3d/--gt-3d and/or --pred-2d/--gt-2d")
    if args.manifest and not have_2d:
        raise UsageError("--manifest needs --pred-2d and --gt-2d")
    if args.out:
        _check_output("out", args.out)
    report: dict = {}
    if have_3d:
        frames, pred, gt = _load_paired(args.pred_3d, 3, args.gt_3d, 3)
        pair = f"{args.pred_3d} and {args.gt_3d}"
        if len(gt[0]) < 3:
            raise DataFormatError(f"{pair}: similarity alignment needs 3 joints")
        vals_m = [mpjpe(g, p) for g, p in zip(gt, pred)]
        vals_s = []
        for frame, g, p in zip(frames, gt, pred):
            try:
                vals_s.append(procrustes_error(g, p))
            except DegeneratePoseError as e:
                raise DataFormatError(f"{pair}: frame {frame}: {e}") from None
        report["mpjpe"] = {"mean": float(np.mean(vals_m)), "per_frame": vals_m}
        report["similarity"] = {
            "mean": float(np.mean(vals_s)),
            "per_frame": vals_s,
        }
    if have_2d:
        frames, pred, gt = _load_paired(args.pred_2d, 2, args.gt_2d, 2)
        if args.manifest:
            boxes = _load_boxes(args.manifest)
            missing = [f for f in frames if f not in boxes]
            if missing:
                raise DataFormatError(f"manifest lacks frames {missing[:5]}")
            pred = [image_to_crop(p, boxes[f]) for f, p in zip(frames, pred)]
            gt = [image_to_crop(g, boxes[f]) for f, g in zip(frames, gt)]
        vals = [error_2d(g, p) for g, p in zip(gt, pred)]
        report["error_2d"] = {"mean": float(np.mean(vals)), "per_frame": vals}
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        fileio.atomic_write_text(args.out, text)
    for key in ("mpjpe", "similarity", "error_2d"):
        if key in report:
            print(f"{key}: {report[key]['mean']:.4f}")
    return EXIT_OK


def cmd_synth(args) -> int:
    _require(args, "out-dir")
    try:
        check_grid_size(args.grid_size)
    except ValueError as e:
        raise UsageError(f"--grid-size: {e}") from None
    _check_output("out-dir", args.out_dir, directory=True, empty=True)
    out_dir = Path(args.out_dir)

    camera = default_camera()
    with _option_values():
        corruption = CorruptionSpec(
            distractor_prob=args.distractor_prob,
            strength=args.distractor_strength,
            noise_floor=args.noise_floor,
        )
        frames = _frames(
            default_skeleton(), camera, args.frames, corruption, args.seed,
            (args.depth_min, args.depth_max), args.grid_size,
        )
    # each volume is written as it is made; only the poses are kept
    entries, poses_2d, poses_3d = [], [], []
    for i, frame in enumerate(frames):
        if i == 0:  # made only once a frame exists
            (out_dir / "volumes").mkdir(parents=True, exist_ok=True)
        rel = f"volumes/frame_{i:06d}.hmv"
        fileio.save_volume(out_dir / rel, frame.volume)
        entries.append((i, rel))
        poses_2d.append(frame.pose_2d)
        poses_3d.append(frame.pose_3d)
    fileio.save_manifest(out_dir / "manifest.txt", entries)
    fileio.save_poses(out_dir / "poses_2d.jsonl", poses_2d)
    fileio.save_poses(out_dir / "poses_3d.jsonl", poses_3d)
    fileio.save_camera(out_dir / "camera.json", camera)
    provenance = {
        "seed": args.seed,
        "frames": args.frames,
        "image_size": IMAGE_SIZE,
        "grid_size": args.grid_size,
        "depth_range": [args.depth_min, args.depth_max],
        "corruption": dataclasses.asdict(corruption),
    }
    fileio.atomic_write_text(
        out_dir / "provenance.json", json.dumps(provenance, indent=2) + "\n"
    )
    print(f"wrote {len(entries)} frames to {out_dir}")
    return EXIT_OK


COMMANDS = {
    "train-lifter": cmd_train_lifter,
    "infer": cmd_infer,
    "eval": cmd_eval,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if any("\0" in a for a in argv):  # no path or number holds one
            raise UsageError("an argument holds a NUL byte")
        args = parser.parse_args(argv)
        if args.config:
            at = argv.index(args.command) + 1
            flags = _config_flags(args.config, parser, args.command)
            args = parser.parse_args(argv[:at] + flags + argv[at:])
        return COMMANDS[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingDivergedError, FloatingPointError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
