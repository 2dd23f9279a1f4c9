"""End-to-end CLI tests through main(): exit codes, reproducibility,
config-file semantics, and the full synth -> train -> infer -> eval loop."""

import ast
import hashlib
import inspect
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import modes_reference as ref
import synth_reference
from poselift import cli, heatmaps, synth
from poselift.cli import (
    EXIT_DATA,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from poselift.fileio import DataFormatError, load_poses, load_volume, save_poses, save_volume
from poselift.heatmaps import HeatMapVolume
from poselift.inference import GENERATORS, PRIOR_MODES, InferenceConfig
from poselift.lifter import INPUT_MODES, LifterTrainConfig, load_model, save_model


# an integer option value that no float can hold
OVERFLOW = "9" * 400


def run(*argv):
    return main(list(argv))


def assert_usage_error_names(err, flags):
    """Checks the usage error printed for `flags`: an overflowing integer
    must name its option, and so must every bad --grid-size."""
    assert err.startswith("error: ")
    if OVERFLOW in flags:
        assert f"argument {flags[flags.index(OVERFLOW) - 1]}: integer too large" in err
    if "--grid-size" in flags:
        assert "--grid-size" in err


def synth_dataset(path, frames=6, seed=0, extra=()):
    code = run(
        "synth", "--out-dir", str(path), "--frames", str(frames),
        "--seed", str(seed), *extra,
    )
    assert code == EXIT_OK
    return path


def train_model(dataset, out, epochs=3, seed=0, extra=()):
    code = run(
        "train-lifter",
        "--poses-2d", str(dataset / "poses_2d.jsonl"),
        "--poses-3d", str(dataset / "poses_3d.jsonl"),
        "--out", str(out),
        "--epochs", str(epochs),
        "--hidden-sizes", "16",
        "--seed", str(seed),
        *extra,
    )
    assert code == EXIT_OK
    return out


def unwritable_file(tmp_path, case):
    """An --out path under tmp_path that cannot be written, made as `case`
    names, and the end of the usage error it draws."""
    if case == "missing-directory":
        out = tmp_path / "nodir" / "out.bin"
        return out, f"directory {out.parent} does not exist"
    if case == "directory":
        (tmp_path / "out.bin").mkdir()
        return tmp_path / "out.bin", "is a directory"
    if case == "under-file":
        (tmp_path / "file").write_text("")
        return tmp_path / "file" / "out.bin", f"{tmp_path / 'file'} is not a directory"
    assert case == "sidecar-directory"
    (tmp_path / "out.bin.txt").mkdir()
    return tmp_path / "out.bin", f"its sidecar {tmp_path / 'out.bin.txt'} is a directory"


def _strict_json(path):
    """Parse a JSON file, or each line of a JSONL file, with NaN and
    Infinity rejected."""

    def reject(constant):
        raise ValueError(f"{path} holds {constant}")

    text = path.read_text()
    for doc in text.splitlines() if path.suffix == ".jsonl" else [text]:
        json.loads(doc, parse_constant=reject)


class TestSynth:
    def test_writes_complete_dataset(self, tmp_path):
        out = synth_dataset(tmp_path / "data", frames=4)
        for name in (
            "manifest.txt", "poses_2d.jsonl", "poses_3d.jsonl",
            "camera.json", "provenance.json",
        ):
            assert (out / name).exists()
        assert len(list((out / "volumes").iterdir())) == 4
        assert len((out / "manifest.txt").read_text().splitlines()) == 4

    def test_byte_identical_reruns(self, tmp_path):
        a = synth_dataset(tmp_path / "a", frames=3, seed=5)
        b = synth_dataset(tmp_path / "b", frames=3, seed=5)
        for rel in (
            "poses_2d.jsonl", "poses_3d.jsonl", "manifest.txt",
            "volumes/frame_000001.hmv",
        ):
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_refuses_nonempty_dir(self, tmp_path):
        out = tmp_path / "data"
        synth_dataset(out, frames=1)
        assert run("synth", "--out-dir", str(out), "--frames", "1") == EXIT_USAGE

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_dir_that_cannot_be_made_is_refused_before_synthesis(
        self, tmp_path, capsys, monkeypatch, under
    ):
        def frames(*args):
            raise AssertionError("synthesized for a directory that cannot be made")

        monkeypatch.setattr(cli, "_frames", frames)
        blocker = tmp_path / "taken"
        blocker.write_text("kept\n")
        out = blocker / "data" if under else blocker
        assert run("synth", "--out-dir", str(out), "--frames", "1") == EXIT_USAGE
        assert capsys.readouterr().err == f"error: --out-dir {out}: {blocker} is not a directory\n"
        assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "kept\n"

    @pytest.mark.parametrize(
        "flags",
        [("--noise-floor", "nan"), ("--distractor-strength", "inf"),
         ("--depth-min", "nan"), ("--depth-min", "-100", "--depth-max", "50"),
         ("--depth-min", "1", "--depth-max", "1"),
         ("--depth-min", "100", "--depth-max", "1000"),
         ("--grid-size", OVERFLOW),
         ("--grid-size", str(2**32)), ("--grid-size", str(10**300)),
         ("--noise-floor", "1e39"),
         ("--distractor-prob", "1", "--distractor-strength", "1e300"),
         ("--frames", "１"), ("--frames", " 1 "), ("--frames", "1_0"), ("--seed", "+3"),
         ("--noise-floor", "０.０２"), ("--distractor-prob", " 0.5 "),
         ("--distractor-strength", "1_1")],
        ids=["nan-noise", "inf-strength", "nan-depth", "negative-depth",
             "behind-camera", "partly-behind-camera", "overflowing-grid-size",
             "grid-size-over-uint32", "huge-grid-size", "overflowing-noise",
             "overflowing-strength", "fullwidth-frames", "spaced-frames",
             "underscored-frames", "signed-seed", "fullwidth-noise", "spaced-prob",
             "underscored-strength"],
    )
    def test_bad_option_values_are_usage_errors(self, tmp_path, capsys, flags):
        out = tmp_path / "data"
        assert run("synth", "--out-dir", str(out), "--frames", "1", *flags) == EXIT_USAGE
        assert_usage_error_names(capsys.readouterr().err, flags)
        assert not out.exists()

    def test_camera_is_fixed(self, tmp_path):
        out = synth_dataset(tmp_path / "data", frames=1)
        camera = json.loads((out / "camera.json").read_text())
        assert camera == {"fx": 1150.0, "fy": 1150.0, "cx": 500.0, "cy": 500.0}
        assert json.loads((out / "provenance.json").read_text())["image_size"] == 1000

    # every value, those the old option refused included, is an unknown option
    @pytest.mark.parametrize(
        "value, from_config",
        [("640", False), ("0", False), (str(10**20), False), (OVERFLOW, False), ("640", True)],
        ids=["flag", "flag-zero", "flag-huge", "flag-overflowing", "config"],
    )
    def test_image_size_is_not_an_option(self, tmp_path, capsys, value, from_config):
        out = tmp_path / "data"
        flags = ("--image-size", value)
        if from_config:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"image-size": int(value)}))
            flags = ("--config", str(config))
        assert run("synth", "--out-dir", str(out), "--frames", "1", *flags) == EXIT_USAGE
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "image-size" in line
        assert not out.exists()

    @pytest.mark.parametrize("flags", [("--seed", "-1"), ("--grid-size", "0")])
    def test_bad_seed_or_grid_size_is_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "data"
        assert run("synth", "--out-dir", str(out), "--frames", "1", *flags) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_seed_of_any_size_goes_to_numpy(self, tmp_path):
        seed = 10**400  # no float holds it; only the other integer options refuse that
        out = synth_dataset(tmp_path / "data", frames=1, seed=seed, extra=("--grid-size", "8"))
        assert json.loads((out / "provenance.json").read_text())["seed"] == seed

    def test_writes_the_bytes_of_the_per_joint_sampler(self, tmp_path, monkeypatch):
        corruption = ("--distractor-prob", "0.4", "--noise-floor", "0.02")

        def written(out):
            synth_dataset(out, frames=4, seed=3, extra=corruption)
            return {
                str(path.relative_to(out)): path.read_bytes()
                for path in out.rglob("*") if path.is_file()
            }

        batched = written(tmp_path / "batched")
        monkeypatch.setattr(synth, "sample_pose", synth_reference.sample_pose)
        monkeypatch.setattr(synth, "make_frame", synth_reference.make_frame)
        assert len(batched) == 9  # 4 volumes, manifest, 2 pose files, camera, provenance
        assert written(tmp_path / "per_joint") == batched

    def test_memory_does_not_grow_with_frames(self, tmp_path):
        # volumes are written as they are made: 56 more frames would hold
        # 56 more 139 kB volumes if synth kept them until the end
        def peak(frames):
            tracemalloc.start()
            try:
                out = tmp_path / f"frames_{frames}"
                assert run("synth", "--out-dir", str(out), "--frames", str(frames)) == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # warm-up: first-use allocations count in neither run
        assert peak(64) - peak(8) < 2**20


class TestTrainLifter:
    def test_missing_file_no_partial_output(self, tmp_path):
        out = tmp_path / "model.bin"
        code = run(
            "train-lifter",
            "--poses-2d", str(tmp_path / "missing.jsonl"),
            "--poses-3d", str(tmp_path / "missing3.jsonl"),
            "--out", str(out),
        )
        assert code == EXIT_DATA
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [("--hidden-sizes", OVERFLOW), ("--hidden-sizes", "8,,8"), ("--epochs", "+2")],
        ids=["overflowing-hidden-sizes", "empty-hidden-size", "signed-epochs"],
    )
    def test_non_finite_values_are_usage_errors(self, tmp_path, capsys, flags):
        data = synth_dataset(tmp_path / "data", frames=3)
        out = tmp_path / "model.bin"
        code = run(
            "train-lifter",
            "--poses-2d", str(data / "poses_2d.jsonl"),
            "--poses-3d", str(data / "poses_3d.jsonl"),
            "--out", str(out),
            "--epochs", "2", "--hidden-sizes", "8",
            *flags,
        )
        assert code == EXIT_USAGE
        assert_usage_error_names(capsys.readouterr().err, flags)
        assert not out.exists()

    @pytest.mark.parametrize(
        "case", ["missing-directory", "directory", "under-file", "sidecar-directory"]
    )
    def test_out_in_missing_directory_is_refused_before_training(
        self, tmp_path, capsys, monkeypatch, case
    ):
        def train_lifter(*args):
            raise AssertionError("trained for an output that cannot be written")

        monkeypatch.setattr(cli, "train_lifter", train_lifter)
        out, message = unwritable_file(tmp_path, case)
        before = sorted(tmp_path.rglob("*"))
        code = run(
            "train-lifter",
            "--poses-2d", str(tmp_path / "missing.jsonl"),  # a read would exit 2
            "--poses-3d", str(tmp_path / "missing3.jsonl"),
            "--out", str(out),
            "--epochs", "50",
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: --out {out}: {message}\n"
        assert sorted(tmp_path.rglob("*")) == before

    def test_byte_identical_model_files(self, tmp_path):
        data = synth_dataset(tmp_path / "data", frames=5)
        a = train_model(data, tmp_path / "a.bin", seed=3)
        b = train_model(data, tmp_path / "b.bin", seed=3)
        assert a.read_bytes() == b.read_bytes()

    def test_summary_sidecar(self, tmp_path):
        data = synth_dataset(tmp_path / "data", frames=5)
        out = train_model(data, tmp_path / "model.bin")
        summary = json.loads((tmp_path / "model.bin.txt").read_text())
        assert summary["num_joints"] == 17
        assert summary["train_frames"] == 5
        assert np.isfinite(summary["final_loss"])

    def test_misaligned_frames(self, tmp_path):
        data = synth_dataset(tmp_path / "data", frames=4)
        _, poses = load_poses(data / "poses_3d.jsonl", dim=3)
        save_poses(data / "poses_3d.jsonl", poses, frames=[0, 1, 2, 9])
        code = run(
            "train-lifter",
            "--poses-2d", str(data / "poses_2d.jsonl"),
            "--poses-3d", str(data / "poses_3d.jsonl"),
            "--out", str(tmp_path / "model.bin"),
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize(
        "joints",
        ["[[1, 2], [3]]", '[[1, 2], [3, "a"]]', "[[1, 2], [NaN, 4]]", '[[1, 2], [3, "4"]]',
         "[[1, 2], [true, 4]]"],
        ids=["ragged", "non-numeric", "nan", "numeric-string", "boolean"],
    )
    def test_malformed_pose_file_is_data_error(self, tmp_path, capsys, joints):
        data = synth_dataset(tmp_path / "data", frames=4)
        path = data / "poses_2d.jsonl"
        lines = path.read_text().splitlines()
        lines[2] = f'{{"frame": 2, "joints": {joints}}}'
        path.write_text("\n".join(lines) + "\n")
        code = run(
            "train-lifter",
            "--poses-2d", str(path),
            "--poses-3d", str(data / "poses_3d.jsonl"),
            "--out", str(tmp_path / "model.bin"),
        )
        assert code == EXIT_DATA
        assert f"{path}:3: " in capsys.readouterr().err
        assert not (tmp_path / "model.bin").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_divergence_exit_code(self, tmp_path, capsys):
        # finite poses whose scale overflows the squared error
        data = synth_dataset(tmp_path / "data", frames=5)
        for name, dim in (("poses_2d.jsonl", 2), ("poses_3d.jsonl", 3)):
            frames, poses = load_poses(data / name, dim=dim)
            save_poses(data / name, [p * 1e100 for p in poses], frames)
        code = run(
            "train-lifter",
            "--poses-2d", str(data / "poses_2d.jsonl"),
            "--poses-3d", str(data / "poses_3d.jsonl"),
            "--out", str(tmp_path / "model.bin"),
            "--epochs", "2",
            "--hidden-sizes", "8",
        )
        assert code == EXIT_NUMERICAL
        assert "non-finite loss" in capsys.readouterr().err
        assert not (tmp_path / "model.bin").exists()

    def test_zero_epochs_is_usage_error(self, tmp_path, capsys):
        data = synth_dataset(tmp_path / "data", frames=3)
        out = tmp_path / "model.bin"
        code = run(
            "train-lifter",
            "--poses-2d", str(data / "poses_2d.jsonl"),
            "--poses-3d", str(data / "poses_3d.jsonl"),
            "--out", str(out),
            "--epochs", "0",
        )
        assert code == EXIT_USAGE
        assert "epochs" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "model.bin.txt").exists()

    def test_missing_required_flag(self, tmp_path):
        assert run("train-lifter") == EXIT_USAGE

    @pytest.mark.parametrize("where", ["flag", "config-key"])
    def test_huge_hidden_sizes_are_refused_before_input_is_read(self, tmp_path, capsys, where):
        """A width of 1e11 once ended in a failed allocation: it is a usage
        error that names the flag, raised before the (missing) inputs
        would be read."""
        option = ["--hidden-sizes", "100000000000"]
        if where == "config-key":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"hidden_sizes": "100000000000"}))
            option = ["--config", str(config)]
        code = run(
            "train-lifter",
            "--poses-2d", str(tmp_path / "missing.jsonl"),  # a read would exit 2
            "--poses-3d", str(tmp_path / "missing3.jsonl"),
            "--out", str(tmp_path / "model.bin"),
            *option,
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: argument --hidden-sizes: the sum of hidden_sizes must be in [1, 8192]\n"
        )
        assert not (tmp_path / "model.bin").exists()

    def test_bad_hidden_sizes_is_usage_error(self, tmp_path, capsys):
        data = synth_dataset(tmp_path / "data", frames=3)
        code = run(
            "train-lifter",
            "--poses-2d", str(data / "poses_2d.jsonl"),
            "--poses-3d", str(data / "poses_3d.jsonl"),
            "--out", str(tmp_path / "model.bin"),
            "--hidden-sizes", "16,x",
        )
        assert code == EXIT_USAGE
        assert "argument --hidden-sizes: invalid int value: 'x'" in capsys.readouterr().err
        assert not (tmp_path / "model.bin").exists()

    @pytest.mark.parametrize("joints", [1, 17], ids=["one-joint", "coinciding"])
    def test_poses_that_cannot_be_normalized_are_data_errors(self, tmp_path, capsys, joints):
        poses_2d = [np.full((joints, 2), 5.0), np.arange(2.0 * joints).reshape(joints, 2)]
        poses_3d = [np.arange(3.0 * joints).reshape(joints, 3) + 3000.0] * 2
        save_poses(tmp_path / "p2.jsonl", poses_2d)
        save_poses(tmp_path / "p3.jsonl", poses_3d)
        code = run(
            "train-lifter",
            "--poses-2d", str(tmp_path / "p2.jsonl"),
            "--poses-3d", str(tmp_path / "p3.jsonl"),
            "--out", str(tmp_path / "model.bin"),
        )
        assert code == EXIT_DATA
        assert str(tmp_path / "p2.jsonl") in capsys.readouterr().err
        assert not (tmp_path / "model.bin").exists()

    def test_joint_count_mismatch_is_data_error(self, tmp_path, capsys):
        data = synth_dataset(tmp_path / "data", frames=3)
        path_3d = data / "poses_3d.jsonl"
        frames, poses = load_poses(path_3d, dim=3)
        save_poses(path_3d, [p[:5] for p in poses], frames=frames)
        code = run(
            "train-lifter",
            "--poses-2d", str(data / "poses_2d.jsonl"),
            "--poses-3d", str(path_3d),
            "--out", str(tmp_path / "model.bin"),
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(data / "poses_2d.jsonl") in err and str(path_3d) in err
        assert not (tmp_path / "model.bin").exists()


@pytest.fixture()
def pipeline(tmp_path):
    data = synth_dataset(tmp_path / "data", frames=4)
    model = train_model(data, tmp_path / "model.bin")
    return tmp_path, data, model


class TestInfer:
    def infer_args(self, data, model, out, extra=()):
        return (
            "infer",
            "--manifest", str(data / "manifest.txt"),
            "--model", str(model),
            "--camera", str(data / "camera.json"),
            "--out-dir", str(out),
            "--num-candidates", "4",
            *extra,
        )

    def test_writes_outputs(self, pipeline):
        tmp_path, data, model = pipeline
        out = tmp_path / "out"
        assert run(*self.infer_args(data, model, out)) == EXIT_OK
        for name in (
            "poses_2d.jsonl", "poses_3d.jsonl",
            "poses_3d_absolute.jsonl", "selection.jsonl",
        ):
            assert (out / name).exists()
        selections = [
            json.loads(l)
            for l in (out / "selection.jsonl").read_text().splitlines()
        ]
        assert len(selections) == 4
        assert all("chosen" in s for s in selections)

    def test_byte_identical_reruns(self, pipeline):
        tmp_path, data, model = pipeline
        a, b = tmp_path / "out_a", tmp_path / "out_b"
        assert run(*self.infer_args(data, model, a)) == EXIT_OK
        assert run(*self.infer_args(data, model, b)) == EXIT_OK
        for name in (
            "poses_2d.jsonl", "poses_3d.jsonl",
            "poses_3d_absolute.jsonl", "selection.jsonl",
        ):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_strength_matches_greedy_reference(self, pipeline):
        tmp_path, data, model = pipeline
        out = tmp_path / "out_greedy"
        assert (
            run(*self.infer_args(data, model, out, ("--prior-strength", "0")))
            == EXIT_OK
        )
        selections = [
            json.loads(l)
            for l in (out / "selection.jsonl").read_text().splitlines()
        ]
        # with zero prior strength the winner is always the top-score pose
        assert all(s["chosen"] == 0 for s in selections)

    def test_perspective_without_camera(self, pipeline):
        tmp_path, data, model = pipeline
        code = run(
            "infer",
            "--manifest", str(data / "manifest.txt"),
            "--model", str(model),
            "--out-dir", str(tmp_path / "out"),
        )
        assert code == EXIT_USAGE

    def test_orthographic_needs_no_camera(self, pipeline):
        tmp_path, data, model = pipeline
        code = run(
            "infer",
            "--manifest", str(data / "manifest.txt"),
            "--model", str(model),
            "--out-dir", str(tmp_path / "out"),
            "--prior", "orthographic",
            "--num-candidates", "4",
        )
        assert code == EXIT_OK

    def test_corrupt_volume_marks_frame_and_continues(self, pipeline):
        tmp_path, data, model = pipeline
        victim = data / "volumes" / "frame_000001.hmv"
        victim.write_bytes(victim.read_bytes()[:40])
        out = tmp_path / "out"
        assert run(*self.infer_args(data, model, out)) == EXIT_DATA
        selections = [
            json.loads(l)
            for l in (out / "selection.jsonl").read_text().splitlines()
        ]
        assert len(selections) == 4
        assert selections[1].get("failed") is True
        frames, _ = load_poses(out / "poses_2d.jsonl", dim=2)
        assert frames == [0, 2, 3]

    def test_non_square_volume_fails_its_frame(self, pipeline):
        tmp_path, data, model = pipeline
        victim = data / "volumes" / "frame_000002.hmv"
        blob = victim.read_bytes()
        victim.write_bytes(  # header 17x32x32 -> 17x64x16, same float count
            blob[:4] + np.array([17, 64, 16], dtype="<u4").tobytes() + blob[16:]
        )
        out = tmp_path / "out"
        assert run(*self.infer_args(data, model, out)) == EXIT_DATA
        selections = [
            json.loads(l)
            for l in (out / "selection.jsonl").read_text().splitlines()
        ]
        assert selections[2]["failed"] is True
        assert str(victim) in selections[2]["error"]

    @pytest.mark.parametrize("value", ["NaN", "1e309"])
    def test_non_finite_camera_exits_before_any_frame(
        self, pipeline, capsys, value
    ):
        tmp_path, data, model = pipeline
        camera = data / "camera.json"
        fields = json.loads(camera.read_text())
        fields["fx"] = value
        camera.write_text(
            "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}\n"
        )
        out = tmp_path / "out"
        assert run(*self.infer_args(data, model, out)) == EXIT_DATA
        assert str(camera) in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_box_fails_its_frame(self, pipeline):
        tmp_path, data, model = pipeline
        victim = data / "volumes" / "frame_000003.hmv"
        blob = bytearray(victim.read_bytes())
        blob[-16:-8] = np.array([np.nan], dtype="<f8").tobytes()  # box side
        victim.write_bytes(bytes(blob))
        out = tmp_path / "out"
        assert run(*self.infer_args(data, model, out)) == EXIT_DATA
        selections = [
            json.loads(l)
            for l in (out / "selection.jsonl").read_text().splitlines()
        ]
        assert selections[3]["failed"] is True
        assert str(victim) in selections[3]["error"]

    def test_joint_mismatched_volume_fails_its_frame(self, pipeline):
        tmp_path, data, model = pipeline
        victim = data / "volumes" / "frame_000002.hmv"
        volume = load_volume(victim)
        save_volume(victim, HeatMapVolume(maps=volume.maps[:16], box=volume.box))
        out = tmp_path / "out"
        assert run(*self.infer_args(data, model, out)) == EXIT_DATA
        selections = [
            json.loads(l)
            for l in (out / "selection.jsonl").read_text().splitlines()
        ]
        assert [s.get("failed", False) for s in selections] == [False, False, True, False]
        assert f"{victim}: volume has 16 joints, model expects 17" in selections[2]["error"]

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_lift_fails_its_frames(self, pipeline):
        tmp_path, data, model = pipeline
        fit = load_model(model)
        huge = tmp_path / "huge.bin"  # finite weights whose lift overflows
        save_model(replace(fit, weights=fit.weights[:-1] + (fit.weights[-1] * 1e306,)), huge)
        out = tmp_path / "out"
        assert run(*self.infer_args(data, huge, out)) == EXIT_DATA
        selections = [
            json.loads(l)
            for l in (out / "selection.jsonl").read_text().splitlines()
        ]
        failed = [s for s in selections if s.get("failed")]
        assert failed
        for s in failed:
            assert f"with model {huge}: lifted poses are not finite" in s["error"]
        for written in out.iterdir():
            _strict_json(written)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_reprojection_gets_no_prior(self, pipeline):
        tmp_path, data, model = pipeline
        fit = load_model(model)
        far = tmp_path / "far.bin"  # finite lifts whose projections overflow
        save_model(replace(fit, mean_offset=np.array([1e306, 0.0, 4000.0])), far)
        out = tmp_path / "out"
        assert run(*self.infer_args(data, far, out)) == EXIT_OK
        for line in (out / "selection.jsonl").read_text().splitlines():
            assert set(json.loads(line)["energies"]) == {None}

    def test_program_error_is_not_a_failed_frame(self, pipeline, monkeypatch):
        tmp_path, data, model = pipeline

        def broken(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "infer", broken)
        out = tmp_path / "out"
        # neither a failed frame (exit 2) nor a usage error (exit 1): the
        # bug reaches the caller as a traceback
        with pytest.raises(ValueError, match="boom"):
            run(*self.infer_args(data, model, out))
        assert not out.exists()

    def test_malformed_model_is_data_error(self, pipeline, capsys):
        tmp_path, data, _ = pipeline
        model = tmp_path / "bad.bin"
        model.write_bytes(b"PLFT" + hashlib.sha256(b"PLFT").digest())
        out = tmp_path / "out"
        assert run(*self.infer_args(data, model, out)) == EXIT_DATA
        assert "model file" in capsys.readouterr().err

    def test_model_error_names_the_file(self, pipeline, capsys):
        tmp_path, data, _ = pipeline
        model = tmp_path / "m3.bin"
        payload = b"PLFT\x01\x00"  # checksum-valid, cut inside the header
        model.write_bytes(payload + hashlib.sha256(payload).digest())
        out = tmp_path / "out"
        assert run(*self.infer_args(data, model, out)) == EXIT_DATA
        assert f"{model}: model file truncated" in capsys.readouterr().err

    def test_non_utf8_manifest_is_data_error(self, pipeline, capsys):
        tmp_path, data, model = pipeline
        manifest = data / "manifest.txt"
        lines = manifest.read_bytes().splitlines()
        manifest.write_bytes(b"\n".join(lines + [b"9\tvolumes/\xff.hmv"]) + b"\n")
        out = tmp_path / "out"
        assert run(*self.infer_args(data, model, out)) == EXIT_DATA
        assert f"{manifest}:{len(lines) + 1}: not UTF-8" in capsys.readouterr().err

    def test_repeated_manifest_frame_is_data_error(self, pipeline, capsys):
        tmp_path, data, model = pipeline
        manifest = data / "manifest.txt"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines + lines[:1]) + "\n")
        out = tmp_path / "out"
        assert run(*self.infer_args(data, model, out)) == EXIT_DATA
        assert f"{manifest}:{len(lines) + 1}: " in capsys.readouterr().err
        assert not (out / "selection.jsonl").exists()

    def test_nul_byte_in_manifest_path_is_data_error(self, pipeline, capsys):
        tmp_path, data, model = pipeline
        manifest = data / "manifest.txt"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines + ["9\tvolumes/\0.hmv"]) + "\n")
        out = tmp_path / "out"
        assert run(*self.infer_args(data, model, out)) == EXIT_DATA
        assert f"{manifest}:{len(lines) + 1}: NUL" in capsys.readouterr().err
        assert not (out / "selection.jsonl").exists()

    @pytest.mark.parametrize(
        "flags",
        [("--prior-strength", "nan"), ("--prior-strength", "inf"), ("--bandwidth", "nan"),
         ("--bandwidth", "1e-300")],
        ids=["nan-strength", "inf-strength", "nan-bandwidth", "tiny-bandwidth"],
    )
    def test_bad_option_values_are_usage_errors(self, pipeline, capsys, flags):
        tmp_path, data, model = pipeline
        out = tmp_path / "out"
        capsys.readouterr()  # the fixture's own output
        assert run(*self.infer_args(data, model, out, flags)) == EXIT_USAGE
        assert_usage_error_names(capsys.readouterr().err, flags)
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, bound",
        [pytest.param(flag, value, bound, id=f"{flag}={value}") for flag, values, bound in [
            ("--bandwidth", ["0", "-1", "nan", "inf", "1e300", "1e6", repr(2.0**-538),
                             "64.0000001"], "(0, 64]"),
            ("--num-candidates", ["0", "8193", str(10**12)], "[1, 8192]"),
            ("--prior-strength", ["nan", "inf", "-1"], ">= 0"),
            ("--prior", ["bogus"], "invalid choice"),
        ] for value in values],
    )
    def test_hostile_values_exit_1_in_a_bounded_process(self, small_pipeline, tmp_path, flag, value, bound):
        """Each value is a usage error: one error line, no traceback and no
        output directory, from a process held to 4 GB of address space and
        30 s (a value past the bounds would exhaust one or the other on a
        real frame)."""
        data, out = small_pipeline, tmp_path / "out"
        env = dict(os.environ)  # a fresh interpreter, this checkout
        package = Path(cli.__file__).parents[1]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package), env.get("PYTHONPATH")]))
        limit = 4 << 30
        done = subprocess.run(
            [sys.executable, "-m", "poselift.cli",
             *self.infer_args(data, data / "model.bin", out, (flag, value))],
            capture_output=True, text=True, env=env, timeout=30,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert done.returncode == EXIT_USAGE, done.stderr
        (line,) = done.stderr.splitlines()
        assert line.startswith("error: ") and bound in line
        assert not out.exists()

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_dir_that_cannot_be_made_is_refused_before_reading(
        self, tmp_path, capsys, under
    ):
        blocker = tmp_path / "taken"
        blocker.write_text("kept\n")
        out = blocker / "out" if under else blocker
        missing = tmp_path / "missing"  # reading the manifest, model or camera would exit 2
        assert run(*self.infer_args(missing, missing / "model.bin", out)) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: --out-dir {out}: {blocker} is not a directory\n"
        assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "kept\n"

    def test_nms_upscale_is_not_an_option(self, pipeline, capsys):
        tmp_path, data, model = pipeline
        out = tmp_path / "out"
        capsys.readouterr()  # the fixture's own output
        flags = ("--generator", "nms", "--nms-upscale", "8")
        assert run(*self.infer_args(data, model, out, flags)) == EXIT_USAGE
        assert "unrecognized arguments: --nms-upscale" in capsys.readouterr().err
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"nms-upscale": 8}))
        flags = ("--config", str(config))
        assert run(*self.infer_args(data, model, out, flags)) == EXIT_USAGE
        assert "unknown config key 'nms-upscale'" in capsys.readouterr().err
        assert not out.exists()

    def test_nms_writes_the_bytes_of_scipy_ndimage(self, tmp_path, monkeypatch):
        corruption = ("--distractor-prob", "0.4", "--noise-floor", "0.02")
        data = synth_dataset(tmp_path / "data", frames=4, seed=3, extra=corruption)
        model = train_model(data, tmp_path / "model.bin", epochs=1)

        def written(out):
            assert run(*self.infer_args(data, model, out, ("--generator", "nms"))) == EXIT_OK
            return {path.name: path.read_bytes() for path in out.iterdir()}

        with_numpy = written(tmp_path / "numpy")
        monkeypatch.setattr(heatmaps, "_upsample", ref.upsample)
        monkeypatch.setattr(heatmaps, "_peak_mask", ref.peak_mask)
        assert len(with_numpy) == 4
        assert written(tmp_path / "scipy") == with_numpy


class TestEval:
    def test_perfect_predictions_score_zero(self, pipeline):
        tmp_path, data, _ = pipeline
        report = tmp_path / "report.json"
        code = run(
            "eval",
            "--pred-3d", str(data / "poses_3d.jsonl"),
            "--gt-3d", str(data / "poses_3d.jsonl"),
            "--pred-2d", str(data / "poses_2d.jsonl"),
            "--gt-2d", str(data / "poses_2d.jsonl"),
            "--manifest", str(data / "manifest.txt"),
            "--out", str(report),
        )
        assert code == EXIT_OK
        rep = json.loads(report.read_text())
        assert rep["mpjpe"]["mean"] == pytest.approx(0.0, abs=1e-9)
        assert rep["similarity"]["mean"] == pytest.approx(0.0, abs=1e-6)
        assert rep["error_2d"]["mean"] == pytest.approx(0.0, abs=1e-9)

    def test_rigid_shift_leaves_mpjpe_unchanged(self, tmp_path):
        data = synth_dataset(tmp_path / "data", frames=2)
        _, gt = load_poses(data / "poses_3d.jsonl", dim=3)
        shifted = [p + np.array([100.0, -50.0, 300.0]) for p in gt]
        save_poses(tmp_path / "shifted.jsonl", shifted)
        report = tmp_path / "report.json"
        code = run(
            "eval",
            "--pred-3d", str(tmp_path / "shifted.jsonl"),
            "--gt-3d", str(data / "poses_3d.jsonl"),
            "--out", str(report),
        )
        assert code == EXIT_OK
        rep = json.loads(report.read_text())
        assert rep["mpjpe"]["mean"] == pytest.approx(0.0, abs=1e-9)

    def test_hand_built_fixture(self, tmp_path):
        gt = [np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 100.0], [0.0, 100.0, 0.0]])]
        pred = [np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 130.0], [0.0, 100.0, 0.0]])]
        save_poses(tmp_path / "gt.jsonl", gt)
        save_poses(tmp_path / "pred.jsonl", pred)
        report = tmp_path / "report.json"
        code = run(
            "eval",
            "--pred-3d", str(tmp_path / "pred.jsonl"),
            "--gt-3d", str(tmp_path / "gt.jsonl"),
            "--out", str(report),
        )
        assert code == EXIT_OK
        rep = json.loads(report.read_text())
        assert rep["mpjpe"]["mean"] == pytest.approx(10.0)  # errors 0, 30, 0

    @pytest.mark.parametrize("case", ["missing-directory", "directory", "under-file"])
    def test_out_in_missing_directory_is_refused_before_reading(self, tmp_path, capsys, case):
        out, message = unwritable_file(tmp_path, case)
        before = sorted(tmp_path.rglob("*"))
        missing = str(tmp_path / "missing.jsonl")  # a read would exit 2
        code = run("eval", "--pred-3d", missing, "--gt-3d", missing, "--out", str(out))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: --out {out}: {message}\n"
        assert sorted(tmp_path.rglob("*")) == before

    def test_frame_mismatch(self, tmp_path):
        save_poses(tmp_path / "a.jsonl", [np.zeros((3, 3))], frames=[0])
        save_poses(tmp_path / "b.jsonl", [np.zeros((3, 3))], frames=[1])
        code = run(
            "eval",
            "--pred-3d", str(tmp_path / "a.jsonl"),
            "--gt-3d", str(tmp_path / "b.jsonl"),
        )
        assert code == EXIT_DATA

    def test_repeated_frame_is_data_error(self, tmp_path, capsys):
        save_poses(tmp_path / "a.jsonl", [np.zeros((3, 3)), np.ones((3, 3))], frames=[0, 0])
        save_poses(tmp_path / "b.jsonl", [np.zeros((3, 3))], frames=[0])
        code = run(
            "eval",
            "--pred-3d", str(tmp_path / "a.jsonl"),
            "--gt-3d", str(tmp_path / "b.jsonl"),
        )
        assert code == EXIT_DATA
        assert f"{tmp_path / 'a.jsonl'}:2: " in capsys.readouterr().err

    def test_non_utf8_pose_file_is_data_error(self, tmp_path, capsys):
        save_poses(tmp_path / "a.jsonl", [np.zeros((3, 3))])
        save_poses(tmp_path / "b.jsonl", [np.zeros((3, 3))])
        bad = tmp_path / "b.jsonl"
        bad.write_bytes(b"\xff\xfe" + bad.read_bytes())
        code = run(
            "eval",
            "--pred-3d", str(tmp_path / "a.jsonl"),
            "--gt-3d", str(bad),
        )
        assert code == EXIT_DATA
        assert f"{bad}:1: not UTF-8" in capsys.readouterr().err

    def test_nul_byte_in_manifest_path_is_data_error(self, pipeline, capsys):
        _, data, _ = pipeline
        manifest = data / "manifest.txt"
        lines = manifest.read_text().splitlines()
        lines[1] = "1\tvolumes/frame\0.hmv"
        manifest.write_text("\n".join(lines) + "\n")
        code = run(
            "eval",
            "--pred-2d", str(data / "poses_2d.jsonl"),
            "--gt-2d", str(data / "poses_2d.jsonl"),
            "--manifest", str(manifest),
        )
        assert code == EXIT_DATA
        assert f"{manifest}:2: NUL" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "names, message",
        [((), "need --pred-3d/--gt-3d and/or --pred-2d/--gt-2d"),
         (("pred-3d", "pred-2d", "gt-2d"), "--pred-3d and --gt-3d must be given together"),
         (("gt-3d", "pred-2d", "gt-2d"), "--pred-3d and --gt-3d must be given together"),
         (("pred-3d", "gt-3d", "pred-2d"), "--pred-2d and --gt-2d must be given together"),
         (("pred-3d", "gt-3d", "gt-2d"), "--pred-2d and --gt-2d must be given together"),
         (("pred-3d", "gt-3d", "manifest"), "--manifest needs --pred-2d and --gt-2d")],
        ids=["nothing", "lone-pred-3d", "lone-gt-3d", "lone-pred-2d", "lone-gt-2d",
             "manifest-without-2d"],
    )
    def test_no_inputs(self, small_pipeline, tmp_path, capsys, names, message):
        """Half a pair, or a manifest without the 2D pair, would be left
        unscored; each is a usage error and writes no report."""
        files = {"pred-3d": "poses_3d.jsonl", "gt-3d": "poses_3d.jsonl",
                 "pred-2d": "poses_2d.jsonl", "gt-2d": "poses_2d.jsonl",
                 "manifest": "manifest.txt"}
        flags = [arg for name in names for arg in (f"--{name}", str(small_pipeline / files[name]))]
        report = tmp_path / "report.json"
        capsys.readouterr()  # the fixture's own output
        assert run("eval", *flags, "--out", str(report)) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not report.exists()

    def test_manifest_boxes_are_read_without_map_data(self, pipeline):
        # map data made NaN: load_volume rejects these volumes, but eval
        # needs only each header and box, so its report does not change
        tmp_path, data, _ = pipeline
        args = [
            "eval",
            "--pred-2d", str(data / "poses_2d.jsonl"),
            "--gt-2d", str(data / "poses_2d.jsonl"),
            "--manifest", str(data / "manifest.txt"),
        ]
        assert run(*args, "--out", str(tmp_path / "a.json")) == EXIT_OK
        for volume in (data / "volumes").iterdir():
            blob = bytearray(volume.read_bytes())
            blob[16:-32] = np.full((len(blob) - 48) // 4, np.nan, "<f4").tobytes()
            volume.write_bytes(bytes(blob))
            with pytest.raises(DataFormatError, match="non-finite"):
                load_volume(volume)
        assert run(*args, "--out", str(tmp_path / "b.json")) == EXIT_OK
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize(
        "pred", [np.zeros((2, 3)), np.zeros((3, 3))], ids=["two-joints", "coinciding"]
    )
    def test_poses_that_cannot_be_aligned_are_data_errors(self, tmp_path, capsys, pred):
        save_poses(tmp_path / "pred.jsonl", [pred], frames=[4])
        save_poses(tmp_path / "gt.jsonl", [np.eye(3)[: len(pred)]], frames=[4])
        report = tmp_path / "report.json"
        code = run(
            "eval",
            "--pred-3d", str(tmp_path / "pred.jsonl"),
            "--gt-3d", str(tmp_path / "gt.jsonl"),
            "--out", str(report),
        )
        assert code == EXIT_DATA
        assert str(tmp_path / "pred.jsonl") in capsys.readouterr().err
        assert not report.exists()

    def test_empty_pose_files(self, tmp_path, capsys):
        (tmp_path / "a.jsonl").write_text("")
        (tmp_path / "b.jsonl").write_text("")
        report = tmp_path / "report.json"
        code = run(
            "eval",
            "--pred-3d", str(tmp_path / "a.jsonl"),
            "--gt-3d", str(tmp_path / "b.jsonl"),
            "--out", str(report),
        )
        assert code == EXIT_DATA
        assert "no pose records" in capsys.readouterr().err
        assert not report.exists()

    def test_joint_count_mismatch(self, tmp_path, capsys):
        save_poses(tmp_path / "pred.jsonl", [np.zeros((5, 3))])
        save_poses(tmp_path / "gt.jsonl", [np.zeros((17, 3))])
        code = run(
            "eval",
            "--pred-3d", str(tmp_path / "pred.jsonl"),
            "--gt-3d", str(tmp_path / "gt.jsonl"),
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(tmp_path / "pred.jsonl") in err
        assert str(tmp_path / "gt.jsonl") in err


class TestConfigFile:
    def test_config_supplies_values(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out-dir": str(tmp_path / "d"), "frames": 2}))
        assert run("synth", "--config", str(config)) == EXIT_OK
        assert len(list((tmp_path / "d" / "volumes").iterdir())) == 2

    def test_flags_win_over_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out-dir": str(tmp_path / "d"), "frames": 2}))
        assert (
            run("synth", "--config", str(config), "--frames", "3") == EXIT_OK
        )
        assert len(list((tmp_path / "d" / "volumes").iterdir())) == 3

    def test_explicit_flag_at_its_default_wins(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 5, "frames": 1, "grid-size": 8}))
        out = tmp_path / "d"
        code = run(
            "synth", "--config", str(config), "--seed", "0", "--out-dir", str(out)
        )
        assert code == EXIT_OK
        assert json.loads((out / "provenance.json").read_text())["seed"] == 0

    def test_values_go_through_the_option_type(self, tmp_path):
        config = tmp_path / "config.json"
        out = tmp_path / "d"
        config.write_text(
            json.dumps({"out-dir": str(out), "frames": "2", "grid-size": "8"})
        )
        assert run("synth", "--config", str(config)) == EXIT_OK
        assert len(list((out / "volumes").iterdir())) == 2

    @pytest.mark.parametrize(
        "value, message",
        [
            ({"bandwidth": "x"}, "argument --bandwidth: invalid float value"),
            ({"prior": "bogus"}, "argument --prior: invalid choice"),
            ({"num-candidates": 2.5}, "argument --num-candidates: invalid int"),
            ({"num-candidates": "+8"}, "argument --num-candidates: invalid int"),
        ],
        ids=["bad-float", "bad-choice", "float-for-int", "signed-int"],
    )
    def test_invalid_values_are_usage_errors(self, tmp_path, capsys, value, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(value))
        assert run("infer", "--config", str(config)) == EXIT_USAGE
        assert message in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out-dir": str(tmp_path / "d"), "bogus": 1}))
        assert run("synth", "--config", str(config)) == EXIT_USAGE
        assert not (tmp_path / "d").exists()

    def test_nul_byte_in_a_value_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out-dir": str(tmp_path / "d\0"), "frames": 1}))
        assert run("synth", "--config", str(config)) == EXIT_USAGE
        assert "'out-dir' holds a NUL byte" in capsys.readouterr().err
        assert run("synth", "--config", str(config) + "\0") == EXIT_USAGE
        assert run("synth", "--out-dir", str(tmp_path / "d\0")) == EXIT_USAGE
        assert list(tmp_path.iterdir()) == [config]

    def test_invalid_json(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        assert run("synth", "--config", str(config)) == EXIT_USAGE

    def test_missing_config_file(self, tmp_path):
        assert (
            run("synth", "--config", str(tmp_path / "nope.json")) == EXIT_USAGE
        )

    def test_invalid_json_names_the_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        assert run("synth", "--config", str(config)) == EXIT_USAGE
        assert f"{config}: config file is not valid JSON" in capsys.readouterr().err

    def test_non_utf8_config_names_the_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"frames": 1\xff}')
        assert run("synth", "--config", str(config)) == EXIT_USAGE
        assert f"{config}: config file is not UTF-8" in capsys.readouterr().err

    @settings(
        derandomize=True,
        deadline=None,
        max_examples=150,
        # each example writes its config into the same tmp_path
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(position=st.integers(0, 2**16), byte=st.none() | st.integers(0, 255))
    def test_mutated_config_exits_0_or_1(self, tmp_path, position, byte):
        """A valid synth config cut at one byte or with one byte replaced
        runs or is a usage error; a run writes strict JSON provenance."""
        blob = json.dumps({"frames": 1, "grid_size": 8, "seed": 3}).encode()
        position %= len(blob)
        tail = b"" if byte is None else bytes([byte]) + blob[position + 1 :]
        config = tmp_path / "config.json"
        config.write_bytes(blob[:position] + tail)
        out = Path(tempfile.mkdtemp(dir=tmp_path)) / "data"
        code = run("synth", "--config", str(config), "--out-dir", str(out))
        assert code in (EXIT_OK, EXIT_USAGE)
        if code == EXIT_OK:
            _strict_json(out / "provenance.json")


@pytest.fixture(scope="module")
def small_pipeline(tmp_path_factory):
    """A two-frame synth set on 8x8 grids and a small model trained on it."""
    root = tmp_path_factory.mktemp("small")
    data = synth_dataset(root / "data", frames=2, extra=("--grid-size", "8"))
    train_model(data, data / "model.bin", epochs=1)
    return data


class TestDataFilesUnderMutation:
    # file mutated -> the subcommand that reads it
    TARGETS = {
        "poses_2d.jsonl": "eval",
        "poses_3d.jsonl": "eval",
        "manifest.txt": "infer",
        "volumes/frame_000000.hmv": "infer",
        "camera.json": "infer",
        "model.bin": "infer",
    }

    @settings(derandomize=True, deadline=None, max_examples=600)
    @given(
        target=st.sampled_from(sorted(TARGETS)),
        position=st.integers(0, 2**16),
        byte=st.none() | st.integers(0, 255),
    )
    def test_exits_0_or_2_and_writes_strict_json(self, small_pipeline, target, position, byte):
        """A valid data file cut at one byte or with one byte replaced (a
        model's checksum re-sealed) runs or is a data error; every JSON or
        JSONL file written parses with NaN and Infinity rejected."""
        work = Path(tempfile.mkdtemp(dir=small_pipeline.parent))
        data = work / "data"
        shutil.copytree(small_pipeline, data)
        path = data / target
        blob = path.read_bytes()
        payload = blob[:-32] if target == "model.bin" else blob
        position %= len(payload)
        tail = b"" if byte is None else bytes([byte]) + payload[position + 1 :]
        payload = payload[:position] + tail
        if target == "model.bin":
            payload += hashlib.sha256(payload).digest()
        path.write_bytes(payload)
        out = work / "out"
        if self.TARGETS[target] == "infer":
            code = run(
                "infer", "--manifest", str(data / "manifest.txt"),
                "--model", str(data / "model.bin"), "--camera", str(data / "camera.json"),
                "--out-dir", str(out), "--num-candidates", "4",
            )
        else:
            out.mkdir()
            code = run(
                "eval", "--pred-2d", str(data / "poses_2d.jsonl"),
                "--gt-2d", str(small_pipeline / "poses_2d.jsonl"),
                "--pred-3d", str(data / "poses_3d.jsonl"),
                "--gt-3d", str(small_pipeline / "poses_3d.jsonl"),
                "--manifest", str(data / "manifest.txt"), "--out", str(out / "report.json"),
            )
        assert code in (EXIT_OK, EXIT_DATA)
        for written in out.glob("*.json*") if out.exists() else ():
            _strict_json(written)


def option_actions(command):
    """The argparse actions of a subcommand, by destination."""
    (commands,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    return {a.dest: a for a in commands.choices[command]._actions}


class TestUsage:
    # the options that set a config field under another name
    OPTION_OF_FIELD = {"prior_mode": "prior", "strength": "distractor_strength"}

    @pytest.mark.parametrize(
        "command, config, others",
        [
            ("train-lifter", LifterTrainConfig, {}),
            ("infer", InferenceConfig, {}),
            # synth's other options shape the data set, not its corruption
            ("synth", synth.CorruptionSpec, {
                "seed": 0, "frames": 100, "grid_size": synth.GRID_SIZE,
                "depth_min": synth.DEPTH_RANGE[0], "depth_max": synth.DEPTH_RANGE[1],
            }),
        ],
    )
    def test_defaults_are_the_library_defaults(self, command, config, others):
        """Every field of the command's config has an option whose default
        is the field's, and every option with a default is a field or one of
        `others`: a field without an option, or an option without a field,
        fails."""
        field_defaults = {
            self.OPTION_OF_FIELD.get(f.name, f.name): f.default for f in fields(config)
        }
        parsed = vars(cli.build_parser().parse_args([command]))
        defaults = {
            dest: value
            for dest, value in parsed.items()
            if dest != "command" and value is not None
        }
        assert defaults == {**field_defaults, **others}

    def test_docs_name_only_real_options(self):
        (commands,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
        options = {
            flag
            for parser in commands.choices.values()
            for action in parser._actions
            for flag in action.option_strings
        }
        root = Path(__file__).resolve().parents[1]
        named = {
            (doc, flag)
            for doc in ("README.md", "FORMATS.md")
            for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", (root / doc).read_text("utf-8"))
        }
        # pip's flag in the install commands is the one exception
        assert {(doc, flag) for doc, flag in named if flag not in options} == {
            ("README.md", "--no-build-isolation")
        }

    def test_every_option_is_read_by_its_command(self):
        """Each option of a subcommand, but --config (main reads it), is read
        as args.<dest> in the subcommand's cmd_* function."""
        (commands,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
        unread = set()
        for command, parser in commands.choices.items():
            tree = ast.parse(inspect.getsource(cli.COMMANDS[command]))
            read = {
                node.attr
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "args"
            }
            unread |= {
                (command, action.dest)
                for action in parser._actions
                if action.dest not in ("help", "config", *read)
            }
        assert unread == set()

    @pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
    @pytest.mark.parametrize(
        "command, key, value",
        [("infer", "seed", 1), ("eval", "seed", 1), ("eval", "root-index", 0),
         ("synth", "seed", -1), ("train-lifter", "seed", -1),
         ("train-lifter", "learning-rate", 0.001), ("train-lifter", "momentum", 0.9),
         ("train-lifter", "noise-std", 0.1), ("train-lifter", "batch-size", 64),
         ("synth", "overwrite", True)],
    )
    def test_retired_settings_and_negative_seeds_are_usage_errors(
        self, small_pipeline, tmp_path, capsys, command, key, value, from_config
    ):
        """infer and eval draw no random numbers, eval's root is joint 0, the
        lifter trains on one fixed schedule and synth writes only into a new
        or empty directory, so these keys are unknown to their commands, even
        at the old default; a seed is never negative. A value of True stands
        for a switch, given bare as a flag."""
        data, out = small_pipeline, tmp_path / "out"
        argv = {
            "infer": ("--manifest", data / "manifest.txt", "--model", data / "model.bin",
                      "--camera", data / "camera.json", "--out-dir", out),
            "eval": ("--pred-3d", data / "poses_3d.jsonl", "--gt-3d", data / "poses_3d.jsonl",
                     "--out", out),
            "synth": ("--out-dir", out, "--frames", "1", "--grid-size", "8"),
            "train-lifter": ("--poses-2d", data / "poses_2d.jsonl",
                             "--poses-3d", data / "poses_3d.jsonl", "--out", out,
                             "--epochs", "1", "--hidden-sizes", "8"),
        }[command]
        flags = (f"--{key}",) if value is True else (f"--{key}", str(value))
        if from_config:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({key: value}))
            flags = ("--config", str(config))
        capsys.readouterr()  # the fixture's own output
        assert run(command, *map(str, argv), *flags) == EXIT_USAGE
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and key in line
        assert not out.exists()

    def test_choices_are_the_library_lists(self):
        assert option_actions("train-lifter")["input_mode"].choices is INPUT_MODES
        assert option_actions("infer")["prior"].choices is PRIOR_MODES
        assert option_actions("infer")["generator"].choices is GENERATORS

    def test_unknown_subcommand(self):
        # the parser error hook turns argparse failures into exit code 1
        assert run("frobnicate") == EXIT_USAGE

    def test_bad_flag_value(self, tmp_path):
        assert (
            run("synth", "--out-dir", str(tmp_path / "d"), "--frames", "-1")
            == EXIT_USAGE
        )
