"""File format tests: pose records, camera files, heat-map volumes,
manifests, and every loader (model files included) under byte mutation."""

import hashlib
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from poselift.fileio import (
    DataFormatError,
    atomic_write_bytes,
    load_box,
    load_camera,
    load_manifest,
    load_poses,
    load_volume,
    save_camera,
    save_manifest,
    save_poses,
    save_volume,
)
from poselift.geometry import BoundingBox, CameraModel
from poselift.heatmaps import HeatMapVolume
from poselift.lifter import LifterModel, load_model, save_model


class TestPoses:
    def test_round_trip_2d(self, tmp_path):
        rng = np.random.default_rng(0)
        poses = [rng.uniform(0, 500, size=(4, 2)) for _ in range(3)]
        path = tmp_path / "poses.jsonl"
        save_poses(path, poses)
        frames, loaded = load_poses(path, dim=2)
        assert frames == [0, 1, 2]
        for a, b in zip(poses, loaded):
            np.testing.assert_array_equal(a, b)

    def test_round_trip_3d_with_explicit_frames(self, tmp_path):
        rng = np.random.default_rng(1)
        poses = [rng.normal(0, 300, size=(5, 3)) for _ in range(2)]
        path = tmp_path / "poses.jsonl"
        save_poses(path, poses, frames=[7, 3])
        frames, loaded = load_poses(path, dim=3)
        # records come back sorted by frame index
        assert frames == [3, 7]
        np.testing.assert_array_equal(loaded[0], poses[1])
        np.testing.assert_array_equal(loaded[1], poses[0])

    def test_bad_json_line(self, tmp_path):
        path = tmp_path / "poses.jsonl"
        path.write_text('{"frame": 0, "joints": [[1, 2]]}\nnot json\n')
        with pytest.raises(DataFormatError):
            load_poses(path, dim=2)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "poses.jsonl"
        path.write_text('{"frame": 0}\n')
        with pytest.raises(DataFormatError):
            load_poses(path, dim=2)

    def test_wrong_dimension(self, tmp_path):
        path = tmp_path / "poses.jsonl"
        save_poses(path, [np.zeros((4, 3))])
        with pytest.raises(DataFormatError):
            load_poses(path, dim=2)

    @pytest.mark.parametrize(
        "joints",
        [
            "[[1, 2], [3]]",  # ragged
            '[[1, 2], [3, "a"]]',  # non-numeric
            "[[1, 2], [NaN, 4]]",
            "[[1, 2], [3, Infinity]]",
            "[[-Infinity, 2], [3, 4]]",
            "[[1, 2], [3, 1e999]]",  # overflows to inf
            '[[1, 2], [3, "4"]]',  # numpy would read the string as 4
            "[[1, 2], [true, 4]]",  # and true as 1
        ],
        ids=["ragged", "non-numeric", "nan", "infinity", "minus-infinity", "overflow",
             "numeric-string", "boolean"],
    )
    def test_malformed_joints_name_file_and_line(self, tmp_path, joints):
        path = tmp_path / "poses.jsonl"
        path.write_text(
            '{"frame": 0, "joints": [[1, 2], [3, 4]]}\n\n'
            f'{{"frame": 1, "joints": {joints}}}\n'
        )
        with pytest.raises(DataFormatError, match=f"{path}:3: "):
            load_poses(path, dim=2)

    @pytest.mark.parametrize(
        "frame", ["1.5", "true", '"2"', "1e20"], ids=["fraction", "boolean", "string", "exponent"]
    )
    def test_frame_not_an_integer_names_file_and_line(self, tmp_path, frame):
        path = tmp_path / "poses.jsonl"
        path.write_text(
            '{"frame": 0, "joints": [[1, 2], [3, 4]]}\n'
            f'{{"frame": {frame}, "joints": [[1, 2], [3, 4]]}}\n'
        )
        with pytest.raises(DataFormatError, match=re.escape(f"{path}:2: ")):
            load_poses(path, dim=2)

    def test_json_integers_are_numbers(self, tmp_path):
        # any JSON integer that a float64 holds, frame indices of any size
        path = tmp_path / "poses.jsonl"
        big = 10**300
        path.write_text(f'{{"frame": {10**30}, "joints": [[1, -2], [{big}, 0]]}}\n')
        frames, poses = load_poses(path, dim=2)
        assert frames == [10**30]
        np.testing.assert_array_equal(poses[0], [[1.0, -2.0], [float(big), 0.0]])

    def test_repeated_frame_names_file_and_line(self, tmp_path):
        path = tmp_path / "poses.jsonl"
        path.write_text(
            '{"frame": 0, "joints": [[1, 2]]}\n'
            '{"frame": 1, "joints": [[3, 4]]}\n'
            '{"frame": 0, "joints": [[5, 6]]}\n'
        )
        with pytest.raises(DataFormatError, match=re.escape(f"{path}:3: ")):
            load_poses(path, dim=2)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "poses.jsonl"
        path.write_text('\n{"frame": 2, "joints": [[1.0, 2.0]]}\n\n')
        frames, poses = load_poses(path, dim=2)
        assert frames == [2]


class TestCamera:
    def test_round_trip(self, tmp_path):
        camera = CameraModel(fx=1150.0, fy=1100.0, cx=500.5, cy=499.5)
        path = tmp_path / "camera.json"
        save_camera(path, camera)
        assert load_camera(path) == camera

    def test_bad_file(self, tmp_path):
        path = tmp_path / "camera.json"
        path.write_text('{"fx": 1000}\n')
        with pytest.raises(DataFormatError):
            load_camera(path)

    def test_invalid_values(self, tmp_path):
        path = tmp_path / "camera.json"
        path.write_text('{"fx": -5, "fy": 1000, "cx": 0, "cy": 0}\n')
        with pytest.raises(DataFormatError):
            load_camera(path)

    @pytest.mark.parametrize(
        "key, value",
        # and values that are not JSON numbers, which float() would take
        [("fx", "NaN"), ("fx", "1e309"), ("cy", "-Infinity"), ("fx", '"1150"'), ("cy", "true")],
    )
    def test_non_finite_intrinsics(self, tmp_path, key, value):
        fields = {"fx": "1000", "fy": "1000", "cx": "500", "cy": "500"}
        fields[key] = value
        path = tmp_path / "camera.json"
        path.write_text(
            "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}\n"
        )
        with pytest.raises(DataFormatError, match=re.escape(str(path))):
            load_camera(path)

    def test_integer_intrinsics(self, tmp_path):
        path = tmp_path / "camera.json"
        path.write_text('{"fx": 1150, "fy": 1100, "cx": 500, "cy": -3}\n')
        assert load_camera(path) == CameraModel(fx=1150.0, fy=1100.0, cx=500.0, cy=-3.0)

    def test_integer_too_large_for_a_float(self, tmp_path):
        path = tmp_path / "camera.json"
        path.write_text('{"fx": ' + "1" * 401 + ', "fy": 1000, "cx": 0, "cy": 0}\n')
        with pytest.raises(DataFormatError, match=re.escape(str(path))):
            load_camera(path)


def make_volume(rng, m=3, size=16):
    maps = rng.uniform(0.01, 1.0, size=(m, size, size))
    maps = maps.astype(np.float32).astype(np.float64)  # file precision
    return HeatMapVolume(
        maps=maps, box=BoundingBox(origin_x=12.5, origin_y=-3.0, side=420.0)
    )


class TestVolume:
    def test_round_trip_bit_exact(self, tmp_path):
        volume = make_volume(np.random.default_rng(2))
        path = tmp_path / "vol.hmv"
        save_volume(path, volume)
        loaded = load_volume(path)
        # read at file precision, and held so
        assert loaded.maps.dtype == np.float32
        assert loaded.maps.nbytes == 4 * np.prod(volume.maps.shape)
        np.testing.assert_array_equal(loaded.maps, volume.maps)
        assert loaded.box == volume.box
        save_volume(path, loaded)  # a float32 volume round-trips as well
        assert load_volume(path).maps.tobytes() == loaded.maps.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "vol.hmv"
        save_volume(path, make_volume(np.random.default_rng(3)))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError):
            load_volume(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "vol.hmv"
        save_volume(path, make_volume(np.random.default_rng(4)))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises((DataFormatError, ValueError)):
            load_volume(path)

    def test_header_declares_more_floats_than_file_holds(self, tmp_path):
        path = tmp_path / "vol.hmv"
        save_volume(path, make_volume(np.random.default_rng(6)))
        blob = bytearray(path.read_bytes())
        blob[4:8] = (4).to_bytes(4, "little")  # 4 maps declared, 3 stored
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match=str(path)):
            load_volume(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "vol.hmv"
        save_volume(path, make_volume(np.random.default_rng(5)))
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(DataFormatError):
            load_volume(path)

    def test_non_square_is_data_error(self, tmp_path):
        # FORMATS.md: the crop box is square, so every map is too
        path = tmp_path / "vol.hmv"
        maps = np.ones((17, 32, 20), dtype="<f4")
        path.write_bytes(
            b"HMV1"
            + struct.pack("<III", *maps.shape)
            + maps.tobytes()
            + struct.pack("<dddd", 0.0, 0.0, 256.0, 0.0)
        )
        with pytest.raises(DataFormatError, match=re.escape(str(path))) as e:
            load_volume(path)
        assert "square" in str(e.value)


    @pytest.mark.parametrize("box", [(np.nan, 0.0, 256.0), (0.0, np.inf, 256.0), (0.0, 0.0, np.nan)])
    def test_non_finite_box_is_data_error(self, tmp_path, box):
        path = tmp_path / "vol.hmv"
        maps = np.ones((3, 16, 16), dtype="<f4")
        path.write_bytes(
            b"HMV1"
            + struct.pack("<III", *maps.shape)
            + maps.tobytes()
            + struct.pack("<dddd", *box, 0.0)
        )
        with pytest.raises(DataFormatError, match=re.escape(str(path))) as e:
            load_volume(path)
        assert "finite" in str(e.value)


class TestBox:
    def test_box_without_map_data(self, tmp_path):
        path = tmp_path / "vol.hmv"
        volume = make_volume(np.random.default_rng(8))
        save_volume(path, volume)
        assert load_box(path) == volume.box
        blob = bytearray(path.read_bytes())
        blob[16:-32] = np.full((len(blob) - 48) // 4, np.nan, "<f4").tobytes()
        path.write_bytes(bytes(blob))
        assert load_box(path) == volume.box  # the NaN maps are never decoded
        with pytest.raises(DataFormatError, match="non-finite"):
            load_volume(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda b: b[:0],
            lambda b: b[:3],
            lambda b: b[:10],  # inside the header
            lambda b: b[:100],  # inside the maps
            lambda b: b[:-32],  # no box
            lambda b: b[:-1],
            lambda b: b + b"\0",
            lambda b: b"XXXX" + b[4:],
            lambda b: b[:-32] + struct.pack("<dddd", 0.0, 0.0, -1.0, 0.0),
        ],
        ids=["empty", "magic-cut", "header-cut", "maps-cut", "no-box", "box-cut",
             "trailing", "bad-magic", "bad-box"],
    )
    def test_same_errors_as_load_volume(self, tmp_path, edit):
        path = tmp_path / "vol.hmv"
        save_volume(path, make_volume(np.random.default_rng(9)))
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(DataFormatError, match=re.escape(str(path))) as want:
            load_volume(path)
        with pytest.raises(DataFormatError) as got:
            load_box(path)
        assert str(got.value) == str(want.value)


class TestManifest:
    def test_round_trip(self, tmp_path):
        entries = [(0, "vol_0.hmv"), (1, "vol_1.hmv"), (5, "sub/vol_5.hmv")]
        path = tmp_path / "manifest.tsv"
        save_manifest(path, entries)
        assert load_manifest(path) == entries

    def test_bad_line(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text("0\tok.hmv\nno-tab-here\n")
        with pytest.raises(DataFormatError):
            load_manifest(path)

    @pytest.mark.parametrize(
        "frame",
        ["1_000", " 7 ", "+3", "\uff11"],
        ids=["underscore", "spaces", "plus", "fullwidth"],
    )
    def test_frame_index_not_digits_names_file_and_line(self, tmp_path, frame):
        path = tmp_path / "manifest.tsv"
        path.write_text(f"0\ta.hmv\n{frame}\tb.hmv\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=re.escape(f"{path}:2: ")):
            load_manifest(path)

    def test_negative_frame_index(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text("-3\ta.hmv\n12\tb.hmv\n")
        assert load_manifest(path) == [(-3, "a.hmv"), (12, "b.hmv")]

    def test_repeated_frame(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text("0\ta.hmv\n1\tb.hmv\n0\tc.hmv\n")
        with pytest.raises(DataFormatError, match=re.escape(f"{path}:3: ")):
            load_manifest(path)

    def test_nul_byte_in_path(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text("0\ta.hmv\n1\tb\0.hmv\n")
        with pytest.raises(DataFormatError, match=re.escape(f"{path}:2: NUL")):
            load_manifest(path)


class TestAtomicWrite:
    def test_overwrites_in_place(self, tmp_path):
        path = tmp_path / "file.bin"
        atomic_write_bytes(path, b"one")
        atomic_write_bytes(path, b"two")
        assert path.read_bytes() == b"two"

    def test_no_temp_files_left(self, tmp_path):
        path = tmp_path / "file.bin"
        atomic_write_bytes(path, b"data")
        assert [p.name for p in tmp_path.iterdir()] == ["file.bin"]

    def test_missing_directory_names_the_target(self, tmp_path):
        path = tmp_path / "nodir" / "file.bin"
        with pytest.raises(FileNotFoundError) as err:
            atomic_write_bytes(path, b"data")
        assert err.value.filename == str(path)
        assert str(err.value).endswith(f"No such file or directory: '{path}'")


# one valid file of each kind, as (writer, loader); the model is tiny but
# well-formed: 2 joints, full input layout, one hidden layer of 3
_rng = np.random.default_rng(12)
_MODEL = LifterModel(
    num_joints=2,
    weights=(_rng.normal(size=(7, 3)), _rng.normal(size=(3, 6))),
    biases=(_rng.normal(size=3), _rng.normal(size=6)),
    mean_offset=np.array([10.0, -20.0, 4000.0]),
)
_VOLUME = make_volume(_rng, m=2, size=4)
_POSES = [[[1.5, -2.0], [3.25, 4.0]], [[0.5, 0.5], [7.0, -1e3]]]
_MANIFEST = [(0, "volumes/a.hmv"), (5, "b.hmv")]
_CAMERA = CameraModel(fx=1150.0, fy=1100.0, cx=500.5, cy=499.5)
FILE_KINDS = {
    "pose": (
        lambda p: save_poses(p, _POSES, frames=[3, 1]),
        lambda p: load_poses(p, dim=2),
    ),
    "manifest": (lambda p: save_manifest(p, _MANIFEST), load_manifest),
    "volume": (lambda p: save_volume(p, _VOLUME), load_volume),
    "camera": (lambda p: save_camera(p, _CAMERA), load_camera),
    "model": (lambda p: save_model(_MODEL, p), load_model),
}


def mutated(blob: bytes, kind: str, position: int, byte: int | None) -> bytes:
    """blob cut at `position`, or with the byte there replaced. A model's
    checksum is recomputed, so that its parser rather than the checksum
    sees the change."""
    payload = blob[:-32] if kind == "model" else blob
    position %= len(payload)
    tail = b"" if byte is None else bytes([byte]) + payload[position + 1 :]
    payload = payload[:position] + tail
    if kind == "model":
        payload += hashlib.sha256(payload).digest()
    return payload


class TestLoadersUnderMutation:
    @pytest.mark.parametrize("kind", sorted(FILE_KINDS))
    @settings(
        derandomize=True,
        deadline=None,
        max_examples=150,
        # the example rewrites the same file in tmp_path every time
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(position=st.integers(0, 2**16), byte=st.none() | st.integers(0, 255))
    def test_loads_or_raises_a_format_error(self, tmp_path, kind, position, byte):
        write, load = FILE_KINDS[kind]
        path = tmp_path / f"file.{kind}"
        write(path)
        path.write_bytes(mutated(path.read_bytes(), kind, position, byte))
        try:
            load(path)
        except DataFormatError as e:
            assert str(path) in str(e)
