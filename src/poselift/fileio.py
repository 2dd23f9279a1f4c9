"""On-disk formats: pose records, camera intrinsics, heat-map volumes.

See FORMATS.md at the repository root for the byte-level layout.
"""

from __future__ import annotations

import json
import os
import re
import struct
import tempfile
from itertools import chain
from pathlib import Path

import numpy as np

from .geometry import BoundingBox, CameraModel
from .heatmaps import HeatMapVolume

VOLUME_MAGIC = b"HMV1"

# the types that json decodes a number to, matched by exact type: bool is a
# subclass of int, and numpy would read true or "4" as a number too
NUMBER_TYPES = frozenset({int, float})

# a manifest's frame index: ASCII digits, after an optional minus sign
FRAME_INDEX = re.compile(r"-?[0-9]+")


class DataFormatError(ValueError):
    """A data file does not match its declared format."""


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a temp file plus rename so failures leave no partial file."""
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    except OSError as e:  # named by the target, not by the temp file
        raise type(e)(e.errno, e.strerror, str(path)) from None
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_lines(path):
    """(line number, line) pairs of a UTF-8 text file, read one line at a
    time with universal newlines; a line that is not UTF-8 raises
    DataFormatError naming the file and line."""
    # undecodable bytes come through as lone surrogates, which no UTF-8
    # text holds, so encoding the line back finds them
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, 1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise DataFormatError(f"{path}:{lineno}: not UTF-8 text") from None
            yield lineno, line


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def save_poses(path, poses, frames=None) -> None:
    """Line-delimited JSON, one frame per line: {"frame": i, "joints": [...]}"""
    if frames is None:
        frames = range(len(poses))
    lines = []
    for frame, pose in zip(frames, poses):
        joints = np.asarray(pose, dtype=np.float64).tolist()
        lines.append(json.dumps({"frame": int(frame), "joints": joints}) + "\n")
    atomic_write_text(path, "".join(lines))


def load_poses(path, dim: int):
    """Returns (frames, poses) sorted by frame index.

    A record that is not a JSON object with a JSON integer frame and a
    rectangular (M, dim) joints array of JSON numbers, whose coordinates
    are not all finite, or that repeats a frame index raises
    DataFormatError naming the file and line.
    """
    records = []
    seen = set()
    for lineno, line in _read_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            frame, raw = rec["frame"], rec["joints"]
            joints = np.asarray(raw, dtype=np.float64)
        except (ValueError, OverflowError, KeyError, TypeError) as e:
            raise DataFormatError(f"{path}:{lineno}: bad pose record: {e}")
        if type(frame) is not int:
            raise DataFormatError(f"{path}:{lineno}: frame {frame!r} is not an integer")
        if joints.ndim != 2 or joints.shape[1] != dim:
            raise DataFormatError(
                f"{path}:{lineno}: expected (M, {dim}) joints, "
                f"got {joints.shape}"
            )
        # raw is M lists of dim values here; map runs the test in C
        if not NUMBER_TYPES.issuperset(map(type, chain.from_iterable(raw))):
            raise DataFormatError(f"{path}:{lineno}: a joint coordinate is not a number")
        if frame in seen:
            raise DataFormatError(f"{path}:{lineno}: frame {frame} repeats")
        seen.add(frame)
        records.append((frame, joints, lineno))
    # one finiteness pass over all coordinates; the per-record scan that
    # names the line runs only when it fails
    if records and not np.isfinite(
        np.concatenate([r[1].ravel() for r in records])
    ).all():
        lineno = next(n for _, j, n in records if not np.isfinite(j).all())
        raise DataFormatError(f"{path}:{lineno}: non-finite joint coordinates")
    records.sort(key=lambda r: r[0])
    return [r[0] for r in records], [r[1] for r in records]


def save_camera(path, camera: CameraModel) -> None:
    atomic_write_text(
        path,
        json.dumps(
            {"fx": camera.fx, "fy": camera.fy, "cx": camera.cx, "cy": camera.cy}
        )
        + "\n",
    )


def load_camera(path) -> CameraModel:
    with open(path, encoding="utf-8") as f:
        try:
            rec = json.load(f)
            intrinsics = {key: rec[key] for key in ("fx", "fy", "cx", "cy")}
            for key, value in intrinsics.items():
                if type(value) not in NUMBER_TYPES:
                    raise TypeError(f"{key} {value!r} is not a number")
            return CameraModel(**{key: float(v) for key, v in intrinsics.items()})
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise DataFormatError(f"{path}: bad camera file: {e}")


def save_volume(path, volume: HeatMapVolume) -> None:
    box = volume.box
    parts = [
        VOLUME_MAGIC,
        struct.pack("<III", *volume.maps.shape),
        np.ascontiguousarray(volume.maps, dtype="<f4").tobytes(),
        struct.pack("<dddd", box.origin_x, box.origin_y, box.side, 0.0),
    ]
    atomic_write_bytes(path, b"".join(parts))


def _read_volume(path, read_maps: bool):
    """(maps, box) of a heat-map volume file: maps as a flat float32 array,
    or None unless read_maps. Either way the header, the file size and the
    box are checked; without read_maps the map data is skipped, not read."""
    with open(path, "rb") as f:
        head = f.read(16)
        if head[:4] != VOLUME_MAGIC:
            raise DataFormatError(f"{path}: bad magic; not a heat-map volume")
        try:
            m, h, w = struct.unpack_from("<III", head, 4)
        except struct.error as e:
            raise DataFormatError(f"{path}: truncated heat-map volume: {e}")
        count = m * h * w
        end = 16 + 4 * count  # where the 32-byte box starts
        size = f.seek(0, os.SEEK_END)
        if end + 32 > size:
            raise DataFormatError(
                f"{path}: truncated heat-map volume: header declares "
                f"{m}x{h}x{w} floats, the file holds {size} bytes"
            )
        if end + 32 != size:
            raise DataFormatError(f"{path}: trailing bytes in heat-map volume")
        maps = None
        if read_maps:
            f.seek(16)
            maps = np.frombuffer(f.read(4 * count), dtype="<f4").reshape(m, h, w)
        f.seek(end)
        ox, oy, side, _ = struct.unpack("<dddd", f.read(32))
    try:
        return maps, BoundingBox(origin_x=ox, origin_y=oy, side=side)
    except ValueError as e:
        raise DataFormatError(f"{path}: bad heat-map volume: {e}")


def load_volume(path) -> HeatMapVolume:
    maps, box = _read_volume(path, read_maps=True)
    try:
        return HeatMapVolume(maps=maps, box=box)
    except ValueError as e:
        raise DataFormatError(f"{path}: bad heat-map volume: {e}")


def load_box(path) -> BoundingBox:
    """The crop box of a heat-map volume file, read without its map data."""
    return _read_volume(path, read_maps=False)[1]


def save_manifest(path, entries) -> None:
    """entries: iterable of (frame_index, relative_volume_path)."""
    lines = [f"{int(frame)}\t{rel}" for frame, rel in entries]
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_manifest(path):
    """(frame_index, relative_volume_path) pairs in file order; a line that
    is not `frame<TAB>path` with a FRAME_INDEX frame, whose path holds a NUL
    byte or that repeats a frame index raises DataFormatError naming the
    file and line."""
    entries = []
    seen = set()
    for lineno, line in _read_lines(path):
        line = line.rstrip("\n")
        if not line:
            continue
        try:
            frame, rel = line.split("\t")
            if not FRAME_INDEX.fullmatch(frame):  # int() takes " 7", "+3", "1_000"
                raise ValueError
            frame = int(frame)
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: bad manifest line")
        if "\0" in rel:  # no file system path can hold one
            raise DataFormatError(f"{path}:{lineno}: NUL byte in volume path")
        if frame in seen:
            raise DataFormatError(f"{path}:{lineno}: frame {frame} repeats")
        seen.add(frame)
        entries.append((frame, rel))
    return entries
