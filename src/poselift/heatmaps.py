"""Heat-map volumes, kernel-density smoothing, and joint candidate extraction.

A heat map is an (H, W) grid of non-negative likelihoods indexed as
grid[y, x]. Candidate positions are continuous (x, y) grid coordinates.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

from .geometry import BoundingBox, check_count

CONVERGENCE_TOL = 1e-4
MAX_ITERATIONS = 100
# find_modes_volume builds its window masks for at most hypot(W, H), which
# covers an H x W grid from every point it evaluates, so on a 32 x 32 grid a
# bandwidth above 45.25 costs what 45.25 does: a cold 17-joint frame takes
# about 3.3 s and 0.33 GB. On larger grids this bound caps the cost.
MAX_BANDWIDTH = 64.0


def check_extraction(bandwidth, max_candidates) -> None:
    """ValueError unless bandwidth is in (0, MAX_BANDWIDTH] with a square
    above 0 and max_candidates is an integer >= 1: the rules of both candidate
    generators, whether the bandwidth is a window or a suppression radius."""
    # NaN fails this too; a bandwidth whose square underflows to 0 has an
    # empty window
    if not (0 < bandwidth <= MAX_BANDWIDTH and bandwidth * bandwidth > 0):
        raise ValueError(f"bandwidth must be in (0, {MAX_BANDWIDTH:g}] with a square above 0")
    check_count(max_candidates, "max_candidates")


def _checked_maps(maps) -> np.ndarray:
    """maps as an (M, H, W) stack with stray negative activations clipped to
    0: float32 stays float32, the precision of a volume file, and any other
    dtype becomes float64, so float64 maps are never narrowed. ValueError,
    naming the joint, for a grid that holds a non-finite value or no
    positive one."""
    maps = np.asarray(maps)
    if maps.dtype != np.float32:
        maps = maps.astype(np.float64, copy=False)
    if maps.ndim != 3:
        raise ValueError("expected (M, H, W) heat-map stack")
    finite = np.isfinite(maps).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"heat maps contain non-finite values at joint {np.argmin(finite)}")
    positive = (maps > 0).any(axis=(1, 2))
    if not positive.all():
        raise ValueError(f"all-zero heat map for joint {np.argmin(positive)}")
    return np.clip(maps, 0.0, None)


@dataclass(frozen=True)
class HeatMapVolume:
    """Per-joint likelihood grids plus the crop box that produced them.

    maps are checked and clipped by _checked_maps: float32 maps, as volume
    files and synth hold them, stay float32; others become float64.
    """

    maps: np.ndarray  # (M, H, W), non-negative, H == W
    box: BoundingBox

    def __post_init__(self):
        maps = _checked_maps(self.maps)
        if maps.shape[1] != maps.shape[2]:
            raise ValueError(
                f"heat maps must be square, got {maps.shape[1]}x{maps.shape[2]}"
            )
        object.__setattr__(self, "maps", maps)

    @property
    def num_joints(self) -> int:
        return self.maps.shape[0]

    @property
    def grid_size(self) -> int:
        return self.maps.shape[1]


@dataclass(frozen=True)
class JointCandidates:
    """Ranked modes for one joint: positions (K, 2) as (x, y), values (K,)."""

    positions: np.ndarray
    values: np.ndarray

    def __len__(self):
        return len(self.values)


# Mode verification: mean-shift fixed points include saddle points of the
# density (seeds balanced on the ridge between two bumps stop there), so a
# converged point only counts as a mode if it is a local maximum of the
# shadow density -- the smooth Epanechnikov-weighted sum that flat-kernel
# mean shift provably ascends. Probes at this radius around each candidate
# must not find a higher shadow-density value.
_PROBE_RADIUS = 0.5
_PROBE_DIRECTIONS = np.array(
    [
        (np.cos(a), np.sin(a))
        for a in np.arange(8) * (np.pi / 4.0)
    ]
)

# Bins per radius across x in _close_pairs' strips: finer bins examine
# fewer pairs beyond the radius, and add no work of their own
_PAIR_BINS = 16

# Window states. A flat-kernel step from point p depends only on the set of
# pixels inside the window, and that set depends only on the base pixel
# floor(p) and the fraction f = p - floor(p). The pixel at offset (ox, oy)
# from the base is inside when (ox - fx)^2 + (oy - fy)^2 < b^2 -- the
# window test of the reference engine (tests/modes_reference.py) in the
# same floating-point order, so both agree on every pixel. Offsets run over
# -r+1..r with r = ceil(b) (offset -r is never inside), and the inside
# offsets of each row form one interval [lo, hi] with lo <= 1 and hi >= 0.
# A "mask" is the tuple of row intervals; the (base pixel, mask) pair is
# the window state, and trajectories in the same state take bit-identical
# next steps.
#
# Fractions are looked up in a table of _FRACTION_CELLS^2 cells; a cell
# that no pixel-boundary circle crosses (with a relative margin of
# _CELL_MARGIN) maps to its mask directly. In a cell that at most
# _CELL_EDGES circles cross, every other edge offset is on the same side
# for all of the cell's fractions, so the bits of those few "unsure" edges
# fix the mask: the cell gets a slot, whose row of the slot table maps
# their bits to a mask id, filled in as points meet it. The remaining
# cells are tested exactly.
_FRACTION_CELLS = 512  # a power of two, so fraction * cells is exact
_CELL_MARGIN = 1e-12
_CELL_EDGES = 2
_MASK_SLOTS = 1 << 20  # mask ids per base pixel in a state key
_MASK_BLOCK = 256  # new masks resolved to row intervals at once

# Trajectories that move out of one window state are merged while a merge
# removes at least this share of the moving points. A merge costs about an
# eighth of a step per point; at step 1 it removes 5-9% of the points of
# distractor and clean frames and 0.1-0.5% on noise-floor frames, which so
# pay for one merge. States are found in an owner table of 2^_OWNER_BITS
# slots (128 KiB), indexed by the top bits of a multiplicative hash of the
# state key (Fibonacci hashing).
_MERGE_SHARE = 1 / 32
_OWNER_BITS = 15
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)

# Trajectory points are rounded to this many decimals after every step, and
# converged points once more when they are recorded. Points that round to
# the same value take the same steps from there on and end in one recorded
# point. The rounding sits far below the convergence threshold, but it
# does move points by up to 5e-9.
_ROUND_DECIMALS = 8


def _square_range(o, lo, hi):
    """Min and max of (o - f)^2 over f in the closed interval [lo, hi]."""
    a, b = (o - lo) ** 2, (o - hi) ** 2
    near = np.where((o >= lo) & (o <= hi), 0.0, np.minimum(a, b))
    return near, np.maximum(a, b)


class _WindowMasks:
    """The window masks of one bandwidth: fraction lookup and mask catalog.

    Masks get ids in the order they are first met; the catalog only grows,
    and an id never changes its meaning. Instances are shared through
    _window_masks, so the catalog and the slot table grow under a lock.
    """

    def __init__(self, bandwidth: float):
        self.b2 = bandwidth**2
        self.r = r = int(np.ceil(bandwidth))
        self.offsets = np.arange(-r + 1, r + 1)
        oy, ox = np.meshgrid(self.offsets, self.offsets, indexing="ij")
        near_x, far_x = _square_range(ox, 0.0, 1.0)
        near_y, far_y = _square_range(oy, 0.0, 1.0)
        self.core = far_x + far_y < self.b2 * (1 - _CELL_MARGIN)
        dead = near_x + near_y > self.b2 * (1 + _CELL_MARGIN)
        # offsets whose membership depends on the fraction, as (ox, oy) rows
        self._edge_at = np.nonzero(~self.core & ~dead)
        self.edge = np.stack([ox[self._edge_at], oy[self._edge_at]]).astype(np.float64)
        self.rows: list[np.ndarray] = []  # per mask: interval index per row
        self._ids: dict = {}  # packed edge bits -> id
        self._lock = threading.Lock()
        self.lookup = self._build_lookup()
        self.seed_mask = int(self.exact(np.zeros(1), np.zeros(1))[0])

    def _intervals_of(self, bits):
        """Interval per row, as (k, rows), of the masks given by edge
        memberships (edges, k): the first and last inside offset of the
        row, or (1, 0) for an empty row."""
        inside = np.repeat(self.core[None], bits.shape[1], axis=0)
        inside[:, self._edge_at[0], self._edge_at[1]] = bits.T
        lo = self.offsets[np.argmax(inside, axis=2)]
        hi = self.offsets[-1 - np.argmax(inside[:, :, ::-1], axis=2)]
        empty = ~inside.any(axis=2)
        lo[empty], hi[empty] = 1, 0
        return (lo + self.r - 1) * (self.r + 1) + hi

    def _mask_ids(self, bits):
        """Catalog ids of masks given by edge memberships (edges, n), adding
        unknown masks."""
        packed = np.ascontiguousarray(np.packbits(bits, axis=0).T)
        rows = packed.view(f"V{packed.shape[1]}").ravel()
        uniq, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
        codes = uniq.tolist()
        with self._lock:
            new = [k for k, code in enumerate(codes) if code not in self._ids]
            # in blocks, to bound the (block, rows, offsets) membership grids
            for at in range(0, len(new), _MASK_BLOCK):
                block = new[at : at + _MASK_BLOCK]
                for k, intervals in zip(block, self._intervals_of(bits[:, first[block]])):
                    self._ids[codes[k]] = len(self.rows)
                    self.rows.append(intervals)
            ids = np.array([self._ids[code] for code in codes], dtype=np.intp)
        return ids[inverse.ravel()]

    def exact(self, fx, fy):
        """Mask ids for fractions, by the distance test itself."""
        d2 = (self.edge[0][:, None] - fx) ** 2 + (self.edge[1][:, None] - fy) ** 2
        return self._mask_ids(d2 < self.b2)

    def _build_lookup(self):
        """Fraction lookup: a mask id per sure cell, -1 per cell tested
        exactly and -2 - slot per slotted cell; sets the slots' edges."""
        n = _FRACTION_CELLS
        edges = np.arange(n + 1) / n
        near_x, far_x = _square_range(self.edge[0][:, None], edges[:-1], edges[1:])
        near_y, far_y = _square_range(self.edge[1][:, None], edges[:-1], edges[1:])
        inside_at = self.b2 * (1 - _CELL_MARGIN)
        outside_at = self.b2 * (1 + _CELL_MARGIN)
        # one more row and column, all unsure, for a fraction that rounds
        # to 1.0 (a point a hair below an integer, as saddle probes can be)
        lookup = np.full((n + 1, n + 1), -1, dtype=np.int32)
        slot_edges = []
        slots = 0
        band = 8  # rows of cells per pass, to bound the temporaries
        d2 = np.empty((len(far_x), band, n))
        for top in range(0, n, band):
            rows = slice(top, top + band)
            np.add(far_y[:, rows, None], far_x[:, None, :], out=d2)
            inside = d2 < inside_at
            np.add(near_y[:, rows, None], near_x[:, None, :], out=d2)
            unsure = ~inside & (d2 <= outside_at)
            sure = ~unsure.any(axis=0)
            lookup[rows, :n][sure] = self._mask_ids(inside[:, sure])
            unsure = unsure[:, ~sure]  # (edges, unsure cells)
            slotted = unsure.sum(axis=0) <= _CELL_EDGES
            # the unsure edges first; a sure edge that fills a slot's
            # place has the same bit at every fraction of the cell
            order = np.argsort(~unsure[:, slotted], axis=0, kind="stable")
            # a copy: a view would keep the band's whole argsort alive
            slot_edges.append(order[:_CELL_EDGES].T.copy())
            code = np.full(len(slotted), -1)
            code[slotted] = -2 - np.arange(slots, slots + len(order.T))
            lookup[rows, :n][~sure] = code
            slots += len(order.T)
        self.slot_edges = np.concatenate(slot_edges)
        self.slot_ids = np.full(slots << self.slot_edges.shape[1], -1, dtype=np.int32)
        return lookup.ravel()

    def _slot_masks(self, slot, fx, fy):
        """Mask ids of points in slotted cells: their slots' edges are
        tested, and a bit pattern not met before is resolved by exact."""
        at = self.slot_edges[slot]
        d2 = (self.edge[0][at] - fx[:, None]) ** 2 + (self.edge[1][at] - fy[:, None]) ** 2
        pattern = (d2 < self.b2) @ (1 << np.arange(at.shape[1]))
        entry = (slot << at.shape[1]) + pattern
        ids = self.slot_ids[entry]
        miss = np.flatnonzero(ids < 0)
        if len(miss):
            ids[miss] = self.exact(fx[miss], fy[miss])
            with self._lock:
                self.slot_ids[entry[miss]] = ids[miss]
        return ids

    def states(self, x, y):
        """Base pixel floors (bx, by), as floats, and mask id per point (x, y)."""
        bx, by = np.floor(x), np.floor(y)
        fx, fy = x - bx, y - by
        cell = (fy * _FRACTION_CELLS).astype(np.intp) * (_FRACTION_CELLS + 1)
        cell += (fx * _FRACTION_CELLS).astype(np.intp)
        masks = self.lookup[cell]
        unsure = np.flatnonzero(masks < 0)
        if len(unsure):
            slot = -2 - masks[unsure]
            slotted = slot >= 0
            at = unsure[slotted]
            masks[at] = self._slot_masks(slot[slotted], fx[at], fy[at])
            at = unsure[~slotted]
            if len(at):
                masks[at] = self.exact(fx[at], fy[at])
        return bx, by, masks


@functools.lru_cache(maxsize=16)
def _window_masks(bandwidth: float) -> _WindowMasks:
    return _WindowMasks(bandwidth)


class _RowSums:
    """Per-row window sums of one volume, for the row intervals masks use.

    For each interval [lo, hi] and each pixel (x, y) a plane holds
    sum w + i * sum w*ox (complex) over the pixels (x + ox, y),
    lo <= ox <= hi, of each joint's grid (zero outside it). The planes of
    sum w*ox^2, which only the shadow density reads, are built on the
    first shadow call. A window sum is then one lookup per mask row. Bases
    run over x in [-1, w-1] and rows over y in [-r, h-1+r], which covers
    every mode and every saddle probe. b2 is the square of the bandwidth
    itself, which the shadow density weighs with, whatever radius masks
    were built for.
    """

    def __init__(self, grids, masks: _WindowMasks, b2: float):
        m, h, w = grids.shape
        r = masks.r
        self.masks = masks
        self.b2 = b2
        self.height, self.width = h + 2 * r, w + 1
        self.plane = m * self.height * self.width
        self._padded = np.zeros((m, self.height, w + 2 * r + 1))
        self._padded[:, r : r + h, r + 1 : r + 1 + w] = grids
        self.intervals = np.zeros(0, dtype=np.intp)  # interval of each plane
        self._refresh()

    def _refresh(self):
        """Planes for every row interval of the mask catalog, and per mask
        row the (masks,) table offsets of each mask from a base cell."""
        rows = np.array(self.masks.rows)
        needed = np.unique(rows)
        if not np.isin(needed, self.intervals).all():
            self.intervals = needed
            self.sums = self._build_planes(squares=False)
            self.squares = None  # built again when shadow needs them
        planes = np.searchsorted(self.intervals, rows)
        self.offsets = np.ascontiguousarray((planes * self.plane + self.masks.offsets * self.width).T)
        self._known = len(rows)

    def _build_planes(self, squares: bool):
        """The planes of sum w*ox^2 if squares, else of sum w + i*sum w*ox."""
        r = self.masks.r
        los, his = np.divmod(self.intervals, r + 1)
        los -= r - 1
        dtype = np.float64 if squares else complex
        planes = np.empty((len(los), self.plane), dtype=dtype)
        planes[los > his] = 0
        # Each interval's sums add their offsets left to right from 0. The
        # intervals ascend by (lo, hi), so one that shares the lo of the one
        # before it goes on from that one's sums, at offset start.
        first = np.concatenate([[True], los[1:] != los[:-1]])
        start = np.where(first, los, np.roll(his, 1) + 1)
        term = np.empty(self.plane, dtype=dtype)
        for ox in range(los.min(), his.max() + 1):
            # weights at (x + ox, y) on the table's (y, x) lattice
            weights = self._padded[:, :, ox + r : ox + r + self.width].reshape(-1)
            if squares:
                np.multiply(weights, ox * ox, out=term)
            else:
                term.real = weights
                np.multiply(weights, ox, out=term.imag)
            for k in np.flatnonzero((start <= ox) & (ox <= his)):
                before = planes[k]
                if ox == start[k]:
                    before = 0.0 if first[k] else planes[k - 1]
                np.add(before, term, out=planes[k])
        return planes

    def cells(self, joints, bx, by):
        """Table index of each base pixel (bx, by) of a joint."""
        return ((joints * self.height + self.masks.r + by) * self.width + 1 + bx).astype(np.intp)

    def _window_sums(self, cells, mask_ids, second: bool):
        """Window sums of states: sum w + i * sum w*ox and sum w*oy, then,
        if second, sum w*ox^2 and sum w*oy^2 (else None).

        The mask rows are gathered one at a time and added top row first.
        Each sum starts at -0.0, which any first term replaces bit for bit,
        so it equals np.add.reduce(axis=0) of the (rows, n) stack of its
        terms.
        """
        if self._known != len(self.masks.rows):
            self._refresh()
        if second and self.squares is None:
            self.squares = self._build_planes(squares=True)
        n = len(cells)
        idx, row, part = np.empty(n, dtype=np.intp), np.empty(n, dtype=complex), np.empty(n)
        total, sum_y = np.full(n, complex(-0.0, -0.0)), np.full(n, -0.0)
        sum_xx, sum_yy = (np.full(n, -0.0), np.full(n, -0.0)) if second else (None, None)
        for oy, offsets in zip(self.masks.offsets, self.offsets):
            # every index is in range; mode="clip" lets take write to out
            np.take(offsets, mask_ids, out=idx, mode="clip")
            idx += cells
            self.sums.take(idx, out=row, mode="clip")
            total += row
            if second:
                sum_xx += self.squares.take(idx, out=part, mode="clip")
                sum_yy += np.multiply(row.real, oy * oy, out=part)
            sum_y += np.multiply(row.real, oy, out=part)
        return total, sum_y, sum_xx, sum_yy

    def step(self, cells, bx, by, mask_ids):
        """Mean-shift targets (x, y) and window weights of states. The
        window sums add one gathered mask row at a time, top row first, in
        the order of np.add.reduce(axis=0) over all rows at once."""
        total, sum_y, _, _ = self._window_sums(cells, mask_ids, second=False)
        weight = total.real
        # the quotient sum(w * x) / sum(w) over absolute coordinates
        return (bx * weight + total.imag) / weight, (by * weight + sum_y) / weight, weight

    def shadow(self, joints, x, y):
        """Shadow density sum w * (b^2 - d^2) over the window of each point."""
        bx, by, mask_ids = self.masks.states(x, y)
        cells = self.cells(joints, bx, by)
        total, oy1, squares, oy2 = self._window_sums(cells, mask_ids, second=True)
        weight = total.real
        fx, fy = x - bx, y - by
        # sum of w * d^2 = sum of w * ((ox - fx)^2 + (oy - fy)^2), expanded
        d2 = squares - 2 * fx * total.imag + oy2 - 2 * fy * oy1 + (fx * fx + fy * fy) * weight
        return self.b2 * weight - d2


# np.sqrt(d2) >= CONVERGENCE_TOL exactly when d2 >= _MOVED_D2: sqrt is
# correctly rounded and monotone
_MOVED_D2 = CONVERGENCE_TOL**2
while np.sqrt(_MOVED_D2) >= CONVERGENCE_TOL:
    _MOVED_D2 = np.nextafter(_MOVED_D2, 0.0)
while np.sqrt(_MOVED_D2) < CONVERGENCE_TOL:
    _MOVED_D2 = np.nextafter(_MOVED_D2, 1.0)


def _moved(x, y, tx, ty):
    """True where the step from (x, y) to (tx, ty) is CONVERGENCE_TOL long
    or longer."""
    dx, dy = tx - x, ty - y
    dx *= dx
    dy *= dy
    dx += dy
    return dx >= _MOVED_D2


def _first_occurrences(keys):
    """Index of each distinct key's first occurrence, in ascending key
    order: np.unique(keys, return_index=True)[1] for a non-empty keys."""
    # the default sort is not stable, so the minimum index of each run of
    # equal keys is the first occurrence
    order = np.argsort(keys)
    ranked = keys[order]
    starts = np.flatnonzero(np.concatenate([[True], ranked[1:] != ranked[:-1]]))
    return np.minimum.reduceat(order, starts)


def _one_per_state(keys, owner):
    """Indices of the points to keep of those with state keys keys: one
    point per key, or more where keys collide in the owner table.

    Each key hashes to a slot of owner, which every point there writes its
    index to; a point is dropped when the slot's last writer is another
    point with the same key. A collision can keep two points of one state,
    never drop the only point of one. Only slots written in this call are
    read, so owner needs no clearing between calls.
    """
    index = np.arange(len(keys), dtype=np.int32)
    slot = keys.view(np.uint64) * _HASH_MULTIPLIER
    slot >>= np.uint64(64 - _OWNER_BITS)  # the top bits: the multiplicative hash
    slot = slot.view(np.intp)
    owner[slot] = index
    other = owner.take(slot)
    return np.flatnonzero((other == index) | (keys.take(other) != keys))


def _converge(grids, masks: _WindowMasks, sums: _RowSums):
    """Mean shift from every nonzero pixel to convergence.

    Returns the distinct converged points as (x, y), their joint ids and
    their flat-kernel densities, sorted by joint. A step shorter than
    CONVERGENCE_TOL ends a trajectory, which is recorded at that step's
    target; after MAX_ITERATIONS steps a trajectory is recorded where it
    stands. Trajectories in the same window state have the same target, so
    recorded points are merged by state.

    Trajectories that move out of one window state at a step are merged at
    once, from step 1 on (the seeds are distinct pixels): the state fixes
    the target bit for bit, so they land on one rounded point, take the
    same steps from there and would record the same state and target at
    the same step, at the iteration cap too. Merging stops for the rest of
    the call once a merge removes less than _MERGE_SHARE of the moving
    points, as on noise-floor frames, where it would cost more than it
    saves.
    """
    joints, by, bx = np.nonzero(grids > 0)
    x, y = bx.astype(np.float64), by.astype(np.float64)
    base = sums.cells(joints, 0, 0)  # table index of pixel (0, 0) of the joint
    # seeds sit on pixels, all in the seed mask: no states() lookup, whose
    # (0, 0) cell is unsure at integer bandwidths
    bx, by = x, y
    mask_ids = np.full(len(x), masks.seed_mask)
    record = [[], [], []]  # per recorded point: state key and target
    owner = np.empty(1 << _OWNER_BITS, dtype=np.int32)
    share = 1.0  # of the moving points, the share that the last merge removed
    for step in range(MAX_ITERATIONS):
        if step:
            bx, by, mask_ids = masks.states(x, y)
        keys = base + (by * sums.width + bx).astype(np.intp)  # table cells
        tx, ty = sums.step(keys, bx, by, mask_ids)[:2]
        keys *= _MASK_SLOTS
        keys += mask_ids  # the window states
        # dropped here and below: the next states() call sets the working
        # set's peak
        del bx, by, mask_ids
        moved = _moved(x, y, tx, ty)
        stop, go = np.flatnonzero(~moved), np.flatnonzero(moved)
        del moved
        for column, values in zip(record, (keys.take(stop), tx.take(stop), ty.take(stop))):
            column.append(values)
        if len(go) == 0:
            break
        if step and share >= _MERGE_SHARE:
            kept = _one_per_state(keys.take(go), owner)
            share = 1 - len(kept) / len(go)
            go = go.take(kept)
        x, y = (np.round(v, _ROUND_DECIMALS, out=v) for v in (tx.take(go), ty.take(go)))
        base = base.take(go)
        if step + 1 == MAX_ITERATIONS:  # at the cap: record the rest where they stand
            for column, values in zip(record, (keys.take(go), x, y)):
                column.append(values)
        del tx, ty, stop, keys
    keys, tx, ty = (np.concatenate(c) for c in record)
    first = _first_occurrences(keys)
    x, y = (np.round(v, _ROUND_DECIMALS, out=v) for v in (tx[first], ty[first]))
    joints = keys[first] // (_MASK_SLOTS * sums.height * sums.width)
    bx, by, mask_ids = masks.states(x, y)
    values = sums.step(sums.cells(joints, bx, by), bx, by, mask_ids)[2]
    return x, y, joints, values


def _priority_order(x, y, joints, values):
    """Order of points by joint, then descending value, ties by (y, x),
    then by index: np.lexsort((y + 1j * x, joints - 1j * values))."""
    # the default sort is not stable: runs of equal values are re-sorted by
    # (y, x, index); then a sort on unique (joint, rank) keys is a stable
    # sort by joint
    order = np.argsort(-values)
    ranked = values[order]
    tie = ranked[1:] == ranked[:-1]
    if tie.any():
        run = np.cumsum(np.concatenate([[True], ~tie]))
        tied = np.flatnonzero(np.concatenate([[False], tie]) | np.concatenate([tie, [False]]))
        members = order[tied]
        order[tied] = members[np.lexsort((members, x[members], y[members], run[tied]))]
    n = len(order)
    return order[np.argsort(joints[order] * n + np.arange(n))]


def _close_pairs(x, y, groups, radius):
    """Pairs (i, j), i < j, within one group with dx*dx + dy*dy < radius^2,
    where (dx, dy) = point j - point i."""
    n = len(x)
    if n < 2 or not radius > 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    # strips a hair taller than the radius, cut into bins a hair wider than
    # a _PAIR_BINS-th of it (both at least 2^-20 of the spread, so that keys
    # fit in int64): a close point lies in the same or the next strip, at
    # most _PAIR_BINS bins to either side
    gap = radius * (1 + 1e-9)
    x0, y0 = x.min(), y.min()
    least = max(x.max() - x0, y.max() - y0) * 2.0**-20
    strip = np.floor((y - y0) / max(gap, least)).astype(np.intp)
    bins = np.floor((x - x0) / max(gap / _PAIR_BINS, least)).astype(np.intp)
    reach = _PAIR_BINS
    nx = int(bins.max()) + reach + 1  # key + reach stays inside a strip
    key = (groups * (int(strip.max()) + 2) + strip) * nx + bins
    by_key = np.argsort(key)
    key = key[by_key]
    # in key order, each unordered pair once: the points after this one in
    # its strip up to reach bins to the right, then those of the next strip
    # from reach bins to the left to reach bins to the right
    start = np.empty(2 * n, dtype=np.intp)
    stop = np.empty(2 * n, dtype=np.intp)
    start[0::2] = np.arange(1, n + 1)
    stop[0::2] = np.searchsorted(key, key + reach, side="right")
    start[1::2] = np.searchsorted(key, key + (nx - reach), side="left")
    stop[1::2] = np.searchsorted(key, key + (nx + reach), side="right")
    count = np.subtract(stop, start, out=stop)
    # the pairs examined, as indices into x and y
    first = np.repeat(by_key, count[0::2] + count[1::2])
    second = by_key[np.repeat(start - (np.cumsum(count) - count), count) + np.arange(len(first))]
    close = _squared_distances(x, y, first, second) < radius * radius
    first, second = first[close], second[close]
    return np.minimum(first, second), np.maximum(first, second)


def _squared_distances(x, y, first, second):
    """dx * dx + dy * dy per pair, where (dx, dy) = point second - point
    first, formed in place."""
    d2 = x.take(second)
    d2 -= x.take(first)
    d2 *= d2
    dy = y.take(second)
    dy -= y.take(first)
    dy *= dy
    d2 += dy
    return d2


def _suppress(x, y, groups, radius, limit):
    """Greedy suppression per group: True for kept points.

    Points are in priority order within each group (groups ascending). A
    point is kept unless an earlier kept point of its group lies within
    radius; only the first limit kept points of each group are kept.
    Decided in rounds: a point with no undecided earlier neighbor is
    decided, kept if no kept neighbor precedes it -- the same set as the
    one-by-one loop.
    """
    n = len(x)
    i, j = _close_pairs(x, y, groups, radius)
    undecided, kept = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
    while undecided.any():
        waiting = np.zeros(n, dtype=bool)
        waiting[j] = True  # every remaining pair has an undecided first point
        now = undecided & ~waiting
        kept |= now
        undecided &= ~now
        undecided[j[now[i]]] = False
        live = undecided[i] & undecided[j]
        i, j = i[live], j[live]
    rank = np.cumsum(kept)
    start = np.searchsorted(groups, groups)  # first index of each group
    before = np.concatenate([[0], rank])[start]
    return kept & (rank - before <= limit)


def _local_maxima(sums: _RowSums, joints, x, y):
    """True where no probe around the point has higher shadow density."""
    n = len(x)
    # the first probe runs on every point, so it shares the base call
    dx, dy = _PROBE_RADIUS * _PROBE_DIRECTIONS[0]
    both = sums.shadow(np.tile(joints, 2), np.concatenate([x, x + dx]), np.concatenate([y, y + dy]))
    limit = both[:n] * (1.0 + 1e-9)
    alive = np.flatnonzero(both[n:] <= limit)
    # each axis both ways before the diagonals: a saddle's rising axis shows
    # sooner, and the diagonals, which reject few points, share one call;
    # the outcome does not depend on the order
    for batch in ([4], [2], [6], [1, 5, 3, 7]):
        dx, dy = _PROBE_RADIUS * _PROBE_DIRECTIONS[batch].T[:, :, None]
        probe = sums.shadow(
            np.tile(joints[alive], len(batch)), (x[alive] + dx).ravel(), (y[alive] + dy).ravel()
        )
        alive = alive[(probe.reshape(len(batch), -1) <= limit[alive]).all(axis=0)]
    out = np.zeros(n, dtype=bool)
    out[alive] = True
    return out


def find_modes_volume(grids, bandwidth: float, max_candidates: int) -> list[JointCandidates]:
    """Mean-shift candidate extraction for every joint of a volume at once.

    Per grid: runs mean shift from every nonzero pixel. A step moves a
    point to the weighted mean of the pixels inside its flat-kernel window,
    rounded to 8 decimals; a step shorter than 1e-4 grid units ends the
    trajectory, which is recorded at that step's target, and after 100
    steps a trajectory is recorded where it stands. Trajectories recorded
    from the same window state (base pixel and covered pixels) end at the
    same point and are merged; no other points are merged. Trajectories
    that move out of one window state at the same step are merged at once,
    which is exact: the state fixes the step's target bit for bit, so they
    would take the same steps from there and be recorded together. Each
    point is scored by the flat-kernel density there and ranked by score,
    ties by (y, x). Scores are floating-point window sums, so a tie is a
    tie only when those sums come out bit-equal: densities that tie in
    exact arithmetic can differ in the last bit (a grid that repeats a
    value that is not dyadic) and then rank by that bit. Greedy
    suppression keeps the strongest point of every bandwidth/2
    neighborhood, up to max_candidates; finally saddle stalls
    (kept points that are not local maxima of the shadow density, detected
    with probes at radius 0.5) are dropped, except the strongest point.
    The joints are independent; batching them only amortizes the
    per-iteration overhead. The grids are checked, and negative values
    clipped, as HeatMapVolume does, but they need not be square, and
    float32 grids are widened to float64 before any sum; bandwidth and
    max_candidates are checked by check_extraction.
    """
    check_extraction(bandwidth, max_candidates)
    grids = _checked_maps(grids).astype(np.float64, copy=False)
    m, h, w = grids.shape
    # Every point evaluated -- a pixel, a mean, a probe 0.5 from one -- lies
    # within 0.5 of [0, w-1] x [0, h-1], so a window of radius hypot(w, h)
    # holds every pixel of the grid, as any wider window does: the masks
    # stop there. The shadow density keeps the bandwidth's own square.
    masks = _window_masks(min(float(bandwidth), float(np.hypot(w, h))))
    sums = _RowSums(grids, masks, float(bandwidth) ** 2)
    x, y, joints, values = _converge(grids, masks, sums)
    order = _priority_order(x, y, joints, values)
    x, y, joints, values = x[order], y[order], joints[order], values[order]
    keep = _suppress(x, y, joints, bandwidth / 2, max_candidates)
    x, y, joints, values = x[keep], y[keep], joints[keep], values[keep]
    is_max = _local_maxima(sums, joints, x, y)
    is_max[np.searchsorted(joints, np.arange(m))] = True  # the strongest point
    points = np.stack([x[is_max], y[is_max]], axis=1)
    joints, values = joints[is_max], values[is_max]
    bounds = np.searchsorted(joints, np.arange(m + 1))
    return [
        JointCandidates(positions=points[a:b], values=values[a:b])
        for a, b in zip(bounds[:-1], bounds[1:])
    ]


# find_modes_nms samples the grid at this many points per pixel and axis
_NMS_UPSCALE = 8


def _upsample_axis(n: int, upscale: int):
    """Clipped index pairs and weights t of linear interpolation at the
    centers (i + 0.5) / upscale - 0.5 of n * upscale pixels over n."""
    c = (np.arange(n * upscale) + 0.5) / upscale - 0.5
    base = np.floor(c)
    first = np.clip(base, 0, n - 1).astype(np.intp)
    second = np.clip(base + 1, 0, n - 1).astype(np.intp)
    return first, second, c - base


def _upsample(grid, upscale: int) -> np.ndarray:
    """Bilinear upsampling at pixel-center aligned points, edge values held
    outside; at upscale 1 the grid itself. The corners are added to 0.0
    in y-major order, each as value * wy * wx, which gives the same bits
    as scipy.ndimage.map_coordinates(order=1, mode="nearest")."""
    h, w = grid.shape
    y0, y1, ty = _upsample_axis(h, upscale)
    x0, x1, tx = _upsample_axis(w, upscale)
    ty = ty[:, None]
    top, bottom = grid[y0], grid[y1]
    return (
        0.0
        + top[:, x0] * (1 - ty) * (1 - tx)
        + top[:, x1] * (1 - ty) * tx
        + bottom[:, x0] * ty * (1 - tx)
        + bottom[:, x1] * ty * tx
    )


def _peak_mask(up) -> np.ndarray:
    """True where a positive value is at least each of its 8 neighbors,
    outside the grid counting as 0: the max of the zero-padded 3x3 window,
    taken across rows and then across columns, is the value itself."""
    padded = np.pad(up, 1)
    rows = np.maximum(np.maximum(padded[:-2], padded[1:-1]), padded[2:])
    window = np.maximum(np.maximum(rows[:, :-2], rows[:, 1:-1]), rows[:, 2:])
    return (up == window) & (up > 0)


def find_modes_nms(grid, max_candidates: int, radius: float) -> JointCandidates:
    """Candidate extraction baseline: bilinear upsampling plus greedy NMS.

    The grid is bilinearly upsampled by 8, local maxima over
    8-neighborhoods are collected, and greedy non-maximum suppression with
    the scaled radius keeps the strongest peaks. Output coordinates are
    mapped back to the original grid scale; a float32 grid is widened to
    float64 first. radius and max_candidates are checked as
    find_modes_volume checks its bandwidth and max_candidates.
    """
    check_extraction(radius, max_candidates)
    grid = _checked_maps([grid])[0].astype(np.float64, copy=False)
    up = _upsample(grid, _NMS_UPSCALE)
    # >= its neighbors keeps the symmetric ties that bilinear resampling
    # produces around a peak; NMS then drops the duplicates
    pys, pxs = np.nonzero(_peak_mask(up))
    vals = up[pys, pxs]
    groups = np.zeros(len(vals), dtype=np.intp)  # one group: the whole grid
    order = _priority_order(pxs, pys, groups, vals)
    points = np.stack([pxs, pys], axis=1)[order].astype(np.float64)
    keep = _suppress(points[:, 0], points[:, 1], groups, radius * _NMS_UPSCALE, max_candidates)
    positions = (points[keep] + 0.5) / _NMS_UPSCALE - 0.5  # back to grid scale
    return JointCandidates(positions=positions, values=vals[order][keep])


def render_gaussian(joints, grid_size: int) -> np.ndarray:
    """Unnormalized unit-sigma Gaussian bumps centered on (..., 2) (x, y)
    grid-coordinate joints: a (..., G, G) stack, one G x G grid per joint."""
    joints = np.asarray(joints, dtype=np.float64)
    cells = np.arange(grid_size)
    dx2 = (cells - joints[..., 0, None]) ** 2
    dy2 = (cells - joints[..., 1, None]) ** 2
    grids = dx2[..., None, :] + dy2[..., :, None]
    grids /= -2.0  # in place; rounds as -d2 / 2.0 does
    return np.exp(grids, out=grids)
