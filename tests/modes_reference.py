"""Reference candidate extraction: the straightforward batched mean shift.

Every trajectory takes every step through a full (2*ceil(b)+1)^2 pixel
patch, trajectories are merged by rounding, and greedy suppression is a
plain loop over the points in rank order. It is slow but easy to check by
eye, so the tests hold the production engine to it. The NMS baseline's
upsampling and peak test are held to scipy.ndimage, bit for bit.
"""

import numpy as np
from scipy import ndimage

CONVERGENCE_TOL = 1e-4
MAX_ITERATIONS = 100

# Trajectories whose points agree after rounding to this many decimals are
# merged. The rounding is far below the convergence threshold, but it does
# merge points that differ by up to 1e-8, not only identical ones.
DEDUP_DECIMALS = 8

PROBE_RADIUS = 0.5
PROBE_DIRECTIONS = np.array(
    [(np.cos(a), np.sin(a)) for a in np.arange(8) * (np.pi / 4.0)]
)


def window_patches(points, grids, joint_ids, bandwidth):
    """(nx, ny, weights) of the pixel patch around each point; weights are
    zero outside the grid and outside the kernel window."""
    _, h, w = grids.shape
    r = int(np.ceil(bandwidth))
    offs_y, offs_x = np.mgrid[-r : r + 1, -r : r + 1]
    base = np.floor(points).astype(int)
    nx = base[:, 0:1] + offs_x.ravel()[None, :]
    ny = base[:, 1:2] + offs_y.ravel()[None, :]
    valid = (nx >= 0) & (nx < w) & (ny >= 0) & (ny < h)
    weights = grids[joint_ids[:, None], ny.clip(0, h - 1), nx.clip(0, w - 1)]
    d2 = (nx - points[:, 0:1]) ** 2 + (ny - points[:, 1:2]) ** 2
    weights = weights * (valid & (d2 < bandwidth**2))
    return nx, ny, weights


def mean_shift_batch(points, grids, joint_ids, bandwidth):
    nx, ny, weights = window_patches(points, grids, joint_ids, bandwidth)
    totals = weights.sum(axis=1)
    mx = (weights * nx).sum(axis=1) / totals
    my = (weights * ny).sum(axis=1) / totals
    return np.stack([mx, my], axis=1)


def dedup(points, joint_ids):
    rows = np.column_stack([joint_ids, np.round(points, DEDUP_DECIMALS)])
    rows = np.unique(rows, axis=0)
    return rows[:, 1:], rows[:, 0].astype(np.intp)


def greedy_suppress(points, values, radius, limit):
    """Keep points in the given order, dropping any within radius of an
    already-kept point; stop after limit kept points."""
    alive = np.ones(len(points), dtype=bool)
    keep = []
    for i in range(len(points)):
        if not alive[i]:
            continue
        keep.append(i)
        if len(keep) == limit:
            break
        # every later point at once, with the same float operations per pair
        dx = points[i + 1 :, 0] - points[i, 0]
        dy = points[i + 1 :, 1] - points[i, 1]
        alive[i + 1 :] &= ~(dx * dx + dy * dy < radius * radius)
    keep = np.array(keep, dtype=np.intp)
    return points[keep], values[keep]


def shadow_values(points, grids, joint_ids, bandwidth):
    nx, ny, weights = window_patches(points, grids, joint_ids, bandwidth)
    d2 = (nx - points[:, 0:1]) ** 2 + (ny - points[:, 1:2]) ** 2
    return (weights * (bandwidth**2 - d2)).sum(axis=1)


def local_maximum_mask(points, grids, joint_ids, bandwidth):
    center = shadow_values(points, grids, joint_ids, bandwidth)
    probes = points[:, None, :] + PROBE_RADIUS * PROBE_DIRECTIONS[None]
    k = len(PROBE_DIRECTIONS)
    probe_vals = shadow_values(
        probes.reshape(-1, 2), grids, np.repeat(joint_ids, k), bandwidth
    ).reshape(-1, k)
    return np.all(probe_vals <= center[:, None] * (1.0 + 1e-9), axis=1)


def find_modes_volume(grids, bandwidth, max_candidates):
    """Per joint: (positions, values) of the modes, best first."""
    grids = np.asarray(grids, dtype=np.float64)
    m, h, w = grids.shape
    ys, xs = np.mgrid[0:h, 0:w]
    pixel_pos = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64)
    seeds, seed_ids = [], []
    for j in range(m):
        nz = grids[j].ravel() > 0
        seeds.append(pixel_pos[nz])
        seed_ids.append(np.full(int(nz.sum()), j, dtype=np.intp))
    active = np.concatenate(seeds)
    active_ids = np.concatenate(seed_ids)
    done_pts, done_ids = [], []
    for _ in range(MAX_ITERATIONS):
        shifted = mean_shift_batch(active, grids, active_ids, bandwidth)
        moved = np.linalg.norm(shifted - active, axis=1) >= CONVERGENCE_TOL
        if np.any(~moved):
            done_pts.append(shifted[~moved])
            done_ids.append(active_ids[~moved])
        active, active_ids = dedup(shifted[moved], active_ids[moved])
        if len(active) == 0:
            break
    if len(active):
        done_pts.append(active)
        done_ids.append(active_ids)
    points, ids = dedup(np.concatenate(done_pts), np.concatenate(done_ids))
    _, _, weights = window_patches(points, grids, ids, bandwidth)
    values = weights.sum(axis=1)

    out = []
    for j in range(m):
        sel = ids == j
        pts, vals = points[sel], values[sel]
        order = np.lexsort((pts[:, 0], pts[:, 1], -vals))
        kept, kept_vals = greedy_suppress(
            pts[order], vals[order], bandwidth / 2, max_candidates
        )
        is_max = local_maximum_mask(
            kept, grids, np.full(len(kept), j, dtype=np.intp), bandwidth
        )
        is_max[0] = True
        out.append((kept[is_max], kept_vals[is_max]))
    return out


def upsample(grid, upscale):
    """Bilinear upsampling of the NMS baseline at pixel-center aligned
    points, edge values held outside."""
    h, w = grid.shape
    yy, xx = np.mgrid[0 : h * upscale, 0 : w * upscale]
    coords = np.stack([(yy + 0.5) / upscale - 0.5, (xx + 0.5) / upscale - 0.5])
    return ndimage.map_coordinates(grid, coords, order=1, mode="nearest")


def peak_mask(up):
    """True where a positive value is at least the max of its 8 neighbors,
    with 0 outside the grid."""
    footprint = np.ones((3, 3), dtype=bool)
    footprint[1, 1] = False
    neighbor_max = ndimage.maximum_filter(up, footprint=footprint, mode="constant")
    return (up >= neighbor_max) & (up > 0)
