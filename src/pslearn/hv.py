"""Hypervolume machinery.

Everything here uses the minimization convention: point ``a`` dominates ``b``
when ``a <= b`` componentwise with at least one strict inequality, and the
hypervolume of a set is the Lebesgue measure of the objective-space region
dominated by the set and bounded above by a reference point ``r``.

Provides non-dominated filtering, exact hypervolume (dimension sweeps for
2-D/3-D, recursive exclusive-volume computation for higher dimensions), a
direction-decomposed hypervolume approximation with its subgradient, and the
log hypervolume-difference convergence metric.
"""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass

import numpy as np

from .sampling import DirectionSet

logger = logging.getLogger(__name__)

__all__ = [
    "HvReport",
    "nondominated_filter",
    "exact_hv",
    "r2_hv_approx",
    "r2_hv_subgradient",
    "log_hv_difference",
]


@dataclass(frozen=True)
class HvReport:
    """Hypervolume comparison between a reference front and a learned front."""

    hv_true: float
    hv_learned: float
    log_hv_difference: float
    epsilon_log: float


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError(
            f"expected a 2-D array of points, got array with ndim={pts.ndim}"
        )
    return pts


def _keep_pairwise(pts: np.ndarray) -> np.ndarray:
    # Keep-mask of distinct rows, by the definition: O(n^2 m).
    n = len(pts)
    dominated = np.zeros(n, dtype=bool)
    # Chunk the pairwise comparison to bound peak memory on large inputs.
    chunk = max(1, min(n, 2_000_000 // max(n, 1)))
    for start in range(0, n, chunk):
        block = pts[start : start + chunk]  # (c, m) candidates
        le = np.all(pts[:, None, :] <= block[None, :, :], axis=2)
        lt = np.any(pts[:, None, :] < block[None, :, :], axis=2)
        dominated[start : start + chunk] = np.any(le & lt, axis=0)
    return ~dominated


# The sweeps below take distinct rows in lexicographic order. Any row that
# dominates row i then comes before it, so row i survives exactly when no
# earlier row is at most it in the remaining coordinates.


def _keep_2d(pts: np.ndarray) -> np.ndarray:
    # Running minimum of f2 over the earlier rows (Kung, Luccio & Preparata).
    f2 = pts[:, 1]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = f2[1:] < np.minimum.accumulate(f2[:-1])
    return keep


def _staircase_slot(xs: list, ys: list, x: float, y: float):
    # Staircase: xs strictly increasing, ys strictly decreasing. Returns None
    # when some step weakly dominates (x, y); otherwise the slice [lo, end)
    # of the steps that (x, y) weakly dominates, a contiguous run from lo,
    # which (x, y) replaces.
    hi = bisect.bisect_right(xs, x)
    if hi > 0 and ys[hi - 1] <= y:
        return None
    lo = bisect.bisect_left(xs, x)
    end = lo
    while end < len(xs) and ys[end] >= y:
        end += 1
    return lo, end


def _keep_3d(pts: np.ndarray) -> np.ndarray:
    # Staircase of the (f2, f3) minima of the earlier rows (Beume et al.).
    keep = np.zeros(len(pts), dtype=bool)
    xs: list[float] = []
    ys: list[float] = []
    for i, (x, y) in enumerate(pts[:, 1:].tolist()):
        slot = _staircase_slot(xs, ys, x, y)
        if slot is None:
            continue
        keep[i] = True
        lo, end = slot
        xs[lo:end] = [x]
        ys[lo:end] = [y]
    return keep


_SWEEPS = {2: _keep_2d, 3: _keep_3d}


def _filter_rows(pts: np.ndarray, keep_mask) -> np.ndarray:
    # Non-dominated rows of pts, in input order, first copy of duplicates.
    # keep_mask maps distinct NaN-free rows in lexicographic order to the
    # mask of the non-dominated ones.
    if len(pts) == 0:
        return pts
    uniq, first = np.unique(pts, axis=0, return_index=True)
    keep = np.ones(len(uniq), dtype=bool)
    valid = ~np.isnan(uniq).any(axis=1)
    keep[valid] = keep_mask(uniq[valid])
    return pts[np.sort(first[keep])]


def nondominated_filter(points) -> np.ndarray:
    """Return exactly the points not dominated by any other point.

    Duplicate rows collapse to a single copy. Input order of the surviving
    points is preserved (first occurrence wins for duplicates). Rows
    containing NaN are all kept: such a row is never dominated, dominates
    nothing and equals no other row.

    The rows are sorted lexicographically and swept in O(n log n): a running
    minimum for m=2, a 2-D staircase searched by bisection for m=3 (a Python
    list, so an insertion also shifts up to n references). Other m use the
    O(n^2 m) pairwise definition check. Every path returns the same array.
    """
    pts = _as_points(points)
    return _filter_rows(pts, _SWEEPS.get(pts.shape[1], _keep_pairwise))


def _hv_2d(pts: np.ndarray, r: np.ndarray) -> float:
    # pts: mutually non-dominated, all strictly inside the reference box.
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    x_next = np.append(pts[1:, 0], r[0])
    return float(np.sum((x_next - pts[:, 0]) * (r[1] - pts[:, 1])))


def _hv_3d(pts: np.ndarray, r: np.ndarray) -> float:
    # Sweep along the third objective, maintaining the 2-D staircase of the
    # points seen so far and accumulating area * depth slabs.
    order = np.argsort(pts[:, 2], kind="stable")
    pts = pts[order]
    xs: list[float] = []  # staircase x, strictly increasing
    ys: list[float] = []  # staircase y, strictly decreasing
    area = 0.0
    volume = 0.0
    z_prev = float(pts[0, 2])
    for x, y, z in pts:
        x, y, z = float(x), float(y), float(z)
        if z > z_prev:
            volume += area * (z - z_prev)
            z_prev = z
        slot = _staircase_slot(xs, ys, x, y)
        if slot is None:
            continue  # weakly dominated in the (f1, f2) projection
        lo, end = slot
        x_right = xs[end] if end < len(xs) else r[0]
        gain = (x_right - x) * (r[1] - y)
        for j in range(lo, end):
            nxt = xs[j + 1] if j + 1 < len(xs) else r[0]
            gain -= (nxt - xs[j]) * (r[1] - ys[j])
        if lo > 0:
            # The left neighbour's slab used to end at the run's first x (or
            # at x_right when the run is empty); it now ends at x.
            old_edge = xs[lo] if lo < len(xs) else r[0]
            gain -= (old_edge - x) * (r[1] - ys[lo - 1])
        xs[lo:end] = [x]
        ys[lo:end] = [y]
        area += gain
    volume += area * (r[2] - z_prev)
    return volume


def _hv_wfg(pts: np.ndarray, r: np.ndarray) -> float:
    # Recursive exclusive-volume computation: the volume of a set is the sum
    # over points of (inclusive box volume minus the volume of the remaining
    # points limited to that box).
    total = 0.0
    for k in range(len(pts)):
        p = pts[k]
        incl = float(np.prod(r - p))
        rest = pts[k + 1 :]
        if len(rest) > 0:
            limited = nondominated_filter(np.maximum(rest, p))
            incl -= _hv_wfg(limited, r)
        total += incl
    return total


def exact_hv(points, ref, method: str = "auto") -> float:
    """Exact hypervolume of ``points`` bounded by the reference point ``ref``.

    Points not strictly dominating the reference point are dropped (their
    count is logged at debug level). An empty effective set has volume 0.

    ``method`` selects the algorithm: ``"auto"`` uses a sorted sweep for m=2,
    a staircase sweep for m=3 and the recursive exclusive-volume algorithm
    otherwise; ``"wfg"`` forces the recursive algorithm for any m >= 2.
    """
    pts = _as_points(points)
    r = np.asarray(ref, dtype=float).reshape(-1)
    if pts.shape[0] and pts.shape[1] != r.size:
        raise ValueError(
            f"points have {pts.shape[1]} objectives but reference point has {r.size}"
        )
    if len(pts) == 0:
        return 0.0
    inside = np.all(pts < r, axis=1)
    n_dropped = int(len(pts) - inside.sum())
    if n_dropped:
        logger.debug("exact_hv: dropped %d point(s) outside the reference box", n_dropped)
    pts = pts[inside]
    if len(pts) == 0:
        return 0.0
    pts = nondominated_filter(pts)
    m = r.size
    if method == "wfg":
        return _hv_wfg(pts, r)
    if method != "auto":
        raise ValueError(f"unknown method {method!r}, expected 'auto' or 'wfg'")
    if m == 1:
        return float(r[0] - pts[:, 0].min())
    if m == 2:
        return _hv_2d(pts, r)
    if m == 3:
        return _hv_3d(pts, r)
    return _hv_wfg(pts, r)


def _projection_lengths(pts: np.ndarray, r: np.ndarray, dirs: DirectionSet) -> np.ndarray:
    """Per-direction projected distances: shape (n_points, n_directions)."""
    diffs = r[None, :] - pts  # (n, m)
    ratios = diffs[:, None, :] / dirs.directions[None, :, :]  # (n, D, m)
    return ratios.min(axis=2)


def r2_hv_approx(points, ref, dirs: DirectionSet) -> float:
    """Direction-decomposed hypervolume approximation.

    For each unit direction the projected distance to the attainment boundary
    is maximised over all points (no pre-filtering needed); the m-th powers of
    these lengths are summed and scaled by the direction-count constant.
    Negative lengths (points outside the reference box in every coordinate of
    some direction) are floored at zero so each term stays a volume.
    """
    pts = _as_points(points)
    if len(pts) == 0:
        raise ValueError("r2_hv_approx requires a non-empty point set")
    r = np.asarray(ref, dtype=float).reshape(-1)
    m = r.size
    inner = _projection_lengths(pts, r, dirs)
    best = np.maximum(inner.max(axis=0), 0.0)
    return float(dirs.c_m * np.sum(best**m))


def r2_hv_subgradient(points, ref, dirs: DirectionSet) -> np.ndarray:
    """Subgradient of :func:`r2_hv_approx` with respect to each point.

    Each direction contributes only to the point attaining the maximum
    projected length and only at the coordinate attaining the inner minimum
    (ties broken toward the lowest point index / lowest coordinate). Points
    never selected receive exactly zero gradient.
    """
    pts = _as_points(points)
    r = np.asarray(ref, dtype=float).reshape(-1)
    m = r.size
    diffs = r[None, :] - pts
    ratios = diffs[:, None, :] / dirs.directions[None, :, :]
    inner = ratios.min(axis=2)  # (n, D)
    winner = inner.argmax(axis=0)  # lowest index on ties
    d_idx = np.arange(dirs.directions.shape[0])
    s = inner[winner, d_idx]
    coord = ratios[winner, d_idx, :].argmin(axis=1)  # lowest coordinate on ties
    grad = np.zeros_like(pts)
    active = s > 0.0
    if np.any(active):
        lam = dirs.directions[d_idx[active], coord[active]]
        contrib = dirs.c_m * m * s[active] ** (m - 1) * (-1.0 / lam)
        np.add.at(grad, (winner[active], coord[active]), contrib)
    return grad


def log_hv_difference(hv_true: float, hv_learned: float, epsilon_log: float = 0.0) -> float:
    """Natural log of ``hv_true + epsilon_log - hv_learned``.

    Raises ``ValueError`` when the argument is not positive, which signals
    that the learned front's hypervolume exceeded the reference front's by
    more than ``epsilon_log``.
    """
    diff = hv_true + epsilon_log - hv_learned
    if diff <= 0.0:
        raise ValueError(
            "log HV difference undefined: learned hypervolume "
            f"{hv_learned!r} exceeds reference hypervolume {hv_true!r} "
            f"beyond epsilon {epsilon_log!r}"
        )
    return math.log(diff)
