"""Hypervolume machinery.

Everything here uses the minimization convention: point ``a`` dominates ``b``
when ``a <= b`` componentwise with at least one strict inequality, and the
hypervolume of a set is the Lebesgue measure of the objective-space region
dominated by the set and bounded above by a reference point ``r``.

Provides non-dominated filtering, exact hypervolume (dimension sweeps for
2-D/3-D; for higher dimensions, slicing along the last objective down to the
3-D sweep), a direction-decomposed hypervolume approximation with its
subgradient, and the log hypervolume-difference convergence metric.

For three objectives the filter and the exact hypervolume run one loop, the
staircase sweep of Beume et al. (2009): a pass in sorted order over Python
float columns, with one bisection per point into two Python lists.
"""

from __future__ import annotations

import bisect
import itertools
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
    # Keep-mask of distinct NaN-free rows, O(n^2 m): among such rows, one
    # that is at most another in every objective dominates it.
    n = len(pts)
    dominated = np.zeros(n, dtype=bool)
    # Chunk the pairwise comparison to bound peak memory on large inputs.
    chunk = max(1, min(n, 2_000_000 // max(n, 1)))
    for start in range(0, n, chunk):
        block = pts[start : start + chunk]  # (c, m) candidates
        le = np.all(pts[:, None, :] <= block[None, :, :], axis=2)
        cols = np.arange(len(block))
        le[start + cols, cols] = False  # no row dominates itself
        dominated[start : start + chunk] = np.any(le, axis=0)
    return ~dominated


# The sweeps below take rows in lexicographic order. Any row that weakly
# dominates row i, an earlier copy included, then comes before it, so row i
# survives exactly when no earlier row is at most it in the other coordinates.


def _keep_2d(pts: np.ndarray) -> np.ndarray:
    # Running minimum of f2 over the earlier rows (Kung, Luccio & Preparata).
    f2 = pts[:, 1]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = f2[1:] < np.minimum.accumulate(f2[:-1])
    return keep


def _staircase_sweep(xcol: list, ycol: list, zcol: list, r, kept: list | None) -> float:
    # One pass over points given as columns, in order of non-decreasing z,
    # keeping the staircase of the (x, y) minima of the points so far (Beume
    # et al.): xs strictly increasing, ys strictly decreasing. A point that
    # some step weakly dominates is skipped; any other replaces the run of
    # steps it weakly dominates, a contiguous run from its own slot lo. The
    # staircase's area up to (r0, r1) changes by `gain`, and the volume adds
    # area * depth slabs up to r2. Appends each point's index to `kept`
    # (when given) if it is not skipped. r enters only the volume's
    # arithmetic, never which points are skipped.
    r0, r1, r2 = r
    xs: list[float] = []
    ys: list[float] = []
    area = 0.0
    volume = 0.0
    z_prev = zcol[0] if zcol else r2  # no points: no volume
    for i, x, y, z in zip(itertools.count(), xcol, ycol, zcol):
        lo = bisect.bisect_right(xs, x)
        if lo:
            if ys[lo - 1] <= y:
                continue  # weakly dominated in the (x, y) projection
            if xs[lo - 1] == x:
                lo -= 1
        if kept is not None:
            kept.append(i)
        if z > z_prev:
            volume += area * (z - z_prev)
            z_prev = z
        n = len(xs)
        end = lo
        while end < n and ys[end] >= y:
            end += 1
        gain = ((xs[end] if end < n else r0) - x) * (r1 - y)
        for j in range(lo, end):
            gain -= ((xs[j + 1] if j + 1 < n else r0) - xs[j]) * (r1 - ys[j])
        if lo:
            # The left neighbour's slab used to end at the run's first x (or
            # at the next step when the run is empty); it now ends at x.
            gain -= ((xs[lo] if lo < n else r0) - x) * (r1 - ys[lo - 1])
        if end == lo:
            xs.insert(lo, x)
            ys.insert(lo, y)
        else:
            xs[lo] = x
            ys[lo] = y
            if end > lo + 1:
                del xs[lo + 1 : end], ys[lo + 1 : end]
        area += gain
    volume += area * (r2 - z_prev)
    return volume


def _keep_3d(pts: np.ndarray) -> np.ndarray:
    # Staircase of the (f2, f3) minima of the earlier rows; the sweep's
    # volume is not needed, so its reference point is arbitrary.
    kept: list[int] = []
    _staircase_sweep(pts[:, 1].tolist(), pts[:, 2].tolist(), pts[:, 0].tolist(),
                     (0.0, 0.0, 0.0), kept)
    keep = np.zeros(len(pts), dtype=bool)
    keep[kept] = True
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

    The rows are sorted lexicographically and swept: a running minimum for
    m=2 in O(n log n); for m=3 the staircase loop that ``exact_hv`` also
    runs, with the (f2, f3) minima of the earlier rows in two Python lists
    searched by one bisection per row, so a row costs O(log n) comparisons
    plus the list shift of an insertion or deletion. Other m use the
    O(n^2 m) pairwise definition check. Every path returns the same array.
    """
    pts = _as_points(points)
    return _filter_rows(pts, _SWEEPS.get(pts.shape[1], _keep_pairwise))


def _hv_2d(pts: np.ndarray, r: np.ndarray) -> float:
    # pts: strictly inside the reference box; copies and dominated rows allowed.
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    pts = pts[_keep_2d(pts)]
    x_next = np.append(pts[1:, 0], r[0])
    return float(np.sum((x_next - pts[:, 0]) * (r[1] - pts[:, 1])))


def _hv_3d(pts: np.ndarray, r: np.ndarray) -> float:
    # Sweep along f3 with the (f1, f2) staircase; a skipped (dominated)
    # point never splits a slab. Python floats throughout: numpy scalars
    # make each step slow.
    pts = pts[np.argsort(pts[:, 2], kind="stable")]
    volume = _staircase_sweep(pts[:, 0].tolist(), pts[:, 1].tolist(), pts[:, 2].tolist(),
                              r.tolist(), None)
    # np.float64, as when r's numpy scalars made it one: the metrics CSV
    # writes hv cells by repr, and the stored digests hold `np.float64(...)`.
    return np.float64(volume)


def _hv_slices(pts: np.ndarray, r: np.ndarray) -> float:
    # HSO (While, Hingston, Barone & Huband 2006): each slab between distinct
    # f_m values, the last one ending at r_m, adds its depth times the (m-1)-D
    # volume of the rows at or below it, which skips dominated and repeated rows.
    pts = pts[np.argsort(pts[:, -1], kind="stable")]
    z = np.append(pts[:, -1], r[-1])
    lower = _hv_3d if len(r) == 4 else _hv_slices
    return float(sum((z[k + 1] - z[k]) * lower(pts[: k + 1, :-1], r[:-1])
                     for k in np.flatnonzero(np.diff(z))))


def exact_hv(points, ref) -> float:
    """Exact hypervolume of ``points`` bounded by the reference point ``ref``.

    Points not strictly dominating the reference point are dropped (their
    count is logged at debug level). An empty effective set has volume 0.

    The algorithm follows m: a sorted sweep for m=2 and a staircase sweep
    for m=3, both skipping dominated points; for m>=4, slices along f_m down
    to the 3-D sweep, each slab's depth times the volume of the points below.
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
    m = r.size
    if m == 1:
        return float(r[0] - pts.min())
    if m == 2:
        return _hv_2d(pts, r)
    if m == 3:
        return _hv_3d(pts, r)
    return _hv_slices(pts, r)


def _ratio_tensor(points, ref, dirs: DirectionSet) -> np.ndarray:
    """The ratios ``(r - p) / lambda``, objective-major: C-contiguous (m, n, D).

    Reduce over the leading objective axis: numpy reduces a short trailing
    axis (m = 2 or 3) one row at a time, but a leading one as m whole-array
    passes. Division, ``min`` and ``argmin`` are exact and ``argmin`` keeps
    the lowest index on ties, so the layout does not change any value.
    """
    pts = _as_points(points)
    if len(pts) == 0:
        raise ValueError("the R2 hypervolume approximation requires a non-empty point set")
    r = np.asarray(ref, dtype=float).reshape(-1)
    lam = np.ascontiguousarray(dirs.directions.T)  # (m, D)
    return (r[:, None] - pts.T)[:, :, None] / lam[:, None, :]


def r2_hv_approx(points, ref, dirs: DirectionSet) -> float:
    """Direction-decomposed hypervolume approximation.

    For each unit direction the projected distance to the attainment boundary
    is maximised over all points (no pre-filtering needed); the m-th powers of
    these lengths are summed and scaled by the direction-count constant.
    Negative lengths (points outside the reference box in every coordinate of
    some direction) are floored at zero so each term stays a volume.
    """
    ratios = _ratio_tensor(points, ref, dirs)  # (m, n, D)
    best = np.maximum(ratios.min(axis=0).max(axis=0), 0.0)  # (D,) projected lengths
    return float(dirs.c_m * np.sum(best ** ratios.shape[0]))


def r2_hv_subgradient(points, ref, dirs: DirectionSet) -> np.ndarray:
    """Subgradient of :func:`r2_hv_approx` with respect to each point.

    Each direction contributes only to the point attaining the maximum
    projected length and only at the coordinate attaining the inner minimum
    (ties broken toward the lowest point index / lowest coordinate). Points
    never selected receive exactly zero gradient.
    """
    ratios = _ratio_tensor(points, ref, dirs)  # (m, n, D)
    inner = ratios.min(axis=0)  # (n, D)
    winner = inner.argmax(axis=0)  # lowest index on ties
    d_idx = np.arange(dirs.directions.shape[0])
    s = inner[winner, d_idx]
    active = s > 0.0
    rows, d_idx, s = winner[active], d_idx[active], s[active]
    # Each active direction adds c_m m s^(m-1) (-1/lambda), in direction order.
    m, n, _ = ratios.shape
    coord = ratios[:, rows, d_idx].argmin(axis=0)
    contrib = dirs.c_m * m * s ** (m - 1) * (-1.0 / dirs.directions[d_idx, coord])
    grad = np.zeros((n, m))
    np.add.at(grad, (rows, coord), contrib)
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
