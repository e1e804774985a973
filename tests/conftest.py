"""Shared independent oracles for the test suite.

These implementations deliberately take the dumbest correct path (pairwise
definition checks, Monte Carlo volume, central differences) so they stay
independent of the library code they validate.
"""

import bisect

import numpy as np
import pytest

from pslearn import problems


def brute_force_nondominated(points: np.ndarray) -> np.ndarray:
    """O(n^2) definition-based non-dominated filter (duplicates collapsed)."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    keep = []
    for i in range(len(pts)):
        dominated = False
        for j in range(len(pts)):
            if i == j:
                continue
            if np.all(pts[j] <= pts[i]) and np.any(pts[j] < pts[i]):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return pts[keep]


def keep_pairwise_reference(pts: np.ndarray) -> np.ndarray:
    """Keep-mask of distinct rows by the two-tensor definition: row j is
    dropped when some row is at most it everywhere and below it somewhere."""
    n = len(pts)
    dominated = np.zeros(n, dtype=bool)
    chunk = max(1, min(n, 2_000_000 // max(n, 1)))
    for start in range(0, n, chunk):
        block = pts[start : start + chunk]
        le = np.all(pts[:, None, :] <= block[None, :, :], axis=2)
        lt = np.any(pts[:, None, :] < block[None, :, :], axis=2)
        dominated[start : start + chunk] = np.any(le & lt, axis=0)
    return ~dominated


def monte_carlo_hv(points, ref, n_samples: int, seed: int):
    """Dominated-volume estimate and its standard error.

    Samples uniformly in the box [componentwise min of points, ref] which
    contains the whole dominated region.
    """
    pts = np.asarray(points, dtype=float)
    r = np.asarray(ref, dtype=float)
    low = pts.min(axis=0)
    box = float(np.prod(r - low))
    rng = np.random.default_rng(seed)
    hits = 0
    chunk = 100_000
    remaining = n_samples
    while remaining > 0:
        take = min(chunk, remaining)
        q = rng.random((take, r.size)) * (r - low) + low
        dominated = np.zeros(take, dtype=bool)
        for p in pts:
            dominated |= np.all(p <= q, axis=1)
        hits += int(dominated.sum())
        remaining -= take
    frac = hits / n_samples
    stderr = box * np.sqrt(max(frac * (1.0 - frac), 1e-12) / n_samples)
    return frac * box, stderr


def _hv_wfg(pts: np.ndarray, r: np.ndarray) -> float:
    """Exact hypervolume by recursive exclusive volume, for any m and any
    point set strictly inside the box of r: the sum over points of their
    inclusive box volume minus the volume of the later points limited to
    that box."""
    total = 0.0
    for k in range(len(pts)):
        p = pts[k]
        incl = float(np.prod(r - p))
        rest = pts[k + 1 :]
        if len(rest) > 0:
            incl -= _hv_wfg(brute_force_nondominated(np.maximum(rest, p)), r)
        total += incl
    return total


# The 3-D staircase as a helper call per point, frozen from the package
# before its filter and hypervolume shared one inlined loop. The inlined loop
# must skip, keep and sum exactly as these do, down to the last bit.


def staircase_slot_reference(xs: list, ys: list, x: float, y: float):
    """None when a step of the staircase (xs strictly increasing, ys strictly
    decreasing) weakly dominates (x, y); otherwise the slice [lo, end) of the
    steps that (x, y) weakly dominates, which (x, y) replaces."""
    hi = bisect.bisect_right(xs, x)
    if hi > 0 and ys[hi - 1] <= y:
        return None
    lo = bisect.bisect_left(xs, x)
    end = lo
    while end < len(xs) and ys[end] >= y:
        end += 1
    return lo, end


def keep_3d_reference(pts: np.ndarray) -> np.ndarray:
    """Keep-mask of distinct NaN-free 3-column rows in lexicographic order."""
    keep = np.zeros(len(pts), dtype=bool)
    xs: list = []
    ys: list = []
    for i, (x, y) in enumerate(pts[:, 1:].tolist()):
        slot = staircase_slot_reference(xs, ys, x, y)
        if slot is None:
            continue
        keep[i] = True
        lo, end = slot
        xs[lo:end] = [x]
        ys[lo:end] = [y]
    return keep


def hv_3d_reference(pts: np.ndarray, r: np.ndarray):
    """Exact 3-D hypervolume of points strictly inside the box of r."""
    r0, r1, r2 = r.tolist()
    pts = pts[np.argsort(pts[:, 2], kind="stable")]
    xs: list = []
    ys: list = []
    area = 0.0
    volume = 0.0
    z_prev = float(pts[0, 2])
    for x, y, z in pts.tolist():
        slot = staircase_slot_reference(xs, ys, x, y)
        if slot is None:
            continue
        if z > z_prev:
            volume += area * (z - z_prev)
            z_prev = z
        lo, end = slot
        x_right = xs[end] if end < len(xs) else r0
        gain = (x_right - x) * (r1 - y)
        for j in range(lo, end):
            nxt = xs[j + 1] if j + 1 < len(xs) else r0
            gain -= (nxt - xs[j]) * (r1 - ys[j])
        if lo > 0:
            old_edge = xs[lo] if lo < len(xs) else r0
            gain -= (old_edge - x) * (r1 - ys[lo - 1])
        xs[lo:end] = [x]
        ys[lo:end] = [y]
        area += gain
    volume += area * (r2 - z_prev)
    return np.float64(volume)


def exact_hv_3d_reference(pts: np.ndarray, r: np.ndarray):
    """``exact_hv`` for m = 3 through :func:`hv_3d_reference`."""
    inside = pts[np.all(pts < r, axis=1)]
    return hv_3d_reference(inside, r) if len(inside) else 0.0


def central_difference_gradient(fn, x, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += eps
        lo[i] -= eps
        grad[i] = (fn(hi) - fn(lo)) / (2.0 * eps)
    return grad


def assert_close(actual, expected, rtol: float, atol: float = 1e-10, msg: str = ""):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=atol, err_msg=msg)


@pytest.fixture(autouse=True)
def _restore_problem_registry():
    # A problem a test registers leaves with it, so no later test lists it.
    saved = dict(problems._REGISTRY)
    yield
    problems._REGISTRY.clear()
    problems._REGISTRY.update(saved)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
