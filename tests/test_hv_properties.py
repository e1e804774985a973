"""Property tests of the sorted non-dominated filter against the pairwise
definition check and the brute-force oracle, of the one-comparison pairwise
mask against the two-tensor definition, of the exact hypervolume sweeps
against the filter-first path they replaced, of the slicing for m = 4 and 5
against the recursive exclusive-volume oracle, of the 3-D staircase loop
against its frozen per-point-helper version, of the objective-major R2
ratio tensor against the point-major layout it replaced, and of the R2
approximation's error against exact hypervolume: the bias of the default
direction lattice, and convergence for directions uniform in angle."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pslearn.hv import (
    _filter_rows,
    _hv_2d,
    _hv_3d,
    _keep_pairwise,
    exact_hv,
    nondominated_filter,
    r2_hv_approx,
    r2_hv_subgradient,
)
from pslearn import trainer
from pslearn.sampling import DirectionSet, das_dennis, default_divisions, r2_constant
from pslearn.trainer import TrainConfig, train

from conftest import (
    _hv_wfg,
    brute_force_nondominated,
    exact_hv_3d_reference,
    keep_3d_reference,
    keep_pairwise_reference,
)


def dense_filter(points):
    """The O(n^2 m) pairwise filter, the order-exact reference for any m."""
    return _filter_rows(np.asarray(points, dtype=float), keep_pairwise_reference)


# Small integers force duplicate rows and ties in single coordinates; the
# specials cover rows with +-inf and NaN.
_COORD = st.one_of(
    st.integers(0, 3).map(float),
    st.floats(-1.0, 1.0),
    st.sampled_from([np.inf, -np.inf, np.nan]),
)


def _point_sets(m):
    return st.integers(1, 30).flatmap(lambda n: arrays(float, (n, m), elements=_COORD))


@pytest.mark.parametrize("m", [2, 3])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_sweep_matches_dense_path_in_order(m, data):
    pts = data.draw(_point_sets(m))
    np.testing.assert_array_equal(nondominated_filter(pts), dense_filter(pts))


@pytest.mark.parametrize("m", [2, 3])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sweep_matches_brute_force_as_set(m, data):
    pts = data.draw(_point_sets(m))
    got = nondominated_filter(pts)
    np.testing.assert_array_equal(np.unique(got, axis=0), brute_force_nondominated(pts))


@pytest.mark.parametrize("filt", [nondominated_filter, dense_filter])
def test_nan_and_inf_rows(filt):
    # A NaN row is never dominated and dominates nothing; a lone
    # (x, inf) row survives.
    out = filt([[2, 2], [np.nan, 0], [1, 1]])
    np.testing.assert_array_equal(out, [[np.nan, 0], [1, 1]])
    out = filt([[1, np.inf], [0, np.nan]])
    np.testing.assert_array_equal(out, [[1, np.inf], [0, np.nan]])


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@settings(max_examples=75, deadline=None)
@given(data=st.data())
def test_one_comparison_pairwise_mask_equals_definition(m, data):
    # _filter_rows hands the mask distinct NaN-free rows, among which a row
    # at most another everywhere dominates it.
    pts = data.draw(_point_sets(m))
    if data.draw(st.booleans()):
        pts = np.concatenate([pts, pts[: len(pts) // 2 + 1]])  # duplicate rows
    np.testing.assert_array_equal(_filter_rows(pts, _keep_pairwise), dense_filter(pts))


def test_one_comparison_pairwise_mask_across_chunks():
    # 2,200 rows split the comparison into chunks, so the diagonal is masked
    # at an offset: points of the 4-D positive unit sphere, dominated copies
    # and duplicates.
    rng = np.random.default_rng(5)
    sphere = np.abs(rng.standard_normal((2000, 4)))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    pts = np.concatenate([sphere, sphere[:100] + 0.25, sphere[100:200]])
    pts = pts[rng.permutation(len(pts))]
    got = _filter_rows(pts, _keep_pairwise)
    np.testing.assert_array_equal(got, dense_filter(pts))
    assert len(got) == 2000


def filter_first_hv(pts, r):
    """``exact_hv`` for m = 2 or 3 as it was before its sweeps skipped
    dominated points: the sweep on the non-dominated in-box points."""
    inside = nondominated_filter(pts[np.all(pts < r, axis=1)])
    if len(inside) == 0:
        return 0.0
    return (_hv_2d if len(r) == 2 else _hv_3d)(inside, r)


# Quarter steps make ties in single coordinates and put points on or past
# the reference point r = 1; the floats make sums that round.
_HV_COORD = st.one_of(st.integers(0, 5).map(lambda k: k / 4.0), st.floats(0.0, 1.2))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_sweeps_skip_what_the_filter_drops(m, data):
    # The recursive oracle for m >= 4 grows steeply with the set size.
    pts = data.draw(st.integers(1, 25 if m < 4 else 10).flatmap(
        lambda n: arrays(float, (n, m), elements=_HV_COORD)))
    # Copies of some rows, shifted by steps >= 0: a zero shift is a duplicate
    # row and any other shift a dominated one. Then the rows are shuffled.
    k = data.draw(st.integers(0, len(pts)))
    shift = data.draw(arrays(float, (k, m), elements=st.sampled_from([0.0, 0.25, 0.5])))
    pts = np.concatenate([pts, pts[:k] + shift])
    pts = pts[data.draw(st.permutations(range(len(pts))))]
    r = np.ones(m)
    if m >= 4:
        # The slices sum in another order than the exclusive volumes.
        want = _hv_wfg(pts[np.all(pts < r, axis=1)], r)
        assert exact_hv(pts, r) == pytest.approx(want, rel=1e-12)
        return
    got, want = exact_hv(pts, r), filter_first_hv(pts, r)
    f3 = pts[np.all(pts < r, axis=1), -1]
    if m == 2 or len(np.unique(f3)) == len(f3):
        assert repr(got) == repr(want)
    else:
        # A point dominated by a later one with the same f3 is swept in
        # before it is replaced, so the area is summed in another order.
        assert got == pytest.approx(want, rel=1e-12)


# Sets of up to 400 rows, filled by numpy from a drawn seed: drawing each
# coordinate through hypothesis would cost tens of seconds per run.
@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 300), tie_frac=st.sampled_from([0.0, 0.5, 1.0]),
       copies=st.integers(0, 100), seed=st.integers(0, 2**32 - 1))
def test_staircase_loop_equals_frozen_reference(n, tie_frac, copies, seed):
    rng = np.random.default_rng(seed)
    # Quarter steps make ties in single coordinates and put points on or past
    # the reference point; the other coordinates are floats that round. Some
    # are negative, as normalized objectives below the front's minimum are.
    pts = np.where(rng.random((n, 3)) < tie_frac, rng.integers(-1, 6, (n, 3)) / 4.0,
                   rng.uniform(-0.25, 1.2, (n, 3)))
    # Duplicated rows (zero shift) and dominated ones (positive shifts),
    # then the rows are shuffled.
    k = min(copies, n)
    pts = np.concatenate([pts, pts[:k] + rng.choice([0.0, 0.25, 0.5], (k, 3))])
    pts = pts[rng.permutation(len(pts))]
    for r in (np.ones(3), np.full(3, 1.1)):
        got, want = exact_hv(pts, r), exact_hv_3d_reference(pts, r)
        assert type(got) is type(want)
        assert repr(got) == repr(want)
    np.testing.assert_array_equal(nondominated_filter(pts), _filter_rows(pts, keep_3d_reference))


@pytest.mark.parametrize("problem", ["dtlz5", "dtlz7"])
def test_staircase_loop_equals_frozen_reference_on_learned_sets(problem, monkeypatch):
    sets = []
    real_hv = trainer.exact_hv

    def capture(points, ref):
        sets.append((np.array(points), np.array(ref)))
        return real_hv(points, ref)

    monkeypatch.setattr(trainer, "exact_hv", capture)
    train(TrainConfig(problem=problem, algorithm="gpsl-g", iterations=60,
                      eval_interval=20, seed=0))
    assert len(sets) == 5  # the front and four evaluations of 1000 points
    for pts, r in sets:
        got, want = exact_hv(pts, r), exact_hv_3d_reference(pts, r)
        assert type(got) is type(want)
        assert repr(got) == repr(want)
        np.testing.assert_array_equal(nondominated_filter(pts),
                                      _filter_rows(pts, keep_3d_reference))


def point_major_r2(pts, r, dirs):
    """The (n, D, m) ratio layout reduced over its trailing axis, as the
    package computed it before: the R2 approximation and its subgradient."""
    m = pts.shape[1]
    ratios = (r - pts)[:, None, :] / dirs.directions[None, :, :]
    inner = ratios.min(axis=2)
    approx = float(dirs.c_m * np.sum(np.maximum(inner.max(axis=0), 0.0) ** m))

    winner = inner.argmax(axis=0)
    d_idx = np.arange(len(dirs))
    s = inner[winner, d_idx]
    coord = ratios[winner, d_idx, :].argmin(axis=1)
    subgrad = np.zeros_like(pts)
    active = s > 0.0
    if np.any(active):
        lam = dirs.directions[d_idx[active], coord[active]]
        contrib = dirs.c_m * m * s[active] ** (m - 1) * (-1.0 / lam)
        np.add.at(subgrad, (winner[active], coord[active]), contrib)
    return approx, subgrad


# Quarter steps put points on the reference point (r = 1 or 1.25), on each
# other and outside the box; infinities make -inf ratios.
_R2_COORD = st.one_of(
    st.integers(-4, 8).map(lambda k: k / 4.0),
    st.floats(-1.0, 2.0),
    st.sampled_from([np.inf, -np.inf]),
)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_objective_major_r2_equals_point_major_layout(data):
    m = data.draw(st.integers(2, 4))
    pts = data.draw(st.integers(1, 24).flatmap(
        lambda n: arrays(float, (n, m), elements=_R2_COORD)))
    if data.draw(st.booleans()):
        pts = np.concatenate([pts, pts[: len(pts) // 2 + 1]])  # duplicate rows
    dirs = das_dennis(m, data.draw(st.integers(1, 8)))
    r = np.full(m, data.draw(st.sampled_from([1.0, 1.1, 1.25])))
    approx, subgrad = point_major_r2(pts, r, dirs)
    assert repr(r2_hv_approx(pts, r, dirs)) == repr(approx)
    assert np.array_equal(r2_hv_subgradient(pts, r, dirs), subgrad, equal_nan=True)


# The R2 direction bias. The lattice that training uses spreads directions
# evenly on the simplex, not on the sphere, so the approximation over-counts
# near the axes and does not converge to the hypervolume; uniform angles do.
# The families are those of the README's table, scored at r = 1.1.
def convex_front_set(rng):
    """30 points on the convex front f2 = 1 - sqrt(f1)."""
    f1 = rng.random(30)
    return np.column_stack([f1, 1.0 - np.sqrt(f1)])


def sphere_set(rng):
    """60 points on the positive unit sphere, uniform in solid angle."""
    z = np.abs(rng.standard_normal((60, 3)))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def r2_relative_error(pts, dirs):
    r = np.full(pts.shape[1], 1.1)
    exact = exact_hv(pts, r)
    return (r2_hv_approx(pts, r, dirs) - exact) / exact


# (m, point family, per-set band, band of the mean over seeds 0..199). The
# sets of 100,000 (m = 2) and 40,000 (m = 3) seeds fell in [-0.84%, +3.8%]
# and [+5.1%, +13.0%]; the 200-seed means were +1.31% and +9.21%.
LATTICE_BIAS = [
    (2, convex_front_set, (-0.02, 0.05), (0.012, 0.014)),
    (3, sphere_set, (0.04, 0.15), (0.09, 0.095)),
]


@pytest.mark.parametrize("m, family, band, _", LATTICE_BIAS, ids=["m2", "m3"])
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_default_lattice_r2_error_stays_in_its_band(m, family, band, _, seed):
    dirs = das_dennis(m, default_divisions(m))
    error = r2_relative_error(family(np.random.default_rng(seed)), dirs)
    assert band[0] < error < band[1]


@pytest.mark.parametrize("m, family, _, band", LATTICE_BIAS, ids=["m2", "m3"])
def test_default_lattice_r2_overestimates_on_average(m, family, _, band):
    dirs = das_dennis(m, default_divisions(m))
    errors = [r2_relative_error(family(np.random.default_rng(seed)), dirs)
              for seed in range(200)]
    assert band[0] < np.mean(errors) < band[1]


def uniform_angle_directions(n):
    """n directions at the midpoints of n equal angles of the quarter circle."""
    angles = (np.arange(n) + 0.5) * (np.pi / 2 / n)
    directions = np.column_stack([np.cos(angles), np.sin(angles)])
    return DirectionSet(directions=directions, c_m=r2_constant(2, n), divisions=n)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_uniform_angle_r2_converges_to_exact_hv(seed):
    # Over 20,000 seeds |error| * n^2 peaked at 10.4, 15.8 and 18.7 for
    # n = 100, 1,000 and 10,000.
    pts = convex_front_set(np.random.default_rng(seed))
    for n in (100, 1_000, 10_000):
        assert abs(r2_relative_error(pts, uniform_angle_directions(n))) < 50 / n**2
