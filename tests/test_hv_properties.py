"""Property tests of the sorted non-dominated filter against the pairwise
definition check and the brute-force oracle."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pslearn.hv import _filter_rows, _keep_pairwise, nondominated_filter

from conftest import brute_force_nondominated


def dense_filter(points):
    """The O(n^2 m) pairwise filter, the order-exact reference for any m."""
    return _filter_rows(np.asarray(points, dtype=float), _keep_pairwise)


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
