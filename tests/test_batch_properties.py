"""Property tests of the batch-native loss layer: each batched scalarization
against its own one-row calls, and the evaluation's front normalizer against
the inline min-max arithmetic it replaced."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pslearn.hv import exact_hv
from pslearn.problems import ParetoFrontData
from pslearn.scalarization import (
    IdealPoint,
    cosmos,
    hv_scalarization,
    modified_tchebycheff,
    tchebycheff,
    weighted_sum,
)
from pslearn.trainer import MIN_RANGE, _normalized_front

# Quarter steps force ties at the max/min operators and zero rows; the
# floats cover the general case.
_OBJ = st.one_of(st.integers(-4, 8).map(lambda k: k / 4.0), st.floats(-2.0, 3.0))
_PREF = st.one_of(st.sampled_from([0.0, 0.25, 0.5]), st.floats(0.0, 1.0))


def _batches(elements):
    return st.tuples(st.integers(1, 12), st.integers(2, 4)).flatmap(
        lambda shape: arrays(float, shape, elements=elements)
    )


def _scalarizations(z, eps, gamma, ref):
    ideal = IdealPoint(z=z, epsilon=eps)
    return {
        "weighted_sum": lambda f, p: weighted_sum(f, p),
        "tchebycheff": lambda f, p: tchebycheff(f, p, ideal),
        "modified_tchebycheff": lambda f, p: modified_tchebycheff(f, p, ideal),
        "cosmos": lambda f, p: cosmos(f, p, gamma),
        "hv_scalarization": lambda f, p: hv_scalarization(f, p, ref),
    }


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_batched_scalarizations_equal_their_row_calls(data):
    f = data.draw(_batches(_OBJ))
    n, m = f.shape
    p = data.draw(arrays(float, (n, m), elements=_PREF))
    z = data.draw(arrays(float, (m,), elements=_OBJ))
    eps = data.draw(st.sampled_from([0.0, 0.1]))
    gamma = data.draw(st.sampled_from([0.0, 1.0, 2.5]))
    ref = np.full(m, data.draw(st.sampled_from([1.1, 2.0])))
    for name, fn in _scalarizations(z, eps, gamma, ref).items():
        batched = fn(f, p)
        for i in range(n):
            for got, want in zip(batched, fn(f[i], p[i])):
                assert np.array_equal(got[i], want, equal_nan=True), (name, i)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_front_normalizer_equals_inline_min_max(data):
    n = data.draw(st.integers(1, 8))  # single-row fronts included
    m = data.draw(st.integers(2, 4))
    pts = data.draw(arrays(float, (n, m), elements=st.floats(-1e3, 1e3)))
    # A column that is constant, or spans less than MIN_RANGE.
    col = data.draw(st.integers(0, m - 1))
    steps = data.draw(arrays(float, (n,), elements=st.sampled_from([0.0, 1e-13, 3e-13])))
    if data.draw(st.booleans()):
        pts[:, col] = pts[0, col] + steps
    outputs = data.draw(arrays(float, (data.draw(st.integers(1, 8)), m),
                               elements=st.floats(-2e3, 2e3)))
    extremes, r, hv_true = _normalized_front(ParetoFrontData(points=pts, source="file"), 1.1)
    f_min = pts.min(axis=0)
    f_range = np.maximum(pts.max(axis=0) - f_min, MIN_RANGE)
    for y in (pts, outputs):
        assert np.array_equal(extremes.normalize(y), (y - f_min) / f_range)
    assert repr(hv_true) == repr(exact_hv((pts - f_min) / f_range, r))
