"""Property tests of the batch-native loss layer: each batched scalarization
against its own one-row calls, the Tchebycheff losses against the
ideal-point formula they replaced, the evaluation's front normalizer
against the inline min-max arithmetic it replaced, and the running range
against its formula."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pslearn.hv import exact_hv
from pslearn.problems import ParetoFrontData
from pslearn.scalarization import (
    PREFERENCE_CLAMP,
    cosmos,
    hv_scalarization,
    modified_tchebycheff,
    tchebycheff,
    weighted_sum,
)
from pslearn.trainer import MIN_RANGE, _normalized_front, _RunningExtremes

# Quarter steps force ties at the max/min operators and zero rows; the
# floats cover the general case.
_OBJ = st.one_of(st.integers(-4, 8).map(lambda k: k / 4.0), st.floats(-2.0, 3.0))
_PREF = st.one_of(st.sampled_from([0.0, 0.25, 0.5]), st.floats(0.0, 1.0))


def _batches(elements):
    return st.tuples(st.integers(1, 12), st.integers(2, 4)).flatmap(
        lambda shape: arrays(float, shape, elements=elements)
    )


def _scalarizations(z, eps, gamma, ref):
    # The Tchebycheff losses measure f from the ideal point z.
    return {
        "weighted_sum": lambda f, p: weighted_sum(f, p),
        "tchebycheff": lambda f, p: tchebycheff(f - z, p, eps),
        "modified_tchebycheff": lambda f, p: modified_tchebycheff(f - z, p, eps),
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


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_tchebycheff_equals_ideal_point_formula(data):
    # The losses once took an ideal point z, always the origin in training,
    # and measured from z - eps. They now add eps: the same bits, except
    # that at eps = 0 an objective of -0.0 gives a +0.0 term where the old
    # formula gave -0.0 (the trainer's batch mean, summed from 0.0, cannot
    # tell the two apart).
    f = data.draw(_batches(_OBJ))
    n, m = f.shape
    p = data.draw(arrays(float, (n, m), elements=_PREF))
    eps = data.draw(st.one_of(st.sampled_from([0.0, 0.1]), st.floats(0.0, 10.0)))
    clamped = np.maximum(p, PREFERENCE_CLAMP)
    for fi, pi, ci in ((f, p, clamped), (f[0], p[0], clamped[0])):  # batch, one vector
        for fn, terms, slope in (
            (tchebycheff, pi * (fi - (np.zeros(m) - eps)), pi),
            (modified_tchebycheff, (fi - (np.zeros(m) - eps)) / ci, 1.0 / ci),
        ):
            value, grad = fn(fi, pi, eps)
            i_star = np.argmax(terms, axis=-1)[..., None]
            want = np.take_along_axis(terms, i_star, axis=-1)[..., 0]
            if eps == 0.0:
                value, want = value + 0.0, want + 0.0  # -0.0 + 0.0 is +0.0
            assert value.tobytes() == want.tobytes(), fn.__name__
            want_grad = np.where(np.arange(m) == i_star, slope, 0.0)
            assert grad.tobytes() == want_grad.tobytes(), fn.__name__


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


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_running_range_equals_its_formula(data):
    # Non-finite rows included: the stored range must stay the formula's bits.
    m = data.draw(st.integers(1, 4))
    rows = st.one_of(_OBJ, st.sampled_from([np.nan, np.inf, -np.inf]))
    batches = data.draw(st.lists(arrays(float, st.tuples(st.integers(1, 6), st.just(m)),
                                        elements=rows), max_size=5))
    extremes = _RunningExtremes(m)

    def formula_bits():
        return np.maximum(extremes.high - extremes.low, MIN_RANGE).tobytes()

    with np.errstate(invalid="ignore"):
        assert extremes.range.tobytes() == formula_bits()
        for batch in batches:
            extremes.update(batch)
            assert extremes.range.tobytes() == formula_bits()
