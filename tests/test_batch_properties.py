"""Property tests of the batch-native loss layer: each batched scalarization
against its own one-row calls, and the closed-form per-sample hypervolume
loss against the loop over singleton sets that it replaced."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pslearn.hv import r2_hv_approx, r2_hv_subgradient
from pslearn.sampling import das_dennis
from pslearn.scalarization import (
    IdealPoint,
    cosmos,
    hv_scalarization,
    modified_tchebycheff,
    tchebycheff,
    weighted_sum,
)
from pslearn.trainer import _hv_loss

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


def singleton_loop(y, r, dirs):
    """The per-sample loop the closed form replaced: each row its own set."""
    n = len(y)
    loss = 0.0
    grad = np.zeros_like(y)
    for i in range(n):
        loss -= r2_hv_approx(y[i : i + 1], r, dirs) / n
        grad[i] = -r2_hv_subgradient(y[i : i + 1], r, dirs)[0] / n
    return loss, grad


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_per_sample_hv_loss_equals_singleton_loop(data):
    y = data.draw(_batches(_OBJ)) / 2.0  # normalized-space scale, some rows outside r
    m = y.shape[1]
    dirs = das_dennis(m, data.draw(st.integers(1, 6)))
    r = np.full(m, 1.1)
    loss, grad = _hv_loss(y, r, dirs, batch_as_set=False)
    want_loss, want_grad = singleton_loop(y, r, dirs)
    assert repr(loss) == repr(want_loss)  # the bits, the sign of zero included
    assert np.array_equal(grad, want_grad)
