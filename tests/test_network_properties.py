"""Property tests of the network: the output sigmoid, written fresh or over its
input, against the masked form, the training :func:`forward` and the pooled
evaluation forward against the per-layer forward that ``conftest`` keeps as
the oracle, the flat gradient of :func:`backward` against a per-layer
backward kept here as the oracle, and the flat-vector Adam update: several
steps, in place, against a per-layer Adam kept here as the oracle, the layer
named by a non-finite gradient, which changes nothing, exact checkpoint
round-trips of the three flat arrays, and copies whose layers stay views of
their own vector."""

import copy
import math
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import forward_reference, masked_sigmoid
from pslearn import network as net
from pslearn.problems import get_problem, pareto_front
from pslearn.trainer import TrainConfig, TrainingDiverged, _train_loop

# Zeros and repeated values alongside general floats.
_GRAD = st.one_of(st.sampled_from([0.0, -1.0, 1e-3]), st.floats(-1e3, 1e3))


_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0, 745.2, -745.2,
          36.8, -36.8, 1e-300, -1e-300, 5e-324, -5e-324]


@settings(max_examples=300, deadline=None)
@example(z=np.array([_EDGES]))
@given(z=arrays(float, st.tuples(st.integers(1, 8), st.integers(1, 8)),
                elements=st.one_of(st.sampled_from(_EDGES),
                                   st.floats(allow_nan=True, allow_infinity=True))))
def test_sigmoid_bits_equal_masked_oracle(z):
    want, fresh, in_place = masked_sigmoid(z), net._sigmoid(z), z.copy()
    assert net._sigmoid(in_place, out=in_place, scratch=np.empty_like(z)) is in_place
    # A NaN input gives NaN on both sides; only its sign bit may differ.
    nan = np.isnan(want)
    for got in (fresh, in_place):
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def bits_equal(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.uint64),
                                                      want.view(np.uint64))


# A model, a batch and bounds: large gains saturate the output sigmoid.
_MODEL = dict(sizes=st.lists(st.integers(1, 70), min_size=2, max_size=4).map(tuple),
              n=st.integers(1, 1200), seed=st.integers(0, 2**16),
              offset=st.floats(-1e3, 1e3), scale=st.floats(1e-3, 1e3),
              lb=st.floats(-1e6, 1e6), span=st.floats(1e-6, 1e8),
              gain=st.sampled_from([1.0, 1e2, 1e4]))


def drawn_model(sizes, n, seed, offset, scale, lb, span, gain):
    rng = np.random.default_rng(seed)
    k, d = sizes[0], sizes[-1]
    params = net.init_network(sizes, seed, input_offset=offset + rng.normal(size=k),
                              input_scale=scale * rng.uniform(0.5, 2.0, size=k))
    params.flat *= gain
    v = offset + scale * rng.normal(size=(n, k))
    lbs = lb + rng.uniform(-1.0, 1.0, size=d)
    return params, v, lbs, lbs + span * rng.uniform(0.5, 1.0, size=d)


@settings(max_examples=100, deadline=None)
@given(**_MODEL)
def test_forward_bits_equal_oracle(**model):
    params, v, lbs, ubs = drawn_model(**model)
    got, cache = net.forward(params, v, lbs, ubs)
    want, oracle = forward_reference(params, v, lbs, ubs)
    assert bits_equal(got, want)
    assert bits_equal(cache["sigmoid"], oracle["sigmoid"])
    assert len(cache["activations"]) == len(params.layer_sizes) - 1
    assert all(bits_equal(a, b) for a, b in zip(cache["activations"], oracle["activations"]))


@settings(max_examples=150, deadline=None)
@given(**_MODEL,
       other_sizes=st.lists(st.integers(1, 70), min_size=2, max_size=4).map(tuple),
       other_n=st.integers(1, 1200))
def test_predict_bits_equal_forward(other_sizes, other_n, **model):
    # Score another model first, so this thread's vector holds another layout.
    rng = np.random.default_rng(model["seed"] + 1)
    other = net.init_network(other_sizes, model["seed"] + 1)
    net._predict(other, rng.normal(size=(other_n, other_sizes[0])),
                 np.zeros(other_sizes[-1]), np.ones(other_sizes[-1]))
    params, v, lbs, ubs = drawn_model(**model)
    assert bits_equal(net._predict(params, v, lbs, ubs), forward_reference(params, v, lbs, ubs)[0])


def per_layer_backward(params, cache, upstream):
    """Backprop layer by layer into lists of arrays, as the package did it before."""
    sig = cache["sigmoid"]
    delta = upstream * cache["span"] * sig * (1.0 - sig)
    grad_w, grad_b = [None] * params.n_layers(), [None] * params.n_layers()
    for layer in range(params.n_layers() - 1, -1, -1):
        grad_w[layer] = delta.T @ cache["activations"][layer]
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ params.weights[layer]) * (cache["activations"][layer] > 0.0)
    return grad_w, grad_b


@settings(max_examples=100, deadline=None)
@given(sizes=st.lists(st.integers(1, 40), min_size=2, max_size=4).map(tuple),
       n=st.integers(1, 70), seed=st.integers(0, 2**16))
def test_flat_backward_bits_equal_per_layer_oracle(sizes, n, seed):
    rng = np.random.default_rng(seed)
    params = net.init_network(sizes, seed)
    lb = rng.uniform(-2.0, 0.0, size=sizes[-1])
    _, cache = net.forward(params, rng.normal(size=(n, sizes[0])), lb, lb + 3.0)
    upstream = rng.normal(size=(n, sizes[-1]))
    got = net.backward(params, cache, upstream)
    want = flat(*per_layer_backward(params, cache, upstream))
    assert got.shape == params.flat.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def per_layer_adam(weights, biases, grads, state):
    """Adam layer by layer on lists of arrays, as the package did it before."""
    (grad_w, grad_b), (m_w, v_w, m_b, v_b, t) = grads, state
    t += 1
    b1, b2, lr, eps = 0.9, 0.999, 1e-3, 1e-8
    corr1, corr2 = 1.0 - b1**t, 1.0 - b2**t

    def update(theta, g, m, v):
        m_new = b1 * m + (1.0 - b1) * g
        v_new = b2 * v + (1.0 - b2) * g**2
        return theta - lr * (m_new / corr1) / (np.sqrt(v_new / corr2) + eps), m_new, v_new

    w_out, b_out, state_out = [], [], ([], [], [], [], t)
    for layer in range(len(weights)):
        w, mw, vw = update(weights[layer], grad_w[layer], m_w[layer], v_w[layer])
        b, mb, vb = update(biases[layer], grad_b[layer], m_b[layer], v_b[layer])
        w_out.append(w)
        b_out.append(b)
        for acc, value in zip(state_out, (mw, vw, mb, vb)):
            acc.append(value)
    return w_out, b_out, state_out


def layer_sizes():
    return st.lists(st.integers(1, 6), min_size=2, max_size=4).map(tuple)


def draw_grads(data, params, elements=_GRAD):
    return (
        [data.draw(arrays(float, w.shape, elements=elements)) for w in params.weights],
        [data.draw(arrays(float, b.shape, elements=elements)) for b in params.biases],
    )


def flat(arrays_w, arrays_b):
    return np.concatenate([a.ravel() for pair in zip(arrays_w, arrays_b) for a in pair])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), sizes=layer_sizes(), seed=st.integers(0, 2**16))
def test_flat_adam_steps_equal_per_layer_oracle(data, sizes, seed):
    params = net.init_network(sizes, seed)
    state = net.init_adam(params)
    weights = [w.copy() for w in params.weights]
    biases = [b.copy() for b in params.biases]
    oracle_state = ([np.zeros_like(w) for w in weights], [np.zeros_like(w) for w in weights],
                    [np.zeros_like(b) for b in biases], [np.zeros_like(b) for b in biases], 0)
    objects = (params.flat, *params.weights, *params.biases, state.m, state.v)
    for _ in range(data.draw(st.integers(1, 4))):
        grads = draw_grads(data, params)
        assert net.adam_step(params, flat(*grads), state) is None
        # The same objects, updated in place: the layers stay views of flat.
        assert all(a is b for a, b in zip(
            (params.flat, *params.weights, *params.biases, state.m, state.v), objects))
        assert all(np.shares_memory(a, params.flat) for a in params.weights + params.biases)
        weights, biases, oracle_state = per_layer_adam(weights, biases, grads, oracle_state)
        m_w, v_w, m_b, v_b, t = oracle_state
        assert np.array_equal(params.flat, flat(weights, biases))
        assert np.array_equal(state.m, flat(m_w, m_b))
        assert np.array_equal(state.v, flat(v_w, v_b))
        assert state.t == t
        for got, want in zip(params.weights + params.biases, weights + biases):
            assert np.array_equal(got, want)


def _poisoned(data, params):
    """Finite per-layer gradients with one NaN or infinity, and the layer it
    is in."""
    grads = draw_grads(data, params, elements=st.floats(-1.0, 1.0))
    layer = data.draw(st.integers(0, params.n_layers() - 1))
    target = grads[data.draw(st.integers(0, 1))][layer]
    index = data.draw(st.integers(0, target.size - 1))
    target.reshape(-1)[index] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return grads, layer


@settings(max_examples=200, deadline=None)
@given(data=st.data(), sizes=layer_sizes(), steps=st.integers(0, 2))
def test_nonfinite_gradient_names_its_layer(data, sizes, steps):
    params = net.init_network(sizes, 0)
    state = net.init_adam(params)
    for _ in range(steps):  # moments that a write would visibly change
        net.adam_step(params, flat(*draw_grads(data, params)), state)
    grads, layer = _poisoned(data, params)
    before = params.flat.copy(), state.m.copy(), state.v.copy()
    with pytest.raises(ValueError, match=f"non-finite gradient at layer {layer}$") as err:
        net.adam_step(params, flat(*grads), state)
    assert isinstance(err.value, net.NonFiniteGradient)
    assert err.value.layer == layer
    assert all(np.array_equal(now, was)
               for now, was in zip((params.flat, state.m, state.v), before))
    assert state.t == steps


@settings(max_examples=15, deadline=None)
@given(data=st.data(), iteration=st.integers(1, 3))
def test_nonfinite_gradient_in_any_layer_stops_training(data, iteration):
    cfg = TrainConfig(problem="zdt3", algorithm="gpsl-g", iterations=4, batch_size=4,
                      eval_interval=4, eval_samples=16, directions_h=4, hidden_sizes=(5, 3))
    problem = get_problem("zdt3")
    seen = []  # the parameters each batch was computed from

    def batch_loss(params, latents, extremes):
        seen.append(params.flat.copy())
        if len(seen) == iteration + 1:  # the first call is the row-0 probe
            return 0.5, flat(*_poisoned(data, params)[0])
        return 0.5, flat(*draw_grads(data, params, elements=st.floats(-1.0, 1.0)))

    with pytest.raises(TrainingDiverged) as err:
        _train_loop(cfg, problem, pareto_front(problem, 50), batch_loss)
    assert (err.value.iteration, err.value.cause) == (iteration, "gradient")
    assert isinstance(err.value.__cause__, net.NonFiniteGradient)
    # The model as the failing batch saw it: the rejected step wrote nothing.
    assert np.array_equal(err.value.params.flat, seen[-1])


@settings(max_examples=50, deadline=None)
@given(data=st.data(), sizes=layer_sizes(), steps=st.integers(0, 3))
def test_checkpoint_round_trip_is_exact(data, sizes, steps):
    params = net.init_network(sizes, 1, input_offset=0.5, input_scale=2.0)
    state = net.init_adam(params, learning_rate=5e-4, beta1=0.8)
    for _ in range(steps):
        net.adam_step(params, flat(*draw_grads(data, params)), state)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt.npz"
        net.save_checkpoint(path, params, state, {"train_seed": 1})
        loaded, loaded_state, _ = net.load_checkpoint(path)
        with np.load(path) as stored:
            keys = set(stored.files)
    # Six entries, whatever the depth.
    assert keys == {"flat", "adam_m", "adam_v", "input_offset", "input_scale", "meta"}
    assert loaded.layer_sizes == params.layer_sizes
    for got, want in [(loaded.flat, params.flat), (loaded_state.m, state.m),
                      (loaded_state.v, state.v), (loaded.input_offset, params.input_offset),
                      (loaded.input_scale, params.input_scale)]:
        assert np.array_equal(got, want)
    assert (loaded_state.t, loaded_state.learning_rate, loaded_state.beta1,
            loaded_state.beta2, loaded_state.eps) == (
        state.t, state.learning_rate, state.beta1, state.beta2, state.eps)
    # The loaded layers are views of the loaded vector.
    loaded.weights[0][0, 0] = math.pi
    assert loaded.flat[0] == math.pi


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))])
def test_copies_keep_their_layers_views_of_their_own_vector(clone):
    params = net.init_network((3, 4, 2), 0, input_offset=1.0)
    twin = clone(params)
    assert np.array_equal(twin.flat, params.flat) and twin.flat is not params.flat
    twin.biases[-1][1] = math.pi
    assert twin.flat[-1] == math.pi and params.flat[-1] != math.pi
    np.testing.assert_array_equal(twin.input_offset, params.input_offset)
