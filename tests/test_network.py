"""Transformation-model tests: init, forward squashing, reverse-mode
gradients against finite differences, Adam, and checkpoint round-trips."""

import copy
import json
import re

import numpy as np
import pytest

from pslearn import network as net
from pslearn.problems import get_problem
from pslearn.trainer import TrainConfig

from conftest import central_difference_gradient

LB = np.array([-1.0, 0.0, 2.0])
UB = np.array([1.0, 3.0, 5.0])


def small_net(seed=0):
    return net.init_network((2, 8, 8, 3), seed=seed)


class TestInit:
    def test_deterministic(self):
        a = net.init_network((2, 256, 256, 30), seed=42)
        b = net.init_network((2, 256, 256, 30), seed=42)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_biases_zero(self):
        params = small_net()
        assert all(np.all(b == 0.0) for b in params.biases)

    def test_weight_magnitudes_bounded(self):
        params = net.init_network((9, 16, 4), seed=1)
        for w in params.weights:
            fan_in = w.shape[1]
            assert np.all(np.abs(w) <= 1.0 / np.sqrt(fan_in))

    def test_rejects_single_layer(self):
        with pytest.raises(ValueError):
            net.init_network((5,), seed=0)

    @pytest.mark.parametrize("offset, scale, message", [
        (np.zeros(2), np.ones(3), r"input_offset must be a float64 vector of shape \(3,\)"),
        (np.zeros(3), np.ones((1, 3)), r"input_scale must be a float64 vector of shape \(3,\)"),
        (np.zeros(3, dtype=np.float32), np.ones(3), "input_offset must be a float64 vector"),
        (np.zeros(3), np.array([1.0, 0.0, 1.0]), "input_scale must be finite and strictly"),
        (np.zeros(3), np.array([1.0, np.nan, 1.0]), "input_scale must be finite and strictly"),
        (np.array([0.0, -np.inf, 0.0]), np.ones(3), "input_offset must be finite"),
        (np.zeros(3), np.ones(3, dtype=np.float32), "input_scale must be a float64 vector"),
    ])
    def test_params_reject_a_bad_input_standardisation(self, offset, scale, message):
        # (3, 4, 2): 26 parameters; the standardisation acts on 3 inputs.
        with pytest.raises(ValueError, match=message):
            net.NetworkParams((3, 4, 2), np.zeros(26), offset, scale)

    @pytest.mark.parametrize("flat", [np.zeros(26, dtype=np.float32), np.zeros(25)],
                             ids=["float32", "short"])
    def test_params_reject_a_flat_vector_unlike_the_layer_sizes(self, flat):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"flat must be a float64 vector of shape (26,), got {flat.dtype} of shape "
                f"{flat.shape}") + "$"):
            net.NetworkParams((3, 4, 2), flat, np.zeros(3), np.ones(3))

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
    def test_init_rejects_a_scale_that_is_not_finite_and_positive(self, scale):
        # init_network broadcasts the scale; NetworkParams checks its values.
        with pytest.raises(ValueError, match="input_scale must be finite and strictly positive"):
            net.init_network((3, 4, 2), 0, input_scale=scale)


class TestForward:
    def test_zero_params_map_to_box_midpoint(self):
        params = small_net()
        for w in params.weights:
            w[:] = 0.0
        v = np.array([0.3, -2.0])
        (x,), _ = net.forward(params, v[None, :], LB, UB)
        np.testing.assert_allclose(x, (LB + UB) / 2.0, rtol=1e-15)
        with pytest.raises(ValueError, match=r"expected \(n, 2\)"):
            net.forward(params, v, LB, UB)

    def test_output_strictly_inside_bounds(self, rng):
        params = small_net(seed=3)
        v = rng.standard_normal((200, 2)) * 5.0
        x, _ = net.forward(params, v, LB, UB)
        assert np.all(x > LB) and np.all(x < UB)

    def test_saturated_outputs_land_on_the_bounds(self, rng):
        # sigmoid(40.0) == 1.0 and sigmoid(-800.0) == 0.0, so the outputs are
        # the bounds themselves, which the problem must still evaluate.
        problem = get_problem("zdt3")
        params = net.init_network((2, 8, problem.d), seed=0)
        params.weights[-1][...] = 0.0
        v = rng.standard_normal((5, 2))
        for bias, bound in ((40.0, problem.ub), (-800.0, problem.lb)):
            params.biases[-1][...] = bias
            x, _ = net.forward(params, v, problem.lb, problem.ub)
            np.testing.assert_array_equal(x, np.broadcast_to(bound, x.shape))
            assert np.all(np.isfinite(problem.evaluate_batch(x)))

    def test_batch_equals_independent_forwards(self, rng):
        params = small_net(seed=5)
        v = rng.standard_normal((10, 2))
        batch, _ = net.forward(params, v, LB, UB)
        singles = np.concatenate([net.forward(params, v[i : i + 1], LB, UB)[0]
                                  for i in range(len(v))])
        np.testing.assert_allclose(batch, singles, rtol=1e-15)

    def test_rejects_nonfinite_input(self):
        params = small_net()
        with pytest.raises(ValueError):
            net.forward(params, np.array([[np.nan, 0.0]]), LB, UB)

    def test_input_standardisation_is_affine_reparam(self, rng):
        # Standardising inputs equals shifting/scaling the latent by hand.
        offset, scale = np.array([3.0, -1.0]), np.array([2.0, 0.5])
        std = net.init_network((2, 8, 3), seed=7, input_offset=offset, input_scale=scale)
        plain = net.init_network((2, 8, 3), seed=7)
        v = rng.standard_normal((6, 2))
        a, _ = net.forward(std, v, LB, UB)
        b, _ = net.forward(plain, (v - offset) / scale, LB, UB)
        np.testing.assert_allclose(a, b, rtol=1e-15)


class TestBackward:
    def test_zero_upstream_gives_zero_gradient(self, rng):
        params = small_net(seed=2)
        v = rng.standard_normal((4, 2))
        _, cache = net.forward(params, v, LB, UB)
        grad = net.backward(params, cache, np.zeros((4, 3)))
        assert grad.shape == params.flat.shape
        assert np.all(grad == 0.0)

    def test_upstream_linearity(self, rng):
        params = small_net(seed=2)
        v = rng.standard_normal((4, 2))
        _, cache = net.forward(params, v, LB, UB)
        upstream = rng.standard_normal((4, 3))
        g1 = net.backward(params, cache, upstream)
        g2 = net.backward(params, cache, 2.0 * upstream)
        np.testing.assert_allclose(g2, 2.0 * g1, rtol=1e-12)

    def test_matches_finite_differences(self, rng):
        # The gradient is laid out like params.flat, so the finite
        # differences run over that vector, entry by entry.
        lb, ub = np.full(4, -1.0), np.full(4, 2.0)
        for probe in range(5):
            params = net.init_network((3, 6, 5, 4), seed=100 + probe)
            v = rng.standard_normal((5, 3))
            target = rng.standard_normal(4)

            x, cache = net.forward(params, v, lb, ub)
            analytic = net.backward(params, cache, x - target)

            def loss_of(theta_flat):
                trial = copy.deepcopy(params)
                trial.flat[:] = theta_flat
                xt, _ = net.forward(trial, v, lb, ub)
                return 0.5 * np.sum((xt - target) ** 2)

            fd = central_difference_gradient(loss_of, params.flat.copy())
            np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-7)

    def test_shape_mismatch_rejected(self, rng):
        params = small_net()
        _, cache = net.forward(params, rng.standard_normal((4, 2)), LB, UB)
        with pytest.raises(ValueError):
            net.backward(params, cache, np.zeros((3, 3)))


def layered(params, w_fill, b_fill):
    """A gradient laid out like ``params.flat``: every weight entry
    ``w_fill``, every bias entry ``b_fill``."""
    return np.concatenate([np.full(a.size, fill) for w, b in zip(params.weights, params.biases)
                           for a, fill in ((w, w_fill), (b, b_fill))])


class TestAdam:
    def test_defaults_are_stated_once_in_adam_state(self):
        # init_adam passes on only the settings it is given, and TrainConfig
        # reads its four Adam defaults from AdamState.
        defaults = {"learning_rate": 1e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8}
        params = small_net()
        state = net.init_adam(params)
        assert {key: getattr(state, key) for key in defaults} == defaults
        assert {key: getattr(net.AdamState, key) for key in defaults} == defaults
        assert state.t == 0 and not state.m.any() and not state.v.any()
        tuned = net.init_adam(params, beta1=0.8)
        assert {key: getattr(tuned, key) for key in defaults} == {**defaults, "beta1": 0.8}
        cfg = TrainConfig(problem="zdt3", algorithm="gpsl-g")
        assert (cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps_adam) == tuple(defaults.values())

    def test_zero_gradient_keeps_params(self):
        params = small_net(seed=9)
        before = copy.deepcopy(params)
        state = net.init_adam(params)
        net.adam_step(params, np.zeros_like(params.flat), state)
        for a, b in zip(before.weights, params.weights):
            np.testing.assert_array_equal(a, b)
        assert state.t == 1

    def test_first_step_is_signed_learning_rate(self):
        # With bias correction, step one moves by -lr * g / (|g| + eps).
        params = small_net(seed=4)
        lr = 1e-3
        before = copy.deepcopy(params)
        state = net.init_adam(params, learning_rate=lr)
        net.adam_step(params, layered(params, 0.25, -3.0), state)
        dw = params.weights[0] - before.weights[0]
        db = params.biases[0] - before.biases[0]
        np.testing.assert_allclose(dw, -lr * 0.25 / (0.25 + state.eps), rtol=1e-12)
        np.testing.assert_allclose(db, lr * 3.0 / (3.0 + state.eps), rtol=1e-12)

    def test_deterministic(self, rng):
        # Two copies of one model and state, stepped with one gradient.
        params = small_net(seed=6)
        twin = copy.deepcopy(params)
        state, twin_state = net.init_adam(params), net.init_adam(twin)
        grad = rng.standard_normal(params.flat.shape)
        net.adam_step(params, grad, state)
        net.adam_step(twin, grad, twin_state)
        assert not np.array_equal(params.flat, small_net(seed=6).flat)
        for a, b in zip(params.weights, twin.weights):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(state.m, twin_state.m)
        np.testing.assert_array_equal(state.v, twin_state.v)

    def test_nonfinite_gradient_names_layer(self):
        params = small_net()
        state = net.init_adam(params)
        grad = np.zeros_like(params.flat)
        # The first weight of layer 1 follows layer 0's weights and biases.
        grad[params.weights[0].size + params.biases[0].size] = np.inf
        with pytest.raises(ValueError, match="layer 1"):
            net.adam_step(params, grad, state)

    @pytest.mark.parametrize("shape", [(122,), (124,), (1, 123)])
    def test_gradient_of_another_shape_rejected(self, shape):
        params = small_net()  # (2, 8, 8, 3): 123 parameters
        state = net.init_adam(params)
        net.adam_step(params, np.ones(123), state)
        before = params.flat.copy(), state.m.copy(), state.v.copy()
        with pytest.raises(ValueError, match=re.escape(
                f"grad must be a float64 vector of shape (123,), got float64 of shape {shape}")):
            net.adam_step(params, np.zeros(shape), state)
        # Rejected before the first write.
        for now, was in zip((params.flat, state.m, state.v), before):
            np.testing.assert_array_equal(now, was)
        assert state.t == 1

    def test_float32_gradient_rejected(self):
        params = small_net()
        with pytest.raises(ValueError, match=re.escape(
                "grad must be a float64 vector of shape (123,), got float32 of shape (123,)")):
            net.adam_step(params, np.zeros(123, dtype=np.float32), net.init_adam(params))

    @pytest.mark.parametrize("key, moment", [
        ("m", np.zeros(1)),  # would broadcast into a full-size m
        ("v", np.zeros(122)),
        ("m", np.zeros(123, dtype=np.float32)),  # would be rounded on every step
        ("v", np.zeros((1, 123))),
        ("v", np.zeros(123, dtype=np.float32)),
    ])
    def test_moments_unlike_the_parameters_rejected(self, key, moment):
        params = small_net()  # 123 parameters
        before = params.flat.copy()
        state = net.init_adam(params)
        setattr(state, key, moment)
        m, v = state.m.copy(), state.v.copy()
        with pytest.raises(ValueError, match=re.escape(
                f"state.{key} must be a float64 vector of shape (123,), got {moment.dtype} of "
                f"shape {moment.shape}")):
            net.adam_step(params, np.ones(123), state)
        assert np.array_equal(params.flat, before)
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v) and state.t == 0


class TestCheckpoint:
    @staticmethod
    def rewrite(path, edit):
        """Apply ``edit`` to the archive's entries (a dict) and save them back."""
        with np.load(path) as data:
            arrays = dict(data)
        edit(arrays)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

    @staticmethod
    def saved(tmp_path):
        params = net.init_network((2, 3, 2), seed=0)
        path = tmp_path / "model.ckpt.npz"
        net.save_checkpoint(path, params, net.init_adam(params), {})
        return params, path

    def test_exact_round_trip(self, tmp_path, rng):
        params = net.init_network((3, 16, 5), seed=12, input_offset=[1.0, 2.0, 3.0])
        state = net.init_adam(params, learning_rate=5e-4, beta1=0.8)
        net.adam_step(params, rng.standard_normal(params.flat.shape), state)
        seeds = {"train_seed": 3, "eval_seed": 77}
        path = tmp_path / "model.ckpt.npz"
        net.save_checkpoint(path, params, state, seeds)
        loaded_params, loaded_state, loaded_seeds = net.load_checkpoint(path)
        assert loaded_params.layer_sizes == params.layer_sizes
        assert loaded_seeds == seeds
        assert loaded_state.t == state.t
        assert loaded_state.learning_rate == state.learning_rate
        for a, b in zip(params.weights, loaded_params.weights):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(state.m, loaded_state.m)
        np.testing.assert_array_equal(state.v, loaded_state.v)
        np.testing.assert_array_equal(params.input_offset, loaded_params.input_offset)

    @staticmethod
    def edit_meta(path, key, value, *, adam=False):
        """Set ``meta[key]`` (``meta["adam"][key]`` with ``adam``) to ``value``."""
        def edit(arrays):
            meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
            (meta["adam"] if adam else meta)[key] = value
            arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
            if key == "layer_sizes":  # vectors sized for the int sizes: only the sizes are bad
                sizes = [int(s) for s in value]
                count = sum(b * (a + 1) for a, b in zip(sizes, sizes[1:]))
                arrays.update({name: np.zeros(count) for name in ("flat", "adam_m", "adam_v")})

        TestCheckpoint.rewrite(path, edit)

    @pytest.mark.parametrize("sizes, message", [
        ([2, 0, 2], "need layer_sizes[1] >= 1, got 0"),
        ([2], "need layer_sizes of length >= 2, got (2,)"),
        ([2.0, 3, 2], "need layer_sizes[0] an int, got 2.0"),
        (["2", 3, 2], "need layer_sizes[0] an int, got '2'"),
        ([True, 3, 2], "need layer_sizes[0] an int, got True"),
    ], ids=["zero-width", "one-layer", "float", "str", "bool"])
    def test_bad_layer_sizes_name_the_file(self, tmp_path, sizes, message):
        # The first two loaded; the others failed with a TypeError that did
        # not name the file.
        _, path = self.saved(tmp_path)
        self.edit_meta(path, "layer_sizes", sizes)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}") + "$"):
            net.load_checkpoint(path)

    @pytest.mark.parametrize("key, value, message", [
        ("t", 1.5, "need t an int, got 1.5"),
        ("t", -1, "need t >= 0, got -1"),
        ("learning_rate", -1.0, "need learning_rate > 0, got -1.0"),
        ("learning_rate", float("nan"), "need learning_rate finite, got nan"),
        ("eps", "x", "need eps a real number, got 'x'"),
        ("eps", 0, "need eps > 0, got 0"),
        ("beta1", 1.0, "need beta1 in [0, 1), got 1.0"),
        ("beta2", "0.9", "need beta2 a real number, got '0.9'"),
    ], ids=["t-float", "t-negative", "lr-negative", "lr-nan", "eps-str", "eps-zero",
            "beta1-one", "beta2-str"])
    def test_bad_adam_settings_name_the_file(self, tmp_path, key, value, message):
        # Each loaded: t = 1.5 bias-corrected the next step with t = 2.5, a
        # negative learning rate stepped uphill, eps "x" failed inside numpy.
        _, path = self.saved(tmp_path)
        self.edit_meta(path, key, value, adam=True)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}") + "$"):
            net.load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda meta: {**meta, "adam": [1]}, "not a pslearn checkpoint (meta: "),
        (lambda meta: [meta], "not a pslearn checkpoint (meta: "),
        (lambda meta: {**meta, "layer_sizes": 30}, "need layer_sizes a sequence of ints, got 30"),
        (lambda meta: {**meta, "layer_sizes": None},
         "need layer_sizes a sequence of ints, got None"),
    ], ids=["adam-list", "meta-list", "sizes-int", "sizes-null"])
    def test_meta_of_the_wrong_json_type_names_the_file(self, tmp_path, edit, message):
        # Each failed with a TypeError that did not name the file.
        _, path = self.saved(tmp_path)

        def rewrite_meta(arrays):
            meta = edit(json.loads(bytes(arrays["meta"]).decode("utf-8")))
            arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)

        self.rewrite(path, rewrite_meta)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}")):
            net.load_checkpoint(path)

    def test_other_activation_rejected(self, tmp_path):
        # The model is always ReLU; a checkpoint saying otherwise is not ours.
        _, path = self.saved(tmp_path)

        def tanh(arrays):
            meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
            assert meta["activation"] == "relu"
            meta["activation"] = "tanh"
            arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)

        self.rewrite(path, tanh)
        with pytest.raises(ValueError, match="'tanh' is not supported"):
            net.load_checkpoint(path)

    def test_per_layer_file_names_the_missing_flat_entry(self, tmp_path):
        # The layout written before checkpoints held three flat arrays.
        params, path = self.saved(tmp_path)

        def per_layer(arrays):
            for key in ("flat", "adam_m", "adam_v"):
                del arrays[key]
            for i, (w, b) in enumerate(zip(params.weights, params.biases)):
                arrays.update({f"w{i}": w, f"b{i}": b, f"adam_mw{i}": 0 * w,
                               f"adam_vw{i}": 0 * w, f"adam_mb{i}": 0 * b, f"adam_vb{i}": 0 * b})

        self.rewrite(path, per_layer)
        with pytest.raises(ValueError, match=re.escape(f"{path}: not a pslearn checkpoint (no flat)")):
            net.load_checkpoint(path)

    @pytest.mark.parametrize("key", ["meta", "flat", "adam_m", "adam_v", "input_offset",
                                     "input_scale"])
    def test_missing_entry_named_after_the_path_once(self, tmp_path, key):
        _, path = self.saved(tmp_path)
        self.rewrite(path, lambda arrays: arrays.pop(key))
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{path}: not a pslearn checkpoint (no {key})") + "$"):
            net.load_checkpoint(path)

    @pytest.mark.parametrize("key", ["flat", "adam_m", "adam_v"])
    def test_vectors_of_another_dtype_name_the_file_and_entry(self, tmp_path, key):
        _, path = self.saved(tmp_path)
        self.rewrite(path, lambda arrays: arrays.update({key: arrays[key].astype(np.float32)}))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: {key} must be a float64 vector of shape (17,), got float32 of "
                "shape (17,)")):
            net.load_checkpoint(path)

    @pytest.mark.parametrize("key, value, message", [
        ("input_offset", [5.0], "input_offset must be a float64 vector of shape (2,), "
                                "got float64 of shape (1,)"),
        ("input_scale", [[2.0]], "input_scale must be a float64 vector of shape (2,), "
                                 "got float64 of shape (1, 1)"),
        ("input_scale", np.ones(2, dtype=np.float32), "input_scale must be a float64 vector"),
        ("input_scale", [1.0, 0.0], "input_scale must be finite and strictly positive"),
        ("input_scale", [1.0, -2.0], "input_scale must be finite and strictly positive"),
        ("input_scale", [1.0, np.inf], "input_scale must be finite and strictly positive"),
        ("input_offset", [np.nan, 0.0], "input_offset must be finite"),
    ])
    def test_bad_input_standardisation_names_the_file(self, tmp_path, key, value, message):
        _, path = self.saved(tmp_path)  # (2, 3, 2): a 2-vector offset and scale
        self.rewrite(path, lambda arrays: arrays.update({key: np.asarray(value)}))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            net.load_checkpoint(path)

    @pytest.mark.parametrize("key", ["flat", "adam_m", "adam_v"])
    def test_vectors_of_another_size_name_the_file(self, tmp_path, key):
        _, path = self.saved(tmp_path)  # (2, 3, 2): 17 parameters
        self.rewrite(path, lambda arrays: arrays.update({key: arrays[key][:-1]}))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: {key} must be a float64 vector of shape (17,), got float64 of "
                "shape (16,)")):
            net.load_checkpoint(path)
