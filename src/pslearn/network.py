"""The transformation model: a fully connected ReLU network whose output is
squashed into the decision-variable box, with hand-written reverse-mode
gradients and an Adam optimizer.

The model works on batches only: :func:`forward` maps (n, k) latent vectors
to (n, d) decision vectors, and :func:`backward` takes the (n, d) gradient.
Parameters, gradients, Adam moments and checkpoints share one layout: a
flat float64 vector holding w0, b0, w1, b1, ... layer by layer.

Training keeps one :class:`NetworkParams` and one :class:`AdamState` per
run: :func:`adam_step` updates the flat vector and both moments in place,
so the per-layer views stay valid across steps, and a gradient it rejects
leaves all of them untouched.

The output layer applies ``x = lb + sigmoid(z) * (ub - lb)``, so every output
lies inside [lb, ub] and no downstream clipping is ever needed. A saturated
sigmoid reaches the bounds themselves: ``sigmoid(40.0) == 1.0``, and below
about -745 it is 0.0.
Latent inputs are standardised by a fixed affine transform stored with the
parameters; this keeps the first layer well-scaled even when the latent
distribution is centred far from the origin (e.g. box midpoints of problems
with large-magnitude bounds) and is part of the model, not of the sampler.
Layer sizes, two or more ints >= 1, are checked in :class:`NetworkParams`,
which :func:`init_network` and :func:`load_checkpoint` both go through.

One private layer chain serves training and scoring: it writes every
layer, the sigmoid and ``x`` into (n, width) views of one float64 vector.
:func:`forward` gives it a fresh vector and returns the cache with ``x``.
Evaluation's private ``_predict`` gives it the calling thread's vector,
which grows to the largest score the thread has made and is kept, so
scoring any model, of any layer sizes, after that allocates no (n, width)
arrays: every evaluation row of a run and repeat ``evaluate_model`` calls
reuse it, while ``pslearn eval``'s single call allocates as before.
"""

from __future__ import annotations

import json
import threading
import zipfile
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, pairwise

import numpy as np

from .sampling import _check_count, _check_real

__all__ = [
    "NetworkParams",
    "AdamState",
    "NonFiniteGradient",
    "init_network",
    "forward",
    "backward",
    "init_adam",
    "adam_step",
    "save_checkpoint",
    "load_checkpoint",
]


@lru_cache(maxsize=None)
def _layer_offsets(layer_sizes: tuple[int, ...]) -> tuple[int, ...]:
    """Where each layer's block (its weights, then its biases) starts in the
    flat vector, then the parameter count; computed once per size tuple."""
    blocks = (fan_out * (fan_in + 1) for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]))
    return tuple(accumulate(blocks, initial=0))


def _check_vector(name: str, array: np.ndarray, size: int) -> None:
    """The one check that ``array`` is a float64 vector of ``size`` entries."""
    if array.dtype != np.float64 or array.shape != (size,):
        raise ValueError(f"{name} must be a float64 vector of shape ({size},), "
                         f"got {array.dtype} of shape {array.shape}")


def _check_sizes(name: str, sizes, least: int) -> tuple[int, ...]:
    """The one size-list check: a sequence of at least ``least`` counts >= 1
    (a 1-D array too), returned as a tuple of Python ints."""
    try:
        sizes = tuple(sizes)
    except TypeError:
        raise ValueError(f"need {name} a sequence of ints, got {sizes!r}") from None
    if len(sizes) < least:
        raise ValueError(f"need {name} of length >= {least}, got {sizes}")
    return tuple(_check_count(f"{name}[{i}]", size) for i, size in enumerate(sizes))


def _layer_views(flat: np.ndarray, layer_sizes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views of a vector laid out as w0, b0, w1, b1, ..."""
    weights, biases = [], []
    for start, fan_in, fan_out in zip(_layer_offsets(layer_sizes), layer_sizes[:-1],
                                      layer_sizes[1:]):
        end = start + fan_out * fan_in
        weights.append(flat[start:end].reshape(fan_out, fan_in))
        biases.append(flat[end : end + fan_out])
    return weights, biases


@dataclass(eq=False)
class NetworkParams:
    """Weights and biases of the transformation model.

    ``flat`` holds every weight and bias in one contiguous float64 vector,
    layer by layer. ``weights[l]`` (shape (layer_sizes[l+1], layer_sizes[l]))
    and ``biases[l]`` (the output side) are reshaped views of it, so an
    in-place edit of either writes through. ``input_offset``/``input_scale``
    define the fixed input standardisation ``v' = (v - offset) / scale``:
    finite float64 vectors of shape ``(layer_sizes[0],)``, the scale
    strictly positive.
    """

    layer_sizes: tuple[int, ...]
    flat: np.ndarray
    input_offset: np.ndarray
    input_scale: np.ndarray
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.layer_sizes = sizes = _check_sizes("layer_sizes", self.layer_sizes, 2)
        _check_vector("flat", self.flat, _layer_offsets(sizes)[-1])
        for name, array, positive in (("input_offset", self.input_offset, False),
                                      ("input_scale", self.input_scale, True)):
            _check_vector(name, array, sizes[0])
            if not np.all(np.isfinite(array)) or (positive and not np.all(array > 0.0)):
                need = "finite and strictly positive" if positive else "finite"
                raise ValueError(f"{name} must be {need}, got {array}")
        self.weights, self.biases = _layer_views(self.flat, sizes)

    def __reduce__(self):
        # Pickle and deepcopy rebuild through __init__, so that the layer
        # views share the new vector instead of becoming copies of their own.
        return type(self), (self.layer_sizes, self.flat, self.input_offset,
                            self.input_scale)

    def n_layers(self) -> int:
        return len(self.weights)


@dataclass(eq=False)
class AdamState:
    """First/second moment accumulators and hyperparameters of Adam.

    The moments ``m`` and ``v`` are flat vectors laid out like
    :attr:`NetworkParams.flat`; ``t`` counts the steps taken.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        self.t = _check_count("t", self.t, 0)
        _check_real("learning_rate", self.learning_rate)
        _check_real("eps", self.eps)
        for key in ("beta1", "beta2"):
            _check_real(key, getattr(self, key), 0.0, 1.0, open_low=False)


class NonFiniteGradient(ValueError):
    """A gradient passed to :func:`adam_step` holds a NaN or an infinity."""

    def __init__(self, layer: int):
        super().__init__(f"non-finite gradient at layer {layer}")
        self.layer = layer


def init_network(
    layer_sizes,
    seed,
    input_offset=None,
    input_scale=None,
) -> NetworkParams:
    """Symmetric scaled-uniform weight init (scale 1/sqrt(fan_in)), zero biases;
    each layer's weights, in order, are drawn into a view of one vector.
    The layer sizes get :class:`NetworkParams`' check before the vector is
    sized from them; the input offset (default 0) and scale (default 1)
    broadcast to the input width."""
    sizes = _check_sizes("layer_sizes", layer_sizes, 2)
    offset, scale = (np.array(np.broadcast_to(np.asarray(value, dtype=float), (sizes[0],)))
                     for value in (0.0 if input_offset is None else input_offset,
                                   1.0 if input_scale is None else input_scale))
    params = NetworkParams(sizes, np.zeros(_layer_offsets(sizes)[-1]), offset, scale)
    rng = np.random.default_rng(seed)
    for w in params.weights:
        bound = 1.0 / np.sqrt(w.shape[1])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def _sigmoid(z: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """The logistic function of ``z``, written into ``out``.

    ``scratch`` receives ``1 + exp(-|z|)``. Either one may be ``z`` itself
    when the caller no longer needs ``z``, and defaults to a fresh array.
    """
    # e = exp(-|z|) is exactly exp(-z) where z >= 0 and exp(z) elsewhere, and
    # never overflows, so sigmoid(z) is 1 / (1 + e) where z >= 0 and
    # e / (1 + e) elsewhere. As 0 <= e <= 1, max(e, z >= 0) is that
    # numerator without a masked loop; NaN fails z >= 0 and stays NaN.
    pos = z >= 0
    e = np.abs(z, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = np.add(1.0, e, out=scratch)
    np.maximum(e, pos, out=e)
    return np.divide(e, d, out=e)


def _inputs(params: NetworkParams, v, lb, ub):
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[1] != params.layer_sizes[0]:
        raise ValueError(
            f"latent input has shape {v.shape}, expected (n, {params.layer_sizes[0]})"
        )
    if not np.all(np.isfinite(v)):
        raise ValueError("latent input contains non-finite values")
    return v, np.asarray(lb, dtype=float), np.asarray(ub, dtype=float)


def _chain(params: NetworkParams, v, lb, ub, vector_of):
    """``(x, cache)`` of the batch ``v``: every layer, then ``x``, written into
    (n, width) views of ``vector_of(n * (sum(layer_sizes) + layer_sizes[-1]))``.

    The first view is the standardised input; the output layer's view is
    overwritten by its sigmoid, which the cache holds for :func:`backward`.
    """
    v, lb, ub = _inputs(params, v, lb, ub)
    n, sizes = len(v), params.layer_sizes
    widths = (*sizes, sizes[-1])
    vector = vector_of(n * sum(widths))
    *layers, x = (vector[n * start : n * end].reshape(n, end - start)
                  for start, end in pairwise(accumulate(widths, initial=0)))
    np.subtract(v, params.input_offset, out=layers[0])
    np.divide(layers[0], params.input_scale, out=layers[0])
    n_layers = params.n_layers()
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = np.matmul(layers[layer], w.T, out=layers[layer + 1])
        z += b
        if layer < n_layers - 1:
            np.maximum(z, 0.0, out=z)
    sig = _sigmoid(z, out=z, scratch=x)
    span = ub - lb
    np.multiply(sig, span, out=x)
    np.add(lb, x, out=x)
    return x, {"activations": layers[:-1], "sigmoid": sig, "span": span}


def forward(params: NetworkParams, v, lb, ub):
    """Map a batch of latent vectors, shape (n, k), to decision vectors
    inside [lb, ub], shape (n, d).

    Each output row depends only on its own input row. Returns
    ``(x, cache)`` where the cache holds everything :func:`backward` needs.
    """
    return _chain(params, v, lb, ub, np.empty)


# The calling thread's scoring vector for _predict: one float64 vector,
# grown to the largest score the thread has made and kept.
_pool = threading.local()


def _pooled(need: int) -> np.ndarray:
    """The calling thread's vector, grown first to ``need`` floats if shorter."""
    vector = getattr(_pool, "vector", None)
    if vector is None or vector.size < need:
        _pool.vector = vector = None  # drop the old vector before allocating
        _pool.vector = vector = np.empty(need)
    return vector


def _predict(params: NetworkParams, v, lb, ub) -> np.ndarray:
    """The ``x`` of :func:`forward`, bit for bit, in the calling thread's vector.

    Scoring no larger than the largest score so far allocates no (n, width)
    arrays, whatever the model. The returned array is a view of the vector:
    it is valid until this thread's next call.
    """
    return _chain(params, v, lb, ub, _pooled)[0]


def backward(params: NetworkParams, cache, upstream):
    """Accumulate dL/d(theta) from dL/dx by reverse-mode differentiation.

    ``upstream`` must match the (n, d) shape of the forward output the cache
    came from. Returns one new vector laid out like ``params.flat``: each
    layer's gradient is written into its weight and bias views. The ReLU
    subgradient at 0 is taken as 0.
    """
    upstream = np.asarray(upstream, dtype=float)
    sig = cache["sigmoid"]
    if upstream.shape != sig.shape:
        raise ValueError(
            f"upstream gradient has shape {upstream.shape}, cached forward produced {sig.shape}"
        )
    # Through the output squashing x = lb + sigmoid(z) * span.
    delta = upstream * cache["span"]
    delta *= sig
    delta *= 1.0 - sig
    grad = np.empty_like(params.flat)
    grad_w, grad_b = _layer_views(grad, params.layer_sizes)
    for layer in range(params.n_layers() - 1, -1, -1):
        a_prev = cache["activations"][layer]
        np.matmul(delta.T, a_prev, out=grad_w[layer])
        delta.sum(axis=0, out=grad_b[layer])
        if layer > 0:
            # relu(z) > 0 exactly where z > 0, NaN included.
            delta = delta @ params.weights[layer]
            delta *= cache["activations"][layer] > 0.0
    return grad


def init_adam(params: NetworkParams, **settings) -> AdamState:
    """A fresh :class:`AdamState` with zero moments laid out like
    ``params.flat``; ``settings`` (``learning_rate``, ``beta1``, ``beta2``,
    ``eps``) replace its defaults."""
    return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat), **settings)


def adam_step(params: NetworkParams, grad, state: AdamState) -> None:
    """One Adam update with bias correction, in place.

    ``grad`` is a float64 vector laid out like ``params.flat``, as
    :func:`backward` returns it. The update writes ``params.flat`` (and so
    every layer view), ``state.m`` and ``state.v`` in place and increments
    ``state.t``. Its arithmetic is elementwise, so every parameter gets the
    bits a per-layer update gives. Every check runs before the first write,
    so a rejected gradient leaves the parameters and the state untouched:
    a gradient or moment that is not a float64 vector of the parameters'
    size raises ``ValueError``, and a gradient holding a NaN or an infinity
    raises :class:`NonFiniteGradient`, naming the first offending layer.
    """
    flat, m, v = params.flat, state.m, state.v
    for name, array in (("grad", grad), ("state.m", m), ("state.v", v)):
        _check_vector(name, array, flat.size)
    finite = np.isfinite(grad)
    if not finite.all():
        first = int(np.argmin(finite))
        raise NonFiniteGradient(bisect_right(_layer_offsets(params.layer_sizes), first) - 1)
    t = state.t + 1
    b1, b2, lr, eps = state.beta1, state.beta2, state.learning_rate, state.eps
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    # m = b1 * m + (1 - b1) * g and v = b2 * v + (1 - b2) * g**2, then
    # theta -= lr * (m / corr1) / (sqrt(v / corr2) + eps): the expressions
    # of an out-of-place update, in the same order, through two temporaries.
    step = np.multiply(1.0 - b1, grad)
    m *= b1
    m += step
    denom = np.square(grad)
    denom *= 1.0 - b2
    v *= b2
    v += denom
    np.divide(v, corr2, out=denom)
    np.sqrt(denom, out=denom)
    denom += eps
    np.divide(m, corr1, out=step)
    step *= lr
    step /= denom
    flat -= step
    state.t = t


# The Adam step count and settings that a checkpoint's meta records.
_ADAM_KEYS = ("t", "learning_rate", "beta1", "beta2", "eps")


def save_checkpoint(path, params: NetworkParams, state: AdamState, seeds: dict) -> None:
    """Dump parameters, optimizer state and seed lineage to an .npz file.

    The file holds six entries at any depth: ``flat``, ``adam_m`` and
    ``adam_v`` (all laid out like ``params.flat``), ``input_offset``,
    ``input_scale`` and the JSON ``meta``. The round-trip through
    :func:`load_checkpoint` is exact (float64 arrays are stored in binary).
    """
    meta = {
        "layer_sizes": list(params.layer_sizes),
        "activation": "relu",
        "adam": {key: getattr(state, key) for key in _ADAM_KEYS},
        "seeds": seeds,
    }
    # Write through a handle so numpy never appends an extension to the path
    # (keeps temp-file-then-rename writes working).
    with open(path, "wb") as fh:
        np.savez(fh, flat=params.flat, adam_m=state.m, adam_v=state.v,
                 input_offset=params.input_offset, input_scale=params.input_scale,
                 meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8))


def load_checkpoint(path):
    """Inverse of :func:`save_checkpoint`; returns (params, adam_state, seeds).

    A file that :func:`save_checkpoint` did not write raises ``ValueError``
    naming the path and, for a readable ``.npz`` archive, the entry or
    ``meta`` key it lacks (``flat``, for a per-layer file), a meta of the
    wrong JSON type, a parameter or moment array that is not a float64
    vector of the model's size, or layer sizes, an input standardisation or
    Adam settings that :class:`NetworkParams` or :class:`AdamState` rejects.
    """
    try:
        archive = np.load(path)
        if not isinstance(archive, np.lib.npyio.NpzFile):  # a plain .npy array
            raise ValueError
        with archive:
            data = dict(archive)
    except (ValueError, EOFError, zipfile.BadZipFile):
        raise ValueError(f"{path}: not a pslearn checkpoint (not a readable .npz archive)") from None

    def entry(name):
        if name not in data:
            raise ValueError(f"{path}: not a pslearn checkpoint (no {name})")
        return data[name]

    raw_meta = bytes(entry("meta"))
    try:
        meta = json.loads(raw_meta.decode("utf-8"))
        activation, seeds = meta["activation"], meta["seeds"]
        sizes = meta["layer_sizes"]
        adam = {key: meta["adam"][key] for key in _ADAM_KEYS}
    except KeyError as exc:
        raise ValueError(f"{path}: not a pslearn checkpoint (no meta key {exc})") from None
    except TypeError as exc:  # meta, or its "adam", is not a JSON object
        raise ValueError(f"{path}: not a pslearn checkpoint (meta: {exc})") from None
    except ValueError as exc:
        raise ValueError(f"{path}: meta is not JSON ({exc})") from None
    if activation != "relu":
        raise ValueError(f"{path}: activation {activation!r} is not supported; "
                         "the model is a ReLU network")
    flat, m, v = entry("flat"), entry("adam_m"), entry("adam_v")
    offset, scale = entry("input_offset"), entry("input_scale")
    try:
        params = NetworkParams(layer_sizes=sizes, flat=flat, input_offset=offset,
                               input_scale=scale)
        for name, moment in (("adam_m", m), ("adam_v", v)):
            _check_vector(name, moment, params.flat.size)
        state = AdamState(m=m, v=v, **adam)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return params, state, seeds
