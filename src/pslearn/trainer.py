"""Training loop and model evaluation.

One loop and one batch loss train every algorithm; only the loss on the
normalized batch differs:

* ``gpsl-g`` / ``gpsl-l`` / ``gpsl-d`` train the transformation model by
  maximizing the direction-decomposed hypervolume approximation of the batch
  in normalized objective space.
* ``psl-ls`` / ``psl-tch`` / ``psl-mtch`` / ``cosmos`` / ``psl-hv`` train the
  classic preference-conditioned model: the latent input is a Dirichlet(1)
  preference vector and the loss is the per-sample scalarization.

The batch loss works on the whole batch at once: one problem evaluation,
one loss call and one stacked Jacobian chain per batch. Objectives are
min-max normalized during training with running extremes updated from each
batch (the reference front is never consulted while training); evaluation
normalizes with the reference front's extremes, through the same
normalizer, so the metric is identical for every algorithm. Holding the
seed fixed, the whole pipeline is bit-reproducible.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import network as net
from .hv import (
    HvReport,
    exact_hv,
    log_hv_difference,
    nondominated_filter,  # noqa: F401  benchmarks/spans.py wraps it by this name
    r2_hv_approx,
    r2_hv_subgradient,
)
from .problems import ParetoFrontData, Problem, get_problem, pareto_front
from .sampling import (
    _check_count,
    _check_real,
    das_dennis,
    default_divisions,
    sample_dirichlet,
    sample_gaussian,
    sample_lhs,
)
from .scalarization import (
    PREFERENCE_CLAMP,
    cosmos,
    hv_scalarization,
    modified_tchebycheff,
    tchebycheff,
    weighted_sum,
)

__all__ = [
    "GPSL_ALGORITHMS",
    "PREFERENCE_ALGORITHMS",
    "ALGORITHMS",
    "TrainConfig",
    "MetricsRecord",
    "MetricsLog",
    "TrainResult",
    "TrainingDiverged",
    "train",
    "evaluate_model",
    "latent_sampler",
    "write_metrics_csv",
]

GPSL_ALGORITHMS = ("gpsl-g", "gpsl-l", "gpsl-d")
PREFERENCE_ALGORITHMS = ("psl-ls", "psl-tch", "psl-mtch", "cosmos", "psl-hv")
ALGORITHMS = GPSL_ALGORITHMS + PREFERENCE_ALGORITHMS

# Evaluation draws use one fixed seed so every algorithm is scored on the
# same number of identically-seeded latent samples.
DEFAULT_EVAL_SEED = 915_857_341
REF_OFFSET = 1.1
MIN_RANGE = 1e-12


@dataclass
class TrainConfig:
    """Everything needed to reproduce a single training run."""

    problem: str
    algorithm: str
    iterations: int = 1000
    batch_size: int = 32
    latent_dim: int | None = None  # None: see latent_sampler
    seed: int = 0
    learning_rate: float = net.AdamState.learning_rate
    beta1: float = net.AdamState.beta1
    beta2: float = net.AdamState.beta2
    eps_adam: float = net.AdamState.eps
    hidden_sizes: tuple[int, ...] = (64, 64)
    directions_h: int | None = None  # None: ~100 directions for the problem's m
    eval_samples: int = 1000
    eval_interval: int = 10
    eval_seed: int = DEFAULT_EVAL_SEED
    tch_epsilon: float = 0.1
    cosmos_gamma: float = 1.0
    dirichlet_alpha: float = 1.0
    ref_offset: float = REF_OFFSET

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; valid: {', '.join(ALGORITHMS)}"
            )
        for key, low in (("iterations", 1), ("batch_size", 1), ("eval_interval", 1),
                         ("eval_samples", 1), ("seed", 0), ("eval_seed", 0)):
            setattr(self, key, _check_count(key, getattr(self, key), low))
        for key in ("latent_dim", "directions_h"):  # None: set from the problem
            if getattr(self, key) is not None:
                setattr(self, key, _check_count(key, getattr(self, key)))
        self.hidden_sizes = net._check_sizes("hidden_sizes", self.hidden_sizes, 0)
        for key in ("learning_rate", "eps_adam", "dirichlet_alpha", "ref_offset"):
            _check_real(key, getattr(self, key))
        for key, high in (("beta1", 1.0), ("beta2", 1.0), ("tch_epsilon", math.inf),
                          ("cosmos_gamma", math.inf)):
            _check_real(key, getattr(self, key), 0.0, high, open_low=False)


@dataclass(frozen=True)
class MetricsRecord:
    iteration: int
    loss: float
    hv_learned: float
    hv_true: float
    log_hv_difference: float
    seconds: float  # wall clock since run start; excluded from the metrics CSV


@dataclass
class MetricsLog:
    records: list[MetricsRecord] = field(default_factory=list)

    def append(self, record: MetricsRecord) -> None:
        if self.records and record.iteration <= self.records[-1].iteration:
            raise ValueError("iteration indices must be strictly increasing")
        self.records.append(record)

    def final(self) -> MetricsRecord:
        return self.records[-1]


@dataclass
class TrainResult:
    params: net.NetworkParams
    adam_state: net.AdamState
    metrics: MetricsLog
    config: TrainConfig


class TrainingDiverged(RuntimeError):
    """Raised when the training loss or a parameter gradient becomes non-finite.

    ``params`` is the live model of the failed step, before any update: the
    parameters the failing batch was computed from.
    """

    def __init__(self, seed: int, iteration: int, cause: str, params: net.NetworkParams):
        super().__init__(f"seed {seed}: non-finite {cause} at iteration {iteration}")
        self.seed = seed
        self.iteration = iteration
        self.cause = cause  # "loss" or "gradient"
        self.params = params

    def __reduce__(self):
        # The default rebuilds from `args`, the message alone, which __init__
        # cannot take; a worker process's divergence then breaks its pool.
        return type(self), (self.seed, self.iteration, self.cause, self.params)


CSV_COLUMNS = ("iteration", "loss", "hv_learned", "hv_true", "log_hv_difference")


def write_metrics_csv(metrics: MetricsLog, path) -> None:
    """Write the metrics log as CSV with full-precision round-trip cells.

    Wall-clock timings are intentionally not written: the CSV is byte-stable
    across reruns of the same config and seed.
    """
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(repr(getattr(rec, column)) for column in CSV_COLUMNS)
              for rec in metrics.records]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Samplers and normalization state


def latent_sampler(config: TrainConfig, problem: Problem):
    """Build the initial-distribution sampler for the configured algorithm.

    Returns ``draw(n, seed)`` producing an (n, k) array, plus the input
    standardisation (offset, scale) the network should apply. The one
    place that sets the latent dimension k: gpsl-g and gpsl-l take
    ``config.latent_dim``, or ``problem.d`` when it is unset; every other
    algorithm samples the m-simplex, so a ``latent_dim`` other than m
    raises ``ValueError``.
    """
    k = config.latent_dim
    if config.algorithm in ("gpsl-g", "gpsl-l"):
        k = problem.d if k is None else k
    elif k is None or k == problem.m:
        k = problem.m
    else:
        raise ValueError(f"{config.algorithm} samples the {problem.m}-simplex; "
                         f"latent_dim {k} is not configurable")
    if config.algorithm == "gpsl-g":
        # Sampling center is the box midpoint when the latent space matches
        # the decision space; reduced-dimension ablations use a standard normal.
        center = (problem.lb + problem.ub) / 2.0 if k == problem.d else np.zeros(k)

        def draw(n, seed):
            return sample_gaussian(k, center, n, seed)

        return draw, center, np.ones(k)
    if config.algorithm == "gpsl-l":
        if k == problem.d:
            lo, hi = problem.lb, problem.ub
        else:
            lo, hi = np.zeros(k), np.ones(k)

        def draw(n, seed):
            return sample_lhs(k, lo, hi, n, seed)

        return draw, (lo + hi) / 2.0, np.maximum((hi - lo) / 2.0, MIN_RANGE)
    # Dirichlet input (gpsl-d and every preference-based algorithm).
    alpha = config.dirichlet_alpha if config.algorithm == "gpsl-d" else 1.0

    def draw(n, seed):
        return sample_dirichlet(k, alpha, n, seed)

    return draw, np.zeros(k), np.ones(k)


class _RunningExtremes:
    """Componentwise running min/max of raw objective vectors, and the
    min-max normalization they define: ``range`` is ``high - low``, at
    least ``MIN_RANGE``."""

    def __init__(self, m: int):
        self.low = np.full(m, np.inf)
        self.high = np.full(m, -np.inf)
        self.range = np.full(m, MIN_RANGE)

    def update(self, objectives: np.ndarray) -> None:
        self.low = np.minimum(self.low, objectives.min(axis=0))
        self.high = np.maximum(self.high, objectives.max(axis=0))
        self.range = np.maximum(self.high - self.low, MIN_RANGE)

    def normalize(self, objectives: np.ndarray) -> np.ndarray:
        return (objectives - self.low) / self.range


# ---------------------------------------------------------------------------
# Per-batch loss + gradient (shared by training and gradient tests)


def _batch_mean(values: np.ndarray) -> float:
    # Summed left to right from 0.0, as a loop `loss += value / n` would:
    # np.sum and np.mean sum pairwise and move the last bits of the loss.
    return float(0.0 + np.cumsum(values / len(values))[-1])


def _algorithm_loss(config: TrainConfig, problem: Problem):
    """The loss of ``config.algorithm`` on a normalized batch.

    Returns ``loss(y, latents) -> (loss, dL/dy)``. GPSL scores the batch by
    its negated hypervolume approximation; the preference algorithms take
    the mean of their scalarization, with the latents as preferences. The
    Tchebycheff losses measure from the running ideal point, the extremes'
    ``low``, which the normalization puts at the origin.
    """
    r = np.full(problem.m, config.ref_offset)
    if config.algorithm in GPSL_ALGORITHMS:
        dirs = das_dennis(problem.m, config.directions_h or default_divisions(problem.m))
        return lambda y, latents: (-r2_hv_approx(y, r, dirs) / len(y),
                                   -r2_hv_subgradient(y, r, dirs) / len(y))
    eps, gamma = config.tch_epsilon, config.cosmos_gamma

    def psl_hv(y, prefs):
        # Projected distance along the unit direction of the clamped
        # preference, maximized, so its negative is the loss.
        lam = np.maximum(prefs, PREFERENCE_CLAMP)
        # The stacked matmul rounds like np.linalg.norm of each row.
        lam = lam / np.sqrt(np.matmul(lam[:, None, :], lam[:, :, None]))[:, 0]
        s, grad = hv_scalarization(y, lam, r)
        return -s, -grad

    # (y, prefs) -> (values (n,), gradients (n, m)). Each closure looks its
    # scalarization up by name at call time, so a wrapper installed on this
    # module (as the benchmark's per-layer tracer does) sees each call.
    preference = {
        "psl-ls": lambda y, prefs: weighted_sum(y, prefs),
        "psl-tch": lambda y, prefs: tchebycheff(y, prefs, eps),
        "psl-mtch": lambda y, prefs: modified_tchebycheff(y, prefs, eps),
        "cosmos": lambda y, prefs: cosmos(y, prefs, gamma),
        "psl-hv": psl_hv,
    }[config.algorithm]

    def loss(y, prefs):
        values, grads = preference(y, prefs)
        return _batch_mean(values), grads / len(values)

    return loss


def _batch_loss(params, latents, problem: Problem, extremes, loss):
    """Loss and parameter gradient (laid out like ``params.flat``) of one batch.

    Updates ``extremes`` from the batch before normalizing; the gradient of
    ``loss`` (see :func:`_algorithm_loss`) flows back through the
    normalization, the problem Jacobian and the network.
    """
    xs, cache = net.forward(params, latents, problem.lb, problem.ub)
    raw = problem.evaluate_batch(xs)
    extremes.update(raw)
    value, d_loss_d_y = loss(extremes.normalize(raw), latents)
    d_loss_d_raw = d_loss_d_y / extremes.range
    # A stacked matmul rounds like the per-row `J.T @ g`; einsum does not.
    d_loss_d_x = np.matmul(d_loss_d_raw[:, None, :], problem.jacobian(xs))[:, 0, :]
    return value, net.backward(params, cache, d_loss_d_x)


# ---------------------------------------------------------------------------
# Evaluation


def _resolve_front(problem: Problem, front: ParetoFrontData | None) -> ParetoFrontData:
    if front is not None:
        if front.m != problem.m:
            raise ValueError(
                f"front has {front.m} objectives but {problem.id} has {problem.m}"
            )
        return front
    return pareto_front(problem)


def _normalized_front(front: ParetoFrontData, ref_offset: float):
    # The front's normalizer, r and exact HV: computed on first use per
    # ref_offset and kept on the front, whose points are read-only. Every
    # run scored on the front shares them, so r is read-only too. A bad
    # ref_offset is rejected before it can become a key.
    _check_real("ref_offset", ref_offset)
    scaled = front._scaled
    if ref_offset not in scaled:
        extremes = _RunningExtremes(front.m)
        extremes.update(front.points)
        r = np.full(front.m, ref_offset)
        r.flags.writeable = False
        scaled[ref_offset] = extremes, r, exact_hv(extremes.normalize(front.points), r)
    return scaled[ref_offset]


def _hv_report(hv_true: float, hv_learned: float) -> HvReport:
    # The log-difference floor: exact ties (or tiny overshoots) land on
    # log(1e-6) rather than a domain error.
    epsilon_log = 0.0 if hv_learned < hv_true else 1e-6
    return HvReport(
        hv_true=hv_true,
        hv_learned=hv_learned,
        log_hv_difference=log_hv_difference(hv_true, hv_learned, epsilon_log),
        epsilon_log=epsilon_log,
    )


def _score(params, problem: Problem, latents, normalized) -> HvReport:
    # The one evaluation path: latents -> model -> objectives normalized by
    # the front's extremes -> exact hypervolume, which skips dominated points.
    extremes, r, hv_true = normalized
    xs = net._predict(params, latents, problem.lb, problem.ub)
    y = extremes.normalize(problem.evaluate_batch(xs))
    return _hv_report(hv_true, exact_hv(y, r))


def evaluate_model(
    params: net.NetworkParams,
    problem: Problem,
    sampler,
    front: ParetoFrontData,
    n_eval: int = 1000,
    seed: int = DEFAULT_EVAL_SEED,
    ref_offset: float = REF_OFFSET,
) -> HvReport:
    """Score a trained model against a reference front.

    Draws ``n_eval`` latent vectors from the algorithm's initial distribution
    with a fixed seed, maps them through the model, normalizes objectives by
    the front's componentwise extremes and compares exact hypervolumes (of
    the non-dominated subset) at reference point (ref_offset, ...). A front
    with another number of objectives than the problem, or a ``ref_offset``
    that is not finite and > 0, or an ``n_eval`` that is not an int >= 1,
    raises ``ValueError``."""
    _check_count("n_eval", n_eval)
    normalized = _normalized_front(_resolve_front(problem, front), ref_offset)
    return _score(params, problem, sampler(n_eval, seed), normalized)


# ---------------------------------------------------------------------------
# Training loops


def _train_loop(config: TrainConfig, problem: Problem, front: ParetoFrontData,
                batch_loss) -> TrainResult:
    draw, in_offset, in_scale = latent_sampler(config, problem)
    layer_sizes = (len(in_offset), *config.hidden_sizes, problem.d)
    params = net.init_network(layer_sizes, config.seed, in_offset, in_scale)
    state = net.init_adam(params, learning_rate=config.learning_rate, beta1=config.beta1,
                          beta2=config.beta2, eps=config.eps_adam)
    rng = np.random.default_rng(config.seed)
    normalized = _normalized_front(front, config.ref_offset)
    eval_latents = draw(config.eval_samples, config.eval_seed)  # the same every row
    metrics = MetricsLog()
    start = time.perf_counter()

    def evaluate(iteration: int, loss: float):
        report = _score(params, problem, eval_latents, normalized)
        metrics.append(
            MetricsRecord(
                iteration=iteration,
                loss=loss,
                hv_learned=report.hv_learned,
                hv_true=report.hv_true,
                log_hv_difference=report.log_hv_difference,
                seconds=time.perf_counter() - start,
            )
        )

    # Row 0 scores the untrained model; its loss is probed on an evaluation
    # batch with throwaway extremes so neither the training extremes nor the
    # rng stream are touched, on its own draw (LHS strata depend on n).
    probe_latents = draw(config.batch_size, config.eval_seed)
    probe_loss, _ = batch_loss(params, probe_latents, _RunningExtremes(problem.m))
    evaluate(0, probe_loss)

    extremes = _RunningExtremes(problem.m)
    loss = math.nan
    for iteration in range(1, config.iterations + 1):
        latents = draw(config.batch_size, rng)
        loss, grad = batch_loss(params, latents, extremes)
        if not math.isfinite(loss):
            raise TrainingDiverged(config.seed, iteration, "loss", params)
        try:
            net.adam_step(params, grad, state)
        except net.NonFiniteGradient as err:
            raise TrainingDiverged(config.seed, iteration, "gradient", params) from err
        if iteration % config.eval_interval == 0 or iteration == config.iterations:
            evaluate(iteration, loss)
    return TrainResult(params=params, adam_state=state, metrics=metrics, config=config)


def train(config: TrainConfig, front: ParetoFrontData | None = None) -> TrainResult:
    """Train the model of ``config.algorithm`` and log its evaluations.

    GPSL algorithms maximize the batch hypervolume approximation; the
    preference algorithms minimize their scalarization. ``front`` defaults
    to the problem's analytic reference front.
    """
    problem = get_problem(config.problem)
    front = _resolve_front(problem, front)
    loss = _algorithm_loss(config, problem)
    return _train_loop(config, problem, front,
                       lambda params, latents, extremes:
                       _batch_loss(params, latents, problem, extremes, loss))
