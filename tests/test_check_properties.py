"""Property tests of the count rule and the real-number rule.

Every count the package takes (iterations, sample sizes, layer widths,
seeds, ...) is an int of at least a bound, numpy integers included and bools
not. Every real setting (learning rates, Adam's eps and betas, Dirichlet
alpha, the reference offset, the Tchebycheff epsilon, the COSMOS gamma, the
finite-difference step) is a real number, bools not, that is finite and lies
in (low, high), or in [low, high) where the low bound is closed. Each entry
point is drawn together with a bad value, and the ``ValueError`` must name
the argument; valid values, numpy floats and a closed bound included, pass.
"""

import math
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pslearn import cli, network as net
from pslearn.problems import Problem, finite_difference_jacobian, get_problem, pareto_front
from pslearn.sampling import das_dennis, sample_dirichlet, sample_gaussian, sample_lhs
from pslearn.trainer import TrainConfig, evaluate_model, latent_sampler

ZDT3 = get_problem("zdt3")
FRONT = pareto_front(ZDT3)
PARAMS = net.init_network((ZDT3.d, 4, ZDT3.d), seed=0)
DRAW, _, _ = latent_sampler(TrainConfig(problem="zdt3", algorithm="gpsl-g"), ZDT3)
MOMENT = np.zeros(1)
POINT = np.full((1, ZDT3.d), 0.5)


def config(**settings):
    return TrainConfig(problem="zdt3", algorithm="gpsl-g", **settings)


def problem(m=2, d=3):
    return Problem("toy", m, d, np.zeros(3), np.ones(3), lambda xs: xs[:, :2])


def grid(seeds):
    # The output directory is made only once the seeds have passed.
    with tempfile.TemporaryDirectory() as out:
        cli._build_tasks({"seeds": seeds, "out": out},
                         [("gpsl-g", {"problem": "zdt3", "algorithm": "gpsl-g"})])


# (entry point, the argument's name in the message, the least valid count, a
# valid count); each entry point takes the count as its one argument.
COUNTS = [
    *[(lambda v, key=key: config(**{key: v}), key, 1, 3)
      for key in ("iterations", "batch_size", "eval_interval", "eval_samples", "latent_dim",
                  "directions_h")],
    *[(lambda v, key=key: config(**{key: v}), key, 0, 3) for key in ("seed", "eval_seed")],
    (lambda v: config(hidden_sizes=(4, v)), "hidden_sizes[1]", 1, 3),
    (lambda v: evaluate_model(PARAMS, ZDT3, DRAW, FRONT, n_eval=v), "n_eval", 1, 3),
    (lambda v: problem(m=v), "m", 2, 2),
    (lambda v: problem(d=v), "d", 2, 3),
    (lambda v: net.init_network((2, v, 2), seed=0), "layer_sizes[1]", 1, 3),
    (lambda v: sample_gaussian(2, 0.0, v, seed=0), "n", 1, 3),
    (lambda v: sample_gaussian(v, 0.0, 3, seed=0), "k", 1, 3),
    (lambda v: sample_lhs(2, 0.0, 1.0, v, seed=0), "n", 1, 3),
    (lambda v: sample_lhs(v, 0.0, 1.0, 3, seed=0), "k", 1, 3),
    (lambda v: sample_dirichlet(3, 1.0, v, seed=0), "n", 1, 3),
    (lambda v: sample_dirichlet(v, 1.0, 3, seed=0), "m", 1, 3),
    (lambda v: pareto_front("zdt3", v), "n", 1, 3),
    (lambda v: das_dennis(v, 3), "m", 2, 3),
    (lambda v: das_dennis(2, v), "divisions", 1, 3),
    (grid, "seeds", 1, 2),
    (lambda v: net.AdamState(MOMENT, MOMENT, t=v), "t", 0, 3),
]

# (entry point, the argument's name in the message, low, high, open_low): the
# valid values are (low, high), or [low, high) when open_low is false; each
# entry point takes the number as its one argument.
REALS = [
    *[(lambda v, key=key: config(**{key: v}), key, 0.0, math.inf, True)
      for key in ("learning_rate", "eps_adam", "dirichlet_alpha", "ref_offset")],
    *[(lambda v, key=key: config(**{key: v}), key, 0.0, 1.0, False) for key in ("beta1", "beta2")],
    *[(lambda v, key=key: config(**{key: v}), key, 0.0, math.inf, False)
      for key in ("tch_epsilon", "cosmos_gamma")],
    (lambda v: evaluate_model(PARAMS, ZDT3, DRAW, FRONT, n_eval=3, ref_offset=v),
     "ref_offset", 0.0, math.inf, True),
    (lambda v: sample_dirichlet(3, v, 3, seed=0), "alpha", 0.0, math.inf, True),
    (lambda v: net.AdamState(MOMENT, MOMENT, learning_rate=v), "learning_rate", 0.0, math.inf,
     True),
    (lambda v: net.AdamState(MOMENT, MOMENT, eps=v), "eps", 0.0, math.inf, True),
    *[(lambda v, key=key: net.AdamState(MOMENT, MOMENT, **{key: v}), key, 0.0, 1.0, False)
      for key in ("beta1", "beta2")],
    (lambda v: finite_difference_jacobian(ZDT3, POINT, rel_step=v), "rel_step", 0.0, math.inf,
     True),
]

NUMPY_INTS = st.sampled_from([np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint64])


def not_a_count(low):
    """Floats (integral ones too), bools, strings, and ints or numpy ints below ``low``."""
    below = st.integers(max_value=low - 1)
    return st.one_of(
        st.floats(), st.booleans(), st.text(max_size=3), below,
        st.tuples(st.sampled_from([np.int8, np.int64]), st.integers(-128, low - 1)).map(
            lambda pair: pair[0](pair[1])),
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data(), case=st.sampled_from(COUNTS))
def test_a_bad_count_names_its_argument(data, case):
    call, name, low, _ = case
    value = data.draw(not_a_count(low), label="value")
    with pytest.raises(ValueError, match=f"^need {re.escape(name)} (an int|>= {low}), got "):
        call(value)


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(COUNTS), dtype=NUMPY_INTS)
def test_a_numpy_integer_count_passes(case, dtype):
    call, _, _, valid = case
    call(dtype(valid))


def not_real(low, high, open_low):
    """NaN, +-inf, values outside the interval of any real type, bools and strings."""
    outside = [st.floats(max_value=low, exclude_max=not open_low),
               st.integers(max_value=math.ceil(low) - (0 if open_low else 1))]
    if high < math.inf:
        outside += [st.floats(min_value=high), st.integers(min_value=math.ceil(high))]
    return st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf, np.float32("nan"), np.float64(-np.inf)]),
        *outside, st.booleans(), st.text(max_size=3),
    )


def bound(low, high, open_low):
    """The interval as the message states it."""
    if high == math.inf:
        return f"{'>' if open_low else '>='} {low:g}"
    return f"in {'(' if open_low else '['}{low:g}, {high:g})"


@settings(max_examples=300, deadline=None)
@given(data=st.data(), case=st.sampled_from(REALS))
def test_a_bad_real_names_its_argument(data, case):
    call, name, low, high, open_low = case
    value = data.draw(not_real(low, high, open_low), label="value")
    need = f"(a real number|finite|{re.escape(bound(low, high, open_low))})"
    with pytest.raises(ValueError, match=f"^need {re.escape(name)} {need}, got "):
        call(value)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), case=st.sampled_from(REALS),
       real=st.sampled_from([float, np.float32, np.float64]))
def test_a_valid_real_passes(data, case, real):
    call, _, low, high, open_low = case
    # Float32-wide draws, so every type holds the drawn value exactly, kept
    # to magnitudes a run can use (a rel_step of 1e-45 steps by nothing;
    # 2^-20, about 1e-6, is a float32).
    value = data.draw(st.floats(min_value=low + 2.0**-20 if open_low else low,
                                max_value=min(high, 1e6), exclude_max=high < math.inf,
                                width=32), label="value")
    call(real(value))
    if not open_low:
        call(real(low))
