"""The benchmark's per-layer tracer (`benchmarks/spans.py`, imported
read-only) against the package: every name it wraps must exist, or
`benchmarks/run.py --trace 1` fails, and the problem and loss layers must
be called once per batch, not once per sample; a GPSL batch makes one R2
approximation and one R2 subgradient call; an iteration makes one backward
pass and one in-place Adam step; a run draws its evaluation latents once,
however often it evaluates."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from pslearn.trainer import TrainConfig, train

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(spans):
    for owner, attr, name, _ in spans._targets():
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} (span {name})"


@pytest.mark.parametrize("algorithm, loss_calls_per_batch", [
    ("gpsl-g", 0), ("psl-ls", 1), ("psl-tch", 1), ("psl-mtch", 1), ("cosmos", 1), ("psl-hv", 1),
])
def test_one_jacobian_and_scalarization_call_per_batch(spans, algorithm, loss_calls_per_batch):
    cfg = TrainConfig(problem="zdt3", algorithm=algorithm, iterations=5, batch_size=8,
                      eval_interval=5, eval_samples=32, directions_h=5, hidden_sizes=(8,))
    tracer = spans.Tracer()
    tracer.install()
    try:
        train(cfg)
    finally:
        tracer.uninstall()
    batches = cfg.iterations + 1  # the row-0 loss probe is a batch too
    assert tracer.calls["problems.jacobian"] == batches
    assert tracer.calls["scalarization"] == loss_calls_per_batch * batches


def test_two_r2_calls_per_gpsl_batch(spans):
    # One approximation and one subgradient call, each through the names the
    # tracer wraps: a fused call that bypassed them would zero `hv.r2.*`.
    cfg = TrainConfig(problem="zdt3", algorithm="gpsl-g", iterations=5, batch_size=8,
                      eval_interval=5, eval_samples=32, directions_h=5, hidden_sizes=(8,))
    tracer = spans.Tracer()
    tracer.install()
    try:
        train(cfg)
    finally:
        tracer.uninstall()
    batches = cfg.iterations + 1
    assert tracer.calls["hv.r2"] == 2 * batches
    assert tracer.counts["hv.r2.points_in"] == cfg.batch_size * batches


def test_one_backward_and_adam_step_per_iteration(spans):
    cfg = TrainConfig(problem="zdt3", algorithm="psl-tch", iterations=5, batch_size=8,
                      eval_interval=5, eval_samples=32, hidden_sizes=(8,))
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = train(cfg)
    finally:
        tracer.uninstall()
    assert tracer.calls["network.backward"] == cfg.iterations + 1  # and the row-0 probe
    assert tracer.calls["network.adam_step"] == cfg.iterations
    # One model, updated in place: its layers are still views of its vector.
    assert np.shares_memory(result.params.weights[0], result.params.flat)


def _sampling_calls(spans, **overrides):
    cfg = TrainConfig(problem="zdt3", algorithm="gpsl-l", iterations=6, batch_size=8,
                      eval_samples=32, hidden_sizes=(8,), **overrides)
    tracer = spans.Tracer()
    tracer.install()
    try:
        train(cfg)
    finally:
        tracer.uninstall()
    return tracer.calls["sampling"]


def test_one_evaluation_draw_per_run(spans):
    # Seven evaluation rows draw as often as two: the fixed-seed evaluation
    # latents are drawn once and reused.
    assert _sampling_calls(spans, eval_interval=1) == _sampling_calls(spans, eval_interval=6)
