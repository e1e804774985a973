"""The benchmark's per-layer tracer (`benchmarks/spans.py`, imported
read-only) against the package: every name it wraps must exist, or
`benchmarks/run.py --trace 1` fails, and the problem and loss layers must
be called once per batch, not once per sample."""

import importlib.util
from pathlib import Path

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


@pytest.mark.parametrize("algorithm, loss_calls_per_batch", [("gpsl-g", 0), ("psl-tch", 1)])
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
