"""Per-layer spans for the benchmark, recorded from outside the package.

`Tracer.install` replaces each layer's public functions with timing
wrappers, at the names the callers actually resolve at call time, and
`Tracer.uninstall` puts the originals back. Nothing in `pslearn` changes.

Spans are aggregated as they close instead of being kept one by one: the
train-mix workload opens several hundred thousand of them. A span's self
time is its duration minus the durations of the spans opened inside it.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np


def _count_filter(counts, args, out):
    counts["hv.nondominated_filter.points_in"] += len(args[0])
    counts["hv.nondominated_filter.kept"] += len(out)


def _count_r2_subgradient(counts, args, out):
    counts["hv.r2.points_in"] += len(out)
    counts["hv.r2.active"] += int(np.count_nonzero(np.any(out != 0.0, axis=1)))


def _count_rows(counts, args, out):
    counts["problems.evaluate_batch.rows"] += len(out)


def _targets():
    """(owner, attribute, span name, counter) for every wrapped callable.

    The trainer binds `hv`, `sampling` and `scalarization` functions into its
    own namespace, so those are wrapped on `pslearn.trainer`. `exact_hv`
    calls `pslearn.hv.nondominated_filter` and the analytic fronts call
    `pslearn.problems.nondominated_filter`; both are wrapped too. The
    network is reached through the `pslearn.network` module and problem
    evaluation through the `Problem` class.
    """
    from pslearn import hv, network, problems, trainer

    return [
        (trainer, "train", "trainer.train", None),
        (trainer, "write_metrics_csv", "trainer.write_metrics_csv", None),
        (network, "save_checkpoint", "network.save_checkpoint", None),
        (network, "forward", "network.forward", None),
        (network, "backward", "network.backward", None),
        (network, "adam_step", "network.adam_step", None),
        (problems, "pareto_front", "problems.pareto_front", None),
        (problems.Problem, "evaluate_batch", "problems.evaluate_batch", _count_rows),
        (problems.Problem, "jacobian", "problems.jacobian", None),
        (trainer, "nondominated_filter", "hv.nondominated_filter", _count_filter),
        (hv, "nondominated_filter", "hv.nondominated_filter", _count_filter),
        (problems, "nondominated_filter", "hv.nondominated_filter", _count_filter),
        (trainer, "exact_hv", "hv.exact_hv", None),
        (trainer, "r2_hv_approx", "hv.r2", None),
        (trainer, "r2_hv_subgradient", "hv.r2", _count_r2_subgradient),
        (trainer, "sample_gaussian", "sampling", None),
        (trainer, "sample_lhs", "sampling", None),
        (trainer, "sample_dirichlet", "sampling", None),
        (trainer, "das_dennis", "sampling", None),
        (trainer, "weighted_sum", "scalarization", None),
        (trainer, "tchebycheff", "scalarization", None),
        (trainer, "modified_tchebycheff", "scalarization", None),
        (trainer, "cosmos", "scalarization", None),
        (trainer, "hv_scalarization", "scalarization", None),
    ]


class Tracer:
    """Aggregated spans: calls, total and self seconds per span name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._child_s = []  # one accumulator per open span
        self._saved = []

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += elapsed
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - child
            if counter is not None:
                counter(self.counts, args, out)
            return out

        return span

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, counter in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values keyed by the names in BENCHMARK.json."""
        c, s, t, n = self.calls, self.self_s, self.total_s, self.counts
        filt_in = n["hv.nondominated_filter.points_in"]
        r2_in = n["hv.r2.points_in"]
        return {
            "hv.nondominated_filter.calls": c["hv.nondominated_filter"],
            "hv.nondominated_filter.self_s": s["hv.nondominated_filter"],
            "hv.nondominated_filter.points_in": filt_in,
            "hv.nondominated_filter.kept_frac": n["hv.nondominated_filter.kept"] / filt_in if filt_in else 0.0,
            "hv.exact_hv.calls": c["hv.exact_hv"],
            "hv.exact_hv.self_s": s["hv.exact_hv"],
            "hv.r2.calls": c["hv.r2"],
            "hv.r2.self_s": s["hv.r2"],
            "hv.r2.points_in": r2_in,
            "hv.r2.active_frac": n["hv.r2.active"] / r2_in if r2_in else 0.0,
            "problems.jacobian.calls": c["problems.jacobian"],
            "problems.jacobian.self_s": s["problems.jacobian"],
            "problems.evaluate_batch.calls": c["problems.evaluate_batch"],
            "problems.evaluate_batch.rows": n["problems.evaluate_batch.rows"],
            "problems.evaluate_batch.self_s": s["problems.evaluate_batch"],
            "problems.pareto_front.s": t["problems.pareto_front"],
            "scalarization.calls": c["scalarization"],
            "scalarization.self_s": s["scalarization"],
            "network.forward.calls": c["network.forward"],
            "network.forward.self_s": s["network.forward"],
            "network.backward.self_s": s["network.backward"],
            "network.adam_step.self_s": s["network.adam_step"],
            "sampling.calls": c["sampling"],
            "sampling.self_s": s["sampling"],
            "trainer.train.self_s": s["trainer.train"],
            "trainer.write_metrics_csv.s": t["trainer.write_metrics_csv"],
            "network.save_checkpoint.s": t["network.save_checkpoint"],
        }
