"""Golden digests of a fixed training matrix, the tier-1 check for "same numbers".

Each run of :data:`MATRIX` is hashed four ways (sha256): the metrics-CSV
bytes, the final ``params.flat`` and the Adam moments ``m`` and ``v``. Beside
the digests it records the run's final ``loss``, ``hv_learned`` and
``log_hv_difference`` (the ``repr`` of each as a float), so a moved digest
comes with how far the result moved. The loss moves with the model even
where the learned HV is still 0.0, as it is for every zdt3 and dtlz7 run. ``tests/test_golden.py`` recomputes
them and compares with ``golden.json``.

Run ``python tests/make_golden.py`` (with ``src`` on ``PYTHONPATH``) to
rewrite ``golden.json`` after a deliberate change of numbers; it prints every
entry that changed, with ``old -> new (|Δ| d)`` for each final value, and
each one needs a line in ``CHANGES.md`` saying why. The digests hold for one
numpy and BLAS build, which the file records.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from pslearn.trainer import ALGORITHMS, TrainConfig, train, write_metrics_csv

GOLDEN_PATH = Path(__file__).with_name("golden.json")
PROBLEMS = ("zdt3", "dtlz5", "dtlz7")
SEED = 3

# The final values recorded beside the digests.
VALUES = ("loss", "hv_learned", "log_hv_difference")

# (problem, algorithm): every algorithm on every problem.
MATRIX = [(p, a) for p in PROBLEMS for a in ALGORITHMS]


def run_key(problem: str, algorithm: str) -> str:
    return f"{problem}/{algorithm}"


def environment() -> dict:
    """The numpy version and BLAS build the digests depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(problem: str, algorithm: str, workdir: Path) -> dict:
    config = TrainConfig(problem=problem, algorithm=algorithm, iterations=60,
                         eval_interval=20, eval_samples=200, seed=SEED)
    result = train(config)
    csv_path = workdir / "metrics.csv"
    write_metrics_csv(result.metrics, csv_path)
    final = result.metrics.final()
    return {
        "csv": _sha256(csv_path.read_bytes()),
        "params": _sha256(result.params.flat.tobytes()),
        "adam_m": _sha256(result.adam_state.m.tobytes()),
        "adam_v": _sha256(result.adam_state.v.tobytes()),
        **{name: repr(float(getattr(final, name))) for name in VALUES},
    }


def compute() -> dict:
    """Digests of every run of the matrix, keyed by :func:`run_key`."""
    with tempfile.TemporaryDirectory() as tmp:
        return {run_key(*run): run_digests(*run, Path(tmp)) for run in MATRIX}


def _moved(name: str, was: str | None, now: str | None) -> str:
    """``name old -> new (|Δ| d)``; a value missing on one side reads ``-``."""
    delta = "" if was is None or now is None else f" (|Δ| {abs(float(now) - float(was))!r})"
    return f"{name} {was or '-'} -> {now or '-'}{delta}"


def changed_entries(old: dict, new: dict) -> list[str]:
    """One line per run whose entries differ, are new or are gone: the
    changed fields, then how far each final value moved."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        was, now = old.get(key, {}), new.get(key, {})
        fields = [f for f in sorted(was.keys() | now.keys()) if was.get(f) != now.get(f)]
        if fields:
            moves = "; ".join(_moved(name, was.get(name), now.get(name)) for name in VALUES)
            lines.append(f"{key}: {', '.join(fields)}; {moves}")
    return lines


def main() -> int:
    old = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    new = {"environment": environment(), "runs": compute()}
    if old.get("environment", new["environment"]) != new["environment"]:
        print(f"environment: {old['environment']} -> {new['environment']}")
    changed = changed_entries(old.get("runs", {}), new["runs"])
    for entry in changed:
        print(f"changed {entry}")
    print(f"{len(changed)} run(s) changed; wrote {GOLDEN_PATH.name}")
    GOLDEN_PATH.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
