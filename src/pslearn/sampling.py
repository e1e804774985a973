"""Latent-space samplers and direction-set construction.

The samplers return ``(n, k)`` arrays drawn from the initial distribution
that the transformation model is trained on: an isotropic Gaussian around a
configurable center, a Latin hypercube design over a box, or a symmetric
Dirichlet on the simplex. All of them are deterministic functions of their
seed (an int, or an already-constructed ``numpy.random.Generator`` whose
state they advance).

Direction sets are simplex-lattice weight vectors rescaled to unit L2 norm,
together with the constant that turns summed m-th powers of projected
distances into a volume estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DirectionSet",
    "sample_gaussian",
    "sample_lhs",
    "sample_dirichlet",
    "das_dennis",
    "r2_constant",
    "default_divisions",
]

# Lattice weights with an exact-zero component are clamped to this value
# before normalization so every direction stays strictly positive (the
# hypervolume projection divides by each component).
ZERO_CLAMP = 1e-6


@dataclass(frozen=True)
class DirectionSet:
    """Unit-norm, strictly positive direction vectors with their volume constant."""

    directions: np.ndarray  # (n_directions, m)
    c_m: float
    divisions: int

    def __post_init__(self):
        dirs = self.directions
        if dirs.ndim != 2:
            raise ValueError("directions must be a 2-D (n_directions, m) array")
        norms = np.linalg.norm(dirs, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("all directions must have unit L2 norm (within 1e-12)")
        if np.any(dirs <= 0.0):
            raise ValueError("all direction components must be strictly positive")

    @property
    def m(self) -> int:
        return self.directions.shape[1]

    def __len__(self) -> int:
        return self.directions.shape[0]


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def _check_box(lb: np.ndarray, ub: np.ndarray) -> None:
    # The one check of a box [lb, ub]: finite bounds with lb < ub at every
    # index; NaN fails every comparison, so it is caught here too.
    bad = np.flatnonzero(~(np.isfinite(lb) & np.isfinite(ub) & (lb < ub)))
    if bad.size:
        raise ValueError(f"need finite lb < ub elementwise; violated at index {bad[0]}")


def sample_gaussian(k: int, center, n: int, seed) -> np.ndarray:
    """Draw ``n`` points from an isotropic unit-variance Gaussian at ``center``."""
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    center = np.broadcast_to(np.asarray(center, dtype=float), (k,))
    z = _rng(seed).standard_normal((n, k))
    z += center  # in place: one (n, k) array, the same sum
    return z


def sample_lhs(k: int, lb, ub, n: int, seed) -> np.ndarray:
    """Latin hypercube design over the box ``[lb, ub]^k``.

    Each coordinate gets exactly one sample per equal-width stratum; stratum
    assignment is a seeded random permutation per coordinate and placement
    within a stratum is uniform.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    lb = np.broadcast_to(np.asarray(lb, dtype=float), (k,))
    ub = np.broadcast_to(np.asarray(ub, dtype=float), (k,))
    _check_box(lb, ub)
    rng = _rng(seed)
    samples = np.empty((n, k), dtype=float)
    for j in range(k):
        strata = rng.permutation(n)
        offsets = rng.random(n)
        samples[:, j] = lb[j] + (strata + offsets) / n * (ub[j] - lb[j])
    return samples


def sample_dirichlet(m: int, alpha: float, n: int, seed) -> np.ndarray:
    """Draw ``n`` points from the symmetric Dirichlet(alpha) on the simplex."""
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if alpha <= 0.0:
        raise ValueError(f"need alpha > 0, got {alpha}")
    return _rng(seed).dirichlet(np.full(m, float(alpha)), size=n)


def r2_constant(m: int, n_directions: int) -> float:
    """Volume constant pi^(m/2) / (m * |set| * 2^(m-1) * Gamma(m/2))."""
    return math.pi ** (m / 2) / (m * n_directions * 2 ** (m - 1) * math.gamma(m / 2))


def _lattice_weights(m: int, divisions: int) -> np.ndarray:
    # All compositions of `divisions` into m non-negative parts, enumerated
    # with the first coordinate descending (deterministic order).
    rows: list[tuple[int, ...]] = []

    def recurse(prefix: tuple[int, ...], remaining: int, slots: int):
        if slots == 1:
            rows.append(prefix + (remaining,))
            return
        for first in range(remaining, -1, -1):
            recurse(prefix + (first,), remaining - first, slots - 1)

    recurse((), divisions, m)
    return np.array(rows, dtype=float) / divisions


def das_dennis(m: int, divisions: int) -> DirectionSet:
    """Simplex-lattice directions: C(divisions+m-1, m-1) unit vectors.

    Weights with components in {0, 1/divisions, ..., 1} summing to 1 are
    enumerated, exact zeros are clamped to a small positive value, and each
    vector is rescaled to unit L2 norm.
    """
    if m < 2 or divisions < 1:
        raise ValueError(f"need m >= 2 and divisions >= 1, got m={m}, divisions={divisions}")
    weights = _lattice_weights(m, divisions)
    weights[weights == 0.0] = ZERO_CLAMP
    directions = weights / np.linalg.norm(weights, axis=1, keepdims=True)
    return DirectionSet(
        directions=directions,
        c_m=r2_constant(m, len(directions)),
        divisions=divisions,
    )


def default_divisions(m: int) -> int:
    """Division count giving roughly 100 directions for the given m."""
    h = 1
    while math.comb(h + m - 1, m - 1) < 100:
        h += 1
    return h
