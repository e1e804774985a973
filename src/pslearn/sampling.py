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
import numbers
from dataclasses import dataclass
from itertools import combinations

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


def _check_count(name: str, value, low: int = 1) -> int:
    """The one count check: an int (a numpy integer too, a bool not) >= ``low``,
    returned as a Python int for callers that keep it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"need {name} an int, got {value!r}")
    if value < low:
        raise ValueError(f"need {name} >= {low}, got {value}")
    return int(value)


def _check_real(name: str, value, low: float = 0.0, high: float = math.inf, *,
                open_low: bool = True) -> None:
    """The one check of a real setting: a real number (not a bool), finite and
    in (low, high), or in [low, high) when ``open_low`` is false."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"need {name} a real number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"need {name} finite, got {value}")
    if not ((low < value if open_low else low <= value) and value < high):
        need = (f"{'>' if open_low else '>='} {low:g}" if high == math.inf else
                f"in {'(' if open_low else '['}{low:g}, {high:g})")
        raise ValueError(f"need {name} {need}, got {value}")


def _check_box(lb: np.ndarray, ub: np.ndarray) -> None:
    # The one check of a box [lb, ub]: finite bounds with lb < ub at every
    # index; NaN fails every comparison, so it is caught here too.
    bad = np.flatnonzero(~(np.isfinite(lb) & np.isfinite(ub) & (lb < ub)))
    if bad.size:
        raise ValueError(f"need finite lb < ub elementwise; violated at index {bad[0]}")


def sample_gaussian(k: int, center, n: int, seed) -> np.ndarray:
    """Draw ``n`` points from an isotropic unit-variance Gaussian at ``center``."""
    _check_count("n", n)
    _check_count("k", k)
    center = np.broadcast_to(np.asarray(center, dtype=float), (k,))
    z = np.random.default_rng(seed).standard_normal((n, k))
    z += center  # in place: one (n, k) array, the same sum
    return z


def sample_lhs(k: int, lb, ub, n: int, seed) -> np.ndarray:
    """Latin hypercube design over the box ``[lb, ub]^k``.

    Each coordinate gets exactly one sample per equal-width stratum; stratum
    assignment is a seeded random permutation per coordinate and placement
    within a stratum is uniform.
    """
    _check_count("n", n)
    _check_count("k", k)
    lb = np.broadcast_to(np.asarray(lb, dtype=float), (k,))
    ub = np.broadcast_to(np.asarray(ub, dtype=float), (k,))
    _check_box(lb, ub)
    rng = np.random.default_rng(seed)
    samples = np.empty((n, k), dtype=float)
    for j in range(k):
        strata = rng.permutation(n)
        offsets = rng.random(n)
        samples[:, j] = lb[j] + (strata + offsets) / n * (ub[j] - lb[j])
    return samples


def sample_dirichlet(m: int, alpha: float, n: int, seed) -> np.ndarray:
    """Draw ``n`` points from the symmetric Dirichlet(alpha) on the simplex."""
    _check_count("n", n)
    _check_count("m", m)
    _check_real("alpha", alpha)
    return np.random.default_rng(seed).dirichlet(np.full(m, float(alpha)), size=n)


def r2_constant(m: int, n_directions: int) -> float:
    """Volume constant pi^(m/2) / (m * |set| * 2^(m-1) * Gamma(m/2))."""
    return math.pi ** (m / 2) / (m * n_directions * 2 ** (m - 1) * math.gamma(m / 2))


def _lattice_weights(m: int, divisions: int) -> np.ndarray:
    # All compositions of `divisions` into m non-negative parts, first
    # coordinate descending, then the second, ...: stars and bars, with the
    # m - 1 bar positions among divisions + m - 1 slots in reverse
    # lexicographic order and each part the gap between neighbouring bars.
    slots = divisions + m - 1
    bars = np.array(list(combinations(range(slots), m - 1))[::-1])
    return (np.diff(bars, axis=1, prepend=-1, append=slots) - 1) / divisions


def das_dennis(m: int, divisions: int) -> DirectionSet:
    """Simplex-lattice directions: C(divisions+m-1, m-1) unit vectors.

    Weights with components in {0, 1/divisions, ..., 1} summing to 1 are
    enumerated, exact zeros are clamped to a small positive value, and each
    vector is rescaled to unit L2 norm.
    """
    _check_count("m", m, 2)
    _check_count("divisions", divisions)
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
