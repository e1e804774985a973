"""Multi-objective test problems with analytic Jacobians and reference fronts.

Implemented problems (all minimization):

* ``zdt3``  -- 2 objectives, 30 variables in [0, 1]; disconnected front.
* ``dtlz5`` -- 3 objectives, 12 variables in [0, 1]; degenerate (curve) front.
* ``dtlz7`` -- 3 objectives, 22 variables in [0, 1]; four disconnected patches.
* ``four_bar_truss`` -- 2 objectives, 4 structural sizing variables.
* ``disc_brake``     -- 3 objectives, 4 design variables; the third objective
  is the total constraint violation sum(max(0, violation_k)), whose
  subgradient at a constraint boundary is taken as 0.

Problems work on batches only: :meth:`Problem.evaluate_batch` maps an
``(n, d)`` array of decision vectors to ``(n, m)`` objectives and
:meth:`Problem.jacobian` to the ``(n, m, d)`` stack of their Jacobians.

Additional problems can be registered at runtime (a batch evaluation
callback plus bounds, optionally a batch Jacobian; see :class:`Problem`);
their reference fronts are supplied through plain-text files, one
point per row, ``m`` columns, ``#`` comments allowed.

Analytic Jacobians are exact away from the non-smooth loci documented per
problem; a central finite-difference fallback is available for registered
problems without a hand-coded Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .hv import nondominated_filter
from .sampling import _check_box

__all__ = [
    "Problem",
    "ParetoFrontData",
    "get_problem",
    "register_problem",
    "available_problems",
    "pareto_front",
    "load_reference_front",
    "finite_difference_jacobian",
]


@dataclass(frozen=True)
class Problem:
    """An m-objective, d-variable analytic test function with box bounds.

    Both callbacks work on whole batches: ``_evaluate_batch`` maps an
    ``(n, d)`` array of in-bounds decision vectors to ``(n, m)`` objectives,
    and ``_jacobian``, when given, maps the same ``(n, d)`` array to the
    ``(n, m, d)`` stack of their Jacobians. Each output row must depend only
    on its own input row. Without ``_jacobian``, :meth:`jacobian` falls back
    to :func:`finite_difference_jacobian`.
    """

    id: str
    m: int
    d: int
    lb: np.ndarray
    ub: np.ndarray
    _evaluate_batch: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    _jacobian: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)
    _front: Callable[[int], np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        lb = np.asarray(self.lb, dtype=float)
        ub = np.asarray(self.ub, dtype=float)
        object.__setattr__(self, "lb", lb)
        object.__setattr__(self, "ub", ub)
        if lb.shape != (self.d,) or ub.shape != (self.d,):
            raise ValueError(f"bounds must have shape ({self.d},)")
        _check_box(lb, ub)
        if self.m < 2:
            raise ValueError(f"need m >= 2 objectives, got {self.m}")
        if self.d < self.m:
            raise ValueError(f"need d >= m, got d={self.d}, m={self.m}")

    def _checked_batch(self, xs: np.ndarray) -> np.ndarray:
        if xs.ndim != 2 or xs.shape[1] != self.d:
            raise ValueError(f"{self.id}: expected an (n, {self.d}) array")
        outside = (xs < self.lb) | (xs > self.ub)
        if outside.any():
            # Name the first offending variable of the first offending row.
            row = int(np.argmax(outside.any(axis=1)))
            idx = int(np.argmax(outside[row]))
            raise ValueError(
                f"{self.id}: decision variable {idx} = {xs[row, idx]!r} outside "
                f"[{self.lb[idx]!r}, {self.ub[idx]!r}]"
            )
        return xs

    def evaluate_batch(self, xs) -> np.ndarray:
        """Objectives (n, m) of the decision vectors (n, d); raises, naming
        the first offending row's variable, on out-of-bounds input."""
        return self._evaluate_batch(self._checked_batch(np.asarray(xs, dtype=float)))

    def jacobian(self, xs) -> np.ndarray:
        """Jacobians (n, m, d) of the decision vectors (n, d).

        Analytic when the problem has one, otherwise central finite
        differences. Input is checked as in :meth:`evaluate_batch`.
        """
        if self._jacobian is None:
            return finite_difference_jacobian(self, xs)
        return self._jacobian(self._checked_batch(np.asarray(xs, dtype=float)))


@dataclass(frozen=True)
class ParetoFrontData:
    """A non-dominated reference front in objective space.

    ``points`` is a read-only float64 copy, so what evaluation derives from
    it once per ``ref_offset`` never goes stale.
    """

    points: np.ndarray  # (n, m)
    source: str  # "analytic" | "file"
    # Evaluation's normalizer, r and HV of the points per ref_offset; filled
    # and read by trainer._normalized_front alone.
    _scaled: dict[float, tuple] = field(default_factory=dict, init=False, compare=False,
                                        repr=False)

    def __post_init__(self):
        points = np.array(self.points, dtype=np.float64)
        if points.ndim != 2 or len(points) == 0:
            raise ValueError("front must be a non-empty (n, m) array")
        if not np.all(np.isfinite(points)):
            raise ValueError("front points must be finite")
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    @property
    def m(self) -> int:
        return self.points.shape[1]


def finite_difference_jacobian(problem: Problem, xs, rel_step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobians (n, m, d) of the decision vectors (n, d).

    The step is rel_step * (ub - lb); a coordinate too close to a bound for
    the centered stencil gets a one-sided difference. All 2 n d probe
    points go through one :meth:`Problem.evaluate_batch` call.
    """
    xs = problem._checked_batch(np.asarray(xs, dtype=float))
    n, d = xs.shape
    h = rel_step * (problem.ub - problem.lb)
    lo = np.maximum(xs - h, problem.lb)
    hi = np.minimum(xs + h, problem.ub)
    moved = np.eye(d, dtype=bool)  # probe j moves coordinate j only
    probes = np.concatenate(
        [np.where(moved, hi[:, None, :], xs[:, None, :]),
         np.where(moved, lo[:, None, :], xs[:, None, :])]
    )
    f = problem.evaluate_batch(probes.reshape(-1, d)).reshape(2, n, d, problem.m)
    return ((f[0] - f[1]) / (hi - lo)[:, :, None]).transpose(0, 2, 1)


def _columns(*columns) -> np.ndarray:
    # (n, k) array from k per-point columns; scalars are repeated down a column.
    return np.stack(np.broadcast_arrays(*columns), axis=1)


# ---------------------------------------------------------------------------
# ZDT3 (d = 30, bounds [0, 1]; front disconnected, f1 = x1)

_ZDT3_D = 30


def _zdt3_eval(xs: np.ndarray) -> np.ndarray:
    d = xs.shape[1]
    f1 = xs[:, 0]
    g = 1.0 + 9.0 * xs[:, 1:].sum(axis=1) / (d - 1)
    f2 = g - np.sqrt(f1 * g) - f1 * np.sin(10.0 * np.pi * f1)
    return np.column_stack([f1, f2])


def _zdt3_jac(xs: np.ndarray) -> np.ndarray:
    # f2 = g - sqrt(f1 g) - f1 sin(10 pi f1); singular at f1 = 0.
    n, d = xs.shape
    f1 = xs[:, 0]
    g = 1.0 + 9.0 * xs[:, 1:].sum(axis=1) / (d - 1)
    jac = np.zeros((n, 2, d))
    jac[:, 0, 0] = 1.0
    jac[:, 1, 0] = (
        -0.5 * np.sqrt(g / f1)
        - np.sin(10.0 * np.pi * f1)
        - 10.0 * np.pi * f1 * np.cos(10.0 * np.pi * f1)
    )
    jac[:, 1, 1:] = ((1.0 - 0.5 * np.sqrt(f1 / g)) * 9.0 / (d - 1))[:, None]
    return jac


def _zdt3_front(n: int) -> np.ndarray:
    # On the optimal set g = 1 and f2 = 1 - sqrt(f1) - f1 sin(10 pi f1);
    # the disconnected segments emerge from non-dominated filtering.
    f1 = np.linspace(0.0, 1.0, max(n, 2) * 3)
    f2 = 1.0 - np.sqrt(f1) - f1 * np.sin(10.0 * np.pi * f1)
    return nondominated_filter(np.column_stack([f1, f2]))


# ---------------------------------------------------------------------------
# DTLZ5 (m = 3, d = 12, bounds [0, 1]; front is a curve)

_DTLZ5_M = 3
_DTLZ5_D = 12


def _dtlz5_eval(xs: np.ndarray) -> np.ndarray:
    g = ((xs[:, 2:] - 0.5) ** 2).sum(axis=1)
    t = 1.0 + g
    theta1 = 0.5 * np.pi * xs[:, 0]
    theta2 = np.pi / (4.0 * t) * (1.0 + 2.0 * g * xs[:, 1])
    f1 = t * np.cos(theta1) * np.cos(theta2)
    f2 = t * np.cos(theta1) * np.sin(theta2)
    f3 = t * np.sin(theta1)
    return np.column_stack([f1, f2, f3])


def _dtlz5_jac(xs: np.ndarray) -> np.ndarray:
    n, d = xs.shape
    tail = xs[:, 2:] - 0.5
    g = (tail**2).sum(axis=1)
    t = 1.0 + g
    theta1 = 0.5 * np.pi * xs[:, 0]
    theta2 = np.pi / (4.0 * t) * (1.0 + 2.0 * g * xs[:, 1])
    c1, s1 = np.cos(theta1), np.sin(theta1)
    c2, s2 = np.cos(theta2), np.sin(theta2)
    dg = 2.0 * tail
    # float_power is libm's pow; an array's ** 2 is a multiplication, which
    # rounds differently in the last bit.
    dtheta2_dg = 0.25 * np.pi * (2.0 * xs[:, 1] - 1.0) / np.float_power(t, 2)
    dtheta2_dx2 = 0.5 * np.pi * g / t

    jac = np.zeros((n, 3, d))
    # f1 = t c1 c2
    jac[:, 0, 0] = -0.5 * np.pi * t * s1 * c2
    jac[:, 0, 1] = -t * c1 * s2 * dtheta2_dx2
    jac[:, 0, 2:] = (c1 * (c2 - t * s2 * dtheta2_dg))[:, None] * dg
    # f2 = t c1 s2
    jac[:, 1, 0] = -0.5 * np.pi * t * s1 * s2
    jac[:, 1, 1] = t * c1 * c2 * dtheta2_dx2
    jac[:, 1, 2:] = (c1 * (s2 + t * c2 * dtheta2_dg))[:, None] * dg
    # f3 = t s1
    jac[:, 2, 0] = 0.5 * np.pi * t * c1
    jac[:, 2, 2:] = s1[:, None] * dg
    return jac


def _dtlz5_front(n: int) -> np.ndarray:
    # With g = 0 the image is the curve (cos(t)/sqrt2, cos(t)/sqrt2, sin(t)).
    t = np.linspace(0.0, 0.5 * np.pi, max(n, 2))
    c = np.cos(t) / np.sqrt(2.0)
    return np.column_stack([c, c, np.sin(t)])


# ---------------------------------------------------------------------------
# DTLZ7 (m = 3, d = 22, bounds [0, 1]; front has 4 disconnected patches)

_DTLZ7_M = 3
_DTLZ7_D = 22


def _dtlz7_eval(xs: np.ndarray) -> np.ndarray:
    m = _DTLZ7_M
    tail = xs[:, m - 1 :]
    g = 1.0 + 9.0 * tail.mean(axis=1)
    f12 = xs[:, : m - 1]
    f3 = (1.0 + g) * m - (f12 * (1.0 + np.sin(3.0 * np.pi * f12))).sum(axis=1)
    return np.column_stack([f12, f3])


def _dtlz7_jac(xs: np.ndarray) -> np.ndarray:
    m = _DTLZ7_M
    n, d = xs.shape
    f12 = xs[:, : m - 1]
    jac = np.zeros((n, m, d))
    jac[:, 0, 0] = 1.0
    jac[:, 1, 1] = 1.0
    jac[:, 2, : m - 1] = -(
        1.0 + np.sin(3.0 * np.pi * f12) + 3.0 * np.pi * f12 * np.cos(3.0 * np.pi * f12)
    )
    jac[:, 2, m - 1 :] = m * 9.0 / (d - (m - 1))
    return jac


def _dtlz7_front(n: int) -> np.ndarray:
    # At the optimum g = 1, so f3 = 6 - sum_i f_i (1 + sin(3 pi f_i)) over a
    # grid of (f1, f2); filtering keeps the non-dominated patches.
    side = max(int(math.isqrt(2 * n)), 8)
    f1, f2 = np.meshgrid(np.linspace(0, 1, side), np.linspace(0, 1, side))
    f12 = np.column_stack([f1.ravel(), f2.ravel()])
    f3 = 6.0 - (f12 * (1.0 + np.sin(3.0 * np.pi * f12))).sum(axis=1)
    return nondominated_filter(np.column_stack([f12, f3]))


# ---------------------------------------------------------------------------
# Four bar truss sizing (m = 2, d = 4): structural volume vs joint displacement.

_TRUSS_F = 10.0
_TRUSS_SIGMA = 10.0
_TRUSS_E = 2.0e5
_TRUSS_L = 200.0
_TRUSS_A = _TRUSS_F / _TRUSS_SIGMA


def _truss_eval(xs: np.ndarray) -> np.ndarray:
    x1, x2, x3, x4 = xs.T
    f1 = _TRUSS_L * (2.0 * x1 + np.sqrt(2.0) * x2 + np.sqrt(x3) + x4)
    f2 = (_TRUSS_F * _TRUSS_L / _TRUSS_E) * (
        2.0 / x1 + 2.0 * np.sqrt(2.0) / x2 - 2.0 * np.sqrt(2.0) / x3 + 2.0 / x4
    )
    return np.column_stack([f1, f2])


def _truss_jac(xs: np.ndarray) -> np.ndarray:
    x1, x2, x3, x4 = xs.T
    k = _TRUSS_F * _TRUSS_L / _TRUSS_E
    pw = np.float_power  # libm pow, as the dtlz5 Jacobian explains
    return np.stack(
        [
            _columns(2.0 * _TRUSS_L, np.sqrt(2.0) * _TRUSS_L,
                     _TRUSS_L / (2.0 * np.sqrt(x3)), _TRUSS_L),
            _columns(-2.0 * k / pw(x1, 2), -2.0 * np.sqrt(2.0) * k / pw(x2, 2),
                     2.0 * np.sqrt(2.0) * k / pw(x3, 2), -2.0 * k / pw(x4, 2)),
        ],
        axis=1,
    )


# ---------------------------------------------------------------------------
# Disc brake design (m = 3, d = 4): mass, stopping time, constraint violation.
# Non-smooth where a constraint is exactly active (subgradient 0 there) and
# singular on the measure-zero locus x1 = x2.


def _brake_constraints(x1, x2, x3, x4):
    a = x2**2 - x1**2
    c = x2**3 - x1**3
    g1 = (x2 - x1) - 20.0
    g2 = 0.4 - x3 / (3.14 * a)
    g3 = 1.0 - 2.22e-3 * x3 * c / a**2
    g4 = 2.66e-2 * x3 * x4 * c / a - 900.0
    return g1, g2, g3, g4


def _brake_eval(xs: np.ndarray) -> np.ndarray:
    x1, x2, x3, x4 = xs.T
    a = x2**2 - x1**2
    c = x2**3 - x1**3
    f1 = 4.9e-5 * a * (x4 - 1.0)
    f2 = 9.82e6 * a / (x3 * x4 * c)
    g1, g2, g3, g4 = _brake_constraints(x1, x2, x3, x4)
    violation = sum(np.maximum(0.0, -g) for g in (g1, g2, g3, g4))
    return np.column_stack([f1, f2, violation])


def _brake_jac(xs: np.ndarray) -> np.ndarray:
    x1, x2, x3, x4 = xs.T
    pw = np.float_power  # libm pow, as the dtlz5 Jacobian explains
    a = pw(x2, 2) - pw(x1, 2)
    c = pw(x2, 3) - pw(x1, 3)
    da = _columns(-2.0 * x1, 2.0 * x2, 0.0, 0.0)
    dc = _columns(-3.0 * pw(x1, 2), 3.0 * pw(x2, 2), 0.0, 0.0)

    jac = np.zeros((len(xs), 3, 4))
    jac[:, 0] = 4.9e-5 * (da * (x4 - 1.0)[:, None])
    jac[:, 0, 3] += 4.9e-5 * a
    # f2 = K a / (x3 x4 c)
    k = 9.82e6
    denom = x3 * x4 * c
    ddenom = _columns(x3 * x4 * dc[:, 0], x3 * x4 * dc[:, 1], x4 * c, x3 * c)
    jac[:, 1] = k * (da * denom[:, None] - a[:, None] * ddenom) / pw(denom, 2)[:, None]

    dg1 = np.array([-1.0, 1.0, 0.0, 0.0])
    dg2 = _columns(-2.0 * x1 * x3 / (3.14 * pw(a, 2)), 2.0 * x2 * x3 / (3.14 * pw(a, 2)),
                   -1.0 / (3.14 * a), 0.0)
    # g3 = 1 - k3 x3 c / a^2
    k3 = 2.22e-3
    dg3 = _columns(-k3 * x3 * (dc[:, 0] * a - 2.0 * c * da[:, 0]) / pw(a, 3),
                   -k3 * x3 * (dc[:, 1] * a - 2.0 * c * da[:, 1]) / pw(a, 3),
                   -k3 * c / pw(a, 2), 0.0)
    # g4 = k4 x3 x4 c / a - 900
    k4 = 2.66e-2
    dg4 = _columns(k4 * x3 * x4 * (dc[:, 0] * a - c * da[:, 0]) / pw(a, 2),
                   k4 * x3 * x4 * (dc[:, 1] * a - c * da[:, 1]) / pw(a, 2),
                   k4 * x4 * c / a, k4 * x3 * c / a)
    # The violated set comes from the constraint values the evaluation uses.
    gs = _brake_constraints(x1, x2, x3, x4)
    for g, dg in zip(gs, (dg1, dg2, dg3, dg4)):
        jac[:, 2] -= np.where((g < 0.0)[:, None], dg, 0.0)
    return jac


# ---------------------------------------------------------------------------
# Registry

_REGISTRY: dict[str, Problem] = {}


def register_problem(problem: Problem) -> None:
    """Add a problem to the registry (e.g. a user-supplied engineering model)."""
    if problem.id in _REGISTRY:
        raise ValueError(f"problem {problem.id!r} already registered")
    _REGISTRY[problem.id] = problem


def get_problem(name: str) -> Problem:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; available: {', '.join(available_problems())}"
        ) from None


def available_problems() -> list[str]:
    return sorted(_REGISTRY)


register_problem(
    Problem(
        id="zdt3",
        m=2,
        d=_ZDT3_D,
        lb=np.zeros(_ZDT3_D),
        ub=np.ones(_ZDT3_D),
        _evaluate_batch=_zdt3_eval,
        _jacobian=_zdt3_jac,
        _front=_zdt3_front,
    )
)
register_problem(
    Problem(
        id="dtlz5",
        m=_DTLZ5_M,
        d=_DTLZ5_D,
        lb=np.zeros(_DTLZ5_D),
        ub=np.ones(_DTLZ5_D),
        _evaluate_batch=_dtlz5_eval,
        _jacobian=_dtlz5_jac,
        _front=_dtlz5_front,
    )
)
register_problem(
    Problem(
        id="dtlz7",
        m=_DTLZ7_M,
        d=_DTLZ7_D,
        lb=np.zeros(_DTLZ7_D),
        ub=np.ones(_DTLZ7_D),
        _evaluate_batch=_dtlz7_eval,
        _jacobian=_dtlz7_jac,
        _front=_dtlz7_front,
    )
)
register_problem(
    Problem(
        id="four_bar_truss",
        m=2,
        d=4,
        lb=np.array([_TRUSS_A, np.sqrt(2.0) * _TRUSS_A, np.sqrt(2.0) * _TRUSS_A, _TRUSS_A]),
        ub=np.full(4, 3.0 * _TRUSS_A),
        _evaluate_batch=_truss_eval,
        _jacobian=_truss_jac,
    )
)
register_problem(
    Problem(
        id="disc_brake",
        m=3,
        d=4,
        lb=np.array([55.0, 75.0, 1000.0, 11.0]),
        ub=np.array([80.0, 110.0, 3000.0, 20.0]),
        _evaluate_batch=_brake_eval,
        _jacobian=_brake_jac,
    )
)


# ---------------------------------------------------------------------------
# Reference fronts

def pareto_front(problem: Problem | str, n: int = 1000) -> ParetoFrontData:
    """Analytic reference front of a built-in problem, ~n points.

    Problems without a closed-form front (the engineering designs, registered
    problems) raise ``ValueError``: load a file with :func:`load_reference_front`.
    """
    if isinstance(problem, str):
        problem = get_problem(problem)
    if problem._front is None:
        raise ValueError(
            f"{problem.id} has no analytic reference front; pass --front FILE, "
            "or load one with load_reference_front()"
        )
    return ParetoFrontData(points=problem._front(n), source="analytic")


def load_reference_front(path, m: int | None = None) -> ParetoFrontData:
    """Parse a reference-front text file: one point per row, m columns.

    Rows are whitespace- or comma-separated numbers; ``#`` starts a comment.
    The loaded points are non-dominated filtered and sorted lexicographically
    by objective values (row order in the file is not preserved).
    """
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.replace(",", " ").split()
            try:
                row = [float(tok) for tok in fields]
            except ValueError:
                raise ValueError(f"{path}: malformed row at line {lineno}: {raw.strip()!r}") from None
            if not all(map(math.isfinite, row)):
                raise ValueError(f"{path}: non-finite value at line {lineno}: {raw.strip()!r}")
            if rows and len(row) != len(rows[0]):
                raise ValueError(
                    f"{path}: row width {len(row)} at line {lineno} differs from {len(rows[0])}"
                )
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows found")
    pts = np.asarray(rows, dtype=float)
    if m is not None and pts.shape[1] != m:
        raise ValueError(f"{path}: expected {m} objectives per row, found {pts.shape[1]}")
    pts = nondominated_filter(pts)
    pts = pts[np.lexsort(pts.T[::-1])]
    return ParetoFrontData(points=pts, source="file")
