"""Preference-based scalarization functions and their subgradients.

Each function collapses objective vectors ``f`` to scalars given preference
vectors ``p`` and returns ``(value, gradient)``, the gradient taken with
respect to ``f``. Inputs are arrays of shape ``(..., m)``: one vector of
shape ``(m,)`` gives a scalar value, a batch of shape ``(n, m)`` gives
``n`` values and an ``(n, m)`` gradient, and each row equals the call on
that row alone, bit for bit. Ties at max/min operators break toward the
lowest index so the subgradients are deterministic.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "weighted_sum",
    "tchebycheff",
    "modified_tchebycheff",
    "cosmos",
    "hv_scalarization",
]

# Preference components below this are clamped before division.
PREFERENCE_CLAMP = 1e-6


def _arrays(f, p) -> tuple[np.ndarray, np.ndarray]:
    # f and p as float arrays of one shape.
    f = np.asarray(f, dtype=float)
    p = np.asarray(p, dtype=float)
    if f.shape != p.shape:
        raise ValueError(f"objective vector shape {f.shape} != preference shape {p.shape}")
    return f, p


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Dot products over the last axis as stacked matmuls, which round like
    # a 1-D `a @ b`; an elementwise product summed along the axis does not.
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _pick(terms: np.ndarray, i_star: np.ndarray, values) -> tuple[np.ndarray, np.ndarray]:
    # The terms at the chosen index, and a gradient that is ``values`` there
    # and zero elsewhere.
    i_star = i_star[..., None]
    picked = np.take_along_axis(terms, i_star, axis=-1)[..., 0]
    onehot = np.arange(terms.shape[-1]) == i_star
    return picked, np.where(onehot, values, 0.0)


def weighted_sum(f, p):
    """g = sum_i p_i f_i; gradient is p itself."""
    f, p = _arrays(f, p)
    return _dot(p, f), p.copy()


def tchebycheff(f, p, epsilon: float):
    """g = max_i p_i (f_i + eps), f measured from the ideal point (the origin
    after the trainer's min-max normalization); subgradient p_i* at the argmax."""
    f, p = _arrays(f, p)
    terms = p * (f + epsilon)
    return _pick(terms, np.argmax(terms, axis=-1), p)


def modified_tchebycheff(f, p, epsilon: float):
    """g = max_i (f_i + eps) / p_i, f measured from the ideal point;
    subgradient 1/p_i* at the argmax."""
    f, p = _arrays(f, p)
    p = np.maximum(p, PREFERENCE_CLAMP)
    terms = (f + epsilon) / p
    return _pick(terms, np.argmax(terms, axis=-1), 1.0 / p)


def cosmos(f, p, gamma: float = 1.0):
    """g = sum_i p_i f_i - gamma * cos(p, f), with exact analytic gradient.

    When ``f`` is the zero vector the cosine term is treated as 0 with zero
    gradient.
    """
    f, p = _arrays(f, p)
    dot = _dot(p, f)
    norm_f = np.sqrt(_dot(f, f))
    norm_p = np.sqrt(_dot(p, p))
    has_cos = (norm_f > 0.0) & (norm_p > 0.0)
    # Unit norms stand in where there is no cosine term, to keep the
    # division clean; np.where then drops those rows.
    norm_f = np.where(has_cos, norm_f, 1.0)
    norm_p = np.where(has_cos, norm_p, 1.0)
    cos = dot / (norm_p * norm_f)
    # d cos / df = p / (|p||f|) - (p.f) f / (|p| |f|^3); float_power is the
    # libm pow that ** on a float calls, array ** rounds differently. Where
    # |f|^3 underflows to 0 the last term is rescaled to
    # (p.f / |f|) (f / |f|) / (|p||f|), which stays finite.
    cube = np.float_power(norm_f, 3)
    tiny = (cube == 0.0)[..., None]
    along_f = np.where(
        tiny,
        (dot / norm_f)[..., None] * (f / norm_f[..., None]) / (norm_p * norm_f)[..., None],
        dot[..., None] * f / (norm_p * np.where(tiny[..., 0], 1.0, cube))[..., None],
    )
    dcos = p / (norm_p * norm_f)[..., None] - along_f
    value = np.where(has_cos, dot - gamma * cos, dot)[()]
    grad = np.where(has_cos[..., None], p - gamma * dcos, p)
    return value, grad


def hv_scalarization(f, direction, ref):
    """Projected distance min_i (r_i - f_i) / lambda_i along one direction.

    Returns ``(s, grad)`` where ``grad`` is the subgradient of ``s`` (so a
    trainer maximizing ``s`` minimizes ``-s`` with gradient ``-grad``). When
    ``f`` does not strictly dominate the reference point, ``s <= 0`` is
    returned as-is; the training signal still pushes the point inward.
    """
    f, lam = _arrays(f, direction)
    lam = np.maximum(lam, PREFERENCE_CLAMP)
    r = np.asarray(ref, dtype=float)
    quotients = (r - f) / lam
    return _pick(quotients, np.argmin(quotients, axis=-1), -1.0 / lam)
