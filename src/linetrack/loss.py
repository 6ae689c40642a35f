"""Robust loss over the catenary-array model and its analytical gradient.

Each point contributes its weight times log10(1 + d^2), where d is the
distance to the nearest conductor. The log flattens far from the model,
so outliers add a bounded, nearly constant amount instead of dominating
the fit. A diagonal quadratic penalty optionally anchors the parameters
to a prior estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    ConductorConfig,
    ParamVector,
    PointCloud,
    _as_points,
    _residuals,
    distance_field,
)

# d(log10(1 + d^2)) / d(d^2) = _DLOG / (1 + d^2)
_DLOG = 1.0 / np.log(10.0)


def point_cost(d: float | np.ndarray) -> float | np.ndarray:
    """Robust cost of a single residual distance: log10(1 + d^2)."""
    c = np.log10(1.0 + np.square(d))
    if np.ndim(d) == 0:
        return float(c)
    return c


@dataclass(frozen=True)
class LossWeights:
    """Per-point weights and the diagonal of the prior-anchoring penalty.

    r is a scalar broadcast over all points or a per-point vector. q_diag
    has one entry per parameter; zeros (the default) disable the pull
    toward the prior entirely.
    """

    r: float | np.ndarray = 1.0
    q_diag: np.ndarray | None = None

    def __post_init__(self):
        r = float(self.r) if np.ndim(self.r) == 0 else np.asarray(self.r, dtype=float).ravel()
        if np.any(np.asarray(r) < 0):
            raise ValueError("point weights must be >= 0")
        object.__setattr__(self, "r", r)
        if self.q_diag is not None:
            q = np.asarray(self.q_diag, dtype=float).ravel()
            if np.any(q < 0):
                raise ValueError("prior penalty weights must be >= 0")
            object.__setattr__(self, "q_diag", q)

    def point_weights(self, m: int) -> np.ndarray | float:
        if isinstance(self.r, float):
            return self.r
        if np.size(self.r) != m:
            raise ValueError(f"{np.size(self.r)} point weights for {m} points")
        return self.r

    def penalty_diag(self, n_par: int) -> np.ndarray:
        if self.q_diag is None:
            return np.zeros(n_par)
        if self.q_diag.size != n_par:
            raise ValueError(
                f"prior penalty sized for {self.q_diag.size} parameters, model has {n_par}"
            )
        return self.q_diag


DEFAULT_WEIGHTS = LossWeights()


@dataclass(frozen=True)
class LossReport:
    """Cost breakdown: per-point distances and the regularization share."""

    total: float
    points_cost: float
    regularization: float
    d: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)
    k_star: np.ndarray = field(repr=False)


def _param_array(p: ParamVector | np.ndarray, config: ConductorConfig) -> np.ndarray:
    arr = p.to_array() if isinstance(p, ParamVector) else np.asarray(p, dtype=float).ravel()
    if arr.size != 5 + config.l:
        raise ValueError(
            f"parameter vector has {arr.size} entries but config {config.name!r} "
            f"expects {5 + config.l}"
        )
    if not arr[4] > 0:
        raise ValueError(f"sag parameter must be positive, got {arr[4]}")
    return arr


def _prior_array(
    prior: ParamVector | np.ndarray | None, n_par: int
) -> np.ndarray | None:
    if prior is None:
        return None
    arr = prior.to_array() if isinstance(prior, ParamVector) else np.asarray(prior, dtype=float)
    if arr.size != n_par:
        raise ValueError(f"prior has {arr.size} parameters, model has {n_par}")
    return arr


def cost_and_gradient(
    p: ParamVector | np.ndarray,
    config: ConductorConfig,
    points: PointCloud | np.ndarray,
    prior: ParamVector | np.ndarray | None = None,
    weights: LossWeights = DEFAULT_WEIGHTS,
) -> tuple[float, np.ndarray]:
    """Total loss and its exact gradient with respect to the parameters.

    The gradient treats each point's nearest-conductor assignment as fixed,
    which matches the cost exactly everywhere except on the measure-zero
    set where the assignment switches. The d of the chain rule cancels
    against the 1/d of the distance derivative, so a point lying exactly
    on a conductor contributes zero gradient with no special casing.
    """
    p_arr = _param_array(p, config)
    pts = _as_points(points)
    prior_arr = _prior_array(prior, p_arr.size)
    r = weights.point_weights(pts.shape[0])
    d2, e2, e3, x_j, k, along, across = _residuals(pts, p_arr, config.jacobian)
    one_d2 = 1.0 + d2
    total = float((r * np.log10(one_d2)).sum())

    # w * (e2 * de2/dp + e3 * de3/dp) summed over points, where
    # w = 2 r d(log10(1+d^2))/d(d^2); de2/dpsi = -along, de3/dpsi = -sinh(u) across.
    w = (2.0 * _DLOG) * r / one_d2
    u = x_j / p_arr[4]
    sinh_u = np.sinh(u)
    we2 = w * e2
    we3 = w * e3
    we3_sinh = we3 * sinh_u
    s_e2, s_e3, s_e3_sinh = we2.sum(), we3.sum(), we3_sinh.sum()
    c, s = math.cos(p_arr[3]), math.sin(p_arr[3])
    grad = np.empty(p_arr.size)
    grad[0] = s * s_e2 + c * s_e3_sinh
    grad[1] = s * s_e3_sinh - c * s_e2
    grad[2] = -s_e3
    grad[3] = -(we2 @ along) - we3_sinh @ across
    grad[4] = -(we3 @ (np.cosh(u) - u * sinh_u - 1.0))
    if config.l:
        # offset block: per-conductor sums of the x/y/z partials, then one
        # product with the constant jacobian
        q = config.q
        per_k = np.concatenate(
            (np.bincount(k, we3_sinh, q), -np.bincount(k, we2, q), -np.bincount(k, we3, q))
        )
        grad[5:] = per_k @ config.jacobian.reshape(3 * q, config.l)

    if prior_arr is not None:
        dp = p_arr - prior_arr
        q_dp = weights.penalty_diag(p_arr.size) * dp
        total += float(dp @ q_dp)
        grad += 2.0 * q_dp

    return total, grad


def total_loss(
    p: ParamVector | np.ndarray,
    config: ConductorConfig,
    points: PointCloud | np.ndarray,
    prior: ParamVector | np.ndarray | None = None,
    weights: LossWeights = DEFAULT_WEIGHTS,
) -> LossReport:
    """Loss with a full per-point breakdown (slower than cost_and_gradient)."""
    p_arr = _param_array(p, config)
    d, k_star, _, _, _ = distance_field(ParamVector.from_array(p_arr), config, points)
    c_i = np.log10(1.0 + np.square(d))
    points_cost = float(np.sum(weights.point_weights(d.size) * c_i))

    reg = 0.0
    prior_arr = _prior_array(prior, p_arr.size)
    if prior_arr is not None:
        q = weights.penalty_diag(p_arr.size)
        dp = p_arr - prior_arr
        reg = float(dp @ (q * dp))
    return LossReport(
        total=points_cost + reg,
        points_cost=points_cost,
        regularization=reg,
        d=d,
        c=c_i,
        k_star=k_star,
    )


def loss_gradient(
    p: ParamVector | np.ndarray,
    config: ConductorConfig,
    points: PointCloud | np.ndarray,
    prior: ParamVector | np.ndarray | None = None,
    weights: LossWeights = DEFAULT_WEIGHTS,
) -> np.ndarray:
    """Gradient of the total loss; see cost_and_gradient for the semantics."""
    _, grad = cost_and_gradient(p, config, points, prior, weights)
    return grad


def numerical_gradient(
    p: ParamVector,
    config: ConductorConfig,
    points: PointCloud | np.ndarray,
    prior: ParamVector | np.ndarray | None = None,
    weights: LossWeights = DEFAULT_WEIGHTS,
    h: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient, for validating the analytical one.

    The step for coordinate i is h scaled by max(1, |p_i|) so that
    large-magnitude parameters (the sag, mainly) keep a usable step.
    """
    p_arr = p.to_array()
    grad = np.zeros(p_arr.size)
    for i in range(p_arr.size):
        hi = h * max(1.0, abs(p_arr[i]))
        up = p_arr.copy()
        up[i] += hi
        dn = p_arr.copy()
        dn[i] -= hi
        c_up, _ = cost_and_gradient(up, config, points, prior, weights)
        c_dn, _ = cost_and_gradient(dn, config, points, prior, weights)
        grad[i] = (c_up - c_dn) / (2.0 * hi)
    return grad
