"""Bound-constrained robust fitting with multi-start search.

A single descent from a warm start is cheap but can stall in a local
basin, e.g. when clutter forms a competing structure. The estimator
therefore also descends from randomly perturbed copies of the start and
keeps the lowest-cost result. Across a frame sequence, each frame is
warm-started from the previous frame's estimate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .geometry import CatenaryRangeError, ConductorConfig, ParamVector, PointCloud, distance_field
from .loss import LossWeights, cost_and_gradient

# Spread of the random restarts around the warm start: x/y position, z,
# yaw, sag, internal offsets. The sag entry is deliberately huge; the sag
# basin is shallow and long, so restarts must jump far along it.
DEFAULT_SIGMA_BY_GROUP = (5.0, 5.0, 2.0, 0.05, 500.0, 0.5)

# Diagonal of the default prior-anchoring penalty, by the same parameter
# groups. The sag entry looks tiny but is sized to the sag basin, which
# is orders of magnitude flatter than the pose directions: it damps the
# frame-to-frame wander of the sag estimate without blocking genuine
# corrections. Pose entries add light friction against frame-to-frame
# drift while staying far enough below the data term that a restart
# jumping several meters into a better basin still wins on total cost.
# The height and offset entries are stiffer on purpose: between frames
# the array neither teleports vertically nor respaces itself, and those
# two moves are exactly how the fit would re-index the conductor ladder
# one row down onto clutter. The offset stiffness still lets a few
# frames of tracking absorb the initial prior's spacing error, but makes
# the ladder effectively rigid against clutter-sized gains, the way the
# fixed tower geometry says it should be.
DEFAULT_REGULARIZATION_BY_GROUP = (0.1, 0.1, 0.3, 10.0, 1e-4, 4.0)

# Absolute physical bounds, independent of the prior. Their width is a
# robustness decision as much as a plausibility one. The sag floor caps
# how far the catenary vertex can dive below the tracked span when heavy
# clutter drags the soft sag direction, so the sag error saturates
# instead of running away. The offset ceiling keeps the inter-conductor
# ladder too short to re-index itself one truth row down (a stretched
# ladder whose upper rungs still sit on real conductors while the lowest
# rung sweeps clutter is a strong spurious minimum of the robust loss).
SAG_BOUNDS = (500.0, 5000.0)
DELTA_BOUNDS = (0.1, 8.0)
# Pose bounds are set relative to the prior.
TRANSLATION_HALF_RANGE = 50.0
YAW_HALF_RANGE = 0.5


def default_sigma(config: ConductorConfig) -> np.ndarray:
    """Per-parameter standard deviation used to draw restart points."""
    g = DEFAULT_SIGMA_BY_GROUP
    return np.array(list(g[:5]) + [g[5]] * config.l)


def default_regularization(config: ConductorConfig) -> np.ndarray:
    """Diagonal of the default quadratic pull toward the frame's prior."""
    g = DEFAULT_REGULARIZATION_BY_GROUP
    return np.array(list(g[:5]) + [g[5]] * config.l)


def default_weights(config: ConductorConfig) -> LossWeights:
    """Unit point weights plus the default prior-anchoring penalty."""
    return LossWeights(r=1.0, q_diag=default_regularization(config))


def default_bounds(prior: ParamVector) -> tuple[np.ndarray, np.ndarray]:
    """Loose search box around a prior: pose within a physical tracking
    gate, sag and internal offsets within absolute plausible ranges."""
    lower = np.concatenate(
        (
            [
                prior.x_o - TRANSLATION_HALF_RANGE,
                prior.y_o - TRANSLATION_HALF_RANGE,
                prior.z_o - TRANSLATION_HALF_RANGE,
                prior.psi - YAW_HALF_RANGE,
                SAG_BOUNDS[0],
            ],
            np.full(prior.deltas.size, DELTA_BOUNDS[0]),
        )
    )
    upper = np.concatenate(
        (
            [
                prior.x_o + TRANSLATION_HALF_RANGE,
                prior.y_o + TRANSLATION_HALF_RANGE,
                prior.z_o + TRANSLATION_HALF_RANGE,
                prior.psi + YAW_HALF_RANGE,
                SAG_BOUNDS[1],
            ],
            np.full(prior.deltas.size, DELTA_BOUNDS[1]),
        )
    )
    return lower, upper


@dataclass(frozen=True)
class EstimatorSettings:
    """Everything the estimator needs besides the data and the prior.

    bounds_lower/bounds_upper of None means rebuild the default box around
    each frame's prior. n_search counts the perturbed restarts launched in
    addition to the warm start. sigma of None means the default spread,
    and weights of None means unit point weights with the default
    prior-anchoring penalty for the model in use.
    """

    n_search: int = 2
    sigma: np.ndarray | None = None
    bounds_lower: np.ndarray | None = None
    bounds_upper: np.ndarray | None = None
    weights: LossWeights | None = None
    max_iterations: int = 200
    cost_tol: float = 1e-9
    grad_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.n_search < 0:
            raise ValueError(f"n_search must be >= 0, got {self.n_search}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        for name in ("sigma", "bounds_lower", "bounds_upper"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, np.asarray(v, dtype=float).ravel())
        if self.sigma is not None and np.any(self.sigma < 0):
            raise ValueError("sigma entries must be >= 0")
        if (self.bounds_lower is None) != (self.bounds_upper is None):
            raise ValueError("provide both bounds_lower and bounds_upper or neither")
        if self.bounds_lower is not None:
            if self.bounds_lower.shape != self.bounds_upper.shape:
                raise ValueError("bounds_lower and bounds_upper must match in length")
            if np.any(self.bounds_lower > self.bounds_upper):
                raise ValueError("bounds_lower must be <= bounds_upper elementwise")

    def resolve_bounds(self, prior: ParamVector) -> tuple[np.ndarray, np.ndarray]:
        if self.bounds_lower is not None:
            if self.bounds_lower.size != prior.size:
                raise ValueError(
                    f"bounds sized for {self.bounds_lower.size} parameters, "
                    f"model has {prior.size}"
                )
            return self.bounds_lower, self.bounds_upper
        return default_bounds(prior)

    def resolve_sigma(self, config: ConductorConfig) -> np.ndarray:
        if self.sigma is not None:
            if self.sigma.size != 5 + config.l:
                raise ValueError(
                    f"sigma sized for {self.sigma.size} parameters, model has {5 + config.l}"
                )
            return self.sigma
        return default_sigma(config)

    def resolve_weights(self, config: ConductorConfig) -> LossWeights:
        if self.weights is not None:
            return self.weights
        return default_weights(config)


class SolverError(RuntimeError):
    """Raised when a descent (or every start of a frame) fails."""

    def __init__(self, message: str, p0: np.ndarray | None = None, frame: int | None = None):
        self.p0 = None if p0 is None else np.asarray(p0, dtype=float)
        self.frame = frame
        super().__init__(message)


@dataclass(frozen=True)
class StartRecord:
    """Outcome of one descent: where it started, where it ended, how long."""

    start_index: int
    p0: np.ndarray
    p: ParamVector
    cost: float
    n_iter: int
    converged: bool
    message: str
    solve_time: float  # seconds


@dataclass(frozen=True)
class EstimationResult:
    """Best descent of the multi-start search plus the full per-start log."""

    p: ParamVector
    cost: float
    best_start: int
    restarts_run: int  # random restarts only, the warm start not included
    solve_time: float  # seconds, all starts combined
    per_point_d: np.ndarray = field(repr=False)
    per_point_k: np.ndarray = field(repr=False)
    starts: tuple[StartRecord, ...] = field(repr=False)

    @property
    def per_start_times(self) -> np.ndarray:
        return np.array([r.solve_time for r in self.starts])


def _clamp(p_arr: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(p_arr, lower), upper)


def solve_single(
    points: PointCloud | np.ndarray,
    p0: ParamVector | np.ndarray,
    config: ConductorConfig,
    prior: ParamVector | None = None,
    settings: EstimatorSettings = EstimatorSettings(),
) -> tuple[ParamVector, float]:
    """One bound-constrained descent from p0; returns (minimizer, cost).

    p0 is projected into the bounds before the descent. The prior only
    matters when the settings carry a nonzero prior penalty.
    """
    p0_v = p0 if isinstance(p0, ParamVector) else ParamVector.from_array(p0)
    anchor = prior if prior is not None else p0_v
    lower, upper = settings.resolve_bounds(anchor)
    start = _clamp(p0_v.to_array(), lower, upper)
    cloud = _as_cloud(points)
    weights = settings.resolve_weights(config)
    c0, _ = cost_and_gradient(start, config, cloud, anchor, weights)
    if not np.isfinite(c0):
        raise SolverError(f"non-finite cost {c0} at the projected start", p0=start)
    p_fit, c_fit, _, _, _ = _descend(
        start, config, cloud, anchor.to_array(), weights, settings, lower, upper
    )
    return p_fit, c_fit


def _as_cloud(points: PointCloud | np.ndarray) -> PointCloud:
    # checked once here, so every loss evaluation takes the points as they are
    return points if isinstance(points, PointCloud) else PointCloud(points)


def _descend(
    p0: np.ndarray,
    config: ConductorConfig,
    cloud: PointCloud,
    prior: np.ndarray,
    weights: LossWeights,
    settings: EstimatorSettings,
    lower: np.ndarray,
    upper: np.ndarray,
) -> tuple[ParamVector, float, int, bool, str]:
    res = minimize(
        cost_and_gradient,
        p0,
        args=(config, cloud, prior, weights),
        jac=True,
        method="L-BFGS-B",
        bounds=list(zip(lower, upper)),
        options={
            "maxiter": settings.max_iterations,
            "ftol": settings.cost_tol,
            "gtol": settings.grad_tol,
        },
    )
    msg = res.message if isinstance(res.message, str) else res.message.decode()
    x = _clamp(res.x, lower, upper)  # guard against round-off past the box
    return ParamVector.from_array(x), float(res.fun), int(res.nit), bool(res.success), msg


def estimate_frame(
    points: PointCloud | np.ndarray,
    prior: ParamVector,
    config: ConductorConfig,
    settings: EstimatorSettings = EstimatorSettings(),
    rng: np.random.Generator | None = None,
) -> EstimationResult:
    """Multi-start fit: the warm start plus n_search perturbed restarts.

    Restart i starts at prior + eta_i, eta_i ~ N(0, diag(sigma^2)),
    clamped into the bounds. The lowest final cost wins; exact ties go to
    the earlier start. With rng omitted, a fresh generator is seeded from
    settings.seed, making the call fully deterministic.
    """
    if prior.deltas.size != config.l:
        raise ValueError(
            f"prior carries {prior.deltas.size} offsets but config "
            f"{config.name!r} expects {config.l}"
        )
    cloud = _as_cloud(points)
    if rng is None:
        rng = np.random.default_rng(settings.seed)
    lower, upper = settings.resolve_bounds(prior)
    weights = settings.resolve_weights(config)
    anchor = prior.to_array()
    sigma = settings.resolve_sigma(config)
    prior_arr = _clamp(anchor, lower, upper)

    starts: list[StartRecord] = []
    for idx in range(1 + settings.n_search):
        if idx == 0:
            start_arr = prior_arr
        else:
            start_arr = _clamp(prior_arr + rng.normal(0.0, sigma), lower, upper)
        t0 = time.perf_counter()
        try:
            p_fit, c_fit, n_iter, ok, msg = _descend(
                start_arr, config, cloud, anchor, weights, settings, lower, upper
            )
        except CatenaryRangeError as exc:
            # a restart that wanders out of the representable range is a
            # failed start, not a failed frame
            starts.append(
                StartRecord(
                    start_index=idx,
                    p0=start_arr,
                    p=ParamVector.from_array(start_arr),
                    cost=np.inf,
                    n_iter=0,
                    converged=False,
                    message=str(exc),
                    solve_time=time.perf_counter() - t0,
                )
            )
            continue
        starts.append(
            StartRecord(
                start_index=idx,
                p0=start_arr,
                p=p_fit,
                cost=c_fit,
                n_iter=n_iter,
                converged=ok,
                message=msg,
                solve_time=time.perf_counter() - t0,
            )
        )

    best = min(starts, key=lambda r: (r.cost, r.start_index))
    if not np.isfinite(best.cost):
        raise SolverError(
            "every start failed: " + "; ".join(r.message for r in starts),
            p0=prior_arr,
        )
    d, k_star, _, _, _ = distance_field(best.p, config, cloud)
    return EstimationResult(
        p=best.p,
        cost=best.cost,
        best_start=best.start_index,
        restarts_run=len(starts) - 1,
        solve_time=sum(r.solve_time for r in starts),
        per_point_d=d,
        per_point_k=k_star,
        starts=tuple(starts),
    )


def track_sequence(
    frames: list[PointCloud] | list[np.ndarray],
    initial_prior: ParamVector,
    config: ConductorConfig,
    settings: EstimatorSettings = EstimatorSettings(),
) -> list[EstimationResult]:
    """Fit a frame sequence, warm-starting each frame from the last fit.

    One RNG stream seeded from settings.seed drives all restart draws, so
    the whole sequence is reproducible. Failures carry the frame index.
    """
    if not frames:
        raise ValueError("need at least one frame")
    rng = np.random.default_rng(settings.seed)
    prior = initial_prior
    results: list[EstimationResult] = []
    for t, frame in enumerate(frames):
        try:
            result = estimate_frame(frame, prior, config, settings, rng)
        except SolverError as exc:
            raise SolverError(f"frame {t}: {exc}", p0=exc.p0, frame=t) from exc
        results.append(result)
        prior = result.p
    return results
