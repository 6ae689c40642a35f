"""Synthetic LiDAR frames of a conductor array.

Generates per-frame point clouds by sampling the true curves, adding
Gaussian sensor noise, and mixing in a cluster of clutter points. Two
sampling regimes: global (returns spread over the whole span, as from an
aerial survey flying along the line) and partial (returns concentrated in
a short slice, as from a scan plane crossing the line).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    ConductorConfig,
    ParamVector,
    PointCloud,
    check_param_count,
    conductor_config,
    distance_field,
    forward_point,
)
from .solver import DELTA_BOUNDS, SAG_BOUNDS, _by_group

DEFAULT_PRIOR_SIGMA_BY_GROUP = (5.0, 5.0, 2.0, 0.05, 200.0, 0.5)


@dataclass(frozen=True)
class OutlierBox:
    """Axis-aligned region the clutter cluster is drawn from, meters."""

    center: tuple[float, float, float]
    extent: tuple[float, float, float] = (10.0, 10.0, 10.0)

    def __post_init__(self):
        if len(self.center) != 3 or len(self.extent) != 3:
            raise ValueError("center and extent must be 3-vectors")
        if min(self.extent) <= 0:
            raise ValueError("outlier box extent must be positive")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        c = np.asarray(self.center, dtype=float)
        e = np.asarray(self.extent, dtype=float)
        return rng.uniform(c - e / 2.0, c + e / 2.0, size=(n, 3))

    def contains(self, points: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center, dtype=float)
        e = np.asarray(self.extent, dtype=float)
        pts = np.asarray(points, dtype=float)
        return np.all(np.abs(pts - c) <= e / 2.0 + 1e-12, axis=1)


@dataclass(frozen=True)
class Scenario:
    """Full description of a synthetic sequence.

    mode "global" draws conductor abscissae uniformly over [-span/2,
    span/2]; mode "partial" draws them from a slice_width-wide band at
    slice_center. Each conductor receives Uniform{0..pts_per_line_max}
    returns per frame, then n_outliers clutter points are appended,
    uniform over the outlier box except for a clearance sleeve around
    the conductors themselves (live lines hang in cleared air, so real
    clutter keeps its distance).
    """

    config: ConductorConfig
    truth: ParamVector
    mode: str = "global"
    span: float = 200.0
    slice_center: float = 50.0
    slice_width: float = 5.0
    pts_per_line_max: int = 10
    noise_sigma: float = 0.1
    n_outliers: int = 10
    outlier_box: OutlierBox | None = None
    clearance: float = 2.5
    n_frames: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("global", "partial"):
            raise ValueError(f"mode must be 'global' or 'partial', got {self.mode!r}")
        if self.span <= 0:
            raise ValueError(f"span must be positive, got {self.span}")
        if self.slice_width <= 0:
            raise ValueError(f"slice width must be positive, got {self.slice_width}")
        if self.pts_per_line_max < 0:
            raise ValueError(f"pts_per_line_max must be >= 0, got {self.pts_per_line_max}")
        if self.n_outliers < 0:
            raise ValueError(f"n_outliers must be >= 0, got {self.n_outliers}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.clearance < 0:
            raise ValueError(f"clearance must be >= 0, got {self.clearance}")
        if self.n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {self.n_frames}")
        check_param_count(self.truth.size, self.config, "truth")

    def abscissa_range(self) -> tuple[float, float]:
        if self.mode == "global":
            return -self.span / 2.0, self.span / 2.0
        half = self.slice_width / 2.0
        return self.slice_center - half, self.slice_center + half

    def resolve_outlier_box(self) -> OutlierBox:
        if self.outlier_box is not None:
            return self.outlier_box
        # Clutter is spread uniformly over the volume surrounding the
        # central stretch of the observed region, the way vegetation,
        # masts and stray returns crowd a real span. A little of it lands
        # inside the robust-loss core around the conductors and corrupts
        # the fit directly, so degradation grows smoothly with density,
        # and there is no compact off-line mass the fit could lock onto
        # instead; past the density threshold the corrupted fit starts
        # losing whole frames and the accuracy ratio collapses.
        if self.mode == "global":
            x_c, x_extent = 0.0, 0.6 * self.span
        else:
            x_c, x_extent = self.slice_center, 30.0
        return OutlierBox(
            center=(x_c, self.truth.y_o, self.truth.z_o),
            extent=(x_extent, 56.0, 56.0),
        )


@dataclass(frozen=True)
class LabeledFrame:
    """One synthetic frame: cloud, per-point labels, and the ground truth.

    labels[i] is the conductor index that produced point i, or -1 for
    clutter. Conductor points come first, in conductor order, then clutter.
    """

    cloud: PointCloud
    labels: np.ndarray
    truth: ParamVector

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=int).ravel()
        if labels.size != len(self.cloud):
            raise ValueError(f"{labels.size} labels for {len(self.cloud)} points")
        object.__setattr__(self, "labels", labels)


def _sample_clutter(
    scenario: Scenario, box: OutlierBox, rng: np.random.Generator
) -> np.ndarray:
    """Uniform draws from the box, rejecting points inside the clearance
    sleeve around the true conductor curves."""
    n = scenario.n_outliers
    pts = box.sample(rng, n)
    if scenario.clearance <= 0:
        return pts
    for _ in range(100):
        d, _, _, _, _ = distance_field(scenario.truth, scenario.config, pts)
        inside = d < scenario.clearance
        if not inside.any():
            return pts
        pts[inside] = box.sample(rng, int(inside.sum()))
    raise RuntimeError(
        "could not place clutter outside the conductor clearance sleeve; "
        "the outlier box is almost entirely within clearance of the array"
    )


def generate_frame(
    scenario: Scenario, frame_index: int, rng: np.random.Generator
) -> LabeledFrame:
    """Draw one synthetic frame from the true model."""
    lo, hi = scenario.abscissa_range()
    box = scenario.resolve_outlier_box()
    truth = scenario.truth
    config = scenario.config

    chunks: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    for k in range(config.q):
        n_k = int(rng.integers(0, scenario.pts_per_line_max + 1))
        if n_k == 0:
            continue
        x_j = rng.uniform(lo, hi, size=n_k)
        pts = forward_point(truth, config, k, x_j)
        pts = pts + rng.normal(0.0, scenario.noise_sigma, size=pts.shape)
        chunks.append(pts)
        labels.append(np.full(n_k, k, dtype=int))
    if scenario.n_outliers > 0:
        chunks.append(_sample_clutter(scenario, box, rng))
        labels.append(np.full(scenario.n_outliers, -1, dtype=int))

    if chunks:
        points = np.vstack(chunks)
        label_arr = np.concatenate(labels)
    else:
        points = np.zeros((0, 3))
        label_arr = np.zeros(0, dtype=int)
    return LabeledFrame(
        cloud=PointCloud(points=points, frame_index=frame_index),
        labels=label_arr,
        truth=truth,
    )


def generate_sequence(scenario: Scenario) -> list[LabeledFrame]:
    """Draw scenario.n_frames frames from one stream seeded by scenario.seed."""
    rng = np.random.default_rng(scenario.seed)
    return [generate_frame(scenario, i, rng) for i in range(scenario.n_frames)]


def random_prior(
    truth: ParamVector,
    perturbation_sigma: np.ndarray,
    rng: np.random.Generator,
) -> ParamVector:
    """Initial guess drawn around the truth, as a detection stage would give.

    The sag and internal offsets are projected into their absolute solver
    bounds so the draw is always a feasible starting prior.
    """
    sigma = np.asarray(perturbation_sigma, dtype=float).ravel()
    arr = truth.to_array()
    if sigma.size != arr.size:
        raise ValueError(f"expected {arr.size} sigma entries, got {sigma.size}")
    if np.any(sigma < 0):
        raise ValueError("sigma entries must be >= 0")
    p = arr + rng.normal(0.0, sigma)
    p[4] = np.clip(p[4], SAG_BOUNDS[0], SAG_BOUNDS[1])
    p[5:] = np.clip(p[5:], DELTA_BOUNDS[0], DELTA_BOUNDS[1])
    return ParamVector.from_array(p)


def default_prior_sigma(config: ConductorConfig) -> np.ndarray:
    """Spread of the random initial priors used by the benchmark protocol."""
    return _by_group(DEFAULT_PRIOR_SIGMA_BY_GROUP, config)


def default_truth(config: ConductorConfig) -> ParamVector:
    """A plausible transmission-line geometry for the given layout."""
    deltas = {
        "1": np.zeros(0),
        "32": np.array([4.0, 6.0, 2.5]),
        "222": np.array([4.0, 5.0]),
    }.get(config.name, np.full(config.l, 3.0))
    return ParamVector(x_o=0.0, y_o=0.0, z_o=20.0, psi=0.0, a=1000.0, deltas=deltas)


def default_scenario(
    config_name: str = "222",
    mode: str = "global",
    n_outliers: int = 10,
    n_frames: int = 100,
    seed: int = 0,
) -> Scenario:
    """The stock sequence: a double-circuit line watched for n_frames."""
    config = conductor_config(config_name)
    return Scenario(
        config=config,
        truth=default_truth(config),
        mode=mode,
        n_outliers=n_outliers,
        n_frames=n_frames,
        seed=seed,
    )

