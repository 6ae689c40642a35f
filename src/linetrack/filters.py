"""Point-cloud pre-filters that strip scene clutter before fitting.

Three independent strategies. Each returns a keep-mask over the input
order, so filtered clouds preserve the original point order and are
always subsets of the input:

* corridor: geometric crop to the rectangle between two known anchor
  positions, plus an elevation-histogram ground cut.
* ground: RANSAC plane fit; removes the plane inliers when the plane is
  large enough to plausibly be terrain.
* clustering: ground removal, then density clustering, then an
  eigenvalue elongation test that keeps only line-shaped clusters.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import PointCloud, _as_points

log = logging.getLogger(__name__)

_UNVISITED = -2
_NOISE = -1


@dataclass(frozen=True)
class CorridorSpec:
    """Corridor crop between two anchor positions (pylon bases).

    Only the horizontal components of the anchors matter for the crop.
    The ground cut histograms the surviving elevations in bin_height bins,
    calls the lowest bin holding more than ground_fraction of them the
    ground layer, and drops everything below that bin's top edge plus
    clearance_bins further bins. Terrain is dense and low, so it forms the
    first loaded bin; conductors hang far above the cut.
    """

    anchor_a: tuple[float, float, float]
    anchor_b: tuple[float, float, float]
    half_width: float = 20.0
    bin_height: float = 1.0
    ground_fraction: float = 0.05
    clearance_bins: int = 2
    ground_cut: bool = True

    def __post_init__(self):
        a = np.asarray(self.anchor_a, dtype=float)[:2]
        b = np.asarray(self.anchor_b, dtype=float)[:2]
        if np.allclose(a, b):
            raise ValueError("anchors must be horizontally distinct")
        if self.half_width <= 0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        if self.bin_height <= 0:
            raise ValueError(f"bin_height must be positive, got {self.bin_height}")
        if not 0 < self.ground_fraction < 1:
            raise ValueError(f"ground_fraction must be in (0, 1), got {self.ground_fraction}")
        if self.clearance_bins < 0:
            raise ValueError(f"clearance_bins must be >= 0, got {self.clearance_bins}")


@dataclass(frozen=True)
class RansacSpec:
    """Plane search effort and what counts as a removable ground plane."""

    iterations: int = 200
    threshold: float = 0.3
    min_inlier_fraction: float = 0.2

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.threshold <= 0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")
        if not 0 <= self.min_inlier_fraction <= 1:
            raise ValueError(
                f"min_inlier_fraction must be in [0, 1], got {self.min_inlier_fraction}"
            )


@dataclass(frozen=True)
class ClusterSpec:
    """Density clustering scale and the line-shape acceptance ratio.

    min_points counts the point itself. A cluster is kept when the largest
    eigenvalue of its covariance is at least ratio times the second
    largest, i.e. its extent is essentially one-dimensional.
    """

    eps: float = 1.5
    min_points: int = 4
    ratio: float = 10.0

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.min_points < 1:
            raise ValueError(f"min_points must be >= 1, got {self.min_points}")
        if self.ratio < 1:
            raise ValueError(f"ratio must be >= 1, got {self.ratio}")


def corridor_filter(points: PointCloud | np.ndarray, spec: CorridorSpec) -> np.ndarray:
    """Keep-mask of points inside the corridor and above the ground cut."""
    pts = _as_points(points)
    a = np.asarray(spec.anchor_a, dtype=float)[:2]
    b = np.asarray(spec.anchor_b, dtype=float)[:2]
    axis = b - a
    length = float(np.hypot(*axis))
    u = axis / length
    rel = pts[:, :2] - a
    along = rel @ u
    across = rel @ np.array([-u[1], u[0]])
    mask = (along >= 0.0) & (along <= length) & (np.abs(across) <= spec.half_width)

    if spec.ground_cut and np.any(mask):
        z = pts[mask, 2]
        n_bins = max(1, int(np.ceil((z.max() - z.min()) / spec.bin_height)))
        edges = z.min() + spec.bin_height * np.arange(n_bins + 1)
        counts, _ = np.histogram(z, bins=edges)
        loaded = np.nonzero(counts > spec.ground_fraction * z.size)[0]
        if loaded.size:
            z_cut = edges[loaded[0] + 1] + spec.clearance_bins * spec.bin_height
            mask &= pts[:, 2] >= z_cut
    return mask


def ground_filter_ransac(
    points: PointCloud | np.ndarray,
    spec: RansacSpec = RansacSpec(),
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Keep-mask of points off the dominant RANSAC plane.

    Samples point triples, keeps the plane with the most points within
    spec.threshold, and removes those inliers, but only when they make up
    at least spec.min_inlier_fraction of the cloud: a small best plane
    means no terrain is present and the cloud passes through unchanged.
    Under 3 points there is nothing to fit and the cloud also passes.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    if n < 3:
        log.warning("ground filter needs >= 3 points, got %d; cloud unchanged", n)
        return np.ones(n, dtype=bool)
    if rng is None:
        rng = np.random.default_rng()

    best_inliers: np.ndarray | None = None
    best_count = 0
    for _ in range(spec.iterations):
        idx = rng.choice(n, size=3, replace=False)
        p0, p1, p2 = pts[idx]
        normal = np.cross(p1 - p0, p2 - p0)
        norm = np.linalg.norm(normal)
        if norm < 1e-12:
            continue
        normal = normal / norm
        dist = np.abs((pts - p0) @ normal)
        inliers = dist <= spec.threshold
        count = int(np.sum(inliers))
        if count > best_count:
            best_count = count
            best_inliers = inliers

    if best_inliers is None or best_count < spec.min_inlier_fraction * n:
        return np.ones(n, dtype=bool)
    return ~best_inliers


def dbscan_labels(
    points: PointCloud | np.ndarray, eps: float = 1.5, min_points: int = 4
) -> np.ndarray:
    """Density-based cluster labels; -1 marks noise.

    Standard density reachability: core points have at least min_points
    neighbors within eps (counting themselves); clusters grow outward from
    cores through their neighborhoods; non-core boundary points join the
    first cluster that reaches them. Ids are assigned in scan order, so
    labeling is deterministic for a given point order.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if min_points < 1:
        raise ValueError(f"min_points must be >= 1, got {min_points}")
    pts = _as_points(points)
    n = pts.shape[0]
    labels = np.full(n, _UNVISITED, dtype=int)
    if n == 0:
        return labels
    tree = cKDTree(pts)
    neighborhoods = tree.query_ball_point(pts, eps)

    cluster = 0
    for i in range(n):
        if labels[i] != _UNVISITED:
            continue
        neigh = neighborhoods[i]
        if len(neigh) < min_points:
            labels[i] = _NOISE
            continue
        labels[i] = cluster
        seeds = deque(sorted(neigh))
        while seeds:
            j = seeds.popleft()
            if labels[j] == _NOISE:
                labels[j] = cluster  # boundary point claimed by this cluster
            if labels[j] != _UNVISITED:
                continue
            labels[j] = cluster
            neigh_j = neighborhoods[j]
            if len(neigh_j) >= min_points:
                seeds.extend(sorted(neigh_j))
        cluster += 1
    return labels


def _line_shaped(cluster_points: np.ndarray, ratio: float) -> bool:
    # fewer than 3 points have no usable covariance: NaN for one, rank 1 for two
    if cluster_points.shape[0] < 3:
        return False
    eig = np.linalg.eigvalsh(np.cov(cluster_points.T))  # ascending
    return bool(eig[2] >= ratio * eig[1])


def clustering_filter(
    points: PointCloud | np.ndarray,
    ransac: RansacSpec = RansacSpec(),
    spec: ClusterSpec = ClusterSpec(),
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Keep-mask of points in elongated clusters of the off-ground cloud.

    Removes the ground plane first, clusters what remains, and keeps only
    clusters passing the line-shape test. Noise points and blob clusters
    (tree crowns, pylon bodies) are dropped.
    """
    pts = _as_points(points)
    ground_mask = ground_filter_ransac(pts, ransac, rng)
    kept_idx = np.nonzero(ground_mask)[0]
    mask = np.zeros(pts.shape[0], dtype=bool)
    if kept_idx.size == 0:
        return mask
    sub = pts[kept_idx]
    labels = dbscan_labels(sub, eps=spec.eps, min_points=spec.min_points)
    for c in range(labels.max() + 1):
        members = labels == c
        if _line_shaped(sub[members], spec.ratio):
            mask[kept_idx[members]] = True
    return mask


def apply_mask(points: PointCloud | np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Subset a cloud by a keep-mask, preserving point order."""
    pts = _as_points(points)
    mask = np.asarray(mask, dtype=bool).ravel()
    if mask.size != pts.shape[0]:
        raise ValueError(f"mask of size {mask.size} for {pts.shape[0]} points")
    return pts[mask]
