"""Catenary-array geometric model.

A conductor array is a group of catenary curves sharing one yaw angle and
one sag parameter, differing only by rigid per-conductor offsets expressed
in the local catenary frame. This module provides the forward model
(parameters -> world points), the closed-form point-to-curve association,
and the per-point distance to the nearest conductor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# cosh overflows float64 just above 710; reject earlier rather than saturate,
# a saturated cosh silently zeroes the sag gradient.
_COSH_ARG_LIMIT = 700.0


class CatenaryRangeError(ValueError):
    """The ratio x/a is too large for cosh to be representable."""

    def __init__(self, ratio: float):
        self.ratio = float(ratio)
        super().__init__(
            f"catenary argument x/a = {self.ratio:.6g} exceeds the representable "
            f"range (|x/a| <= {_COSH_ARG_LIMIT:g})"
        )


def _check_cosh_range(u: np.ndarray | float) -> None:
    if np.abs(u).max(initial=0.0) > _COSH_ARG_LIMIT:
        worst = np.asarray(u, dtype=float).ravel()
        raise CatenaryRangeError(worst[np.argmax(np.abs(worst))])


def catenary_z(x: float | np.ndarray, a: float) -> float | np.ndarray:
    """Height of the catenary above its vertex at horizontal position x.

    z = a * (cosh(x / a) - 1), with a > 0 the sag parameter (larger a means
    a flatter curve). Even in x and zero only at the vertex.
    """
    if a <= 0:
        raise ValueError(f"sag parameter must be positive, got {a}")
    u = np.asarray(x, dtype=float) / a
    _check_cosh_range(u)
    z = a * (np.cosh(u) - 1.0)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(z)
    return z


@dataclass(frozen=True, eq=False)
class ConductorConfig:
    """Layout of a conductor array.

    jacobian is the constant (3, q, l) array of partials of the conductor
    vertex translations with respect to the offset parameters. Every layout
    is linear in them, so column k of jacobian @ deltas is the translation
    [x_k, y_k, z_k] of conductor k's vertex in the catenary frame. Configs
    compare by identity; an array field has no single truth value.
    """

    name: str
    jacobian: np.ndarray

    def __post_init__(self):
        jac = np.array(self.jacobian, dtype=float)
        if jac.ndim != 3 or jac.shape[0] != 3 or jac.shape[1] < 1:
            raise ValueError(f"offset jacobian must be (3, q >= 1, l), got shape {jac.shape}")
        jac.setflags(write=False)
        object.__setattr__(self, "jacobian", jac)

    @property
    def q(self) -> int:
        return self.jacobian.shape[1]

    @property
    def l(self) -> int:
        return self.jacobian.shape[2]


# Offset jacobians of the built-in layouts, one (q, l) block per axis x, y, z.
_LAYOUTS = {
    # One conductor at the catenary origin, no internal offsets.
    "1": np.zeros((3, 1, 0)),
    # Five conductors: three in a horizontal row (spacing delta_1) plus two
    # above (horizontal half-spacing delta_3, height delta_2).
    "32": [
        [[0, 0, 0]] * 5,
        [[-1, 0, 0], [0, 0, 0], [1, 0, 0], [0, 0, -1], [0, 0, 1]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 1, 0], [0, 1, 0]],
    ],
    # Double circuit: two vertical stacks of three. delta_1 is half the
    # horizontal separation between stacks, delta_2 the vertical spacing.
    "222": [
        [[0, 0]] * 6,
        [[-1, 0], [-1, 0], [-1, 0], [1, 0], [1, 0], [1, 0]],
        [[0, 0], [0, 1], [0, 2], [0, 0], [0, 1], [0, 2]],
    ],
}


def conductor_config(name: str) -> ConductorConfig:
    """Look up a built-in array layout by name ("1", "32", or "222")."""
    try:
        return ConductorConfig(name, _LAYOUTS[name])
    except KeyError:
        raise KeyError(
            f"unknown conductor configuration {name!r}; available: {available_configs()}"
        ) from None


def available_configs() -> list[str]:
    return sorted(_LAYOUTS)


@dataclass(frozen=True)
class ParamVector:
    """Array parameters: pose (x_o, y_o, z_o, psi), sag a, internal offsets.

    Angles in radians, distances in meters. The catenary frame origin
    (x_o, z_o) is the shared vertex reference of the array and may be a
    virtual point that lies on no physical conductor.
    """

    x_o: float
    y_o: float
    z_o: float
    psi: float
    a: float
    deltas: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        object.__setattr__(self, "deltas", np.asarray(self.deltas, dtype=float).ravel())
        if self.a <= 0:
            raise ValueError(f"sag parameter must be positive, got {self.a}")

    def to_array(self) -> np.ndarray:
        return np.concatenate(([self.x_o, self.y_o, self.z_o, self.psi, self.a], self.deltas))

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "ParamVector":
        arr = np.asarray(arr, dtype=float).ravel()
        if arr.size < 5:
            raise ValueError(f"parameter vector needs at least 5 entries, got {arr.size}")
        return cls(arr[0], arr[1], arr[2], arr[3], arr[4], arr[5:])

    @property
    def size(self) -> int:
        return 5 + self.deltas.size


@dataclass(frozen=True)
class PointCloud:
    """One LiDAR frame: an ordered (m, 3) set of world-frame points, meters."""

    points: np.ndarray
    frame_index: int = 0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be an (m, 3) array, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if self.frame_index < 0:
            raise ValueError(f"frame_index must be >= 0, got {self.frame_index}")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class ConductorDistance:
    """Distance from one point to the nearest conductor of the array."""

    d: float
    k_star: int
    e_c: np.ndarray  # error vector in the catenary basis; first entry 0
    x_j: float  # associated abscissa along the conductor


def _as_points(cloud: PointCloud | np.ndarray) -> np.ndarray:
    """The (m, 3) float points of a cloud, checked as PointCloud checks them."""
    if isinstance(cloud, PointCloud):
        return cloud.points
    pts = np.asarray(cloud, dtype=float)
    if pts.ndim == 1 and pts.size == 3:
        pts = pts.reshape(1, 3)
    return PointCloud(pts).points


def _check_params(p: ParamVector, config: ConductorConfig) -> None:
    if p.deltas.size != config.l:
        raise ValueError(
            f"parameter vector carries {p.deltas.size} offsets but config "
            f"{config.name!r} expects {config.l}"
        )


def offset_matrix(config: ConductorConfig, deltas: np.ndarray) -> np.ndarray:
    """Per-conductor vertex translations, one 3-vector column per conductor."""
    deltas = np.asarray(deltas, dtype=float).ravel()
    if deltas.size != config.l:
        raise ValueError(f"config {config.name!r} expects {config.l} offsets, got {deltas.size}")
    return config.jacobian @ deltas


def forward_point(p: ParamVector, config: ConductorConfig, k: int, x_j: float | np.ndarray) -> np.ndarray:
    """World position of the model point at abscissa x_j on conductor k.

    The catenary-frame point [x_j + x_k, y_k, catenary_z(x_j) + z_k] is
    rotated by psi about the vertical axis and translated by (x_o, y_o, z_o).
    Returns a (3,) point for scalar x_j, else an (n, 3) polyline.
    """
    _check_params(p, config)
    if not 0 <= k < config.q:
        raise ValueError(f"conductor index {k} out of range [0, {config.q})")
    offs = offset_matrix(config, p.deltas)
    x_k, y_k, z_k = offs[:, k]
    x_j_arr = np.atleast_1d(np.asarray(x_j, dtype=float))
    z = catenary_z(x_j_arr, p.a) + z_k
    xc = x_j_arr + x_k
    c, s = np.cos(p.psi), np.sin(p.psi)
    out = np.stack(
        [
            c * xc - s * y_k + p.x_o,
            s * xc + c * y_k + p.y_o,
            z + p.z_o,
        ],
        axis=-1,
    )
    if np.isscalar(x_j) or np.ndim(x_j) == 0:
        return out[0]
    return out


def _residuals(
    pts: np.ndarray, p: np.ndarray, jacobian: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Catenary residuals of (m, 3) points at their nearest conductor.

    p is the flat parameter array (x_o, y_o, z_o, psi, a, deltas). Each
    point is rotated into the catenary frame, where the closed-form
    association puts the model point in the plane through the point normal
    to the conductor direction, so only the lateral (e2) and vertical (e3)
    errors remain. Returns (d2, e2, e3, x_j, k, along, across): the squared
    distance, errors and abscissa at the nearest conductor k (ties go to the
    lowest index), and the point coordinates along and across the conductor
    direction.
    """
    x_o, y_o, z_o, psi, a = p[:5].tolist()
    offs = jacobian @ p[5:]
    c, s = math.cos(psi), math.sin(psi)
    dx = pts[:, 0] - x_o
    dy = pts[:, 1] - y_o
    along = c * dx + s * dy
    across = c * dy - s * dx
    x_j = along[:, None] - offs[0]
    u = x_j / a
    _check_cosh_range(u)
    e2 = across[:, None] - offs[1]
    e3 = (pts[:, 2] - z_o)[:, None] - offs[2] - a * (np.cosh(u) - 1.0)
    d2 = e2 * e2 + e3 * e3
    k = np.argmin(d2, axis=1)
    win = np.arange(0, d2.size, d2.shape[1]) + k  # flat index of each winner
    return d2.take(win), e2.take(win), e3.take(win), x_j.take(win), k, along, across


def distance_field(
    p: ParamVector, config: ConductorConfig, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized nearest-conductor residuals for an (m, 3) point set.

    Returns (d, k_star, e2, e3, x_j), each of length m, where e2/e3/x_j are
    taken at the winning conductor. Ties in the argmin go to the lowest
    conductor index.
    """
    _check_params(p, config)
    _, e2, e3, x_j, k_star, _, _ = _residuals(_as_points(points), p.to_array(), config.jacobian)
    return np.hypot(e2, e3), k_star, e2, e3, x_j


def distance_to_model(p: ParamVector, config: ConductorConfig, pt: np.ndarray) -> ConductorDistance:
    """Distance from one point to the nearest conductor, with association."""
    d, k_star, e2, e3, x_j = distance_field(p, config, np.asarray(pt, dtype=float).reshape(1, 3))
    return ConductorDistance(
        d=float(d[0]),
        k_star=int(k_star[0]),
        e_c=np.array([0.0, e2[0], e3[0]]),
        x_j=float(x_j[0]),
    )


def sample_curves(
    p: ParamVector, config: ConductorConfig, x_min: float, x_max: float, n: int
) -> np.ndarray:
    """Sample each conductor at n uniformly spaced abscissae; (q, n, 3)."""
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    if not x_min < x_max:
        raise ValueError(f"need x_min < x_max, got [{x_min}, {x_max}]")
    xs = np.linspace(x_min, x_max, n)
    return np.stack([forward_point(p, config, k, xs) for k in range(config.q)])
