"""Reference catenary-array model for checking the program's outputs.

Written from the model equations alone, with numpy and nothing from
linetrack, so a fault in the program's residual or loss code cannot hide
itself in the check. The scene generators use the same forward model.

A parameter vector is (x_o, y_o, z_o, psi, a, delta_1 .. delta_l). Each
conductor k sits at offset (x_k, y_k, z_k) in the catenary frame, linear in
the deltas; a point's residual against conductor k is taken in the vertical
plane across the line:

    along  =  cos(psi) (x - x_o) + sin(psi) (y - y_o)
    across = -sin(psi) (x - x_o) + cos(psi) (y - y_o)
    e2_k   = across - y_k
    e3_k   = z - z_o - z_k - a (cosh((along - x_k) / a) - 1)
    d^2    = min_k (e2_k^2 + e3_k^2)

and the objective is sum_i log10(1 + d_i^2) + sum_j q_j (p_j - prior_j)^2.
"""

from __future__ import annotations

import numpy as np

# Offsets per unit delta, rows (x, y, z), one column per conductor.
LAYOUTS = {
    "1": np.zeros((0, 3, 1)),
    "222": np.array(
        [
            [[0, 0, 0, 0, 0, 0], [-1, -1, -1, 1, 1, 1], [0, 0, 0, 0, 0, 0]],
            [[0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0], [0, 1, 2, 0, 1, 2]],
        ],
        dtype=float,
    ),
}


def offsets(layout: str, deltas: np.ndarray) -> np.ndarray:
    """(3, q) conductor offsets for the given spacing parameters."""
    jac = LAYOUTS[layout]
    return np.tensordot(np.asarray(deltas, dtype=float).reshape(len(jac)), jac, axes=1)


def conductor_points(layout: str, p: np.ndarray, k: int, x_j: np.ndarray) -> np.ndarray:
    """World points at abscissae x_j along conductor k, noise free; (n, 3)."""
    off = offsets(layout, p[5:])
    xk, yk, zk = off[:, k]
    c, s = np.cos(p[3]), np.sin(p[3])
    xc = x_j + xk
    z = p[4] * (np.cosh(x_j / p[4]) - 1.0) + zk + p[2]
    return np.column_stack([c * xc - s * yk + p[0], s * xc + c * yk + p[1], z])


def distances(layout: str, p: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Distance of each point to its nearest conductor; (m,)."""
    off = offsets(layout, p[5:])
    c, s = np.cos(p[3]), np.sin(p[3])
    dx = pts[:, 0] - p[0]
    dy = pts[:, 1] - p[1]
    along = c * dx + s * dy
    across = -s * dx + c * dy
    e2 = across[:, None] - off[1][None, :]
    e3 = (pts[:, 2] - p[2])[:, None] - off[2][None, :] - p[4] * (
        np.cosh((along[:, None] - off[0][None, :]) / p[4]) - 1.0
    )
    return np.sqrt(np.min(e2 * e2 + e3 * e3, axis=1))


def objective(
    layout: str,
    p: np.ndarray,
    pts: np.ndarray,
    prior: np.ndarray | None = None,
    q: np.ndarray | None = None,
) -> float:
    """Robust data term plus the optional diagonal prior penalty."""
    p = np.asarray(p, dtype=float)
    total = float(np.sum(np.log10(1.0 + distances(layout, p, pts) ** 2)))
    if prior is not None and q is not None:
        dp = p - np.asarray(prior, dtype=float)
        total += float(np.sum(np.asarray(q, dtype=float) * dp * dp))
    return total
