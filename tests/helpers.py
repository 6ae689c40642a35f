"""Shared scene builders and reference computations for the test suite.

The scene builders construct fixed, fully deterministic point clouds so
tests can assert exact behavior without re-tuning whenever the simulator's
default scenario moves.
"""

from __future__ import annotations

import numpy as np

from linetrack.geometry import ParamVector, conductor_config, forward_point
from linetrack.simulator import default_truth


def cluttered_scene(seed: int):
    """Corridor scene: ground plane, pylon blob, and one conductor.

    Roughly 500 ground points and a 500-point pylon body dwarf the ~100
    conductor returns, so an unfiltered (or under-filtered) fit has far
    more clutter than signal to latch onto. The pylon sits past the far
    anchor at x = 58 and 8 m below the conductor; the initial prior starts
    at that height, so whether the pylon mass survives filtering decides
    which basin the fit lands in.

    Returns (points, truth, config, prior).
    """
    config = conductor_config("1")
    truth = default_truth(config)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-50.0, 50.0, size=100)
    conductor = forward_point(truth, config, 0, x) + rng.normal(0.0, 0.1, size=(100, 3))
    ground = np.column_stack([
        rng.uniform(-60.0, 60.0, size=500),
        rng.uniform(-25.0, 25.0, size=500),
        rng.normal(0.0, 0.1, size=500),
    ])
    pylon = np.array([58.0, 0.0, 12.0]) + rng.normal(0.0, 3.0, size=(500, 3))
    points = np.vstack([conductor, ground, pylon])
    prior = ParamVector(x_o=0.0, y_o=0.0, z_o=10.0, psi=0.0, a=1000.0)
    return points, truth, config, prior


def two_basin_instance():
    """A cloud with two cost basins separated by a genuine barrier.

    60 tight conductor returns form the global minimum; a 40-point diffuse
    decoy blob 12 m below forms a local one. The prior sits inside the
    decoy, so a single descent cannot cross the barrier and only perturbed
    restarts that land past it reach the conductors.

    Returns (points, truth, config, prior).
    """
    config = conductor_config("1")
    truth = default_truth(config)
    rng = np.random.default_rng(0)
    x = rng.uniform(-50.0, 50.0, size=60)
    conductor = forward_point(truth, config, 0, x) + rng.normal(0.0, 0.1, size=(60, 3))
    decoy = np.array([0.0, 0.0, 8.0]) + rng.normal(0.0, 1.0, size=(40, 3))
    points = np.vstack([conductor, decoy])
    prior = ParamVector(x_o=0.0, y_o=0.0, z_o=8.0, psi=0.0, a=1000.0)
    return points, truth, config, prior


def reference_cost_and_gradient(p, config, points, prior=None, r=1.0, q_diag=None):
    """The robust loss and its gradient, one conductor at a time.

    Written straight from the model equations, sharing no code with
    linetrack.loss or the residual kernel in linetrack.geometry. Each
    conductor's vertex offset, and its partials with respect to the
    spacing parameters, are read off forward_point at the identity pose;
    the residual is the point minus the model point forward_point places
    at the associated abscissa. Ties between conductors go to the lowest
    index. Returns (cost, gradient).
    """
    p = np.asarray(p, dtype=float)
    x_o, y_o, z_o, psi, a = p[:5]
    deltas = p[5:]
    n_par, n_off = p.size, deltas.size
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    m = pts.shape[0]
    c, s = np.cos(psi), np.sin(psi)
    dx, dy = pts[:, 0] - x_o, pts[:, 1] - y_o
    pv = ParamVector.from_array(p)

    best_d2 = np.full(m, np.inf)
    best_e = np.zeros((m, 2))
    best_rows = np.zeros((m, 2, n_par))  # d(e2, e3)/dp of the nearest conductor
    for k in range(config.q):
        vertex = forward_point(ParamVector(0.0, 0.0, 0.0, 0.0, a, deltas), config, k, 0.0)
        d_vertex = np.array([
            forward_point(ParamVector(0.0, 0.0, 0.0, 0.0, a, unit), config, k, 0.0)
            for unit in np.eye(n_off)
        ]).reshape(n_off, 3)
        # association: the plane through the point normal to the conductor
        x_j = c * dx + s * dy - vertex[0]
        miss = pts - forward_point(pv, config, k, x_j).reshape(m, 3)
        e2 = -s * miss[:, 0] + c * miss[:, 1]
        e3 = miss[:, 2]

        u = x_j / a
        sh = np.sinh(u)
        dxj = np.zeros((m, n_par))  # d x_j / dp
        dxj[:, 0], dxj[:, 1] = -c, -s
        dxj[:, 3] = -s * dx + c * dy
        dxj[:, 5:] = -d_vertex[:, 0]
        de2 = np.zeros((m, n_par))
        de2[:, 0], de2[:, 1] = s, -c
        de2[:, 3] = -c * dx - s * dy
        de2[:, 5:] = -d_vertex[:, 1]
        de3 = -sh[:, None] * dxj
        de3[:, 2] = -1.0
        de3[:, 4] = u * sh - (np.cosh(u) - 1.0)
        de3[:, 5:] -= d_vertex[:, 2]

        d2 = e2 ** 2 + e3 ** 2
        better = d2 < best_d2
        best_d2[better] = d2[better]
        best_e[better] = np.column_stack([e2, e3])[better]
        best_rows[better] = np.stack([de2, de3], axis=1)[better]

    r = np.broadcast_to(np.asarray(r, dtype=float), (m,))
    cost = float(np.sum(r * np.log10(1.0 + best_d2)))
    # d/dp log10(1 + d^2) = 2 (e2 de2/dp + e3 de3/dp) / (ln 10 (1 + d^2))
    slope = r * 2.0 / (np.log(10.0) * (1.0 + best_d2))
    grad = np.einsum("i,ij,ijk->k", slope, best_e, best_rows)
    if prior is not None:
        q = np.zeros(n_par) if q_diag is None else np.asarray(q_diag, dtype=float)
        dp = p - np.asarray(prior, dtype=float)
        cost += float(np.sum(q * dp ** 2))
        grad = grad + 2.0 * q * dp
    return cost, grad
