"""Seeded input generators for the three workloads.

Everything here is plain numpy driven by the benchmark's own seed, so a
change to the program (its simulator included) can never change what the
benchmark feeds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

import refmodel

# track_global: the 222 double circuit watched over its whole span.
TRACK_TRUTH = np.array([0.0, 0.0, 20.0, 0.0, 1000.0, 4.0, 5.0])
TRACK_SPAN = 200.0
TRACK_MAX_RETURNS = 10  # per conductor, uniform in 0..this
TRACK_NOISE = 0.1
TRACK_CLUTTER = 60  # about twice the mean 30 conductor returns
TRACK_CLUTTER_BOX = (np.array([0.0, 0.0, 20.0]), np.array([120.0, 56.0, 56.0]))
TRACK_CLEARANCE = 2.5  # clutter keeps this far from the live conductors
TRACK_PRIOR_SIGMA = np.array([5.0, 5.0, 2.0, 0.05, 200.0, 0.5, 0.5])
SAG_RANGE = (500.0, 5000.0)
DELTA_RANGE = (0.1, 8.0)

# multistart_decoy: one conductor above a diffuse blob that holds the prior.
DECOY_TRUTH = np.array([0.0, 0.0, 20.0, 0.0, 1000.0])
DECOY_PRIOR = np.array([0.0, 0.0, 8.0, 0.0, 1000.0])
DECOY_RETURNS = 60
DECOY_BLOB = 40
DECOY_SEARCH_SIGMA = np.array([5.0, 5.0, 8.0, 0.05, 200.0])

# estimate_cli_cluster: one conductor in a dense corridor scene.
CLI_TRUTH = np.array([0.0, 0.0, 20.0, 0.0, 1000.0])
CLI_PRIOR_SIGMA = np.array([2.0, 2.0, 1.0, 0.02, 100.0])
CLI_RETURNS = (300, 400)
CLI_GROUND = 5000
CLI_PYLON = 500
CLI_TREES = 6
CLI_TREE_POINTS = 250


def _clutter(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform box draws outside the clearance sleeve around the truth."""
    center, extent = TRACK_CLUTTER_BOX
    pts = rng.uniform(center - extent / 2, center + extent / 2, size=(n, 3))
    while True:
        inside = refmodel.distances("222", TRACK_TRUTH, pts) < TRACK_CLEARANCE
        if not inside.any():
            return pts
        pts[inside] = rng.uniform(
            center - extent / 2, center + extent / 2, size=(int(inside.sum()), 3)
        )


def tracking_frame(rng: np.random.Generator) -> np.ndarray:
    chunks = []
    for k in range(6):
        n_k = int(rng.integers(0, TRACK_MAX_RETURNS + 1))
        x_j = rng.uniform(-TRACK_SPAN / 2, TRACK_SPAN / 2, size=n_k)
        pts = refmodel.conductor_points("222", TRACK_TRUTH, k, x_j)
        chunks.append(pts + rng.normal(0.0, TRACK_NOISE, size=pts.shape))
    chunks.append(_clutter(rng, TRACK_CLUTTER))
    return np.vstack(chunks)


def tracking_prior(rng: np.random.Generator) -> np.ndarray:
    """Initial prior scattered around the truth, kept inside the physical box."""
    p = TRACK_TRUTH + rng.normal(0.0, TRACK_PRIOR_SIGMA)
    p[4] = np.clip(p[4], *SAG_RANGE)
    p[5:] = np.clip(p[5:], *DELTA_RANGE)
    return p


@dataclass(frozen=True)
class Sequence:
    frames: list[np.ndarray]
    prior: np.ndarray
    solver_seed: int


def tracking_sequences(seed: int, n_frames: int) -> Iterator[Sequence]:
    """Endless stream of independent tracking runs."""
    rng = np.random.default_rng([seed, 1])
    while True:
        frames = [tracking_frame(rng) for _ in range(n_frames)]
        yield Sequence(frames, tracking_prior(rng), int(rng.integers(2**31 - 1)))


@dataclass(frozen=True)
class DecoyScene:
    points: np.ndarray
    solver_seed: int


def decoy_batches(seed: int, batch: int) -> Iterator[list[DecoyScene]]:
    """Endless stream of scenes: conductor returns above a decoy blob 12 m
    below them, which surrounds the prior."""
    rng = np.random.default_rng([seed, 2])
    while True:
        scenes = []
        for _ in range(batch):
            x = rng.uniform(-50.0, 50.0, size=DECOY_RETURNS)
            line = refmodel.conductor_points("1", DECOY_TRUTH, 0, x)
            line += rng.normal(0.0, 0.1, size=line.shape)
            blob = DECOY_PRIOR[:3] + rng.normal(0.0, 1.0, size=(DECOY_BLOB, 3))
            scenes.append(DecoyScene(np.vstack([line, blob]), int(rng.integers(2**31 - 1))))
        yield scenes


def _ball(rng: np.random.Generator, center: np.ndarray, radius: float, n: int) -> np.ndarray:
    """Uniform draws inside a sphere. Blobs with a sparse fringe (Gaussian
    ones) leave lone core points whose neighbours are all claimed by other
    clusters; the filter then fails on a one-point cluster (see README.md)."""
    v = rng.normal(size=(n, 3))
    v *= (radius * rng.uniform(size=n) ** (1 / 3) / np.linalg.norm(v, axis=1))[:, None]
    return center + v


def corridor_frame(rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Dense corridor frame; returns (points, conductor return count).

    Ground, two pylon bodies past the span ends and tree crowns beside the
    line dwarf the conductor returns. The conductor points come first.
    """
    n_line = int(rng.integers(CLI_RETURNS[0], CLI_RETURNS[1] + 1))
    x = rng.uniform(-50.0, 50.0, size=n_line)
    line = refmodel.conductor_points("1", CLI_TRUTH, 0, x)
    line += rng.normal(0.0, 0.05, size=line.shape)
    ground = np.column_stack(
        [
            rng.uniform(-60.0, 60.0, size=CLI_GROUND),
            rng.uniform(-25.0, 25.0, size=CLI_GROUND),
            rng.normal(0.0, 0.1, size=CLI_GROUND),
        ]
    )
    pylons = [_ball(rng, np.array([x_p, 0.0, 10.0]), 4.0, CLI_PYLON) for x_p in (-62.0, 62.0)]
    # One crown per 15 m slot along the line. Two crowns that touch merge
    # into one elongated cluster that passes the filter's line test, a
    # filter weakness this workload leaves out (see README.md).
    trees = []
    for k in range(CLI_TREES):
        side = rng.choice([-1.0, 1.0])
        center = np.array(
            [-37.5 + 15.0 * k + rng.uniform(-2.0, 2.0), side * rng.uniform(8.0, 20.0),
             rng.uniform(4.0, 9.0)]
        )
        trees.append(_ball(rng, center, 2.5, CLI_TREE_POINTS))
    return np.vstack([line, ground, *pylons, *trees]), n_line


def _write_csv(path: Path, header: str, rows: np.ndarray) -> None:
    # repr() gives the shortest round-tripping digits, the frame format's rule
    lines = [header] + [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def write_corridor_run(seed: int, n_frames: int, directory: Path) -> tuple[list[int], np.ndarray]:
    """Write frame_*.csv and truth.csv; returns (conductor counts, initial prior)."""
    rng = np.random.default_rng([seed, 3])
    directory.mkdir(parents=True, exist_ok=True)
    counts = []
    for i in range(n_frames):
        pts, n_line = corridor_frame(rng)
        _write_csv(directory / f"frame_{i:05d}.csv", "x,y,z", pts)
        counts.append(n_line)
    _write_csv(directory / "truth.csv", "x_o,y_o,z_o,psi,a", CLI_TRUTH[None, :])
    prior = CLI_TRUTH + rng.normal(0.0, CLI_PRIOR_SIGMA)
    return counts, prior
