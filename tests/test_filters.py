import numpy as np
import pytest

from linetrack.filters import (
    ClusterSpec,
    CorridorSpec,
    RansacSpec,
    apply_mask,
    clustering_filter,
    corridor_filter,
    dbscan_labels,
    ground_filter_ransac,
    _line_shaped,
)


def _ground_plane(rng, n=400):
    return np.column_stack([
        rng.uniform(-60.0, 60.0, size=n),
        rng.uniform(-30.0, 30.0, size=n),
        rng.normal(0.0, 0.05, size=n),
    ])


def _line(rng, n=80, z=20.0):
    x = rng.uniform(-50.0, 50.0, size=n)
    pts = np.column_stack([x, np.zeros(n), np.full(n, z)])
    return pts + rng.normal(0.0, 0.05, size=pts.shape)


def test_corridor_keeps_inside_drops_outside():
    spec = CorridorSpec(anchor_a=(-50.0, 0.0, 0.0), anchor_b=(50.0, 0.0, 0.0),
                        half_width=10.0, ground_cut=False)
    pts = np.array([
        [0.0, 0.0, 20.0],     # inside
        [0.0, 9.0, 20.0],     # inside, near the wall
        [0.0, 11.0, 20.0],    # too far sideways
        [70.0, 0.0, 20.0],    # past the far anchor
        [-70.0, 0.0, 20.0],   # before the near anchor
        [49.0, -9.0, 3.0],    # inside, low (kept: ground cut disabled)
    ])
    mask = corridor_filter(pts, spec)
    np.testing.assert_array_equal(mask, [True, True, False, False, False, True])


def test_corridor_ground_cut_drops_low_points():
    rng = np.random.default_rng(0)
    ground = _ground_plane(rng)
    line = _line(rng)
    pts = np.vstack([ground, line])
    spec = CorridorSpec(anchor_a=(-50.0, 0.0, 0.0), anchor_b=(50.0, 0.0, 0.0),
                        half_width=20.0)
    mask = corridor_filter(pts, spec)
    # every surviving point is a line point; nearly all line points survive
    assert np.all(pts[mask][:, 2] > 5.0)
    assert np.sum(mask[400:]) >= 78


def test_corridor_works_for_any_anchor_direction():
    # same corridor rotated 90 degrees: anchors along y, line along y
    rng = np.random.default_rng(1)
    n = 50
    y = rng.uniform(-40.0, 40.0, size=n)
    line = np.column_stack([np.zeros(n), y, np.full(n, 15.0)])
    spec = CorridorSpec(anchor_a=(0.0, -50.0, 0.0), anchor_b=(0.0, 50.0, 0.0),
                        half_width=5.0, ground_cut=False)
    mask = corridor_filter(line, spec)
    assert np.all(mask)
    far = line + np.array([8.0, 0.0, 0.0])
    assert not np.any(corridor_filter(far, spec))


def test_corridor_spec_validation():
    with pytest.raises(ValueError):
        CorridorSpec(anchor_a=(0.0, 0.0, 0.0), anchor_b=(0.0, 0.0, 5.0))
    with pytest.raises(ValueError):
        CorridorSpec(anchor_a=(0.0, 0.0, 0.0), anchor_b=(1.0, 0.0, 0.0), half_width=0.0)
    with pytest.raises(ValueError):
        CorridorSpec(anchor_a=(0.0, 0.0, 0.0), anchor_b=(1.0, 0.0, 0.0), ground_fraction=1.5)


def test_ransac_removes_dominant_plane():
    rng = np.random.default_rng(2)
    ground = _ground_plane(rng, n=400)
    line = _line(rng, n=80)
    pts = np.vstack([ground, line])
    mask = ground_filter_ransac(pts, RansacSpec(), np.random.default_rng(2))
    # keep-mask: plane gone, elevated structure kept
    assert np.sum(mask[:400]) <= 8
    assert np.sum(mask[400:]) >= 78


def test_ransac_ignores_small_planes():
    rng = np.random.default_rng(3)
    ground = _ground_plane(rng, n=30)
    # diffuse non-planar mass: no plane reaches the removable fraction
    blob = np.array([0.0, 0.0, 20.0]) + rng.normal(0.0, 5.0, size=(300, 3))
    pts = np.vstack([ground, blob])
    spec = RansacSpec(min_inlier_fraction=0.2)
    mask = ground_filter_ransac(pts, spec, np.random.default_rng(3))
    assert np.all(mask)


def test_ransac_tilted_plane():
    rng = np.random.default_rng(4)
    n = 500
    x = rng.uniform(-50.0, 50.0, size=n)
    y = rng.uniform(-30.0, 30.0, size=n)
    z = 0.1 * x + 0.05 * y + rng.normal(0.0, 0.05, size=n)
    plane = np.column_stack([x, y, z])
    line = _line(rng, n=60, z=40.0)
    pts = np.vstack([plane, line])
    mask = ground_filter_ransac(pts, RansacSpec(), np.random.default_rng(4))
    assert np.sum(mask[:n]) <= 10
    assert np.sum(mask[n:]) >= 58


def test_dbscan_separates_clumps_and_noise():
    rng = np.random.default_rng(5)
    a = rng.normal(0.0, 0.3, size=(40, 3))
    b = np.array([20.0, 0.0, 0.0]) + rng.normal(0.0, 0.3, size=(40, 3))
    lone = np.array([[50.0, 50.0, 50.0]])
    pts = np.vstack([a, b, lone])
    labels = dbscan_labels(pts, eps=1.5, min_points=4)
    assert labels[-1] == -1
    assert len({labels[i] for i in range(40)}) == 1
    assert len({labels[i] for i in range(40, 80)}) == 1
    assert labels[0] != labels[40]


def test_dbscan_min_points_gate():
    # 3 mutually close points cannot seed a cluster that needs 4
    pts = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.1, 0.0]])
    labels = dbscan_labels(pts, eps=1.0, min_points=4)
    assert np.all(labels == -1)
    labels3 = dbscan_labels(pts, eps=1.0, min_points=3)
    assert np.all(labels3 == 0)


def test_clustering_filter_keeps_lines_drops_blobs():
    rng = np.random.default_rng(6)
    ground = _ground_plane(rng, n=300)
    # spacing 0.63 m keeps every interior point a core under eps 1.5
    x = np.linspace(-50.0, 50.0, 160)
    line = np.column_stack([x, np.zeros(160), np.full(160, 20.0)])
    line = line + rng.normal(0.0, 0.05, size=line.shape)
    blob = np.array([0.0, 15.0, 10.0]) + rng.normal(0.0, 1.0, size=(150, 3))
    pts = np.vstack([ground, line, blob])
    mask = clustering_filter(pts, RansacSpec(), ClusterSpec(), np.random.default_rng(6))
    assert np.sum(mask[300:460]) >= 150   # the line survives
    assert np.sum(mask[460:]) == 0        # the blob does not
    assert np.sum(mask[:300]) <= 10       # the ground does not


def test_cluster_spec_validation():
    with pytest.raises(ValueError):
        ClusterSpec(eps=0.0)
    with pytest.raises(ValueError):
        ClusterSpec(min_points=0)
    with pytest.raises(ValueError):
        ClusterSpec(ratio=0.5)
    with pytest.raises(ValueError):
        RansacSpec(iterations=0)
    with pytest.raises(ValueError):
        RansacSpec(min_inlier_fraction=1.5)


def test_apply_mask_preserves_order():
    pts = np.arange(15.0).reshape(5, 3)
    mask = np.array([True, False, True, False, True])
    out = apply_mask(pts, mask)
    np.testing.assert_array_equal(out, pts[[0, 2, 4]])


def test_clusters_under_three_points_are_not_lines():
    # one point has no covariance and two span only a rank-1 one
    assert not _line_shaped(np.array([[1.0, 2.0, 20.0]]), ratio=10.0)
    assert not _line_shaped(np.array([[0.0, 0.0, 20.0], [5.0, 0.0, 20.0]]), ratio=10.0)
    assert _line_shaped(_line(np.random.default_rng(0), n=3), ratio=10.0)
