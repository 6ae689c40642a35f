import numpy as np
import pytest

from linetrack.geometry import (
    CatenaryRangeError,
    ParamVector,
    PointCloud,
    available_configs,
    catenary_z,
    conductor_config,
    distance_field,
    forward_point,
    offset_matrix,
    sample_curves,
)


def test_catenary_vertex_is_zero():
    assert catenary_z(0.0, 1000.0) == 0.0


def test_catenary_frozen_value():
    # 1000*(cosh(0.1)-1), evaluated independently at float64
    assert catenary_z(100.0, 1000.0) == pytest.approx(5.004168055803504, rel=1e-12)


def test_catenary_symmetry_and_vectorization():
    x = np.array([-30.0, -10.0, 10.0, 30.0])
    z = catenary_z(x, 800.0)
    assert z.shape == (4,)
    np.testing.assert_array_equal(z, catenary_z(-x, 800.0))
    assert np.all(np.diff(z[2:]) > 0)


def test_catenary_overflow_guard():
    with pytest.raises(CatenaryRangeError):
        catenary_z(1e6, 1.0)


def test_available_configs():
    assert available_configs() == ["1", "222", "32"]


def test_conductor_config_unknown_name():
    with pytest.raises(KeyError):
        conductor_config("999")


def test_config_sizes():
    for name, q, l in [("1", 1, 0), ("32", 5, 3), ("222", 6, 2)]:
        cfg = conductor_config(name)
        assert (cfg.q, cfg.l) == (q, l)


def test_offset_matrix_222():
    cfg = conductor_config("222")
    m = offset_matrix(cfg, np.array([4.0, 5.0]))
    expected = np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [-4.0, -4.0, -4.0, 4.0, 4.0, 4.0],
        [0.0, 5.0, 10.0, 0.0, 5.0, 10.0],
    ])
    np.testing.assert_array_equal(m, expected)


def test_offset_matrix_32():
    cfg = conductor_config("32")
    m = offset_matrix(cfg, np.array([4.0, 6.0, 2.5]))
    expected = np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [-4.0, 0.0, 4.0, -2.5, 2.5],
        [0.0, 0.0, 0.0, 6.0, 6.0],
    ])
    np.testing.assert_array_equal(m, expected)


def test_offset_matrix_linear_in_deltas():
    cfg = conductor_config("222")
    d = np.array([1.5, 2.5])
    m = offset_matrix(cfg, d)
    np.testing.assert_allclose(m, d[0] * cfg.jacobian[..., 0] + d[1] * cfg.jacobian[..., 1])


def test_param_vector_round_trip():
    p = ParamVector(1.0, -2.0, 20.0, 0.1, 900.0, np.array([4.0, 5.0]))
    q = ParamVector.from_array(p.to_array())
    np.testing.assert_array_equal(p.to_array(), q.to_array())
    assert p.size == 7


def test_param_vector_rejects_nonpositive_sag():
    with pytest.raises(ValueError):
        ParamVector(0.0, 0.0, 0.0, 0.0, 0.0)


def test_param_vector_rejects_short_array():
    with pytest.raises(ValueError):
        ParamVector.from_array(np.array([1.0, 2.0, 3.0]))


def test_point_cloud_shape_checks():
    with pytest.raises(ValueError):
        PointCloud(points=np.zeros((4, 2)))
    with pytest.raises(ValueError):
        PointCloud(points=np.array([[0.0, 0.0, np.inf]]))
    assert len(PointCloud(points=np.zeros((0, 3)))) == 0


def test_forward_point_identity_pose():
    cfg = conductor_config("222")
    p = ParamVector(0.0, 0.0, 0.0, 0.0, 1000.0, np.array([4.0, 5.0]))
    pt = forward_point(p, cfg, 2, 100.0)
    np.testing.assert_allclose(pt, [100.0, -4.0, catenary_z(100.0, 1000.0) + 10.0])


def test_forward_point_translation_and_yaw():
    cfg = conductor_config("1")
    p = ParamVector(3.0, -7.0, 20.0, np.pi / 2.0, 1000.0)
    # yaw of pi/2 maps the conductor direction onto +y
    pt = forward_point(p, cfg, 0, 50.0)
    np.testing.assert_allclose(pt, [3.0, 43.0, 20.0 + catenary_z(50.0, 1000.0)], atol=1e-12)


def test_forward_point_vectorized():
    cfg = conductor_config("32")
    p = ParamVector(0.0, 0.0, 20.0, 0.05, 1200.0, np.array([4.0, 6.0, 2.5]))
    x = np.linspace(-80.0, 80.0, 9)
    pts = forward_point(p, cfg, 3, x)
    assert pts.shape == (9, 3)
    np.testing.assert_allclose(pts[4], forward_point(p, cfg, 3, x[4]))


def test_distance_field_on_curve_points():
    cfg = conductor_config("222")
    p = ParamVector(1.0, 2.0, 20.0, 0.1, 1500.0, np.array([4.0, 5.0]))
    rng = np.random.default_rng(3)
    k = rng.integers(0, cfg.q, size=40)
    x = rng.uniform(-50.0, 50.0, size=40)
    pts = np.array([forward_point(p, cfg, int(ki), xi) for ki, xi in zip(k, x)])
    d, k_star, _, _, x_j = distance_field(p, cfg, pts)
    np.testing.assert_allclose(d, 0.0, atol=1e-8)
    np.testing.assert_array_equal(k_star, k)
    np.testing.assert_allclose(x_j, x, atol=1e-6)


def test_distance_field_offset_point():
    cfg = conductor_config("1")
    p = ParamVector(0.0, 0.0, 0.0, 0.0, 1000.0)
    # 3 m straight above the vertex: slope is zero there, distance is exact
    d, k_star, _, _, _ = distance_field(p, cfg, np.array([[0.0, 0.0, 3.0]]))
    assert k_star[0] == 0
    assert d[0] == pytest.approx(3.0, abs=1e-9)


def test_distance_field_lateral_component():
    cfg = conductor_config("1")
    p = ParamVector(0.0, 0.0, 0.0, 0.0, 1000.0)
    d, _, _, _, _ = distance_field(p, cfg, np.array([[0.0, 4.0, 3.0]]))
    assert d[0] == pytest.approx(5.0, abs=1e-9)


def test_sample_curves_ends_on_model():
    cfg = conductor_config("222")
    p = ParamVector(0.0, 0.0, 20.0, 0.02, 1100.0, np.array([4.0, 5.0]))
    curves = sample_curves(p, cfg, -60.0, 60.0, 7)
    assert curves.shape == (6, 7, 3)
    np.testing.assert_allclose(curves[3, 0], forward_point(p, cfg, 3, -60.0))
    np.testing.assert_allclose(curves[3, -1], forward_point(p, cfg, 3, 60.0))
