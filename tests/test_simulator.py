import dataclasses

import numpy as np
import pytest

from linetrack.geometry import conductor_config, distance_field
from linetrack.simulator import (
    OutlierBox,
    Scenario,
    default_prior_sigma,
    default_scenario,
    default_truth,
    generate_frame,
    generate_sequence,
    random_prior,
)
from linetrack.solver import DELTA_BOUNDS, SAG_BOUNDS


def test_default_truth_values():
    truth = default_truth(conductor_config("222"))
    np.testing.assert_array_equal(truth.to_array(), [0.0, 0.0, 20.0, 0.0, 1000.0, 4.0, 5.0])
    truth32 = default_truth(conductor_config("32"))
    np.testing.assert_array_equal(truth32.deltas, [4.0, 6.0, 2.5])


def test_scenario_validation():
    cfg = conductor_config("222")
    truth = default_truth(cfg)
    with pytest.raises(ValueError):
        Scenario(config=cfg, truth=truth, mode="sideways")
    with pytest.raises(ValueError):
        Scenario(config=cfg, truth=truth, clearance=-1.0)
    with pytest.raises(ValueError):
        Scenario(config=cfg, truth=truth, n_outliers=-5)


def test_outlier_box_sample_and_contains():
    box = OutlierBox(center=(10.0, -5.0, 20.0), extent=(4.0, 6.0, 8.0))
    rng = np.random.default_rng(0)
    pts = box.sample(rng, 500)
    assert pts.shape == (500, 3)
    assert np.all(box.contains(pts))
    assert np.all(np.abs(pts[:, 0] - 10.0) <= 2.0)
    assert np.all(np.abs(pts[:, 1] + 5.0) <= 3.0)
    assert np.all(np.abs(pts[:, 2] - 20.0) <= 4.0)
    assert not box.contains(np.array([[100.0, 0.0, 0.0]]))[0]


def test_generate_sequence_deterministic():
    scenario = default_scenario("222", "global", n_outliers=20, n_frames=3, seed=9)
    a = generate_sequence(scenario)
    b = generate_sequence(scenario)
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa.cloud.points, fb.cloud.points)
        np.testing.assert_array_equal(fa.labels, fb.labels)
    c = generate_sequence(dataclasses.replace(scenario, seed=10))
    assert not np.array_equal(a[0].cloud.points, c[0].cloud.points)


def test_frame_labels_and_counts():
    scenario = default_scenario("222", "global", n_outliers=25, n_frames=1, seed=3)
    frame = generate_frame(scenario, 0, np.random.default_rng(3))
    assert frame.labels.size == len(frame.cloud)
    n_clutter = int(np.sum(frame.labels == -1))
    assert n_clutter == 25
    # conductor points first, clutter last, per-line counts within the cap
    assert np.all(np.diff(frame.labels) >= 0) or frame.labels[-1] == -1
    for k in range(scenario.config.q):
        assert np.sum(frame.labels == k) <= scenario.pts_per_line_max


def test_conductor_points_near_truth():
    scenario = default_scenario("222", "global", n_outliers=0, n_frames=1, seed=5)
    frame = generate_frame(scenario, 0, np.random.default_rng(5))
    d, k_star, _, _, _ = distance_field(scenario.truth, scenario.config, frame.cloud.points)
    # sensor noise of 0.1 m per axis keeps returns within ~1 m of the line
    assert np.all(d < 1.0)
    assert np.mean(d) < 0.3
    mismatches = np.mean(k_star != frame.labels)
    assert mismatches < 0.05


def test_global_mode_spans_the_line():
    scenario = default_scenario("222", "global", n_outliers=0, n_frames=1, seed=7)
    pts = np.vstack([generate_frame(scenario, i, np.random.default_rng(i)).cloud.points
                     for i in range(30)])
    assert pts[:, 0].min() < -70.0 and pts[:, 0].max() > 70.0
    assert np.all(np.abs(pts[:, 0]) <= scenario.span / 2.0 + 1.0)


def test_partial_mode_is_a_thin_slice():
    scenario = default_scenario("222", "partial", n_outliers=0, n_frames=1, seed=7)
    pts = np.vstack([generate_frame(scenario, i, np.random.default_rng(i)).cloud.points
                     for i in range(10)])
    lo = scenario.slice_center - scenario.slice_width / 2.0 - 1.0
    hi = scenario.slice_center + scenario.slice_width / 2.0 + 1.0
    assert np.all((pts[:, 0] >= lo) & (pts[:, 0] <= hi))


def test_clutter_respects_clearance_sleeve():
    scenario = default_scenario("222", "global", n_outliers=300, n_frames=1, seed=1)
    frame = generate_frame(scenario, 0, np.random.default_rng(1))
    clutter = frame.cloud.points[frame.labels == -1]
    d, _, _, _, _ = distance_field(scenario.truth, scenario.config, clutter)
    assert np.all(d >= scenario.clearance)


def test_clearance_zero_allows_near_line_clutter():
    base = default_scenario("222", "global", n_outliers=2000, n_frames=1, seed=2)
    scenario = dataclasses.replace(base, clearance=0.0)
    frame = generate_frame(scenario, 0, np.random.default_rng(2))
    clutter = frame.cloud.points[frame.labels == -1]
    d, _, _, _, _ = distance_field(scenario.truth, scenario.config, clutter)
    assert d.min() < base.clearance


def test_impossible_sleeve_raises():
    cfg = conductor_config("1")
    truth = default_truth(cfg)
    box = OutlierBox(center=(0.0, 0.0, truth.z_o), extent=(1.0, 1.0, 1.0))
    scenario = Scenario(config=cfg, truth=truth, n_outliers=10, outlier_box=box,
                        clearance=5.0, n_frames=1)
    with pytest.raises(RuntimeError):
        generate_frame(scenario, 0, np.random.default_rng(0))


def test_custom_outlier_box_is_used():
    cfg = conductor_config("222")
    truth = default_truth(cfg)
    box = OutlierBox(center=(0.0, 40.0, 20.0), extent=(10.0, 10.0, 10.0))
    scenario = Scenario(config=cfg, truth=truth, n_outliers=50, outlier_box=box, n_frames=1)
    frame = generate_frame(scenario, 0, np.random.default_rng(4))
    clutter = frame.cloud.points[frame.labels == -1]
    assert np.all(box.contains(clutter))


def test_random_prior_respects_absolute_bounds():
    cfg = conductor_config("222")
    truth = default_truth(cfg)
    sigma = default_prior_sigma(cfg)
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = random_prior(truth, sigma, rng)
        assert SAG_BOUNDS[0] <= p.a <= SAG_BOUNDS[1]
        assert np.all(p.deltas >= DELTA_BOUNDS[0]) and np.all(p.deltas <= DELTA_BOUNDS[1])


def test_random_prior_rejects_bad_sigma():
    cfg = conductor_config("222")
    truth = default_truth(cfg)
    with pytest.raises(ValueError):
        random_prior(truth, np.ones(3), np.random.default_rng(0))
    with pytest.raises(ValueError):
        random_prior(truth, -np.ones(7), np.random.default_rng(0))


def test_default_prior_sigma_length():
    for name in ("1", "32", "222"):
        cfg = conductor_config(name)
        assert default_prior_sigma(cfg).size == 5 + cfg.l
