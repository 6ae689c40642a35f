import numpy as np
import pytest

from linetrack.geometry import ParamVector, conductor_config, forward_point
from linetrack.loss import LossWeights
from linetrack.simulator import default_scenario, generate_sequence
from linetrack.solver import (
    DELTA_BOUNDS,
    SAG_BOUNDS,
    TRANSLATION_HALF_RANGE,
    YAW_HALF_RANGE,
    EstimatorSettings,
    SolverError,
    default_bounds,
    default_regularization,
    default_sigma,
    default_weights,
    estimate_frame,
    solve_single,
    track_sequence,
)


def _clean_cloud(p, cfg, n, seed, noise=0.1):
    rng = np.random.default_rng(seed)
    k = rng.integers(0, cfg.q, size=n)
    x = rng.uniform(-100.0, 100.0, size=n)
    pts = np.array([forward_point(p, cfg, int(ki), xi) for ki, xi in zip(k, x)])
    return pts + rng.normal(0.0, noise, size=pts.shape)


def test_default_vectors_sized_per_config():
    for name in ("1", "32", "222"):
        cfg = conductor_config(name)
        assert default_sigma(cfg).size == 5 + cfg.l
        assert default_regularization(cfg).size == 5 + cfg.l
        assert default_weights(cfg).q_diag.size == 5 + cfg.l


def test_default_bounds_box():
    prior = ParamVector(10.0, -5.0, 20.0, 0.1, 1000.0, np.array([4.0, 5.0]))
    lower, upper = default_bounds(prior)
    np.testing.assert_allclose(lower[:3], [10.0 - TRANSLATION_HALF_RANGE,
                                           -5.0 - TRANSLATION_HALF_RANGE,
                                           20.0 - TRANSLATION_HALF_RANGE])
    np.testing.assert_allclose(upper[:3], [10.0 + TRANSLATION_HALF_RANGE,
                                           -5.0 + TRANSLATION_HALF_RANGE,
                                           20.0 + TRANSLATION_HALF_RANGE])
    assert (lower[3], upper[3]) == (0.1 - YAW_HALF_RANGE, 0.1 + YAW_HALF_RANGE)
    assert (lower[4], upper[4]) == SAG_BOUNDS
    assert (lower[5], upper[5]) == DELTA_BOUNDS


def test_settings_validation():
    with pytest.raises(ValueError):
        EstimatorSettings(n_search=-1)
    with pytest.raises(ValueError):
        EstimatorSettings(max_iterations=0)
    with pytest.raises(ValueError):
        EstimatorSettings(sigma=np.array([-1.0]))
    with pytest.raises(ValueError):
        EstimatorSettings(bounds_lower=np.zeros(5))
    with pytest.raises(ValueError):
        EstimatorSettings(bounds_lower=np.ones(5), bounds_upper=np.zeros(5))


def test_recovers_truth_from_perturbed_prior():
    cfg = conductor_config("222")
    truth = ParamVector(0.0, 0.0, 20.0, 0.0, 1000.0, np.array([4.0, 5.0]))
    pts = _clean_cloud(truth, cfg, 120, seed=0)
    prior = ParamVector(2.0, -2.0, 21.5, 0.03, 1300.0, np.array([4.5, 4.5]))
    # zero regularization isolates the data fit from the prior pull
    settings = EstimatorSettings(seed=0, weights=LossWeights(q_diag=np.zeros(7)))
    result = estimate_frame(pts, prior, cfg, settings)
    err = result.p.to_array() - truth.to_array()
    assert np.all(np.abs(err[:3]) < 0.3)
    assert abs(err[3]) < 0.01
    assert abs(err[4]) < 60.0
    assert np.all(np.abs(err[5:]) < 0.3)


def test_estimate_frame_deterministic():
    cfg = conductor_config("222")
    truth = ParamVector(0.0, 0.0, 20.0, 0.0, 1000.0, np.array([4.0, 5.0]))
    pts = _clean_cloud(truth, cfg, 40, seed=1)
    prior = ParamVector(1.0, 1.0, 19.0, 0.0, 1200.0, np.array([4.0, 5.0]))
    r1 = estimate_frame(pts, prior, cfg, EstimatorSettings(seed=5))
    r2 = estimate_frame(pts, prior, cfg, EstimatorSettings(seed=5))
    np.testing.assert_array_equal(r1.p.to_array(), r2.p.to_array())
    assert r1.cost == r2.cost
    assert r1.best_start == r2.best_start


def test_seed_changes_restart_draws():
    cfg = conductor_config("1")
    truth = ParamVector(0.0, 0.0, 20.0, 0.0, 1000.0)
    pts = _clean_cloud(truth, cfg, 30, seed=2)
    prior = ParamVector(0.0, 0.0, 19.0, 0.0, 1000.0)
    r1 = estimate_frame(pts, prior, cfg, EstimatorSettings(seed=1))
    r2 = estimate_frame(pts, prior, cfg, EstimatorSettings(seed=2))
    p0_1 = np.array([s.p0 for s in r1.starts[1:]])
    p0_2 = np.array([s.p0 for s in r2.starts[1:]])
    assert not np.array_equal(p0_1, p0_2)
    # the warm start itself never moves
    np.testing.assert_array_equal(r1.starts[0].p0, r2.starts[0].p0)


def test_start_log_shape():
    cfg = conductor_config("1")
    truth = ParamVector(0.0, 0.0, 20.0, 0.0, 1000.0)
    pts = _clean_cloud(truth, cfg, 20, seed=3)
    prior = ParamVector(0.0, 0.0, 20.0, 0.0, 1000.0)
    for n_search in (0, 3):
        r = estimate_frame(pts, prior, cfg, EstimatorSettings(n_search=n_search, seed=0))
        assert len(r.starts) == n_search + 1
        assert r.restarts_run == n_search
        assert r.per_start_times.size == n_search + 1
        assert r.solve_time >= 0.0
        assert 0 <= r.best_start <= n_search
        assert r.per_point_d.size == pts.shape[0]
        assert r.per_point_k.size == pts.shape[0]


def test_winner_has_lowest_cost_then_lowest_index():
    cfg = conductor_config("1")
    truth = ParamVector(0.0, 0.0, 20.0, 0.0, 1000.0)
    pts = _clean_cloud(truth, cfg, 25, seed=4)
    prior = ParamVector(0.0, 0.0, 18.0, 0.0, 900.0)
    r = estimate_frame(pts, prior, cfg, EstimatorSettings(n_search=4, seed=7))
    costs = np.array([s.cost for s in r.starts])
    assert r.cost == costs.min()
    assert r.best_start == int(np.argmin(costs))  # argmin takes the first minimum


def test_estimate_respects_bounds():
    cfg = conductor_config("1")
    truth = ParamVector(0.0, 0.0, 20.0, 0.0, 1000.0)
    pts = _clean_cloud(truth, cfg, 30, seed=5)
    # a box that excludes the truth: the fit must stop on the wall
    lower = np.array([-1.0, -1.0, 25.0, -0.1, 600.0])
    upper = np.array([1.0, 1.0, 30.0, 0.1, 4000.0])
    prior = ParamVector(0.0, 0.0, 27.0, 0.0, 1000.0)
    settings = EstimatorSettings(bounds_lower=lower, bounds_upper=upper, seed=0)
    r = estimate_frame(pts, prior, cfg, settings)
    arr = r.p.to_array()
    assert np.all(arr >= lower - 1e-12) and np.all(arr <= upper + 1e-12)
    assert arr[2] == pytest.approx(25.0, abs=1e-6)


def test_solve_single_descends():
    cfg = conductor_config("1")
    truth = ParamVector(0.0, 0.0, 20.0, 0.0, 1000.0)
    pts = _clean_cloud(truth, cfg, 30, seed=6)
    p0 = ParamVector(0.5, 0.5, 21.0, 0.01, 1200.0)
    # zero regularization so the final cost is the data term alone;
    # 30 points of 0.1 sigma noise floor the cost near 0.26
    settings = EstimatorSettings(seed=0, weights=LossWeights(q_diag=np.zeros(5)))
    p_fit, cost = solve_single(pts, p0, cfg, settings=settings)
    assert cost <= 0.5
    assert abs(p_fit.z_o - 20.0) < 0.2
    assert abs(p_fit.a - 1000.0) < 60.0


def test_solver_error_on_mismatched_prior():
    cfg = conductor_config("222")
    pts = np.zeros((4, 3))
    prior = ParamVector(0.0, 0.0, 0.0, 0.0, 1000.0)  # no deltas for a 2-offset model
    with pytest.raises((SolverError, ValueError)):
        estimate_frame(pts, prior, cfg, EstimatorSettings(seed=0))


def test_non_finite_frame_rejected_before_fitting():
    cfg = conductor_config("1")
    truth = ParamVector(0.0, 0.0, 20.0, 0.0, 1000.0)
    pts = _clean_cloud(truth, cfg, 20, seed=9)
    pts[3, 2] = np.nan
    with pytest.raises(ValueError, match="points must be finite"):
        estimate_frame(pts, truth, cfg, EstimatorSettings(seed=0))
    with pytest.raises(ValueError, match="points must be finite"):
        track_sequence([pts], truth, cfg, EstimatorSettings(seed=0))


def test_track_sequence_follows_rolling_prior():
    scenario = default_scenario("222", "global", n_outliers=5, n_frames=6, seed=11)
    frames = generate_sequence(scenario)
    clouds = [f.cloud for f in frames]
    prior = ParamVector(1.0, -1.0, 21.0, 0.02, 1200.0, np.array([4.3, 4.8]))
    results = track_sequence(clouds, prior, scenario.config, EstimatorSettings(seed=0))
    assert len(results) == 6
    truth_arr = scenario.truth.to_array()
    last = results[-1].p.to_array()
    assert np.all(np.abs(last[:3] - truth_arr[:3]) < 0.5)
    # each frame is re-anchored at its predecessor, so late frames agree
    # with each other far more tightly than with the initial prior
    drift_late = np.abs(results[-1].p.to_array() - results[-2].p.to_array())
    assert np.all(drift_late[:4] < 0.5)


def test_track_sequence_rejects_empty_input():
    cfg = conductor_config("1")
    prior = ParamVector(0.0, 0.0, 20.0, 0.0, 1000.0)
    with pytest.raises(ValueError):
        track_sequence([], prior, cfg, EstimatorSettings())
