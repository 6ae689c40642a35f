import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_cost_and_gradient

from linetrack.geometry import ParamVector, conductor_config, distance_field, forward_point
from linetrack.loss import (
    LossWeights,
    cost_and_gradient,
    loss_gradient,
    numerical_gradient,
    point_cost,
    total_loss,
)


def _cloud(p, cfg, n, seed, noise=0.0, outliers=0):
    rng = np.random.default_rng(seed)
    k = rng.integers(0, cfg.q, size=n)
    x = rng.uniform(-50.0, 50.0, size=n)
    pts = np.array([forward_point(p, cfg, int(ki), xi) for ki, xi in zip(k, x)])
    if noise > 0:
        pts = pts + rng.normal(0.0, noise, size=pts.shape)
    if outliers > 0:
        off = rng.uniform(-30.0, 30.0, size=(outliers, 3)) + [0.0, 0.0, 20.0]
        pts = np.vstack([pts, off])
    return pts


def test_point_cost_frozen_values():
    # log10(1 + 9) is exactly 1
    assert point_cost(3.0) == 1.0
    assert point_cost(0.0) == 0.0
    # log10(1.01), evaluated independently at float64
    assert point_cost(0.1) == pytest.approx(0.0043213737826425743, rel=1e-15)


def test_point_cost_saturates():
    # robust kernel: doubling a large residual adds little cost
    assert point_cost(20.0) - point_cost(10.0) < point_cost(2.0) - point_cost(1.0) + 0.6
    assert point_cost(1e6) < 13.0


def test_total_loss_zero_on_exact_points():
    cfg = conductor_config("222")
    p = ParamVector(0.0, 0.0, 20.0, 0.0, 1000.0, np.array([4.0, 5.0]))
    pts = _cloud(p, cfg, 30, seed=1)
    rep = total_loss(p, cfg, pts)
    assert rep.total == pytest.approx(0.0, abs=1e-10)
    assert rep.regularization == 0.0
    np.testing.assert_allclose(rep.d, 0.0, atol=1e-8)


def test_total_loss_matches_distance_field():
    cfg = conductor_config("32")
    p = ParamVector(1.0, -1.0, 15.0, 0.03, 1200.0, np.array([4.0, 6.0, 2.5]))
    pts = _cloud(p, cfg, 25, seed=2, noise=0.3, outliers=10)
    rep = total_loss(p, cfg, pts)
    d, k_star, _, _, _ = distance_field(p, cfg, pts)
    np.testing.assert_allclose(rep.d, d)
    np.testing.assert_array_equal(rep.k_star, k_star)
    assert rep.points_cost == pytest.approx(np.sum(point_cost(d)), rel=1e-12)
    assert rep.total == pytest.approx(rep.points_cost + rep.regularization, rel=1e-12)


def test_regularization_term_exact():
    cfg = conductor_config("222")
    p = ParamVector(0.0, 0.0, 20.0, 0.0, 1000.0, np.array([4.0, 5.0]))
    prior = ParamVector(1.0, -2.0, 21.0, 0.1, 900.0, np.array([4.5, 5.5]))
    q = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    pts = _cloud(p, cfg, 10, seed=3)
    rep = total_loss(p, cfg, pts, prior=prior, weights=LossWeights(q_diag=q))
    diff = p.to_array() - prior.to_array()
    assert rep.regularization == pytest.approx(float(diff @ (q * diff)), rel=1e-12)


def test_prior_at_parameters_costs_nothing():
    cfg = conductor_config("1")
    p = ParamVector(0.0, 0.0, 20.0, 0.0, 1000.0)
    pts = _cloud(p, cfg, 10, seed=4, noise=0.1)
    q = np.full(5, 10.0)
    rep = total_loss(p, cfg, pts, prior=p, weights=LossWeights(q_diag=q))
    assert rep.regularization == 0.0


def test_point_weights_scale_cost():
    cfg = conductor_config("1")
    p = ParamVector(0.0, 0.0, 20.0, 0.0, 1000.0)
    pts = _cloud(p, cfg, 12, seed=5, noise=0.5)
    base = total_loss(p, cfg, pts).points_cost
    doubled = total_loss(p, cfg, pts, weights=LossWeights(r=2.0)).points_cost
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)
    per_point = np.zeros(12)
    per_point[0] = 1.0
    single = total_loss(p, cfg, pts, weights=LossWeights(r=per_point)).points_cost
    assert single == pytest.approx(float(point_cost(total_loss(p, cfg, pts).d[0])), rel=1e-12)


def test_loss_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(r=-1.0)
    with pytest.raises(ValueError):
        LossWeights(q_diag=np.array([-0.1]))
    with pytest.raises(ValueError):
        LossWeights(r=np.ones(3)).point_weights(5)
    with pytest.raises(ValueError):
        LossWeights(q_diag=np.ones(4)).penalty_diag(5)


def test_cost_and_gradient_total_matches_report():
    cfg = conductor_config("222")
    p = ParamVector(0.5, 0.5, 19.0, 0.02, 1100.0, np.array([3.8, 5.2]))
    prior = ParamVector(0.0, 0.0, 20.0, 0.0, 1000.0, np.array([4.0, 5.0]))
    w = LossWeights(q_diag=np.full(7, 0.5))
    pts = _cloud(prior, cfg, 40, seed=6, noise=0.2, outliers=8)
    c, g = cost_and_gradient(p.to_array(), cfg, pts, prior, w)
    rep = total_loss(p, cfg, pts, prior=prior, weights=w)
    assert c == pytest.approx(rep.total, rel=1e-12)
    assert g.shape == (7,)


def test_gradient_matches_finite_differences_single_instance():
    cfg = conductor_config("32")
    p = ParamVector(1.0, -0.5, 18.0, -0.04, 1400.0, np.array([4.0, 6.0, 2.5]))
    prior = ParamVector(0.5, 0.0, 18.5, 0.0, 1300.0, np.array([4.2, 5.8, 2.4]))
    w = LossWeights(q_diag=np.linspace(0.1, 1.0, 8))
    pts = _cloud(p, cfg, 30, seed=7, noise=0.4, outliers=10)
    g = loss_gradient(p, cfg, pts, prior, w)
    gn = numerical_gradient(p, cfg, pts, prior, w, h=1e-6)
    rel = np.max(np.abs(g - gn)) / max(np.max(np.abs(gn)), 1e-12)
    assert rel < 1e-6


def test_prior_pull_direction():
    # moving a parameter away from the prior must raise the penalty share
    cfg = conductor_config("1")
    prior = ParamVector(0.0, 0.0, 20.0, 0.0, 1000.0)
    pts = _cloud(prior, cfg, 15, seed=8, noise=0.1)
    w = LossWeights(q_diag=np.full(5, 2.0))
    near = total_loss(ParamVector(0.1, 0.0, 20.0, 0.0, 1000.0), cfg, pts, prior=prior, weights=w)
    far = total_loss(ParamVector(1.0, 0.0, 20.0, 0.0, 1000.0), cfg, pts, prior=prior, weights=w)
    assert far.regularization > near.regularization


@st.composite
def loss_instances(draw):
    """A layout, parameters, a cloud of near and far points, point weights
    scalar or per point, and an optional prior with its penalty."""
    cfg = conductor_config(draw(st.sampled_from(["1", "32", "222"])))
    p = ParamVector(
        x_o=draw(st.floats(-20.0, 20.0)),
        y_o=draw(st.floats(-20.0, 20.0)),
        z_o=draw(st.floats(5.0, 35.0)),
        psi=draw(st.floats(-0.4, 0.4)),
        a=draw(st.floats(600.0, 4000.0)),
        deltas=draw(st.lists(st.floats(0.5, 7.5), min_size=cfg.l, max_size=cfg.l)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_near, n_far = draw(st.integers(1, 40)), draw(st.integers(0, 20))
    k = rng.integers(0, cfg.q, size=n_near)
    x = rng.uniform(-80.0, 80.0, size=n_near)
    near = np.array([forward_point(p, cfg, int(ki), xi) for ki, xi in zip(k, x)])
    far = rng.uniform([-100.0, -40.0, -10.0], [100.0, 40.0, 60.0], size=(n_far, 3))
    pts = np.vstack([near + rng.normal(0.0, 0.3, size=near.shape), far])
    if draw(st.booleans()):
        r = rng.uniform(0.0, 2.0, size=pts.shape[0])
    else:
        r = draw(st.floats(0.1, 3.0))
    prior, q_diag = None, None
    if draw(st.booleans()):
        scale = np.concatenate([[1.0, 1.0, 1.0, 0.02, 50.0], np.full(cfg.l, 0.5)])
        prior = p.to_array() + rng.normal(0.0, 1.0, size=p.size) * scale
        q_diag = rng.uniform(0.0, 5.0, size=p.size)
    return cfg, p, pts, prior, r, q_diag


@settings(max_examples=150, deadline=None, derandomize=True)
@given(loss_instances())
def test_cost_and_gradient_match_reference_and_differences(instance):
    cfg, p, pts, prior, r, q_diag = instance
    weights = LossWeights(r=r, q_diag=q_diag)
    c, g = cost_and_gradient(p, cfg, pts, prior, weights)
    c_ref, g_ref = reference_cost_and_gradient(p.to_array(), cfg, pts, prior, r, q_diag)
    assert c == pytest.approx(c_ref, rel=1e-12)
    assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))
    # the same tolerance as acceptance criterion 01
    gn = numerical_gradient(p, cfg, pts, prior, weights, h=1e-6)
    assert np.max(np.abs(g - gn) / np.maximum(np.abs(gn), 1.0)) < 1e-5
