"""Estimator facade: sklearn protocol and fit/predict round trips."""

import numpy as np
import pytest

from sympflow.errors import ConfigError, DimensionError
from sympflow.estimators import MlpFlowRegressor, SympFlowRegressor
from sympflow.systems import Sho, analytic_solution


def test_get_set_params_roundtrip():
    est = SympFlowRegressor(epochs=10, layers=2)
    params = est.get_params()
    assert params["epochs"] == 10 and params["layers"] == 2
    est.set_params(epochs=20, learning_rate=5e-3)
    assert est.epochs == 20 and est.learning_rate == 5e-3
    with pytest.raises(ConfigError):
        est.set_params(bogus=1)
    # clone-style reconstruction from get_params
    clone = SympFlowRegressor(**est.get_params())
    assert clone.get_params() == est.get_params()


def test_unfitted_predict_rejected():
    est = SympFlowRegressor()
    with pytest.raises(ConfigError):
        est.predict(np.zeros((1, 3)))


def test_supervised_fit_predict():
    rng = np.random.default_rng(0)
    sys = Sho()
    n = 60
    t = rng.uniform(0, 1, size=n)
    x0 = rng.uniform(-1, 1, size=(n, 2))
    y = np.stack([analytic_solution(sys, xi, ti) for xi, ti in zip(x0, t)])
    X = np.column_stack([t, x0])
    est = SympFlowRegressor(layers=2, epochs=800, learning_rate=5e-3, seed=1)
    est.fit(X, y)
    assert est.report_.final_loss < 1e-2
    pred = est.predict(X[:5])
    assert pred.shape == (5, 2)
    # prediction beyond the training window uses the long-time extension
    far = est.predict(np.array([[3.5, 1.0, 0.0]]))
    assert np.all(np.isfinite(far))


def test_supervised_fit_shape_checks():
    est = SympFlowRegressor()
    with pytest.raises(DimensionError):
        est.fit(np.zeros((4, 2)), np.zeros((4, 2)))  # even column count
    with pytest.raises(DimensionError):
        est.fit(np.zeros((4, 3)), np.zeros((3, 2)))  # mismatched rows
    with pytest.raises(DimensionError, match="non-finite"):
        est.fit(np.array([[0.1, np.nan, 0.2]]), np.zeros((1, 2)))
    with pytest.raises(DimensionError, match="needs a trajectory and a sample, got 0 and 0"):
        est.fit(np.zeros((0, 3)), np.zeros((0, 2)))
    with pytest.raises(ConfigError, match="requires regime='supervised'"):
        SympFlowRegressor(regime="residual_only").fit(np.zeros((4, 3)), np.zeros((4, 2)))
    fitted = SympFlowRegressor(layers=1, hidden=2, epochs=1).fit(np.zeros((4, 3)), np.zeros((4, 2)))
    with pytest.raises(DimensionError, match="X must have 3 columns, got 5"):
        fitted.predict(np.zeros((1, 5)))


def test_unsupervised_fit_requires_system():
    est = SympFlowRegressor(regime="residual_only", epochs=1)
    with pytest.raises(ConfigError):
        est.fit()


def test_unsupervised_fit_smoke():
    est = MlpFlowRegressor(
        system=Sho(), regime="regularized", layers=2, hidden=4, epochs=3,
        batch_collocation=8, batch_matching=8, seed=2,
    )
    est.fit()
    times, states = est.rollout_path([1.0, 0.0], horizon=2.0, step=0.5)
    assert times.shape == (5,) and states.shape == (5, 2)
    assert np.array_equal(states[0], np.array([1.0, 0.0]))


def test_supervised_regime_guard():
    est = SympFlowRegressor(system=Sho(), regime="supervised", epochs=1)
    with pytest.raises(ConfigError):
        est.fit()  # supervised regime without targets
