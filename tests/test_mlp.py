"""Baseline MLP flow: identity at zero, formula conformance, derivatives."""

import numpy as np
import pytest

from sympflow import mlp
from sympflow.errors import DimensionError

from _oracles import assert_close, fd_scalar


@pytest.fixture
def model():
    return mlp.random_mlp_flow(1, 5, np.random.default_rng(0))


def test_an_mlp_needs_an_affine_layer():
    with pytest.raises(DimensionError, match="at least one affine layer"):
        mlp.MlpFlowModel(1, ())
    with pytest.raises(DimensionError, match="at least one affine layer"):
        mlp.random_mlp_flow(1, 0, np.random.default_rng(0))


def reference_forward(model, t, x):
    z = np.concatenate([x, [t]])
    for k, (A, b) in enumerate(model.weights):
        z = A @ z + b
        if k != len(model.weights) - 1:
            z = np.tanh(z)
    return x + np.tanh(t) * z


def test_identity_at_zero(model):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 2))
    assert np.array_equal(mlp.forward(model, 0.0, x), x)


def test_zero_weights_identity_all_t():
    model = mlp.zero_mlp_flow(1, 3)
    x = np.array([0.7, -0.4])
    for t in (0.0, 0.5, 10.0):
        assert np.array_equal(mlp.forward(model, t, x), x)


def test_forward_matches_reference(model):
    x = np.array([0.4, -0.2])
    for t in (0.3, 1.7):
        assert_close(
            mlp.forward(model, t, x),
            reference_forward(model, t, x),
            rtol=1e-14,
            floor=1e-16,
            label="mlp forward",
        )


def test_time_derivative_zero_weights():
    model = mlp.zero_mlp_flow(2, 2)
    out = mlp.time_derivative(model, 0.3, np.array([0.1, 0.2, 0.3, 0.4]))
    assert np.all(out == 0.0)


@pytest.mark.parametrize("t", [0.3, 10.0])
def test_time_derivative_fd(model, t):
    x = np.array([0.4, -0.2])
    got = mlp.time_derivative(model, t, x)
    want = fd_scalar(lambda s: mlp.forward(model, s, x), t, 1e-5)
    assert_close(got, want, rtol=1e-5, floor=1e-9, label=f"mlp d/dt t={t}")


def test_param_count_reference_values():
    assert mlp.param_count(mlp.zero_mlp_flow(1, 5)) == 392
    assert mlp.param_count(mlp.zero_mlp_flow(1, 2)) == 62
    # widths formula with the time input: first layer 10*(2d+1) + 10
    assert mlp.param_count(mlp.zero_mlp_flow(2, 5)) == 60 + 330 + 44


def test_params_roundtrip(model):
    vec = mlp.params_to_vector(model)
    assert vec.size == model.n_params
    rebuilt = mlp.model_with_params(model, vec)
    x = np.array([0.4, -0.2])
    assert np.array_equal(mlp.forward(rebuilt, 0.8, x), mlp.forward(model, 0.8, x))


def _fd_param_grad(model, f, step=1e-6):
    theta = mlp.params_to_vector(model)
    fd = np.zeros_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = step
        up = f(mlp.model_with_params(model, theta + e))
        dn = f(mlp.model_with_params(model, theta - e))
        fd[i] = (up - dn) / (2 * step)
    return fd


def test_forward_vjp_fd(model):
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, size=(3, 2))
    t = np.array([0.2, 0.5, 0.9])
    W = rng.normal(size=(3, 2))
    _, _, tape = mlp._taped(model, t, x)
    _, gtheta = mlp._pullback(model, t, tape, W)
    fd = _fd_param_grad(model, lambda m: np.sum(W * mlp.forward(m, t, x)))
    assert_close(gtheta, fd, rtol=1e-4, floor=1e-8, label="mlp forward vjp")


def test_pullback_fd(model):
    # Cotangents on the map and on its time derivative, pulled back at once.
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, size=(2, 2))
    t = np.array([0.3, 0.8])
    wx, wv = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    x_out, v, tape = mlp._taped(model, t, x, velocity=True)
    # The tape lasts until the next sweep, so the pullback comes first.
    gx, gtheta = mlp._pullback(model, t, tape, wx, wv)
    assert np.array_equal(x_out, mlp.forward(model, t, x))
    assert np.array_equal(v, mlp.time_derivative(model, t, x))

    def objective(m, xx=x):
        return np.sum(wx * mlp.forward(m, t, xx)) + np.sum(wv * mlp.time_derivative(m, t, xx))

    fd = _fd_param_grad(model, objective)
    assert_close(gtheta, fd, rtol=1e-4, floor=1e-8, label="mlp pullback theta")
    step = 1e-6
    fd_x = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        e = np.zeros_like(x)
        e[i] = step
        fd_x[i] = (objective(model, x + e) - objective(model, x - e)) / (2 * step)
    assert_close(gx, fd_x, rtol=1e-4, floor=1e-8, label="mlp pullback x")
