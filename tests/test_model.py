"""Shear layers, composition, inverses, Jacobian, and time derivative."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympflow import model as sfm
from sympflow import potential as pot
from sympflow.errors import DimensionError

from _oracles import assert_close, fd_scalar, fd_gradient, potential_value


@pytest.fixture
def model1():
    return sfm.random_sympflow(1, 2, np.random.default_rng(0))


@pytest.fixture
def model2():
    return sfm.random_sympflow(2, 3, np.random.default_rng(1))


def test_q_layer_identity_at_t0(model1):
    net = model1.layers[0][0]
    x = np.array([0.4, -0.2])
    assert np.array_equal(sfm.apply_q_layer(net, 0.0, x), x)


def test_q_layer_identity_zero_weights():
    net = pot.zero_potential_net(1)
    x = np.array([0.4, -0.2])
    assert np.array_equal(sfm.apply_q_layer(net, 0.7, x), x)
    assert np.array_equal(sfm.apply_p_layer(net, 0.7, x), x)


def test_q_layer_matches_fd_gradient(model1):
    net = model1.layers[0][0]
    t, x = 0.7, np.array([0.4, -0.2])
    out = sfm.apply_q_layer(net, t, x)
    g_t = fd_gradient(lambda q: potential_value(net, t, q), x[:1], 1e-6)
    g_0 = fd_gradient(lambda q: potential_value(net, 0.0, q), x[:1], 1e-6)
    assert out[0] == x[0]  # position untouched, bit-identical
    assert_close(out[1], x[1] - (g_t - g_0), rtol=1e-8, floor=1e-10, label="q layer")


def test_p_layer_matches_fd_gradient(model1):
    net = model1.layers[0][1]
    t, x = 0.7, np.array([0.4, -0.2])
    out = sfm.apply_p_layer(net, t, x)
    g_t = fd_gradient(lambda p: potential_value(net, t, p), x[1:], 1e-6)
    g_0 = fd_gradient(lambda p: potential_value(net, 0.0, p), x[1:], 1e-6)
    assert out[1] == x[1]
    assert_close(out[0], x[0] + (g_t - g_0), rtol=1e-8, floor=1e-10, label="p layer")


def test_layer_inverses_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(100):
        d = int(rng.integers(1, 3))
        net = pot.random_potential_net(d, rng, h=6)
        t = float(rng.uniform(-1, 1))
        x = rng.uniform(-1, 1, size=2 * d)
        for apply_, invert in (
            (sfm.apply_q_layer, sfm.invert_q_layer),
            (sfm.apply_p_layer, sfm.invert_p_layer),
        ):
            back = invert(net, t, apply_(net, t, x))
            assert np.max(np.abs(back - x)) < 1e-12


def test_invert_is_sign_flipped_update(model1):
    net = model1.layers[0][0]
    t, x = 0.3, np.array([0.5, 0.1])
    delta = sfm.apply_q_layer(net, t, x) - x
    delta_inv = sfm.invert_q_layer(net, t, x) - x
    assert_close(delta_inv, -delta, rtol=1e-14, floor=1e-16, label="shear inverse")


def test_forward_identity_at_zero(model2):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(7, 4))
    out = sfm.forward(model2, 0.0, x)
    assert np.array_equal(out, x)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 2]),
    st.integers(1, 3),
    st.integers(1, 12),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
)
def test_identity_at_t0_is_bitwise(d, layers, h, B, seed):
    # A shear sweeps each point at t and at 0 in adjacent rows of one product;
    # at t = 0 the two rows must round alike, so every update is exactly zero.
    # h = 1 makes a one-row product, which BLAS takes as a gemv.
    rng = np.random.default_rng(seed)
    model = sfm.random_sympflow(d, layers, rng, h=h)
    x = rng.normal(size=(B, 2 * d))
    for t in (0.0, np.zeros(B)):
        assert np.array_equal(sfm.forward(model, t, x), x)
    assert np.array_equal(sfm.jacobian(model, 0.0, x[0]), np.eye(2 * d))


def test_forward_zero_weights_identity():
    model = sfm.zero_sympflow(1, 1)
    x = np.array([1.0, 0.0])
    for t in (0.0, 0.5, 3.0):
        assert np.array_equal(sfm.forward(model, t, x), x)


def test_forward_matches_manual_layer_application():
    model = sfm.random_sympflow(1, 2, np.random.default_rng(3))
    t, x = 0.5, np.array([1.0, 0.0])
    manual = x
    for vq, vp in model.layers:
        manual = sfm.apply_q_layer(vq, t, manual)
        manual = sfm.apply_p_layer(vp, t, manual)
    assert np.array_equal(sfm.forward(model, t, x), manual)


def test_forward_rejects_bad_dimension(model2):
    with pytest.raises(DimensionError):
        sfm.forward(model2, 0.1, np.array([1.0, 2.0]))
    with pytest.raises(DimensionError, match="single phase point"):
        sfm.jacobian(model2, 0.5, np.zeros((2, 4)))
    with pytest.raises(DimensionError, match="parameter vector must have length"):
        sfm._model_over(model2, np.zeros(sfm.param_count(model2) - 1))
    rng = np.random.default_rng(8)
    with pytest.raises(DimensionError, match="share the model dimension"):
        sfm.SympFlowModel(1, ((pot.random_potential_net(1, rng), pot.random_potential_net(2, rng)),))


def test_time_derivative_zero_weights():
    model = sfm.zero_sympflow(2, 2)
    out = sfm.time_derivative(model, 0.4, np.array([0.1, 0.2, 0.3, 0.4]))
    assert np.all(out == 0.0)


def test_time_derivative_fd(model2):
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, size=4)
    for t in (0.0, 0.3, 0.9):
        got = sfm.time_derivative(model2, t, x)
        want = fd_scalar(lambda s: sfm.forward(model2, s, x), t, 1e-5)
        assert_close(got, want, rtol=1e-5, floor=1e-8, label=f"time derivative t={t}")


def test_time_derivative_single_layer_closed_form():
    # With the momentum net zeroed the derivative is (0, -d_t grad Vq(t, q)).
    rng = np.random.default_rng(6)
    vq = pot.random_potential_net(1, rng)
    model = sfm.SympFlowModel(1, ((vq, pot.zero_potential_net(1)),))
    t, x = 0.6, np.array([0.3, -0.8])
    got = sfm.time_derivative(model, t, x)
    want = np.array([0.0, -pot.jet_grad_b(vq, t, x[None, :1], (None, 1.0))[1][0, 0]])
    assert_close(got, want, rtol=1e-12, floor=1e-14, label="single layer derivative")


def test_fd_mode_agrees_with_exact(model2):
    x = np.array([0.2, -0.1, 0.4, 0.3])
    exact = sfm.time_derivative(model2, 0.7, x)
    approx = fd_scalar(lambda s: sfm.forward(model2, s, x), 0.7, 1e-4)
    assert_close(approx, exact, rtol=1e-6, floor=1e-8, label="fd of forward")


def test_jacobian_identity_at_zero(model2):
    x = np.array([0.2, -0.1, 0.4, 0.3])
    assert np.allclose(sfm.jacobian(model2, 0.0, x), np.eye(4), atol=1e-15)


def test_jacobian_fd(model2):
    x = np.array([0.2, -0.1, 0.4, 0.3])
    got = sfm.jacobian(model2, 0.8, x)
    want = fd_gradient(lambda xx: sfm.forward(model2, 0.8, xx), x, 1e-6)
    assert_close(got, want, rtol=1e-6, floor=1e-9, label="jacobian")


def test_jacobian_q_layer_shear_structure():
    rng = np.random.default_rng(8)
    vq = pot.random_potential_net(1, rng)
    model = sfm.SympFlowModel(1, ((vq, pot.zero_potential_net(1)),))
    t, x = 0.5, np.array([0.3, 0.2])
    jac = sfm.jacobian(model, t, x)
    # lower-triangular block shear with unit diagonal
    assert jac[0, 0] == 1.0 and jac[1, 1] == 1.0 and jac[0, 1] == 0.0
    a = (np.ones((1, 1)), None)
    h_t = pot.jet_grad_b(vq, t, x[None, :1], a)[1]
    h_0 = pot.jet_grad_b(vq, 0.0, x[None, :1], a)[1]
    hess_diff = h_t[0, 0] - h_0[0, 0]
    assert jac[1, 0] == pytest.approx(-hess_diff, rel=1e-12)


def test_symplecticity_random_models():
    rng = np.random.default_rng(9)
    for _ in range(50):
        d = int(rng.integers(1, 3))
        L = int(rng.choice([1, 2, 3]))
        model = sfm.random_sympflow(d, L, rng, h=6)
        t = float(rng.uniform(-1.5, 1.5))
        x = rng.uniform(-1, 1, size=2 * d)
        jac = sfm.jacobian(model, t, x)
        J = sfm.symplectic_matrix(d)
        assert np.max(np.abs(jac.T @ J @ jac - J)) < 1e-9


def test_param_count_reference_values():
    assert sfm.param_count(sfm.zero_sympflow(1, 5, h=10)) == 1510
    assert sfm.param_count(sfm.zero_sympflow(1, 1, h=10)) == 302
    # widths formula: per net h(d+1) + h + h^2 + h + h + 1 = 161 for d=2, h=10
    assert sfm.param_count(sfm.zero_sympflow(2, 5, h=10)) == 2 * 5 * 161


def test_params_roundtrip(model2):
    vec = sfm.params_to_vector(model2)
    assert vec.size == sfm.param_count(model2)
    rebuilt = sfm.model_with_params(model2, vec)
    x = np.array([0.2, -0.1, 0.4, 0.3])
    assert np.array_equal(sfm.forward(rebuilt, 0.6, x), sfm.forward(model2, 0.6, x))
