"""Hamiltonian extraction: pair terms, tail inverses, recursion, consistency."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympflow import extraction as ext
from sympflow import model as sfm
from sympflow import potential as pot
from sympflow.errors import DimensionError
from sympflow.model import symplectic_matrix

from _oracles import assert_close, fd_gradient


@pytest.fixture
def model3():
    return sfm.random_sympflow(1, 3, np.random.default_rng(12))


def test_pair_hamiltonian_zero_weights():
    model = sfm.zero_sympflow(1, 2)
    assert ext.pair_hamiltonian(model, 1, 0.4, np.array([0.3, 0.2])) == 0.0


def test_pair_hamiltonian_reduces_without_momentum_net():
    rng = np.random.default_rng(13)
    vq = pot.random_potential_net(1, rng)
    model = sfm.SympFlowModel(1, ((vq, pot.zero_potential_net(1)),))
    x = np.array([0.5, -0.3])
    got = ext.pair_hamiltonian(model, 1, 0.7, x)
    assert got == pytest.approx(pot.jet_grad_b(vq, 0.7, x[None, :1])[0][0, 1], rel=1e-13)


def test_pair_hamiltonian_matches_primitive_assembly(model3):
    vq, vp = model3.layers[1]
    t, x = 0.6, np.array([0.4, -0.7])
    q, p = x[None, :1], x[None, 1:]
    gp_t, gp_0 = pot.jet_grad_b(vp, t, p)[0], pot.jet_grad_b(vp, 0.0, p)[0]
    want = gp_t[0, 1] + pot.jet_grad_b(vq, t, q - (gp_t[:, :1] - gp_0[:, :1]))[0][0, 1]
    assert ext.pair_hamiltonian(model3, 2, t, x) == pytest.approx(want, rel=1e-13)


def test_pair_hamiltonian_of_one_pair_is_extract_per_row():
    model = sfm.random_sympflow(2, 1, np.random.default_rng(19))
    x = np.random.default_rng(20).uniform(-1, 1, size=(3, 4))
    got = ext.pair_hamiltonian(model, 1, 0.4, x)
    assert got.shape == (3,)
    assert np.array_equal(got, ext.extract(model, 0.4, x))
    assert ext.pair_hamiltonian(model, 1, 0.4, x[1]) == ext.extract(model, 0.4, x[1])


def test_pair_hamiltonian_rejects_bad_index(model3):
    with pytest.raises(DimensionError):
        ext.pair_hamiltonian(model3, 0, 0.1, np.zeros(2))
    with pytest.raises(DimensionError):
        ext.pair_hamiltonian(model3, 4, 0.1, np.zeros(2))


def test_tail_inverse_identity_at_top(model3):
    x = np.array([0.3, 0.9])
    assert np.array_equal(ext.tail_inverse(model3, 4, 0.5, x), x)


def test_tail_inverse_full_inverse(model3):
    rng = np.random.default_rng(14)
    for _ in range(10):
        x = rng.uniform(-1, 1, size=2)
        t = float(rng.uniform(0, 1))
        y = sfm.forward(model3, t, x)
        back = ext.tail_inverse(model3, 1, t, y)
        assert np.max(np.abs(back - x)) < 1e-10


def test_tail_inverse_unrolled(model3):
    t, x = 0.8, np.array([0.2, -0.5])
    vq, vp = model3.layers[2]
    want = sfm.invert_q_layer(vq, t, sfm.invert_p_layer(vp, t, x))
    got = ext.tail_inverse(model3, 3, t, x)
    assert np.array_equal(got, want)


def test_extract_zero_weights():
    model = sfm.zero_sympflow(2, 3)
    assert ext.extract(model, 0.7, np.array([0.1, 0.2, 0.3, 0.4])) == 0.0


def test_extract_single_pair_is_pair_hamiltonian():
    model = sfm.random_sympflow(1, 1, np.random.default_rng(15))
    t, x = 0.4, np.array([0.6, 0.1])
    assert ext.extract(model, t, x) == ext.pair_hamiltonian(model, 1, t, x)


def test_extract_matches_literal_recursion(model3):
    # H[L:i](x) = H[L:(i+1)](x) + H_i(inverse flow of pairs (i+1)..L at x),
    # evaluated step by step, against the closed-form sum.
    t = 0.55
    rng = np.random.default_rng(16)

    def recursion(i, pt):
        if i == model3.n_layers:
            return ext.pair_hamiltonian(model3, i, t, pt)
        return recursion(i + 1, pt) + ext.pair_hamiltonian(
            model3, i, t, ext.tail_inverse(model3, i + 1, t, pt)
        )

    for _ in range(5):
        x = rng.uniform(-1, 1, size=2)
        assert ext.extract(model3, t, x) == pytest.approx(recursion(1, x), rel=1e-12)


def test_extract_gradient_zero_weights():
    model = sfm.zero_sympflow(1, 2)
    g = ext.extract_gradient(model, 0.3, np.array([0.4, 0.5]))
    assert np.all(g == 0.0)


def test_extract_gradient_fd(model3):
    rng = np.random.default_rng(17)
    x = rng.uniform(-1, 1, size=2)
    t = 0.45
    got = ext.extract_gradient(model3, t, x)
    want = fd_gradient(lambda xx: ext.extract(model3, t, xx), x, 1e-6)
    assert_close(got, want, rtol=1e-5, floor=1e-9, label="extract gradient")


flow_cases = st.fixed_dictionaries(
    {
        "d": st.integers(1, 2),
        "layers": st.integers(1, 4),
        "h": st.integers(1, 12),
        "seed": st.integers(0, 2**32 - 1),
        "t": st.one_of(st.sampled_from([0.0, 1e-300, 1e-8, 2.0]), st.floats(0.0, 2.0)),
        "batch": st.integers(1, 7),
    }
)


@settings(max_examples=200, deadline=None)
@given(flow_cases)
def test_flow_hamiltonian_consistency(case):
    # d/dt forward(t, x0) equals J grad extract at the image point: the
    # composition rule for the generating Hamiltonian, checked end to end.
    rng = np.random.default_rng(case["seed"])
    d, t = case["d"], case["t"]
    model = sfm.random_sympflow(d, case["layers"], rng, h=case["h"])
    x0 = rng.uniform(-1, 1, size=(case["batch"], 2 * d))
    lhs = sfm.time_derivative(model, t, x0)
    rhs = ext.extract_gradient(model, t, sfm.forward(model, t, x0)) @ symplectic_matrix(d).T
    err = np.abs(lhs - rhs) / (1.0 + np.abs(rhs))
    assert err.max() <= 1e-13, f"max |lhs - rhs| / (1 + |rhs|) = {err.max():.3e}"


def test_piecewise_hamiltonian(model3):
    x = np.array([0.2, 0.3])
    assert ext.piecewise_hamiltonian(model3, 1.0, 2.0, x) == ext.extract(model3, 0.0, x)
    assert ext.piecewise_hamiltonian(model3, 1.0, 2.5, x) == ext.extract(model3, 0.5, x)
    assert ext.piecewise_hamiltonian(model3, 1.0, 0.3, x) == ext.extract(model3, 0.3, x)
    with pytest.raises(DimensionError):
        ext.piecewise_hamiltonian(model3, 0.0, 1.0, x)
    with pytest.raises(DimensionError, match="nonnegative"):
        ext.piecewise_hamiltonian(model3, 1.0, -0.5, x)


def test_extract_vjp_parameter_gradient_fd():
    model = sfm.random_sympflow(1, 2, np.random.default_rng(19), h=3)
    rng = np.random.default_rng(20)
    x = rng.uniform(-1, 1, size=(3, 2))
    c = rng.normal(size=3)
    t = 0.65
    _, gtheta = ext.extract_vjp(model, t, x, c)
    theta = sfm.params_to_vector(model)
    step = 1e-6
    fd = np.zeros_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = step
        up = float(np.dot(c, ext.extract(sfm.model_with_params(model, theta + e), t, x)))
        dn = float(np.dot(c, ext.extract(sfm.model_with_params(model, theta - e), t, x)))
        fd[i] = (up - dn) / (2 * step)
    assert_close(gtheta, fd, rtol=1e-4, floor=1e-8, label="extract param grad")
