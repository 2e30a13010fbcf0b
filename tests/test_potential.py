"""Derivative quantities of the potential networks against finite differences."""

import numpy as np
import pytest

from sympflow import potential as pot
from sympflow._jet import Jet, chain_backward, flatten
from sympflow.errors import DimensionError
from sympflow.potential import PotentialNet

from _oracles import (
    assert_close,
    fd_directional,
    fd_gradient,
    fd_scalar,
    grad_input_vjp,
    hvp_time_b,
    hvp_vjp,
    mixed_vjp,
    potential_value,
    third_contraction_b,
    time_partial_vjp,
)


def sweep(net, t, q, dq=None, dt=None):
    """``jet_grad_b`` at one point: grad_u V and Hess_u V [dq; dt] (None without a direction), each (d+1,)."""
    g, h = pot.jet_grad_b(net, t, np.atleast_2d(q), (None if dq is None else np.atleast_2d(dq), dt))
    return g[0], None if h is None else h[0]


@pytest.fixture
def net1():
    return pot.random_potential_net(1, np.random.default_rng(7))


@pytest.fixture
def net2():
    return pot.random_potential_net(2, np.random.default_rng(11))


def test_zero_weights_value_is_bias():
    net = pot.zero_potential_net(1)
    net = pot.net_with_params(net, np.r_[np.zeros(net.n_params - 1), 0.7])
    q = np.array([[0.2], [1.9]])
    assert np.all(pot._forward(net, np.array([0.3, -4.0]), q)[-1].x0 == 0.7)
    assert np.all(sweep(net, 0.3, [0.2])[0] == 0.0)


def test_value_matches_reference(net1, net2):
    # The value component of the jet's forward sweep against the layer formula.
    for net, t, q in ((net1, 0.3, [[0.5], [-0.1]]), (net2, -1.2, [[0.4, -0.7], [0.9, 0.2]])):
        got = pot._forward(net, t, np.array(q))[-1].x0[:, 0]
        want = [potential_value(net, t, row) for row in q]
        assert_close(got, want, rtol=1e-14, label="value")


def test_value_deterministic(net1):
    q = np.array([[0.5]])
    a = pot._forward(net1, 0.3, q)[-1].x0.copy()
    assert np.array_equal(pot._forward(net1, 0.3, q)[-1].x0, a)


def test_value_rejects_bad_dimension(net1):
    with pytest.raises(DimensionError):
        pot.jet_grad_b(net1, 0.0, np.array([[0.1, 0.2]]))


def test_a_direction_of_the_wrong_width_is_rejected(net2):
    # A (1, 1) head would broadcast over both columns of q.
    q, narrow = np.array([[0.4, -0.7]]), np.ones((1, 1))
    for kwargs in (dict(c=(narrow, None)), dict(a=(narrow, 1.0)), dict(a=(None, 1.0), b=(narrow, None))):
        with pytest.raises(DimensionError, match=r"must have shape \(1, 2\), got \(1, 1\)"):
            pot.jet_vjp(net2, 0.3, q, **kwargs)
    with pytest.raises(DimensionError):
        pot.jet_grad_b(net2, 0.3, q, (narrow, None), paired=True)
    assert np.all(np.isfinite(pot.jet_vjp(net2, 0.3, q, c=(np.ones((1, 2)), None))[0]))


def test_time_partial_zero_weights():
    net = pot.zero_potential_net(1)
    assert sweep(net, 0.7, [0.1])[0][-1] == 0.0


def test_time_partial_fd(net1):
    got = sweep(net1, 0.3, [0.5])[0][-1]
    want = fd_scalar(lambda t: potential_value(net1, t, [0.5]), 0.3, 1e-5)
    assert_close(got, want, rtol=1e-6, floor=1e-10, label="time_partial")


def test_time_partial_zero_when_time_column_zeroed(net1):
    A1 = net1.A1.copy()
    A1[:, -1] = 0.0
    net = PotentialNet(net1.d, net1.h, A1, net1.b1, net1.A2, net1.b2, net1.A3, net1.b3)
    for t in (0.0, 0.4, -2.0):
        assert sweep(net, t, [0.3])[0][-1] == 0.0


def test_grad_input_zero_weights():
    net = pot.zero_potential_net(2)
    assert np.all(sweep(net, 0.1, [0.3, -0.2])[0][:-1] == 0.0)


def test_grad_input_fd(net2):
    q = np.array([0.4, -0.7])
    got = sweep(net2, 0.3, q)[0][:-1]
    want = fd_gradient(lambda qq: potential_value(net2, 0.3, qq), q, 1e-5)
    assert_close(got, want, rtol=1e-6, floor=1e-10, label="grad_input")


def test_grad_input_negation_symmetry(net1):
    # Negating the q-columns of A1 and the point reproduces the negated gradient.
    A1 = net1.A1.copy()
    A1[:, :-1] *= -1.0
    flipped = PotentialNet(
        net1.d, net1.h, A1, net1.b1, net1.A2, net1.b2, net1.A3, net1.b3
    )
    q = np.array([0.35])
    g = sweep(net1, 0.2, q)[0][:-1]
    g_flipped = sweep(flipped, 0.2, -q)[0][:-1]
    assert_close(g_flipped, -g, rtol=1e-13, floor=1e-15, label="negation symmetry")


def test_mixed_gradient_zero_weights():
    net = pot.zero_potential_net(1)
    assert np.all(sweep(net, 0.5, [0.2], dt=1.0)[1][:-1] == 0.0)


def test_mixed_gradient_fd(net2):
    q = np.array([0.4, -0.7])
    got = sweep(net2, 0.3, q, dt=1.0)[1][:-1]
    want = fd_scalar(lambda t: sweep(net2, t, q)[0][:-1], 0.3, 1e-5)
    assert_close(got, want, rtol=1e-5, floor=1e-9, label="mixed gradient")


def test_mixed_gradient_zero_without_time_column(net2):
    A1 = net2.A1.copy()
    A1[:, -1] = 0.0
    net = PotentialNet(net2.d, net2.h, A1, net2.b1, net2.A2, net2.b2, net2.A3, net2.b3)
    assert np.all(sweep(net, 0.9, [0.1, 0.2], dt=1.0)[1][:-1] == 0.0)


def test_hvp_zero_vector(net2):
    out = sweep(net2, 0.3, [0.4, -0.7], dq=[0.0, 0.0])[1][:-1]
    assert np.all(out == 0.0)


def test_hvp_fd(net2):
    q = np.array([0.4, -0.7])
    v = np.array([0.3, 0.9])
    got = sweep(net2, 0.3, q, dq=v)[1][:-1]
    want = fd_directional(lambda qq: sweep(net2, 0.3, qq)[0][:-1], q, v, 1e-5)
    assert_close(got, want, rtol=1e-5, floor=1e-9, label="hvp")


def test_hvp_linearity(net2):
    rng = np.random.default_rng(3)
    q = rng.normal(size=2)
    v1, v2 = rng.normal(size=2), rng.normal(size=2)
    lhs = sweep(net2, 0.2, q, dq=v1 + v2)[1]
    rhs = sweep(net2, 0.2, q, dq=v1)[1] + sweep(net2, 0.2, q, dq=v2)[1]
    assert_close(lhs, rhs, rtol=1e-12, floor=1e-14, label="hvp linearity")


def _fd_param_grad(net, f, step=1e-6):
    theta = pot.params_to_vector(net)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = step
        up = f(pot.net_with_params(net, theta + e))
        dn = f(pot.net_with_params(net, theta - e))
        grad[i] = (up - dn) / (2.0 * step)
    return grad


def test_param_grad_value_zero_weights():
    # The value's pullback through the jet sweeps, by chain_forward and chain_backward.
    net = pot.zero_potential_net(1, h=4)
    jets = pot._forward(net, 0.3, np.array([[0.5]]))
    g = flatten(chain_backward(net.weights, jets, Jet(x0=np.ones((1, 1))))[1])
    want = np.zeros(net.n_params)
    want[-1] = 1.0  # only the output bias moves the value of an all-zero net
    assert np.array_equal(g, want)


@pytest.mark.parametrize(
    "vjp,cot",
    [
        (time_partial_vjp, np.array([-1.3])),
        (grad_input_vjp, np.array([[0.8, -0.5]])),
        (mixed_vjp, np.array([[0.4, 1.1]])),
    ],
    ids=["time_partial", "input_gradient", "mixed_time_input_gradient"],
)
def test_param_grad_fd(vjp, cot):
    net = pot.random_potential_net(2, np.random.default_rng(5), h=4)
    t, q = 0.3, np.array([0.4, -0.7])

    def quantity(n):
        g, g_t = sweep(n, t, q, dt=1.0)  # grad_u V and its time derivative
        value = {time_partial_vjp: g[-1], grad_input_vjp: g[:-1], mixed_vjp: g_t[:-1]}[vjp]
        return float(np.sum(cot[0] * value))

    got = vjp(net, t, q[None, :], cot)[1]
    want = _fd_param_grad(net, quantity)
    assert_close(got, want, rtol=1e-4, floor=1e-8, label=f"param_grad {vjp.__name__}")


def test_param_grad_zero_cotangent(net2):
    g = grad_input_vjp(net2, 0.3, np.array([[0.1, 0.2]]), np.zeros((1, 2)))[1]
    assert np.all(g == 0.0)


def test_param_grad_linear_in_cotangent(net2):
    rng = np.random.default_rng(9)
    q = rng.normal(size=(1, 2))
    w1, w2 = rng.normal(size=(1, 2)), rng.normal(size=(1, 2))
    g1 = grad_input_vjp(net2, 0.4, q, w1)[1]
    g2 = grad_input_vjp(net2, 0.4, q, w2)[1]
    g12 = grad_input_vjp(net2, 0.4, q, w1 + w2)[1]
    assert_close(g12, g1 + g2, rtol=1e-12, floor=1e-14, label="cotangent linearity")


def test_param_count_formula():
    for d in (1, 2, 3):
        for h in (3, 10):
            net = pot.zero_potential_net(d, h=h)
            assert net.n_params == h * (d + 1) + h + h * h + h + h + 1
            assert pot.params_to_vector(net).size == net.n_params
    assert pot.zero_potential_net(1, h=10).n_params == 151


def test_net_with_params_shares_no_memory_with_the_vector(net2):
    vec = 0.5 * pot.params_to_vector(net2)
    want = vec.copy()
    rebuilt = pot.net_with_params(net2, vec)
    assert not any(np.shares_memory(a, vec) for pair in rebuilt.weights for a in pair)
    vec[:] = np.nan
    assert np.array_equal(pot.params_to_vector(rebuilt), want)


def test_all_quantities_fd_sweep():
    # 100 fixed-seed triples with d in {1, 2}: every derivative quantity of
    # jet_grad_b matches central differences to 1e-5 relative (1e-8 floor).
    rng = np.random.default_rng(42)
    for trial in range(100):
        d = 1 + trial % 2
        net = pot.random_potential_net(d, rng, h=5)
        t = float(rng.uniform(-1, 1))
        q = rng.uniform(-1, 1, size=d)
        v = rng.normal(size=d)

        g = sweep(net, t, q)[0]
        assert_close(
            g[-1],
            fd_scalar(lambda s: potential_value(net, s, q), t, 1e-5),
            rtol=1e-5,
            floor=1e-8,
            label="time_partial sweep",
        )
        assert_close(
            g[:-1],
            fd_gradient(lambda qq: potential_value(net, t, qq), q, 1e-5),
            rtol=1e-5,
            floor=1e-8,
            label="grad_input sweep",
        )
        assert_close(
            sweep(net, t, q, dt=1.0)[1][:-1],
            fd_scalar(lambda s: sweep(net, s, q)[0][:-1], t, 1e-5),
            rtol=1e-5,
            floor=1e-8,
            label="mixed sweep",
        )
        assert_close(
            sweep(net, t, q, dq=v)[1][:-1],
            fd_directional(lambda qq: sweep(net, t, qq)[0][:-1], q, v, 1e-5),
            rtol=1e-5,
            floor=1e-8,
            label="hvp sweep",
        )


def test_internal_third_order_helpers():
    # Three contractions beyond the sweeps the package uses, kept as test oracles.
    rng = np.random.default_rng(21)
    net = pot.random_potential_net(2, rng, h=4)
    t = 0.37
    q = rng.uniform(-1, 1, size=(1, 2))
    v = rng.normal(size=(1, 2))
    w = rng.normal(size=(1, 2))

    def hvp(n, s, qq, vv):
        return sweep(n, s, qq, dq=vv)[1][:-1]

    got = hvp_time_b(net, t, q, v)[0]
    want = fd_scalar(lambda s: hvp(net, s, q, v), t, 1e-5)
    assert_close(got, want, rtol=1e-5, floor=1e-8, label="hvp_time")

    got = third_contraction_b(net, t, q, v, w)[0]
    want = fd_directional(lambda qq: hvp(net, t, qq, v), q[0], w[0], 1e-5)
    assert_close(got, want, rtol=1e-5, floor=1e-8, label="third contraction")

    # Parameter gradient of <w, Hess v> via the jet pullback.
    gq, gv, gtheta = hvp_vjp(net, t, q, v, w)

    def scalar(n):
        return float(np.dot(w[0], hvp(n, t, q, v)))

    assert_close(gtheta, _fd_param_grad(net, scalar), rtol=1e-3, floor=1e-7,
                 label="hvp param grad")
    assert_close(
        gq[0],
        fd_gradient(lambda qq: float(np.dot(w[0], hvp(net, t, qq, v))), q[0], 1e-5),
        rtol=1e-5,
        floor=1e-8,
        label="hvp q grad",
    )
    assert_close(gv[0], hvp(net, t, q, w), rtol=1e-10, floor=1e-12, label="hvp v grad")
