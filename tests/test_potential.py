"""Derivative quantities of the potential networks against finite differences."""

import numpy as np
import pytest

from sympflow import potential as pot
from sympflow.errors import DimensionError
from sympflow.potential import PotentialNet, QuantityKind

from _oracles import (
    assert_close,
    fd_directional,
    fd_gradient,
    fd_scalar,
    hvp_time_b,
    hvp_vjp,
    third_contraction_b,
)


def reference_value(net, t, q):
    """Straight-line re-evaluation of the layer formula, independent of _jet."""
    u = np.concatenate([np.atleast_1d(q), [t]])
    a1 = np.tanh(net.A1 @ u + net.b1)
    a2 = np.tanh(net.A2 @ a1 + net.b2)
    return float((net.A3 @ a2 + net.b3)[0])


@pytest.fixture
def net1():
    return pot.random_potential_net(1, np.random.default_rng(7))


@pytest.fixture
def net2():
    return pot.random_potential_net(2, np.random.default_rng(11))


def test_zero_weights_value_is_bias():
    net = pot.zero_potential_net(1)
    net = pot.net_with_params(net, np.r_[np.zeros(net.n_params - 1), 0.7])
    assert pot.value(net, 0.3, [0.2]) == 0.7
    assert pot.value(net, -4.0, [1.9]) == 0.7


def test_value_matches_reference(net1, net2):
    assert pot.value(net1, 0.3, [0.5]) == pytest.approx(
        reference_value(net1, 0.3, [0.5]), rel=1e-14
    )
    q = np.array([0.4, -0.7])
    assert pot.value(net2, -1.2, q) == pytest.approx(
        reference_value(net2, -1.2, q), rel=1e-14
    )


def test_value_deterministic(net1):
    a = pot.value(net1, 0.3, [0.5])
    b = pot.value(net1, 0.3, [0.5])
    assert a == b


def test_value_rejects_bad_dimension(net1):
    with pytest.raises(DimensionError):
        pot.value(net1, 0.0, [0.1, 0.2])


def test_time_partial_zero_weights():
    net = pot.zero_potential_net(1)
    assert pot.time_partial(net, 0.7, [0.1]) == 0.0


def test_time_partial_fd(net1):
    got = pot.time_partial(net1, 0.3, [0.5])
    want = fd_scalar(lambda t: pot.value(net1, t, [0.5]), 0.3, 1e-5)
    assert_close(got, want, rtol=1e-6, floor=1e-10, label="time_partial")


def test_time_partial_zero_when_time_column_zeroed(net1):
    A1 = net1.A1.copy()
    A1[:, -1] = 0.0
    net = PotentialNet(net1.d, net1.h, A1, net1.b1, net1.A2, net1.b2, net1.A3, net1.b3)
    for t in (0.0, 0.4, -2.0):
        assert pot.time_partial(net, t, [0.3]) == 0.0


def test_grad_input_zero_weights():
    net = pot.zero_potential_net(2)
    assert np.all(pot.grad_input(net, 0.1, [0.3, -0.2]) == 0.0)


def test_grad_input_fd(net2):
    q = np.array([0.4, -0.7])
    got = pot.grad_input(net2, 0.3, q)
    want = fd_gradient(lambda qq: pot.value(net2, 0.3, qq), q, 1e-5)
    assert_close(got, want, rtol=1e-6, floor=1e-10, label="grad_input")


def test_grad_input_negation_symmetry(net1):
    # Negating the q-columns of A1 and the point reproduces the negated gradient.
    A1 = net1.A1.copy()
    A1[:, :-1] *= -1.0
    flipped = PotentialNet(
        net1.d, net1.h, A1, net1.b1, net1.A2, net1.b2, net1.A3, net1.b3
    )
    q = np.array([0.35])
    g = pot.grad_input(net1, 0.2, q)
    g_flipped = pot.grad_input(flipped, 0.2, -q)
    assert_close(g_flipped, -g, rtol=1e-13, floor=1e-15, label="negation symmetry")


def test_mixed_gradient_zero_weights():
    net = pot.zero_potential_net(1)
    assert np.all(pot.mixed_time_input_gradient(net, 0.5, [0.2]) == 0.0)


def test_mixed_gradient_fd(net2):
    q = np.array([0.4, -0.7])
    got = pot.mixed_time_input_gradient(net2, 0.3, q)
    want = fd_scalar(lambda t: pot.grad_input(net2, t, q), 0.3, 1e-5)
    assert_close(got, want, rtol=1e-5, floor=1e-9, label="mixed gradient")


def test_mixed_gradient_zero_without_time_column(net2):
    A1 = net2.A1.copy()
    A1[:, -1] = 0.0
    net = PotentialNet(net2.d, net2.h, A1, net2.b1, net2.A2, net2.b2, net2.A3, net2.b3)
    assert np.all(pot.mixed_time_input_gradient(net, 0.9, [0.1, 0.2]) == 0.0)


def test_hvp_zero_vector(net2):
    out = pot.hessian_vector_product(net2, 0.3, [0.4, -0.7], [0.0, 0.0])
    assert np.all(out == 0.0)


def test_hvp_fd(net2):
    q = np.array([0.4, -0.7])
    v = np.array([0.3, 0.9])
    got = pot.hessian_vector_product(net2, 0.3, q, v)
    want = fd_directional(lambda qq: pot.grad_input(net2, 0.3, qq), q, v, 1e-5)
    assert_close(got, want, rtol=1e-5, floor=1e-9, label="hvp")


def test_hvp_linearity(net2):
    rng = np.random.default_rng(3)
    q = rng.normal(size=2)
    v1, v2 = rng.normal(size=2), rng.normal(size=2)
    lhs = pot.hessian_vector_product(net2, 0.2, q, v1 + v2)
    rhs = pot.hessian_vector_product(net2, 0.2, q, v1) + pot.hessian_vector_product(
        net2, 0.2, q, v2
    )
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
    net = pot.zero_potential_net(1, h=4)
    g = pot.param_grad(net, QuantityKind.VALUE, 0.3, [0.5], 1.0)
    want = np.zeros(net.n_params)
    want[-1] = 1.0  # only the output bias moves the value of an all-zero net
    assert np.array_equal(g, want)


@pytest.mark.parametrize(
    "kind,cot",
    [
        (QuantityKind.VALUE, 0.7),
        (QuantityKind.TIME_PARTIAL, -1.3),
        (QuantityKind.INPUT_GRADIENT, np.array([0.8, -0.5])),
        (QuantityKind.MIXED_TIME_INPUT_GRADIENT, np.array([0.4, 1.1])),
    ],
)
def test_param_grad_fd(kind, cot):
    net = pot.random_potential_net(2, np.random.default_rng(5), h=4)
    t, q = 0.3, np.array([0.4, -0.7])

    def quantity(n):
        if kind is QuantityKind.VALUE:
            return cot * pot.value(n, t, q)
        if kind is QuantityKind.TIME_PARTIAL:
            return cot * pot.time_partial(n, t, q)
        if kind is QuantityKind.INPUT_GRADIENT:
            return float(np.dot(cot, pot.grad_input(n, t, q)))
        return float(np.dot(cot, pot.mixed_time_input_gradient(n, t, q)))

    got = pot.param_grad(net, kind, t, q, cot)
    want = _fd_param_grad(net, quantity)
    assert_close(got, want, rtol=1e-4, floor=1e-8, label=f"param_grad {kind.value}")


def test_param_grad_zero_cotangent(net2):
    g = pot.param_grad(net2, QuantityKind.INPUT_GRADIENT, 0.3, [0.1, 0.2], [0.0, 0.0])
    assert np.all(g == 0.0)


def test_param_grad_linear_in_cotangent(net2):
    rng = np.random.default_rng(9)
    q = rng.normal(size=2)
    w1, w2 = rng.normal(size=2), rng.normal(size=2)
    g1 = pot.param_grad(net2, QuantityKind.INPUT_GRADIENT, 0.4, q, w1)
    g2 = pot.param_grad(net2, QuantityKind.INPUT_GRADIENT, 0.4, q, w2)
    g12 = pot.param_grad(net2, QuantityKind.INPUT_GRADIENT, 0.4, q, w1 + w2)
    assert_close(g12, g1 + g2, rtol=1e-12, floor=1e-14, label="cotangent linearity")


def test_param_grad_rejects_bad_cotangent(net2):
    with pytest.raises(DimensionError):
        pot.param_grad(net2, QuantityKind.INPUT_GRADIENT, 0.1, [0.1, 0.2], [1.0])
    with pytest.raises(DimensionError):
        pot.param_grad(net2, QuantityKind.VALUE, 0.1, [0.1, 0.2], [1.0, 2.0])


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
    # 100 fixed-seed triples with d in {1, 2}: every exported derivative
    # quantity matches central differences to 1e-5 relative (1e-8 floor).
    rng = np.random.default_rng(42)
    for trial in range(100):
        d = 1 + trial % 2
        net = pot.random_potential_net(d, rng, h=5)
        t = float(rng.uniform(-1, 1))
        q = rng.uniform(-1, 1, size=d)
        v = rng.normal(size=d)

        vt = pot.time_partial(net, t, q)
        assert_close(
            vt,
            fd_scalar(lambda s: pot.value(net, s, q), t, 1e-5),
            rtol=1e-5,
            floor=1e-8,
            label="time_partial sweep",
        )
        g = pot.grad_input(net, t, q)
        assert_close(
            g,
            fd_gradient(lambda qq: pot.value(net, t, qq), q, 1e-5),
            rtol=1e-5,
            floor=1e-8,
            label="grad_input sweep",
        )
        m = pot.mixed_time_input_gradient(net, t, q)
        assert_close(
            m,
            fd_scalar(lambda s: pot.grad_input(net, s, q), t, 1e-5),
            rtol=1e-5,
            floor=1e-8,
            label="mixed sweep",
        )
        hv = pot.hessian_vector_product(net, t, q, v)
        assert_close(
            hv,
            fd_directional(lambda qq: pot.grad_input(net, t, qq), q, v, 1e-5),
            rtol=1e-5,
            floor=1e-8,
            label="hvp sweep",
        )


def test_internal_third_order_helpers():
    # Three contractions beyond the public API, kept as test oracles.
    rng = np.random.default_rng(21)
    net = pot.random_potential_net(2, rng, h=4)
    t = 0.37
    q = rng.uniform(-1, 1, size=(1, 2))
    v = rng.normal(size=(1, 2))
    w = rng.normal(size=(1, 2))

    got = hvp_time_b(net, t, q, v)[0]
    want = fd_scalar(lambda s: pot.hvp_b(net, s, q, v)[0], t, 1e-5)
    assert_close(got, want, rtol=1e-5, floor=1e-8, label="hvp_time")

    got = third_contraction_b(net, t, q, v, w)[0]
    want = fd_directional(
        lambda qq: pot.hvp_b(net, t, qq[None, :], v)[0], q[0], w[0], 1e-5
    )
    assert_close(got, want, rtol=1e-5, floor=1e-8, label="third contraction")

    # Parameter gradient of <w, Hess v> via the jet pullback.
    gq, gv, gtheta = hvp_vjp(net, t, q, v, w)

    def scalar(n):
        return float(np.dot(w[0], pot.hessian_vector_product(n, t, q[0], v[0])))

    assert_close(gtheta, _fd_param_grad(net, scalar), rtol=1e-3, floor=1e-7,
                 label="hvp param grad")
    assert_close(
        gq[0],
        fd_gradient(lambda qq: scalar_at(net, t, qq, v[0], w[0]), q[0], 1e-5),
        rtol=1e-5,
        floor=1e-8,
        label="hvp q grad",
    )
    hw = pot.hvp_b(net, t, q, w)[0]
    assert_close(gv[0], hw, rtol=1e-10, floor=1e-12, label="hvp v grad")


def scalar_at(net, t, q, v, w):
    return float(np.dot(w, pot.hessian_vector_product(net, t, q, v)))
