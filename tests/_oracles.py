"""Finite-difference oracles, unfused reference compositions and tolerance helpers."""

import numpy as np

from sympflow import potential as pot


def assert_close(got, want, rtol, floor=0.0, label=""):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    tol = np.maximum(floor, rtol * np.abs(want))
    err = np.abs(got - want)
    assert np.all(err <= tol), (
        f"{label}: max abs err {err.max():.3e} exceeds tol "
        f"(rtol={rtol}, floor={floor}); got {got}, want {want}"
    )


def fd_scalar(f, x, step):
    """Central difference of a scalar-argument function."""
    return (f(x + step) - f(x - step)) / (2.0 * step)


def fd_gradient(f, x, step):
    """Componentwise central difference of f: R^n -> scalar or vector."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * step))
    return np.stack(cols, axis=-1)


def fd_directional(f, x, v, step):
    """Central difference of f along direction v."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return (np.asarray(f(x + step * v)) - np.asarray(f(x - step * v))) / (2.0 * step)


# ---------------------------------------------------------------------------
# Unfused SympFlow compositions: one potential sweep per derivative quantity.
# The package fuses these (one jet sweep per potential and time); the
# per-quantity versions below are kept as oracles for the fused kernels.
# ---------------------------------------------------------------------------


def _shear_delta(net, t, y):
    g_t, _ = pot.grad_time_b(net, t, y)
    g_0, _ = pot.grad_time_b(net, 0.0, y)
    return g_t - g_0


def sf_velocity_states(model, t, x):
    """Forward x- and v-chains with the input of every shear retained."""
    d = model.d
    v = np.zeros_like(x)
    xs, vs = [], []
    for vq, vp in model.layers:
        xs.append(x)
        vs.append(v)
        q, p = x[:, :d], x[:, d:]
        dg = pot.mixed_b(vq, t, q)
        hv = pot.hvp_b(vq, t, q, v[:, :d]) - pot.hvp_b(vq, 0.0, q, v[:, :d])
        v = np.concatenate([v[:, :d], v[:, d:] - dg - hv], axis=1)
        x = np.concatenate([q, p - _shear_delta(vq, t, q)], axis=1)
        xs.append(x)
        vs.append(v)
        q, p = x[:, :d], x[:, d:]
        dg = pot.mixed_b(vp, t, p)
        hv = pot.hvp_b(vp, t, p, v[:, d:]) - pot.hvp_b(vp, 0.0, p, v[:, d:])
        v = np.concatenate([v[:, :d] + dg + hv, v[:, d:]], axis=1)
        x = np.concatenate([q + _shear_delta(vp, t, p), p], axis=1)
    return x, v, xs, vs


def sf_velocity_vjp(model, t, x, Wx, Wv):
    """Joint pullback of cotangents on (forward, time derivative): (gx, gtheta)."""
    d = model.d
    _, _, xs, vs = sf_velocity_states(model, t, x)
    grads = [np.zeros(n.n_params) for vq, vp in model.layers for n in (vq, vp)]
    wx, wv = Wx, Wv
    for i in range(model.n_layers - 1, -1, -1):
        vq, vp = model.layers[i]
        x_mid, v_mid = xs[2 * i + 1], vs[2 * i + 1]
        x_in, v_in = xs[2 * i], vs[2 * i]

        p_mid = x_mid[:, d:]
        vp_mid = v_mid[:, d:]
        wq, wp = wx[:, :d], wx[:, d:]
        wvq, wvp = wv[:, :d], wv[:, d:]
        gin_t, gA = pot.grad_input_vjp(vp, t, p_mid, wq)
        gin_0, gB = pot.grad_input_vjp(vp, 0.0, p_mid, wq)
        gm, gC = pot.mixed_vjp(vp, t, p_mid, wvq)
        gq_t, gv_t, gD = pot.hvp_vjp(vp, t, p_mid, vp_mid, wvq)
        gq_0, gv_0, gE = pot.hvp_vjp(vp, 0.0, p_mid, vp_mid, wvq)
        grads[2 * i + 1] += (gA - gB) + gC + (gD - gE)
        wp = wp + (gin_t[:, :d] - gin_0[:, :d]) + gm[:, :d] + (gq_t - gq_0)
        wvp = wvp + (gv_t - gv_0)
        wx = np.concatenate([wq, wp], axis=1)
        wv = np.concatenate([wvq, wvp], axis=1)

        q_in = x_in[:, :d]
        vq_in = v_in[:, :d]
        wq, wp = wx[:, :d], wx[:, d:]
        wvq, wvp = wv[:, :d], wv[:, d:]
        gin_t, gA = pot.grad_input_vjp(vq, t, q_in, wp)
        gin_0, gB = pot.grad_input_vjp(vq, 0.0, q_in, wp)
        gm, gC = pot.mixed_vjp(vq, t, q_in, wvp)
        gq_t, gv_t, gD = pot.hvp_vjp(vq, t, q_in, vq_in, wvp)
        gq_0, gv_0, gE = pot.hvp_vjp(vq, 0.0, q_in, vq_in, wvp)
        grads[2 * i] += -(gA - gB) - gC - (gD - gE)
        wq = wq - (gin_t[:, :d] - gin_0[:, :d]) - gm[:, :d] - (gq_t - gq_0)
        wvq = wvq - (gv_t - gv_0)
        wx = np.concatenate([wq, wp], axis=1)
        wv = np.concatenate([wvq, wvp], axis=1)
    return wx, np.concatenate(grads)


def _pair_ham(vq, vp, t, y):
    d = vq.d
    q, p = y[:, :d], y[:, d:]
    gp_t, vtp = pot.grad_time_b(vp, t, p)
    gp_0, _ = pot.grad_time_b(vp, 0.0, p)
    _, vtq = pot.grad_time_b(vq, t, q - (gp_t - gp_0))
    return vtp + vtq


def _inverse_pair(vq, vp, t, y):
    d = vq.d
    q, p = y[:, :d], y[:, d:]
    q = q - _shear_delta(vp, t, p)
    return np.concatenate([q, p + _shear_delta(vq, t, q)], axis=1)


def extract_values(model, t, x):
    """The extracted Hamiltonian: pair Hamiltonians summed from the last pair."""
    total = np.zeros(x.shape[0])
    y = x
    for i in range(model.n_layers, 0, -1):
        vq, vp = model.layers[i - 1]
        total += _pair_ham(vq, vp, t, y)
        if i > 1:
            y = _inverse_pair(vq, vp, t, y)
    return total


def _pair_ham_vjp(vq, vp, t, y, c):
    d = vq.d
    q, p = y[:, :d], y[:, d:]
    q_shift = q - _shear_delta(vp, t, p)
    gin_q, gth_q = pot.time_partial_vjp(vq, t, q_shift, c)
    weighted_mq = gin_q[:, :d]
    gin_p, gth_p = pot.time_partial_vjp(vp, t, p, c)
    gin_t, gA = pot.grad_input_vjp(vp, t, p, weighted_mq)
    gin_0, gB = pot.grad_input_vjp(vp, 0.0, p, weighted_mq)
    gp = gin_p[:, :d] - (gin_t[:, :d] - gin_0[:, :d])
    return np.concatenate([weighted_mq, gp], axis=1), gth_q, gth_p - (gA - gB)


def _inv_pair_vjp(vq, vp, t, y_in, w):
    d = vq.d
    mid = y_in.copy()
    mid[:, :d] = y_in[:, :d] - _shear_delta(vp, t, y_in[:, d:])
    wq, wp = w[:, :d], w[:, d:]
    gin_t, gA = pot.grad_input_vjp(vq, t, mid[:, :d], wp)
    gin_0, gB = pot.grad_input_vjp(vq, 0.0, mid[:, :d], wp)
    wq_mid = wq + (gin_t[:, :d] - gin_0[:, :d])
    gth_q = gA - gB
    gin_t, gA = pot.grad_input_vjp(vp, t, y_in[:, d:], wq_mid)
    gin_0, gB = pot.grad_input_vjp(vp, 0.0, y_in[:, d:], wq_mid)
    wp_in = wp - (gin_t[:, :d] - gin_0[:, :d])
    return np.concatenate([wq_mid, wp_in], axis=1), gth_q, -(gA - gB)


def extract_vjp(model, t, x, c):
    """Gradient of sum_i c_i * extract(model, t, x_i): (gx, gtheta)."""
    L = model.n_layers
    ys = {L + 1: x}
    for i in range(L, 1, -1):
        vq, vp = model.layers[i - 1]
        ys[i] = _inverse_pair(vq, vp, t, ys[i + 1])
    grads = [[np.zeros(nq.n_params), np.zeros(np_.n_params)] for nq, np_ in model.layers]
    vq, vp = model.layers[0]
    w, gq, gp = _pair_ham_vjp(vq, vp, t, ys[2], c)
    grads[0][0] += gq
    grads[0][1] += gp
    for j in range(2, L + 1):
        vq, vp = model.layers[j - 1]
        w, gq, gp = _inv_pair_vjp(vq, vp, t, ys[j + 1], w)
        grads[j - 1][0] += gq
        grads[j - 1][1] += gp
        gy, gq, gp = _pair_ham_vjp(vq, vp, t, ys[j + 1], c)
        w = w + gy
        grads[j - 1][0] += gq
        grads[j - 1][1] += gp
    return w, np.concatenate([g for pair in grads for g in pair])


def sf_regularized_loss_and_grad(model, sys, residual_batch, matching_batch):
    """Regularized SympFlow loss from the unfused compositions: (value, grad, parts)."""
    t, x = residual_batch
    x_out, v_out, _, _ = sf_velocity_states(model, t, x)
    resid = v_out - sys.vector_field(x_out)
    residual = float(np.mean(np.sum(resid**2, axis=1)))
    Wv = (2.0 / len(t)) * resid
    Wx = -np.einsum("bij,bi->bj", sys.vector_field_jacobian(x_out), Wv)
    _, g_res = sf_velocity_vjp(model, t, x, Wx, Wv)

    t, x = matching_batch
    err = extract_values(model, t, x) - sys.hamiltonian(x)
    matching = float(np.mean(err**2))
    _, g_match = extract_vjp(model, t, x, (2.0 / len(t)) * err)
    parts = {"residual": residual, "matching": matching}
    return residual + matching, g_res + g_match, parts
