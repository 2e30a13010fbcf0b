"""Finite-difference oracles, unfused reference compositions, a faulty system and tolerance helpers."""

import functools

import numpy as np

from sympflow import potential as pot
from sympflow import train as tr
from sympflow._jet import Jet, chain_backward, chain_forward, flatten
from sympflow.systems import HamiltonianSystem
from sympflow.validation import as_box


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


def init_law(widths, rng):
    """The package's init law, written out: per affine map A, then b, uniform on +-sqrt(1/fan_in)."""
    pairs = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = np.sqrt(1.0 / fan_in)
        A = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        b = rng.uniform(-bound, bound, size=fan_out)
        pairs.append((A, b))
    return pairs


def potential_value(net, t, q):
    """V(t, q) = A3 tanh(A2 tanh(A1 [q; t] + b1) + b2) + b3 at one point, written out in NumPy."""
    u = np.concatenate([np.atleast_1d(q), [t]])
    (A1, b1), (A2, b2), (A3, b3) = net.weights
    return float((A3 @ np.tanh(A2 @ np.tanh(A1 @ u + b1) + b2) + b3)[0])


# ---------------------------------------------------------------------------
# Per-quantity pullbacks and third-order contractions of a potential, each
# from one jet pullback.
# ---------------------------------------------------------------------------


def time_partial_vjp(net, t, q, cot):
    """Pullback of per-point cotangents on d_t V: (input grads, flat parameter gradient)."""
    gu, _, g = pot.jet_vjp(net, t, q, c=(None, cot))
    return gu, g


def grad_input_vjp(net, t, q, W):
    """Pullback of <W_i, grad_q V_i>; input grads are [Hess W, <d_t grad_q V, W>]."""
    gu, _, g = pot.jet_vjp(net, t, q, c=(W, None))
    return gu, g


def mixed_vjp(net, t, q, W):
    """Pullback of <W_i, d_t grad_q V_i>; input grads are [(d_t Hess) W, ...]."""
    gu, _, g = pot.jet_vjp(net, t, q, (None, 1.0), (W, None))
    return gu, g


def hvp_time_b(net, t, q, v):
    """d/dt of the Hessian-vector product (d_t Hess) v, shape (B, d)."""
    return pot.jet_vjp(net, t, q, (v, None), (None, 1.0))[0][:, : net.d].copy()


def third_contraction_b(net, t, q, v, w):
    """Third-derivative contraction T[v, w]_k = sum_ij d^3 V/dq_k dq_i dq_j v_i w_j."""
    return pot.jet_vjp(net, t, q, (v, None), (w, None))[0][:, : net.d].copy()


def hvp_vjp(net, t, q, v, W):
    """Pullback of <W_i, Hess(t, q_i) v_i>: (T[v, W], Hess W, flat parameter gradient)."""
    gu, ga, g = pot.jet_vjp(net, t, q, (v, None), (W, None))
    return gu[:, : net.d], ga[:, : net.d], g


# ---------------------------------------------------------------------------
# Unfused SympFlow compositions: one potential sweep per derivative quantity.
# The package fuses these (one jet sweep per potential and time); the
# per-quantity versions below are kept as oracles for the fused kernels.
# ---------------------------------------------------------------------------


def shear_two_sweeps(net, t, y, vy=None, dt=None):
    """``model._shear`` from one sweep at t and one at 0: (delta, ddelta, vt)."""
    d = net.d
    gt, ht = pot.jet_grad_b(net, t, y, (vy, dt))
    g0, h0 = pot.jet_grad_b(net, 0.0, y, (vy, None))
    ddelta = None if vy is None else ht[:, :d] - h0[:, :d]
    return gt[:, :d] - g0[:, :d], ddelta, gt[:, d]


def _fresh_input_jet(net, t, q, da=None):
    """The input jet [q; t] and direction da on fresh column-major arrays."""
    B, d = q.shape

    def column_major(head, tail):
        u = np.empty((d + 1, B)).T
        u[:, :d] = 0.0 if head is None else head
        u[:, d] = 0.0 if tail is None else tail
        return u

    xa = None if da is None or (da[0] is None and da[1] is None) else column_major(*da)
    return Jet(column_major(q, t), xa)


def _paired_with_zero(value, B):
    """``value`` (a scalar or (B,)) at the even entries of a (2B,) array of zeros."""
    out = np.zeros(2 * B)
    out[::2] = value
    return out


def shear_repeated_rows(net, t, y, vy=None, dt=None):
    """``model._shear`` with its 2B input rows assembled first: (delta, ddelta, vt).

    Row 2i is [y_i, t_i] with the tangent [vy_i, dt], row 2i+1 is [y_i, 0]
    with [vy_i, 0], built with ``np.repeat`` and zero-paired times on fresh
    arrays, then swept through the package's chain.
    """
    d, B = net.d, y.shape[0]
    a = (
        None if vy is None else np.repeat(vy, 2, axis=0),
        None if dt is None else _paired_with_zero(dt, B),
    )
    x = _fresh_input_jet(net, _paired_with_zero(t, B), np.repeat(y, 2, axis=0), a)
    jets = chain_forward(net.weights, x)
    ones = np.ones((2 * B, 1))
    if x.xa is None:
        g, hv = chain_backward(net.weights, jets, Jet(x0=ones), with_params=False)[0].x0, None
    else:
        gin = chain_backward(net.weights, jets, Jet(xa=ones), with_params=False)[0]
        g, hv = gin.xa, gin.x0
    ddelta = None if vy is None else hv[::2, :d] - hv[1::2, :d]
    return g[::2, :d] - g[1::2, :d], ddelta, g[::2, d]


def shear_chain(model, t, x, v=None, dt=None):
    """``model._chain_b`` over :func:`shear_repeated_rows`: (x, v) after every shear."""
    d = model.d
    for vq, vp in model.layers:
        for net, momentum in ((vq, False), (vp, True)):
            if momentum:
                read, write, s = slice(d, None), slice(None, d), 1.0
            else:
                read, write, s = slice(None, d), slice(d, None), -1.0
            vy = None if v is None else v[:, read]
            delta, ddelta, _ = shear_repeated_rows(net, t, x[:, read], vy, dt)
            x = x.copy()
            x[:, write] += s * delta
            if v is not None:
                v = v.copy()
                v[:, write] += s * ddelta
    return x, v


def _shear_delta(net, t, y):
    g_t = pot.jet_grad_b(net, t, y)[0][:, : net.d]
    g_0 = pot.jet_grad_b(net, 0.0, y)[0][:, : net.d]
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
        dg = pot.jet_grad_b(vq, t, q, (None, 1.0))[1][:, :d]
        a = (v[:, :d], None)
        hv = pot.jet_grad_b(vq, t, q, a)[1][:, :d] - pot.jet_grad_b(vq, 0.0, q, a)[1][:, :d]
        v = np.concatenate([v[:, :d], v[:, d:] - dg - hv], axis=1)
        x = np.concatenate([q, p - _shear_delta(vq, t, q)], axis=1)
        xs.append(x)
        vs.append(v)
        q, p = x[:, :d], x[:, d:]
        dg = pot.jet_grad_b(vp, t, p, (None, 1.0))[1][:, :d]
        a = (v[:, d:], None)
        hv = pot.jet_grad_b(vp, t, p, a)[1][:, :d] - pot.jet_grad_b(vp, 0.0, p, a)[1][:, :d]
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
        gin_t, gA = grad_input_vjp(vp, t, p_mid, wq)
        gin_0, gB = grad_input_vjp(vp, 0.0, p_mid, wq)
        gm, gC = mixed_vjp(vp, t, p_mid, wvq)
        gq_t, gv_t, gD = hvp_vjp(vp, t, p_mid, vp_mid, wvq)
        gq_0, gv_0, gE = hvp_vjp(vp, 0.0, p_mid, vp_mid, wvq)
        grads[2 * i + 1] += (gA - gB) + gC + (gD - gE)
        wp = wp + (gin_t[:, :d] - gin_0[:, :d]) + gm[:, :d] + (gq_t - gq_0)
        wvp = wvp + (gv_t - gv_0)
        wx = np.concatenate([wq, wp], axis=1)
        wv = np.concatenate([wvq, wvp], axis=1)

        q_in = x_in[:, :d]
        vq_in = v_in[:, :d]
        wq, wp = wx[:, :d], wx[:, d:]
        wvq, wvp = wv[:, :d], wv[:, d:]
        gin_t, gA = grad_input_vjp(vq, t, q_in, wp)
        gin_0, gB = grad_input_vjp(vq, 0.0, q_in, wp)
        gm, gC = mixed_vjp(vq, t, q_in, wvp)
        gq_t, gv_t, gD = hvp_vjp(vq, t, q_in, vq_in, wvp)
        gq_0, gv_0, gE = hvp_vjp(vq, 0.0, q_in, vq_in, wvp)
        grads[2 * i] += -(gA - gB) - gC - (gD - gE)
        wq = wq - (gin_t[:, :d] - gin_0[:, :d]) - gm[:, :d] - (gq_t - gq_0)
        wvq = wvq - (gv_t - gv_0)
        wx = np.concatenate([wq, wp], axis=1)
        wv = np.concatenate([wvq, wvp], axis=1)
    return wx, np.concatenate(grads)


def _pair_ham(vq, vp, t, y):
    d = vq.d
    q, p = y[:, :d], y[:, d:]
    gp_t = pot.jet_grad_b(vp, t, p)[0]
    gp_0 = pot.jet_grad_b(vp, 0.0, p)[0]
    vtq = pot.jet_grad_b(vq, t, q - (gp_t[:, :d] - gp_0[:, :d]))[0][:, d]
    return gp_t[:, d] + vtq


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
    gin_q, gth_q = time_partial_vjp(vq, t, q_shift, c)
    weighted_mq = gin_q[:, :d]
    gin_p, gth_p = time_partial_vjp(vp, t, p, c)
    gin_t, gA = grad_input_vjp(vp, t, p, weighted_mq)
    gin_0, gB = grad_input_vjp(vp, 0.0, p, weighted_mq)
    gp = gin_p[:, :d] - (gin_t[:, :d] - gin_0[:, :d])
    return np.concatenate([weighted_mq, gp], axis=1), gth_q, gth_p - (gA - gB)


def _inv_pair_vjp(vq, vp, t, y_in, w):
    d = vq.d
    mid = y_in.copy()
    mid[:, :d] = y_in[:, :d] - _shear_delta(vp, t, y_in[:, d:])
    wq, wp = w[:, :d], w[:, d:]
    gin_t, gA = grad_input_vjp(vq, t, mid[:, :d], wp)
    gin_0, gB = grad_input_vjp(vq, 0.0, mid[:, :d], wp)
    wq_mid = wq + (gin_t[:, :d] - gin_0[:, :d])
    gth_q = gA - gB
    gin_t, gA = grad_input_vjp(vp, t, y_in[:, d:], wq_mid)
    gin_0, gB = grad_input_vjp(vp, 0.0, y_in[:, d:], wq_mid)
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


def weight_arrays(model_obj):
    """Every weight and bias array of a model, of either kind."""
    if model_obj.kind == "mlp":
        pairs = model_obj.weights
    else:
        pairs = [w for pair in model_obj.layers for net in pair for w in net.weights]
    return [a for pair in pairs for a in pair]


def mlp_supervised_unbound(model, samples):
    """The MLP's supervised ``(value, flat gradient)`` on ``chain_forward``, ``chain_backward`` and ``flatten``.

    The package runs this term on a value-only program bound to buffers of
    its own; this is the same arithmetic on the general sweeps, operand
    layouts included: [x; t] column-major, the cotangent th * (2/B) resid on
    the net's output, and the input gradient formed and dropped.
    """
    t, x0, y = samples
    n, B = x0.shape[1], len(x0)
    u = np.empty((n + 1, B)).T
    u[:, :n], u[:, n] = x0, t
    th = np.tanh(u[:, n:])
    jets = chain_forward(model.weights, Jet(u))
    resid = x0 + th * jets[-1].x0 - y
    _, gp = chain_backward(model.weights, jets, Jet(th * ((2.0 / B) * resid)))
    return tr._mean_square(resid), flatten(gp)


def mlp_supervised_unbound_loss(model, regime, sys, samples, *batches_and_need_grad):
    """:func:`mlp_supervised_unbound` in the place of ``train._loss``, for :func:`train_rebuilding`."""
    assert regime == "supervised" and model.kind == "mlp"
    value, grad = mlp_supervised_unbound(model, samples)
    return value, grad, {"supervised": value}


def train_rebuilding(model_obj, config, sys=None, dataset=None, loss=None):
    """The training loop that rebuilds the model from the parameter vector every epoch.

    Same batches, losses and Adam arithmetic as :func:`sympflow.train.train`,
    with each minibatch gathered by one fancy index per sample array.  The
    loss is ``train._loss`` unless ``loss`` takes its place.  Returns
    ``(final parameter vector, loss history)``.
    """
    loss = tr._loss if loss is None else loss
    k = tr._kind(model_obj.kind)[0]
    rng = np.random.default_rng(config.seed)
    params = k.params_to_vector(model_obj)
    state = tr.AdamState.zeros(params.size)
    box = as_box(config.omega, 2 * model_obj.d) if sys is not None else None
    samples = tr._samples(dataset)
    history = {}
    phases = [(config.regime, config.epochs)]
    if config.regime == "mixed":
        phases.append(("residual_only", config.fine_tune_epochs))
    for regime, n_epochs in phases:
        for _ in range(n_epochs):
            current = k.model_with_params(model_obj, params)
            batch = residual_batch = matching_batch = None
            if regime == "supervised":
                batch = samples
                if config.batch_collocation < len(samples[0]):
                    idx = rng.integers(0, len(samples[0]), size=config.batch_collocation)
                    batch = tuple(a[idx] for a in samples)
            else:
                draw = functools.partial(tr._draw_collocation, rng, box, config.delta_t)
                residual_batch = draw(config.batch_collocation)
                if regime in ("regularized", "mixed"):
                    matching_batch = draw(config.batch_matching)
            value, grad, parts = loss(current, regime, sys, batch, residual_batch, matching_batch, True)
            for key, val in dict(total=value, **parts).items():
                history.setdefault(key, []).append(float(val))
            params, state = tr.adam_step(params, grad, state, lr=config.learning_rate)
    return params, history


# ---------------------------------------------------------------------------
# Scalar DOP853 and per-row metrics.  The package steps a (B, 2d) batch with
# one stepper and rolls all initial conditions out together; these loops
# solve and roll out one state at a time and serve as the references.
# ---------------------------------------------------------------------------


def _scalar_initial_step(f, y0, f0, rtol, atol):
    scale = atol + rtol * np.abs(y0)
    d0 = np.sqrt(np.mean((y0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = f(y1)
    d2 = np.sqrt(np.mean(((f1 - f0) / scale) ** 2)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1)


class ScalarSolution:
    """A scalar-loop solve: step endpoints plus one interpolant per step."""

    def __init__(self, ts, ys, pieces, n_steps, n_rejected):
        self.ts, self.ys, self.pieces = np.array(ts), np.array(ys), pieces
        self.n_steps, self.n_rejected = n_steps, n_rejected

    def __call__(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = []
        for tj in t_arr:
            i = min(max(np.searchsorted(self.ts, tj, side="right") - 1, 0), len(self.pieces) - 1)
            out.append(self.pieces[i](tj))
        return out[0] if np.ndim(t) == 0 else np.array(out)


def _dop853_piece(f, t0, h, y0, y1, K):
    """DOP853's 7th-order continuous extension of one step, as in dop853.f's CONTD8."""
    from sympflow.integrate import _A, _D, _S

    K = np.concatenate([K, np.empty((len(_A) - _S - 1, y0.size))])
    for i in range(_S + 1, len(_A)):
        K[i] = f(y0 + h * (_A[i, :i] @ K[:i]))
    dy = y1 - y0
    F = [dy, h * K[0] - dy, 2 * dy - h * (K[0] + K[_S])] + list(h * (_D @ K))

    def at(t):
        x = (t - t0) / h
        y = np.zeros_like(y0)
        for i, c in enumerate(reversed(F)):
            y = (y + c) * (x if i % 2 == 0 else 1 - x)
        return y0 + y

    return at


def integrate_scalar(sys, x0, t_end, rtol=1e-10, atol=1e-12, fixed_step=None, max_steps=10_000_000):
    """One state of sys at a time: the DOP853 loop with the package's tableau and controller."""
    from sympflow.errors import IntegrationError
    from sympflow.integrate import _A, _E53, _S

    f = sys.vector_field
    s, q = _S, 8
    y = np.asarray(x0, dtype=float).copy()
    t = 0.0
    f0 = f(y)
    ts, ys, pieces = [t], [y.copy()], []
    n_steps = n_rejected = 0
    if fixed_step is not None:
        h = float(fixed_step)
    else:
        h = min(_scalar_initial_step(f, y, f0, rtol, atol), t_end)
    err_prev = 1.0
    K = np.empty((s + 1, y.size))
    while t < t_end:
        if fixed_step is None and h < 1e-14 * t_end:
            raise IntegrationError(f"step size underflow at t={t:.6g} (h={h:.3g}); problem too stiff")
        h = min(h, t_end - t)
        K[0] = f0
        for i in range(1, s):
            K[i] = f(y + h * (_A[i, :i] @ K[:i]))
        y_new = y + h * (_A[s, :s] @ K[:s])
        K[s] = f(y_new)
        if fixed_step is None:
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            # Both estimates from one product, as the package forms them: the
            # step size follows the last digits of this cancellation.
            e5, e3 = np.sum(((_E53 @ K) / scale) ** 2, axis=1)
            den = np.sqrt(y.size * (e5 + 0.01 * e3))
            err = h * e5 / den if den > 0 else 0.0
            if err > 1.0:
                n_rejected += 1
                h *= max(0.2, min(1.0, 0.9 * err ** (-1 / q)))
                continue
            fac = 0.9 * (err + 1e-16) ** (-0.7 / q) * (err_prev + 1e-16) ** (0.4 / q)
            err_prev = max(err, 1e-16)
            h_next = h * min(5.0, max(0.2, fac))
        else:
            h_next = h
        pieces.append(_dop853_piece(f, t, h, y, y_new, K.copy()))
        t = t + h
        y = y_new
        f0 = K[s].copy()
        ts.append(t)
        ys.append(y.copy())
        n_steps += 1
        if n_steps > max_steps:
            raise IntegrationError(f"exceeded {max_steps} steps at t={t:.6g}")
        h = h_next
    return ScalarSolution(ts, ys, pieces, n_steps, n_rejected)


class FaultyOscillator(HamiltonianSystem):
    """The oscillator q' = p, p' = -q, whose field is NaN on the rows where ``nan_rows(call, x)`` holds.

    ``call`` counts the calls of ``_vector_field`` from 1, the one made by
    the public ``vector_field`` included; ``nan_rows`` returns a (B,) mask
    of the rows of x or one bool for all of them.
    """

    d = 1

    def __init__(self, nan_rows):
        self.nan_rows, self.calls = nan_rows, 0

    def _rates(self, q, p):
        return p, -q

    def _vector_field(self, x, out=None):
        self.calls += 1
        out = super()._vector_field(x, out)
        out[self.nan_rows(self.calls, x)] = np.nan
        return out


class BlowUp(HamiltonianSystem):
    """H = q^2 p: from (q0, 0), q' = q^2 reaches infinity at t = 1/q0 while p stays 0."""

    d = 1

    def _rates(self, q, p):
        return q * q, -2.0 * q * p


def draw_ics(sys, omega, n_samples, seed):
    """The initial conditions ``evaluate_model`` draws: uniform over the box, from ``default_rng(seed)``."""
    box = as_box(omega, 2 * sys.d)
    return np.random.default_rng(seed).uniform(box[:, 0], box[:, 1], size=(n_samples, 2 * sys.d))


def relative_error_rows(model, ics, refs, k, delta_t, project=None):
    """Mean relative error after k windows, one rollout per row: (mean, skipped)."""
    from sympflow import evaluate as ev

    vals, skipped = [], 0
    for x0, ref in zip(ics, refs):
        norm = np.linalg.norm(ref)
        if norm < 1e-12:
            skipped += 1
            continue
        pred = ev.rollout(model, delta_t, k * delta_t, x0, project=project)
        vals.append(np.linalg.norm(pred - ref) / norm)
    return float(np.mean(vals)), skipped


def energy_variation_rows(model, sys, ics, k, delta_t, project=None):
    """Mean relative energy variation after k windows, one rollout per row: (mean, skipped)."""
    from sympflow import evaluate as ev

    vals, skipped = [], 0
    for x0 in ics:
        e0 = sys.hamiltonian(x0)
        if abs(e0) < 1e-12:
            skipped += 1
            continue
        pred = ev.rollout(model, delta_t, k * delta_t, x0, project=project)
        vals.append(abs(sys.hamiltonian(pred) - e0) / abs(e0))
    return float(np.mean(vals)), skipped


# ---------------------------------------------------------------------------
# Plain jet sweeps.  The package keeps every jet as the transpose view of a
# C-contiguous (n, B) buffer and reuses a per-thread workspace; these take
# x @ A.T on fresh row-major arrays and are the reference for both.
# ---------------------------------------------------------------------------


def _sum_of_products(*terms):
    """Sum of the products whose factors are all present; None if there are none."""
    total = None
    for term in terms:
        if all(f is not None for f in term):
            p = functools.reduce(np.multiply, term)
            total = p if total is None else total + p
    return total


def rowmajor_chain_forward(weights, x):
    """``[input, z_1, a_1, ..., z_K]`` as in ``chain_forward``, each array fresh."""
    jets, cur = [x], x
    for k, (A, b) in enumerate(weights):
        z = Jet(*(None if c is None else c @ A.T for c in cur.components()))
        z.x0 = z.x0 + b
        jets.append(z)
        if k != len(weights) - 1:
            a0 = np.tanh(z.x0)
            s1 = 1.0 - a0 * a0
            s2 = -2.0 * a0 * s1
            cur = Jet(
                a0,
                _sum_of_products((s1, z.xa)),
                _sum_of_products((s1, z.xb)),
                _sum_of_products((s1, z.xab), (s2, z.xa, z.xb)),
            )
            jets.append(cur)
    return jets


def rowmajor_chain_backward(weights, jets, g, with_params=True):
    """``(g_in, g_params, scales)``: ``chain_backward``'s result through the tape of the oracle.

    ``scales`` holds per map the sums of the magnitudes of the terms that its
    parameter gradients add up over the batch, ``|g|^T |x|`` for gA and
    ``sum |g|`` for gb.  Summed in any order, a gradient's rounding error is
    a small multiple of eps times that sum, however much the terms cancel.
    """
    grads, scales, idx = [], [], len(jets) - 1
    for k in range(len(weights) - 1, -1, -1):
        if k != len(weights) - 1:
            z, a0 = jets[idx - 1], jets[idx].x0
            s1 = 1.0 - a0 * a0
            s2 = -2.0 * a0 * s1
            s3 = -2.0 * s1 * s1 + 4.0 * a0 * a0 * s1
            g = Jet(
                _sum_of_products(
                    (s1, g.x0), (s2, z.xa, g.xa), (s2, z.xb, g.xb),
                    (s2, z.xab, g.xab), (s3, z.xa, z.xb, g.xab),
                ),
                _sum_of_products((s1, g.xa), (s2, z.xb, g.xab)),
                _sum_of_products((s1, g.xb), (s2, z.xa, g.xab)),
                _sum_of_products((s1, g.xab)),
            )
            idx -= 1
        A, x = weights[k][0], jets[idx - 1]
        pairs = [(gc, xc) for gc, xc in zip(g.components(), x.components()) if gc is not None and xc is not None]
        gA = sum((gc.T @ xc for gc, xc in pairs), np.zeros_like(A))
        sA = sum((np.abs(gc).T @ np.abs(xc) for gc, xc in pairs), np.zeros_like(A))
        gb = np.zeros(A.shape[0]) if g.x0 is None else g.x0.sum(axis=0)
        sb = np.zeros(A.shape[0]) if g.x0 is None else np.abs(g.x0).sum(axis=0)
        grads.insert(0, (gA, gb))
        scales.insert(0, (sA, sb))
        g = Jet(*(None if c is None else c @ A for c in g.components()))
        idx -= 1
    return (g, grads, scales) if with_params else (g, None, None)
