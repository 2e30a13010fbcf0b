"""The fused shear-layer sweeps against the unfused per-quantity compositions.

The package evaluates every potential with one jet sweep per pass, a forward
shear at t and 0 together; ``_oracles`` keeps the older compositions, which
take one sweep per time or per derivative quantity.  Both compute the same
numbers, so they must agree to rounding.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as orc
from sympflow import extraction as ext
from sympflow import model as sfm
from sympflow import potential as pot
from sympflow import train as tr
from sympflow.systems import HenonHeiles, Sho

RTOL = 1e-12

cases = st.fixed_dictionaries(
    {
        "d": st.sampled_from([1, 2]),
        "layers": st.integers(1, 3),
        "h": st.integers(1, 6),
        "seed": st.integers(0, 2**32 - 1),
        "batch": st.integers(1, 6),
        "t_zero": st.booleans(),
    }
)


def close(got, want, label):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    err = np.linalg.norm(got - want)
    assert err <= RTOL * np.linalg.norm(want), (
        f"{label}: |got - want| = {err:.3e}, |want| = {np.linalg.norm(want):.3e}"
    )


def setup(case):
    rng = np.random.default_rng(case["seed"])
    d, B = case["d"], case["batch"]
    model = sfm.random_sympflow(d, case["layers"], rng, h=case["h"])
    sys = Sho() if d == 1 else HenonHeiles()

    def batch():
        t = np.zeros(B) if case["t_zero"] else rng.uniform(0.0, 1.0, size=B)
        return t, rng.uniform(-0.5, 0.5, size=(B, 2 * d))

    return model, sys, batch(), batch(), rng


@settings(max_examples=40, deadline=None)
@given(cases)
def test_fused_loss_and_grad_matches_unfused(case):
    model, sys, res, match, _ = setup(case)
    value, grad, parts = tr.loss_and_grad(
        model, "regularized", sys=sys, residual_batch=res, matching_batch=match
    )
    want_value, want_grad, want_parts = orc.sf_regularized_loss_and_grad(model, sys, res, match)
    close(value, want_value, "loss")
    close(grad, want_grad, "gradient")
    assert parts.keys() == want_parts.keys()
    for key in parts:
        close(parts[key], want_parts[key], key)


@settings(max_examples=40, deadline=None)
@given(cases)
def test_fused_velocity_chain_matches_unfused(case):
    model, _, (t, x), _, _ = setup(case)
    x_want, v_want, _, _ = orc.sf_velocity_states(model, t, x)
    close(sfm._forward_b(model, t, x), x_want, "map")
    close(sfm._taped(model, t, x, velocity=True)[1], v_want, "velocity")


@settings(max_examples=40, deadline=None)
@given(cases)
def test_fused_extraction_matches_unfused(case):
    model, _, _, (t, x), rng = setup(case)
    c = rng.normal(size=x.shape[0])
    close(ext._extract_b(model, t, x), orc.extract_values(model, t, x), "extract")
    gx, gtheta = ext.extract_vjp(model, t, x, c)
    gx_want, gtheta_want = orc.extract_vjp(model, t, x, c)
    close(gx, gx_want, "extract_vjp x")
    close(gtheta, gtheta_want, "extract_vjp theta")


shear_cases = st.fixed_dictionaries(
    {
        "d": st.sampled_from([1, 2]),
        "h": st.integers(1, 12),
        "batch": st.integers(1, 40),
        "seed": st.integers(0, 2**32 - 1),
        "t": st.sampled_from(["zero", "scalar", "rows"]),
        "tangent": st.booleans(),
        "dt": st.booleans(),
    }
)


@settings(max_examples=100, deadline=None)
@given(shear_cases)
def test_stacked_shear_matches_two_sweeps(case):
    rng = np.random.default_rng(case["seed"])
    d, B = case["d"], case["batch"]
    net = pot.random_potential_net(d, rng, case["h"])
    # Besides exactly 0, t stays away from 0: delta = g(t) - g(0) carries the
    # rounding of g in both versions, which is not small relative to delta.
    t = {"zero": 0.0, "scalar": rng.uniform(0.05, 1.0), "rows": rng.uniform(0.05, 1.0, size=B)}[case["t"]]
    y = rng.uniform(-0.5, 0.5, size=(B, d))
    vy = rng.normal(size=(B, d)) if case["tangent"] else None
    dt = 1.0 if case["dt"] else None
    got = sfm._shear(net, t, y, vy, dt)
    want = orc.shear_two_sweeps(net, t, y, vy, dt)
    for label, g, w in zip(("delta", "ddelta", "vt"), got, want):
        assert (g is None) == (w is None), label
        if w is not None:
            close(g, w, label)
