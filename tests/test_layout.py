"""The jet sweeps' column-major layout against plain row-major sweeps.

Every jet between a chain's input and its output is the transpose view of a
C-contiguous (n, B) buffer, so that the affine maps run in the fast BLAS
orientation, and still has the shape (B, n) of a row-major jet.  Values,
input gradients and parameter gradients must match fresh row-major sweeps
to rounding, whatever the batch size, widths, components and input layout.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sympflow._jet import Jet, chain_backward, chain_forward

from _oracles import rowmajor_chain_backward, rowmajor_chain_forward

COMPONENTS = ("x0", "xa", "xb", "xab")
RTOL = 1e-13

cases = st.fixed_dictionaries(
    {
        "B": st.sampled_from([1, 2, 3, 11, 64, 1024]),
        # n_in, the hidden widths, n_out: one to four affine maps
        "widths": st.lists(st.integers(1, 12), min_size=2, max_size=5),
        "tangents": st.sets(st.sampled_from(COMPONENTS[1:])),
        "cotangents": st.sets(st.sampled_from(COMPONENTS), min_size=1),
        "column_major_input": st.booleans(),
        "with_params": st.booleans(),
        "seed": st.integers(0, 2**32 - 1),
    }
)


def assert_matches(got, want, label, scale=None):
    """|got - want| <= RTOL * scale entrywise; the scale defaults to the largest entry of want.

    A parameter gradient passes the oracle's sums of term magnitudes as its
    scale: it sums B rows in another order on each side, so its rounding
    follows those sums, not the size of a result that cancels.
    """
    assert (got is None) == (want is None), label
    if want is None:
        return
    assert got.shape == want.shape, f"{label}: shape {got.shape}, want {want.shape}"
    err = np.abs(got - want)
    if scale is None:
        scale = np.max(np.abs(want), initial=0.0)
    worst = np.unravel_index(np.argmax(err - RTOL * scale), err.shape)
    assert np.all(err <= RTOL * scale), (
        f"{label}: abs err {err[worst]:.3e} against scale {np.broadcast_to(scale, err.shape)[worst]:.3e}"
    )


def assert_column_major(a, label):
    assert a.T.flags.c_contiguous, f"{label} is not the transpose of a C-contiguous buffer"


@settings(max_examples=80, deadline=None)
@given(cases)
def test_column_major_sweeps_match_row_major_oracle(case):
    B, widths = case["B"], case["widths"]
    rng = np.random.default_rng(case["seed"])
    weights = [
        (rng.normal(size=(m, n)) / np.sqrt(n), rng.normal(size=m))
        for n, m in zip(widths, widths[1:])
    ]

    def array(n):
        a = rng.normal(size=(B, n))
        return np.asfortranarray(a) if case["column_major_input"] else a

    x = Jet(**{c: array(widths[0]) for c in ("x0", *case["tangents"])})
    g_out = Jet(**{c: rng.normal(size=(B, widths[-1])) for c in case["cotangents"]})

    jets = chain_forward(weights, x)
    want = rowmajor_chain_forward(weights, x)
    assert len(jets) == len(want)
    assert jets[0] is x
    for i in range(1, len(jets)):
        hidden_affine = i % 2 == 1 and i != len(jets) - 1
        for c in COMPONENTS:
            got_c, want_c = getattr(jets[i], c), getattr(want[i], c)
            label = f"jets[{i}].{c}"
            if hidden_affine and c == "x0":
                # tanh is taken in place: z_k.x0 is the buffer of a_k.x0
                assert got_c is jets[i + 1].x0, label
                continue
            assert_matches(got_c, want_c, label)
            if got_c is not None and i != len(jets) - 1:
                assert_column_major(got_c, label)

    with_params = case["with_params"]
    g_in, g_params = chain_backward(weights, jets, g_out, with_params)
    want_in, want_params, scales = rowmajor_chain_backward(weights, want, g_out, with_params)
    for c in COMPONENTS:
        assert_matches(getattr(g_in, c), getattr(want_in, c), f"g_in.{c}")
    if not with_params:
        assert g_params is None
        return
    assert len(g_params) == len(weights)
    for k, ((gA, gb), (wA, wb), (sA, sb)) in enumerate(zip(g_params, want_params, scales)):
        assert_matches(gA, wA, f"gA[{k}]", sA)
        assert_matches(gb, wb, f"gb[{k}]", sb)
