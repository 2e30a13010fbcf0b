"""The jet sweeps' per-thread workspace.

Each sweep writes its tape and cotangent jets into the buffers of the
previous sweep on its thread.  Whatever a sweep returns must be its own
array, untouched by later sweeps, and equal bit for bit to the same sweep run
first on a thread of its own; a pullback given an old tape must refuse it.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympflow import _jet
from sympflow import mlp
from sympflow import potential as pot
from sympflow.errors import StaleJetError

_rng = np.random.default_rng(20241222)
NETS = [pot.random_potential_net(d, _rng, h) for d, h in ((1, 3), (2, 10), (2, 5))]
MLPS = [mlp.random_mlp_flow(d, n, _rng, h) for d, n, h in ((1, 3, 10), (2, 2, 4))]
KINDS = ("forward", "grad", "vjp", "value_vjp", "mlp_forward", "mlp_vjp")

sweeps = st.tuples(
    st.sampled_from(KINDS),
    st.integers(0, 5),  # which net, modulo the pool
    st.sampled_from([1, 2, 7, 64]),  # batch rows
    st.integers(0, 7),  # direction set: bits for a, b, c
    st.integers(0, 2**32 - 1),  # data seed
)


def run(sweep):
    """Run one sweep; returns the tuple of arrays (or None) it hands back."""
    kind, which, B, dirs, seed = sweep
    rng = np.random.default_rng(seed)
    if kind.startswith("mlp"):
        m = MLPS[which % len(MLPS)]
        t = rng.uniform(0.0, 1.0, B)
        x = rng.normal(size=(B, 2 * m.d))
        if kind == "mlp_forward":
            return (mlp._forward_b(m, t, x),)
        return mlp._pullback(m, t, mlp._taped(m, t, x)[2], rng.normal(size=(B, 2 * m.d)))
    net = NETS[which % len(NETS)]
    t = rng.uniform(0.0, 1.0, B)
    q = rng.normal(size=(B, net.d))

    def direction(bit):
        if not dirs & bit:
            return None
        return rng.normal(size=(B, net.d)), rng.normal(size=B)

    a, b, c = direction(1), direction(2), direction(4)
    if kind == "forward":
        jets = pot._forward(net, t, q, a, b, c)
        return jets[-1].components()
    if kind == "grad":
        return pot.jet_grad_b(net, t, q, a)
    if kind == "vjp":
        return pot.jet_vjp(net, t, q, a, b, c if c is not None else (q, t))
    return pot.value_vjp(net, t, q, rng.normal(size=B))


def on_fresh_thread(fn, *args):
    out = []
    th = threading.Thread(target=lambda: out.append(fn(*args)))
    th.start()
    th.join(timeout=60)
    assert not th.is_alive()
    return out[0]


def copies(result):
    return tuple(None if r is None else r.copy() for r in result)


def assert_bitwise(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if g is not None:
            assert g.shape == w.shape
            assert np.array_equal(g, w), np.max(np.abs(g - w))


@settings(max_examples=30, deadline=None)
@given(st.lists(sweeps, min_size=2, max_size=8))
def test_interleaved_sweeps_match_fresh_threads_and_keep_their_results(seq):
    results = [run(sw) for sw in seq]
    kept = [copies(r) for r in results]
    for sw, r, k in zip(seq, results, kept):
        assert_bitwise(r, k)  # later sweeps wrote nothing into it
        assert_bitwise(r, on_fresh_thread(run, sw))


def test_returned_arrays_are_not_workspace_buffers():
    results = [run(("vjp", 1, 64, 7, 1)), run(("grad", 1, 64, 1, 2)), run(("mlp_vjp", 0, 64, 0, 3))]
    results.append(run(("forward", 1, 64, 3, 4)))
    arenas = _jet._workspace.arenas
    for r in results:
        for arr in r:
            if arr is not None:
                assert not any(np.shares_memory(arr, arena) for arena in arenas)


def test_sweeps_of_alternating_sizes_stop_reallocating():
    # A forward shear sweeps 2B rows, a pullback B with more components.  A
    # plan that overflows an arena grows it, so after two rounds of both the
    # arenas hold either sweep, and the plans laid out in them stay put.
    def epoch():
        run(("grad", 1, 128, 1, 1))
        run(("vjp", 1, 64, 7, 2))

    epoch()
    epoch()
    ws = _jet._workspace
    arenas, plans = list(ws.arenas), dict(ws.plans)
    for _ in range(3):
        epoch()
    assert all(now is before for now, before in zip(ws.arenas, arenas))
    assert ws.plans == plans


def test_pullback_of_stale_jets_raises():
    net = NETS[1]
    rng = np.random.default_rng(0)
    q = rng.normal(size=(4, 2))
    jets = pot._forward(net, 0.5, q, (q, None))
    ones = _jet.Jet(xa=np.ones((4, 1)))
    _jet.chain_backward(net.weights, jets, ones, with_params=False)  # current: fine
    pot._forward(net, 0.5, q)
    with pytest.raises(StaleJetError):
        _jet.chain_backward(net.weights, jets, ones, with_params=False)
    with pytest.raises(StaleJetError):
        _jet.chain_backward(net.weights, list(jets), ones, with_params=False)
    theirs = on_fresh_thread(pot._forward, net, 0.5, q, (q, None))
    with pytest.raises(StaleJetError):
        _jet.chain_backward(net.weights, theirs, ones, with_params=False)


def test_concurrent_threads_match_the_sweeps_run_in_turn():
    rng = np.random.default_rng(5)
    plans = [
        [(KINDS[int(rng.integers(len(KINDS)))], int(rng.integers(6)), int(B), int(rng.integers(8)), int(rng.integers(2**32)))
         for B in rng.choice([1, 7, 256, 1024], size=12)]
        for _ in range(4)  # more threads than a two-core machine has cores
    ]
    want = [[run(sw) for sw in plan] for plan in plans]
    got = [None] * len(plans)

    def worker(i):
        got[i] = [run(sw) for sw in plans[i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(plans))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for g_plan, w_plan in zip(got, want):
        assert g_plan is not None
        for g, w in zip(g_plan, w_plan):
            assert_bitwise(g, w)
