"""The batched DOP853 stepper and the batched evaluation against their per-row references."""

import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as orc
from _oracles import assert_close
from sympflow import evaluate as ev
from sympflow import integrate as itg
from sympflow import model as sfm
from sympflow import systems as sy
from sympflow.errors import DimensionError, IntegrationError
from sympflow.estimators import SympFlowRegressor

SYSTEM_NAMES = ("sho", "henon_heiles", "damped")
# H < 1/6, the escape energy, everywhere on this box, so every orbit is bound.
HH_BOUND_BOX = (-0.25, 0.25)
# On this box three of the first four orbits drawn with seed 0 lie above the
# escape energy and blow up before t = 100 (at t = 17.9, 13.2 and 33.0).
HH_ESCAPE_BOX = [(-0.5, 0.5)] * 4


def _system(name, rng):
    """A system with random parameters and the box its states are drawn from."""
    if name == "sho":
        return sy.Sho(m=rng.uniform(0.5, 2.0), k=rng.uniform(0.5, 2.0)), (-1.2, 1.2)
    if name == "henon_heiles":
        return sy.HenonHeiles(), HH_BOUND_BOX
    return sy.DampedAugmented(lam=rng.uniform(0.0, 1.0)), (-1.0, 1.0)


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(SYSTEM_NAMES),
    batch=st.integers(1, 8),
    m=st.integers(1, 4),
    horizon=st.floats(0.5, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_rows_match_their_one_row_solves_and_the_scalar_oracle(name, batch, m, horizon, seed):
    rng = np.random.default_rng(seed)
    s, (lo, hi) = _system(name, rng)
    X = rng.uniform(lo, hi, size=(batch, 2 * s.d))
    T = rng.uniform(0.0, horizon, size=(batch, m))
    T[rng.random((batch, m)) < 0.2] = 0.0
    states, errors = itg._sample_rows(s, X, T)
    assert errors == {}
    for i in range(batch):
        one = itg.sample_states(s, X[i], T[i])
        assert_close(states[i], one, rtol=1e-13, floor=1e-13, label=f"row {i} in the batch")
        t_end = T[i].max()
        if t_end == 0.0:
            assert np.array_equal(one, np.broadcast_to(X[i], one.shape))
            continue
        sol = itg.integrate(s, X[i], t_end)
        ref = orc.integrate_scalar(s, X[i], t_end)
        assert_close(sol.ys[-1], ref.ys[-1], rtol=1e-12, floor=1e-12, label="end state")
        assert_close(sol(T[i]), ref(T[i]), rtol=1e-12, floor=1e-12, label="dense output")
        assert_close(one, ref(T[i]), rtol=1e-12, floor=1e-12, label="sampled states")


@settings(max_examples=15, deadline=None)
@given(
    name=st.sampled_from(SYSTEM_NAMES),
    n_samples=st.integers(1, 8),
    ks=st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True),
    layers=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_evaluate_model_matches_the_per_row_composition(name, n_samples, ks, layers, seed):
    rng = np.random.default_rng(seed)
    s, box = _system(name, rng)
    model = sfm.random_sympflow(s.d, layers, rng, h=4)
    delta_t = 0.5
    report = ev.evaluate_model(model, s, box, delta_t, n_samples=n_samples, ks=ks, seed=seed)
    assert report.failed == 0
    ics = orc.draw_ics(s, box, n_samples, seed)
    sols = [orc.integrate_scalar(s, x0, max(ks) * delta_t) for x0 in ics]
    for k in ks:
        refs = np.stack([sol(k * delta_t) for sol in sols])
        err, skipped_err = orc.relative_error_rows(model, ics, refs, k, delta_t)
        var, skipped_var = orc.energy_variation_rows(model, s, ics, k, delta_t)
        assert report.nonfinite[k] == 0
        assert report.relative_errors[k] == pytest.approx(err, rel=1e-12)
        assert report.energy_variations[k] == pytest.approx(var, rel=1e-12)
        assert (report.skipped_error[k], report.skipped_energy[k]) == (skipped_err, skipped_var)


def test_failed_rows_leave_the_others_untouched():
    s = sy.HenonHeiles()
    X = orc.draw_ics(s, HH_ESCAPE_BOX, 4, 0)
    T = np.tile([1.0, 100.0], (4, 1))
    states, errors = itg._sample_rows(s, X, T)
    assert sorted(errors) == [0, 2, 3]
    stop = {i: float(re.search(r"at t=([0-9.]+)", msg).group(1)) for i, msg in errors.items()}
    assert stop == pytest.approx({0: 17.8565, 2: 13.2122, 3: 33.0382}, abs=1e-3)
    assert np.all(np.isnan(states[[0, 2, 3]]))
    assert np.array_equal(states[1], itg.sample_states(s, X[1], T[1]))


def test_evaluate_model_counts_failed_reference_solves(monkeypatch, caplog):
    monkeypatch.setattr(ev, "_forward_b", lambda m, t, x: x)  # the identity map
    model = sfm.random_sympflow(2, 1, np.random.default_rng(0), h=2)
    with caplog.at_level(logging.WARNING, logger="sympflow.evaluate"):
        report = ev.evaluate_model(
            model, sy.HenonHeiles(), HH_ESCAPE_BOX, 1.0, n_samples=4, ks=(1, 100), seed=0
        )
    assert report.failed == 3
    assert report.nonfinite == {1: 0, 100: 0}
    values = list(report.relative_errors.values()) + list(report.energy_variations.values())
    assert np.all(np.isfinite(values))
    assert "3 of 4 reference solves failed" in caplog.text


def test_evaluate_model_leaves_nonfinite_model_states_out(monkeypatch, caplog):
    s = sy.Sho()
    ics = orc.draw_ics(s, [-1.2, 1.2], 5, 2)

    def first_sample_diverges(m, t, x):  # the identity map, except for the first sample
        out = x.copy()
        out[x[:, 0] == ics[0, 0]] = np.nan
        return out

    monkeypatch.setattr(ev, "_forward_b", first_sample_diverges)
    with caplog.at_level(logging.WARNING, logger="sympflow.evaluate"):
        report = ev.evaluate_model(None, s, [-1.2, 1.2], 1.0, n_samples=5, ks=(1, 3), seed=2)
    assert report.failed == 0
    assert report.nonfinite == {1: 1, 3: 1}
    assert report.energy_variations[3] == 0.0
    assert np.isfinite(report.relative_errors[3])
    assert "1 non-finite model states after 1 windows" in caplog.text


def test_nonfinite_field_is_named():
    def f(t, y):
        return np.array([np.nan if t > 0.5 else -y[0]])

    with pytest.raises(IntegrationError, match="non-finite state at t=") as info:
        itg.integrate(f, np.array([1.0]), 2.0)
    assert float(re.search(r"t=([0-9.]+)", str(info.value)).group(1)) <= 0.5


def test_orbit_leaving_the_box_is_named():
    # Above the escape energy; fixed steps follow the orbit until it overflows.
    with np.errstate(all="ignore"), pytest.raises(IntegrationError, match="non-finite state at t="):
        itg.integrate(sy.HenonHeiles(), np.array([0.0, 0.9, 0.3, 0.0]), 50.0, fixed_step=0.05)


def test_integrate_rejects_a_batch_or_a_wrong_width():
    with pytest.raises(DimensionError):
        itg.integrate(sy.Sho(), np.zeros((2, 2)), 1.0)
    with pytest.raises(DimensionError):
        itg.integrate(sy.HenonHeiles(), np.zeros(3), 1.0)
    with pytest.raises(DimensionError):
        itg.sample_states(sy.Sho(), np.array([1.0, np.nan]), [0.5])


def test_rollout_maps_a_batch_like_single_states():
    model = sfm.random_sympflow(2, 2, np.random.default_rng(0), h=4)
    X = np.random.default_rng(1).uniform(-0.5, 0.5, size=(5, 4))
    batch = ev.rollout(model, 1.0, 3.5, X)
    assert batch.shape == X.shape
    for i in range(len(X)):
        assert_close(batch[i], ev.rollout(model, 1.0, 3.5, X[i]), rtol=1e-14, floor=1e-14, label=f"row {i}")
    with pytest.raises(DimensionError):
        ev.rollout(model, 1.0, 1.0, np.zeros(3))


def test_predict_rolls_out_once_per_distinct_time(monkeypatch):
    rng = np.random.default_rng(0)
    X = np.column_stack([rng.uniform(0, 1, 8), rng.uniform(-1, 1, (8, 2))])
    y = X[:, 1:].copy()
    est = SympFlowRegressor(layers=1, hidden=3, epochs=2, seed=0).fit(X, y)
    Q = np.column_stack([[0.5, 2.5, 0.5, 2.5, 0.5, 1.0], rng.uniform(-1, 1, (6, 2))])
    calls = []
    rollout = ev.rollout

    def counted(*args, **kwargs):
        calls.append(args[2])
        return rollout(*args, **kwargs)

    monkeypatch.setattr(ev, "rollout", counted)
    got = est.predict(Q)
    assert sorted(calls) == [0.5, 1.0, 2.5]
    for row, q in zip(got, Q):
        assert_close(row, rollout(est.model_, est.delta_t, q[0], q[1:]), rtol=1e-14, floor=1e-14, label="predict")


@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_batched_rows_are_bitwise_their_one_row_solves(name):
    # The stage buffer holds a batch's rows side by side; BLAS must form each
    # row's stages with the same arithmetic whatever its place in the batch.
    # A batch of B takes B of 100 rows, from row B on, round the end.
    rng = np.random.default_rng(7)
    s, (lo, hi) = _system(name, rng)
    X = rng.uniform(lo, hi, size=(100, 2 * s.d))
    T = rng.uniform(0.0, 1.0, size=(100, 2))
    alone = [itg._sample_rows(s, X[i : i + 1], T[i : i + 1])[0][0] for i in range(100)]
    for batch in [*range(1, 41), 63, 100]:
        rows = (batch + np.arange(batch)) % 100
        states, errors = itg._sample_rows(s, X[rows], T[rows])
        assert errors == {}
        for i, j in enumerate(rows):
            assert np.array_equal(states[i], alone[j]), f"batch {batch}, row {i}"
