"""Rollout, metrics, drift slope, and Poincare section extraction."""

import logging

import numpy as np
import pytest

from sympflow import evaluate as ev
from sympflow import model as sfm
from sympflow.errors import DimensionError
from sympflow.integrate import _sample_rows, sample_states
from sympflow.systems import HenonHeiles, Sho, embed_physical, physical_limit_project

import _oracles as orc
from _oracles import assert_close


@pytest.fixture
def model():
    return sfm.random_sympflow(1, 2, np.random.default_rng(0), h=4)


def test_rollout_at_zero(model):
    x0 = np.array([1.0, 0.0])
    assert np.array_equal(ev.rollout(model, 1.0, 0.0, x0), x0)


def test_rollout_matches_manual_composition(model):
    x0 = np.array([0.7, -0.1])
    manual = sfm.forward(model, 1.0, x0)
    manual = sfm.forward(model, 1.0, manual)
    manual = sfm.forward(model, 0.5, manual)
    got = ev.rollout(model, 1.0, 2.5, x0)
    assert np.array_equal(got, manual)


def test_rollout_whole_windows(model):
    x0 = np.array([0.3, 0.4])
    manual = x0
    for _ in range(3):
        manual = sfm.forward(model, 1.0, manual)
    assert np.array_equal(ev.rollout(model, 1.0, 3.0, x0), manual)


def test_rollout_is_forward_inside_first_window(model):
    x0 = np.array([0.2, 0.5])
    for t in (0.1, 0.5, 0.99):
        assert np.array_equal(
            ev.rollout(model, 1.0, t, x0), sfm.forward(model, t, x0)
        )


def test_rollout_rejects_bad_args(model):
    with pytest.raises(DimensionError):
        ev.rollout(model, 0.0, 1.0, np.array([1.0, 0.0]))
    with pytest.raises(DimensionError):
        ev.rollout(model, 1.0, -0.5, np.array([1.0, 0.0]))


def test_rollout_path_consistency(model):
    spec = ev.RolloutSpec(delta_t=1.0, horizon=5.0, step=0.25, x0=np.array([0.6, -0.3]))
    times, states = ev.rollout_path(model, spec)
    assert times[0] == 0.0 and times[-1] == 5.0
    assert np.all(np.diff(times) > 0)
    for j in (0, 3, 7, 12, 20):
        single = ev.rollout(model, 1.0, times[j], spec.x0)
        assert np.max(np.abs(states[j] - single)) < 1e-14


def test_projected_rollouts_project_after_every_map():
    model4 = sfm.random_sympflow(2, 2, np.random.default_rng(3), h=4)
    x0 = embed_physical(0.4, -0.3)
    manual = x0
    for t in (1.0, 1.0, 0.5):
        manual = physical_limit_project(sfm.forward(model4, t, manual))
    assert np.array_equal(ev.rollout(model4, 1.0, 2.5, x0, project=physical_limit_project), manual)
    spec = ev.RolloutSpec(delta_t=1.0, horizon=3.0, step=0.25, x0=x0)
    times, states = ev.rollout_path(model4, spec, project=physical_limit_project)
    assert np.array_equal(states[:, 0], states[:, 1]) and np.array_equal(states[:, 2], -states[:, 3])
    for j, t in enumerate(times):
        single = ev.rollout(model4, 1.0, t, x0, project=physical_limit_project)
        assert np.max(np.abs(states[j] - single)) < 1e-14


@pytest.mark.parametrize("x0", [np.zeros(3), np.zeros(5), np.zeros((2, 4))])
def test_rollout_path_rejects_a_state_of_the_wrong_shape(x0):
    model4 = sfm.random_sympflow(2, 1, np.random.default_rng(1), h=4)
    spec = ev.RolloutSpec(delta_t=1.0, horizon=2.0, step=0.5, x0=x0)
    with pytest.raises(DimensionError, match="x0 must have shape"):
        ev.rollout_path(model4, spec)


def test_rollout_spec_validation():
    with pytest.raises(DimensionError):
        ev.RolloutSpec(delta_t=1.0, horizon=0.5, step=0.1, x0=np.zeros(2))
    with pytest.raises(DimensionError):
        ev.RolloutSpec(delta_t=1.0, horizon=5.0, step=2.0, x0=np.zeros(2))


class _ExactFlowStandIn:
    """Quacks like a model but evaluates the analytic oscillator flow."""

    d = 1

    def __init__(self, sys):
        self.sys = sys


def _patch_exact(monkeypatch, sys):
    from sympflow import systems as sysmod

    def fake_forward(model_obj, t, x):
        t_arr = np.broadcast_to(np.asarray(t, dtype=float), (x.shape[0],))
        return np.stack(
            [sysmod.analytic_solution(sys, xi, ti) for xi, ti in zip(x, t_arr)]
        )

    monkeypatch.setattr(ev, "_forward_b", lambda m, t, x: fake_forward(m, t, x))


# The average relative error and the average relative energy variation are
# read from evaluate_model's report, the one code path that computes them.


def test_avg_relative_error_zero_for_exact_flow(monkeypatch):
    s = Sho()
    _patch_exact(monkeypatch, s)
    report = ev.evaluate_model(_ExactFlowStandIn(s), s, [-1.2, 1.2], 1.0, n_samples=10, ks=(5,), seed=3)
    assert report.relative_errors[5] < 1e-7  # integrator reference tolerance


def _fixed_references(monkeypatch, refs):
    """Stand-in for the reference solves: row i sits at ``refs[i]`` at every requested time."""
    refs = np.asarray(refs, dtype=float)
    monkeypatch.setattr(
        ev, "_sample_rows", lambda sys, ics, times: (np.repeat(refs[:, None], times.shape[1], axis=1), {})
    )


def test_avg_relative_error_hand_arithmetic(monkeypatch):
    # psi - ref = (0.1, 0) against ref = (1, 0) gives exactly 0.1
    monkeypatch.setattr(
        ev, "_forward_b", lambda m, t, x: np.tile(np.array([1.1, 0.0]), (x.shape[0], 1))
    )
    _fixed_references(monkeypatch, [[1.0, 0.0]])
    report = ev.evaluate_model(None, Sho(), [-1.0, 1.0], 1.0, n_samples=1, ks=(1,))
    assert report.skipped_error == {1: 0}
    assert report.relative_errors[1] == pytest.approx(0.1, rel=1e-14)


def test_avg_relative_error_skips_near_zero_reference(monkeypatch):
    monkeypatch.setattr(
        ev, "_forward_b", lambda m, t, x: np.tile(np.array([1.1, 0.0]), (x.shape[0], 1))
    )
    _fixed_references(monkeypatch, [[1.0, 0.0], [0.0, 1e-14]])
    report = ev.evaluate_model(None, Sho(), [-1.0, 1.0], 1.0, n_samples=2, ks=(1,))
    assert report.skipped_error == {1: 1}
    assert report.relative_errors[1] == pytest.approx(0.1, rel=1e-14)


def test_avg_energy_variation_zero_for_exact_flow(monkeypatch):
    s = Sho()
    _patch_exact(monkeypatch, s)
    report = ev.evaluate_model(_ExactFlowStandIn(s), s, [-1.2, 1.2], 1.0, n_samples=10, ks=(3,), seed=4)
    assert report.energy_variations[3] < 1e-10


def _identity_except_first(ics):
    """Stand-in for ``_forward_b``: the identity map, NaN for the first sample."""

    def forward(m, t, x):
        out = x.copy()
        out[x[:, 0] == ics[0, 0]] = np.nan
        return out

    return forward


def test_avg_energy_variation_leaves_a_diverged_sample_out(monkeypatch, caplog):
    s = Sho()
    ics = orc.draw_ics(s, [-1.2, 1.2], 5, 2)
    monkeypatch.setattr(ev, "_forward_b", _identity_except_first(ics))
    with caplog.at_level(logging.WARNING, logger="sympflow.evaluate"):
        report = ev.evaluate_model(None, s, [-1.2, 1.2], 1.0, n_samples=5, ks=(2,), seed=2)
    assert report.energy_variations[2] == 0.0
    assert (report.nonfinite, report.skipped_energy) == ({2: 1}, {2: 0})
    assert "evaluate_model: 1 non-finite model states after 2 windows" in caplog.text


def test_avg_relative_error_leaves_a_diverged_sample_out(monkeypatch, caplog):
    s = Sho()
    ics = orc.draw_ics(s, [-1.2, 1.2], 5, 2)
    monkeypatch.setattr(ev, "_forward_b", _identity_except_first(ics))
    with caplog.at_level(logging.WARNING, logger="sympflow.evaluate"):
        report = ev.evaluate_model(None, s, [-1.2, 1.2], 1.0, n_samples=5, ks=(2,), seed=2)
    refs = np.stack([sample_states(s, x0, [2.0])[0] for x0 in ics[1:]])
    rest = np.linalg.norm(ics[1:] - refs, axis=1) / np.linalg.norm(refs, axis=1)  # the identity map
    assert (report.nonfinite, report.skipped_error) == ({2: 1}, {2: 0})
    assert report.relative_errors[2] == pytest.approx(np.mean(rest), rel=1e-12)
    assert "evaluate_model: 1 non-finite model states after 2 windows" in caplog.text


def test_failed_references_are_left_out_of_both_means(caplog):
    # On this box about half the Henon-Heiles orbits lie above the escape
    # energy and blow up before t = 5.
    s = HenonHeiles()
    box, n, k = [-1.0, 1.0], 20, 5
    model2 = sfm.random_sympflow(2, 1, np.random.default_rng(1), h=4)
    with caplog.at_level(logging.WARNING, logger="sympflow.evaluate"):
        report = ev.evaluate_model(model2, s, box, 1.0, n_samples=n, ks=(k,), seed=1)
    ics = orc.draw_ics(s, box, n, 1)
    states, errors = _sample_rows(s, ics, np.full((n, 1), float(k)))
    ok = np.setdiff1d(np.arange(n), list(errors))
    assert 0 < report.failed == len(errors) < n
    assert report.nonfinite == {k: 0}
    assert f"evaluate_model: {report.failed} of {n} reference solves failed" in caplog.text
    err, _ = orc.relative_error_rows(model2, ics[ok], states[ok, 0], k, 1.0)
    var, _ = orc.energy_variation_rows(model2, s, ics[ok], k, 1.0)
    assert report.relative_errors[k] == pytest.approx(err, rel=1e-12)
    assert report.energy_variations[k] == pytest.approx(var, rel=1e-12)
    # Keeping the failed rows would give another energy-variation mean.
    every, _ = orc.energy_variation_rows(model2, s, ics, k, 1.0)
    assert report.energy_variations[k] != pytest.approx(every, rel=1e-6)


def test_metric_resummation_oracle(model):
    # independent re-summation of both metric formulas on a tiny sample
    s = Sho()
    omega = [-1.0, 1.0]
    seed, n, k = 7, 5, 2
    report = ev.evaluate_model(model, s, omega, 1.0, n_samples=n, ks=(k,), seed=seed)
    ics = orc.draw_ics(s, omega, n, seed)
    errs, vars_ = [], []
    from sympflow.integrate import integrate

    for x0 in ics:
        ref = integrate(s, x0, k * 1.0)(k * 1.0)
        pred = ev.rollout(model, 1.0, k * 1.0, x0)
        errs.append(np.linalg.norm(pred - ref) / np.linalg.norm(ref))
        vars_.append(abs(s.hamiltonian(pred) - s.hamiltonian(x0)) / abs(s.hamiltonian(x0)))
    assert report.relative_errors[k] == pytest.approx(np.mean(errs), rel=1e-12)
    assert report.energy_variations[k] == pytest.approx(np.mean(vars_), rel=1e-12)


def test_energy_drift_series_zero_for_exact_flow(monkeypatch):
    s = Sho()
    _patch_exact(monkeypatch, s)
    times, vals = ev.energy_drift_series(
        _ExactFlowStandIn(s), s, np.array([1.0, 0.0]), 20.0, 0.5, 1.0
    )
    assert vals[0] == 0.0
    assert np.max(np.abs(vals)) < 1e-12


def test_energy_drift_series_matches_pointwise(model):
    s = Sho()
    x0 = np.array([0.8, 0.1])
    times, vals = ev.energy_drift_series(model, s, x0, 5.0, 0.5, 1.0)
    h0 = s.hamiltonian(x0)
    for j in (0, 3, 7):
        pred = ev.rollout(model, 1.0, times[j], x0)
        assert vals[j] == pytest.approx(s.hamiltonian(pred) - h0, abs=1e-13)


@pytest.mark.parametrize(
    "power,expected", [(1.0, 1.0), (0.0, 0.0), (2.0, 2.0)]
)
def test_drift_slope_constructed(power, expected):
    times = np.linspace(1.0, 1000.0, 2000)
    vals = 3e-4 * times**power
    slope = ev.drift_slope((times, vals))
    assert slope == pytest.approx(expected, abs=0.01)


def test_poincare_no_crossings():
    times = np.linspace(0, 10, 101)
    states = np.tile(np.array([0.1, 0.2, 0.3, 0.4]), (101, 1))
    assert ev.poincare_section((times, states)).shape == (0, 2)
    with pytest.raises(DimensionError, match="4-dimensional states"):
        ev.poincare_crossings((times, states[:, :2]))


def test_poincare_synthetic_signal():
    # q_x = sin t crosses zero upward (p_x = cos t > 0) exactly at t = 2 pi k
    times = np.linspace(0.0, 30.0, 3001)
    states = np.stack(
        [np.sin(times), np.full_like(times, 0.7), np.cos(times), np.full_like(times, -0.2)],
        axis=1,
    )
    t_cross, crossed = ev.poincare_crossings((times, states))
    expected = np.array([2, 4, 6, 8]) * np.pi
    assert len(t_cross) == 4
    assert_close(t_cross, expected, rtol=1e-3, floor=1e-4, label="crossing times")
    assert np.all(crossed[:, 0] == 0.0)
    section = ev.poincare_section((times, states))
    assert_close(section[:, 0], 0.7 * np.ones(4), rtol=1e-12, floor=1e-12, label="q_y")
    assert_close(section[:, 1], -0.2 * np.ones(4), rtol=1e-12, floor=1e-12, label="p_y")


def test_evaluate_model_bundle(model):
    s = Sho()
    report = ev.evaluate_model(
        model,
        s,
        [-1.0, 1.0],
        1.0,
        n_samples=4,
        ks=(1, 2),
        seed=5,
        drift_x0=np.array([0.8, 0.0]),
        drift_horizon=30.0,
        drift_step=0.5,
    )
    assert set(report.relative_errors) == {1, 2}
    assert report.n_samples == 4
    assert report.drift_times is not None
    assert np.isfinite(report.drift_slope) or np.isnan(report.drift_slope)


@pytest.mark.parametrize("delta_t", [np.nan, 0.0, -1.0, np.inf])
def test_bad_delta_t_is_rejected_up_front(model, delta_t):
    x0 = np.array([0.3, 0.4])
    with pytest.raises(DimensionError, match="delta_t"):
        ev.rollout(model, delta_t, 1.0, x0)
    with pytest.raises(DimensionError, match="delta_t"):
        ev.evaluate_model(model, Sho(), [-1.0, 1.0], delta_t, n_samples=2, ks=(1,))


@pytest.mark.parametrize(
    "bad, match",
    [
        (dict(n_samples=0), "n_samples"),
        (dict(n_samples=-3), "n_samples"),
        (dict(n_samples=2.5), "n_samples"),
        (dict(ks=()), "ks must name"),
        (dict(ks=(0,)), "each of ks"),
        (dict(ks=(-1,)), "each of ks"),
        (dict(ks=(1.5,)), "each of ks"),
        (dict(ks=(1, 10, 0)), "each of ks"),
    ],
)
def test_evaluate_model_rejects_bad_sample_and_window_counts(model, bad, match):
    args = {"n_samples": 2, "ks": (1,), **bad}
    with pytest.raises(DimensionError, match=match):
        ev.evaluate_model(model, Sho(), [-1.0, 1.0], 1.0, **args)


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_rollout_rejects_a_nonfinite_time(model, t):
    with pytest.raises(DimensionError, match="t must be finite"):
        ev.rollout(model, 1.0, t, np.array([0.3, 0.4]))


@pytest.mark.parametrize("horizon", [np.inf, np.nan])
def test_rollout_spec_rejects_a_nonfinite_horizon(horizon):
    with pytest.raises(DimensionError, match="horizon"):
        ev.RolloutSpec(delta_t=1.0, horizon=horizon, step=0.5, x0=np.zeros(2))
