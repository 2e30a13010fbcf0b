"""Rollout, metrics, drift slope, and Poincare section extraction."""

import logging

import numpy as np
import pytest

from sympflow import evaluate as ev
from sympflow import model as sfm
from sympflow.errors import DimensionError
from sympflow.systems import Sho

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


def test_avg_relative_error_zero_for_exact_flow(monkeypatch):
    s = Sho()
    _patch_exact(monkeypatch, s)
    err = ev.avg_relative_error(_ExactFlowStandIn(s), s, [-1.2, 1.2], 10, 5, 1.0, seed=3)
    assert err < 1e-7  # integrator reference tolerance


def test_avg_relative_error_hand_arithmetic(monkeypatch):
    # psi - ref = (0.1, 0) against ref = (1, 0) gives exactly 0.1
    monkeypatch.setattr(
        ev, "_forward_b", lambda m, t, x: np.tile(np.array([1.1, 0.0]), (x.shape[0], 1))
    )
    val, skipped = ev._relative_error_at(
        _ExactFlowStandIn(Sho()),
        Sho(),
        np.array([[0.5, 0.5]]),
        np.array([[1.0, 0.0]]),
        1,
        1.0,
        None,
    )
    assert skipped == 0
    assert val == pytest.approx(0.1, rel=1e-14)


def test_avg_relative_error_skips_near_zero_reference(monkeypatch):
    monkeypatch.setattr(
        ev, "_forward_b", lambda m, t, x: np.tile(np.array([1.1, 0.0]), (x.shape[0], 1))
    )
    val, skipped = ev._relative_error_at(
        _ExactFlowStandIn(Sho()),
        Sho(),
        np.array([[0.5, 0.5], [0.2, 0.2]]),
        np.array([[1.0, 0.0], [0.0, 1e-14]]),
        1,
        1.0,
        None,
    )
    assert skipped == 1
    assert val == pytest.approx(0.1, rel=1e-14)


def test_avg_energy_variation_zero_for_exact_flow(monkeypatch):
    s = Sho()
    _patch_exact(monkeypatch, s)
    var = ev.avg_energy_variation(_ExactFlowStandIn(s), s, [-1.2, 1.2], 10, 3, 1.0, seed=4)
    assert var < 1e-10


def _identity_except_first(ics):
    """Stand-in for ``_forward_b``: the identity map, NaN for the first sample."""

    def forward(m, t, x):
        out = x.copy()
        out[x[:, 0] == ics[0, 0]] = np.nan
        return out

    return forward


def test_avg_energy_variation_leaves_a_diverged_sample_out(monkeypatch, caplog):
    s = Sho()
    ics = ev._draw_ics(s, [-1.2, 1.2], 5, 2)
    monkeypatch.setattr(ev, "_forward_b", _identity_except_first(ics))
    with caplog.at_level(logging.WARNING, logger="sympflow.evaluate"):
        var = ev.avg_energy_variation(None, s, [-1.2, 1.2], 5, 2, 1.0, ics=ics)
    assert var == 0.0
    assert "avg_energy_variation: 1 non-finite model states after 2 windows" in caplog.text


def test_avg_relative_error_leaves_a_diverged_sample_out(monkeypatch, caplog):
    s = Sho()
    ics = ev._draw_ics(s, [-1.2, 1.2], 5, 2)
    monkeypatch.setattr(ev, "_forward_b", _identity_except_first(ics))
    with caplog.at_level(logging.WARNING, logger="sympflow.evaluate"):
        err = ev.avg_relative_error(None, s, [-1.2, 1.2], 5, 2, 1.0, ics=ics)
    rest = ev.avg_relative_error(None, s, [-1.2, 1.2], 4, 2, 1.0, ics=ics[1:])
    assert np.isfinite(err)
    assert err == pytest.approx(rest, rel=1e-12)
    assert "avg_relative_error: 1 non-finite model states after 2 windows" in caplog.text


def test_metric_resummation_oracle(model):
    # independent re-summation of both metric formulas on a tiny sample
    s = Sho()
    omega = [-1.0, 1.0]
    seed, n, k = 7, 5, 2
    err = ev.avg_relative_error(model, s, omega, n, k, 1.0, seed=seed)
    var = ev.avg_energy_variation(model, s, omega, n, k, 1.0, seed=seed)
    ics = ev._draw_ics(s, omega, n, seed)
    errs, vars_ = [], []
    from sympflow.integrate import integrate

    for x0 in ics:
        ref = integrate(s, x0, k * 1.0)(k * 1.0)
        pred = ev.rollout(model, 1.0, k * 1.0, x0)
        errs.append(np.linalg.norm(pred - ref) / np.linalg.norm(ref))
        vars_.append(abs(s.hamiltonian(pred) - s.hamiltonian(x0)) / abs(s.hamiltonian(x0)))
    assert err == pytest.approx(np.mean(errs), rel=1e-12)
    assert var == pytest.approx(np.mean(vars_), rel=1e-12)


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
    with pytest.raises(DimensionError, match="delta_t"):
        ev.avg_relative_error(model, Sho(), [-1.0, 1.0], 2, 1, delta_t)
    with pytest.raises(DimensionError, match="delta_t"):
        ev.avg_energy_variation(model, Sho(), [-1.0, 1.0], 2, 1, delta_t)


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_rollout_rejects_a_nonfinite_time(model, t):
    with pytest.raises(DimensionError, match="t must be finite"):
        ev.rollout(model, 1.0, t, np.array([0.3, 0.4]))


@pytest.mark.parametrize("horizon", [np.inf, np.nan])
def test_rollout_spec_rejects_a_nonfinite_horizon(horizon):
    with pytest.raises(DimensionError, match="horizon"):
        ev.RolloutSpec(delta_t=1.0, horizon=horizon, step=0.5, x0=np.zeros(2))
