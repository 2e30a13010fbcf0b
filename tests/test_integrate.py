"""Reference integrator and dataset generation."""

import numpy as np
import pytest

from _oracles import BlowUp, FaultyOscillator
from sympflow import integrate as itg
from sympflow import systems as sy
from sympflow.errors import DimensionError, IntegrationError, UnsupportedSystemError


def test_sho_return_map():
    sol = itg.integrate(sy.Sho(), np.array([1.0, 0.0]), 2.0 * np.pi)
    assert np.max(np.abs(sol.ys[-1] - np.array([1.0, 0.0]))) < 1e-8


def test_sho_dense_output_against_analytic():
    s = sy.Sho()
    sol = itg.integrate(s, np.array([1.0, 0.0]), 10.0)
    times = np.linspace(0.0, 10.0, 257)
    got = sol(times)
    want = sy.analytic_solution(s, (1.0, 0.0), times)
    assert np.max(np.abs(got - want)) < 1e-8


def test_henon_heiles_energy_drift():
    s = sy.HenonHeiles()
    x0 = np.array([0.3, -0.3, 0.3, 0.0])
    sol = itg.integrate(s, x0, 100.0)
    H0 = s.hamiltonian(x0)
    energies = s.hamiltonian(sol.ys)
    assert np.max(np.abs(energies - H0)) < 1e-8


def test_damped_augmented_conserves_energy_and_matches_analytic():
    s = sy.DampedAugmented(lam=0.5)
    x0 = sy.embed_physical(1.0, 0.0)
    sol = itg.integrate(s, x0, 10.0)
    A0 = s.hamiltonian(x0)
    assert np.max(np.abs(s.hamiltonian(sol.ys) - A0)) < 1e-7
    times = np.linspace(0.0, 10.0, 101)
    states = sol(times)
    want = sy.analytic_solution(s, (1.0, 0.0), times)
    got_qp = np.stack([states[:, 0], states[:, 2]], axis=1)  # (q_a, pi_a)
    assert np.max(np.abs(got_qp - want)) < 1e-7


def test_interpolation_range_checked():
    sol = itg.integrate(sy.Sho(), np.array([1.0, 0.0]), 1.0)
    with pytest.raises(DimensionError):
        sol(1.5)


@pytest.mark.parametrize("t", [np.nan, np.inf, [0.5, np.nan]])
def test_interpolation_time_must_be_finite(t):
    sol = itg.integrate(sy.Sho(), np.array([1.0, 0.0]), 1.0)
    with pytest.raises(DimensionError, match="t contains non-finite"):
        sol(t)


def test_stiffness_error():
    # Blow-up in finite time forces the step size to underflow.
    with pytest.raises(IntegrationError, match="step size underflow at t=1 "):
        itg.integrate(BlowUp(), np.array([1.0, 0.0]), 2.0)


def test_a_callable_is_not_a_system():
    f = lambda t, y: -y  # noqa: E731
    with pytest.raises(UnsupportedSystemError, match="HamiltonianSystem"):
        itg.integrate(f, [1.0, 0.0], 1.0)
    with pytest.raises(UnsupportedSystemError, match="HamiltonianSystem"):
        itg.sample_states(f, [1.0, 0.0], [0.5])


def test_fixed_step_empirical_order():
    # Step halving on the oscillator: the propagated solution is 8th order.
    # These steps keep both errors (8e-10, 3e-12) far above round-off.
    s = sy.Sho()
    x0 = np.array([1.0, 0.0])
    t_end = 4.0
    errs = []
    for h in (0.5, 0.25):
        sol = itg.integrate(s, x0, t_end, fixed_step=h)
        errs.append(np.max(np.abs(sol.ys[-1] - sy.analytic_solution(s, x0, t_end))))
    order = np.log2(errs[0] / errs[1])
    assert order >= 7.5


def test_sample_states():
    s = sy.Sho()
    out = itg.sample_states(s, np.array([1.0, 0.0]), [0.0, 0.5, 1.0])
    assert np.array_equal(out[0], np.array([1.0, 0.0]))
    want = sy.analytic_solution(s, (1.0, 0.0), np.array([0.5, 1.0]))
    assert np.max(np.abs(out[1:] - want)) < 1e-9
    # unsorted input handled
    out2 = itg.sample_states(s, np.array([1.0, 0.0]), [1.0, 0.0, 0.5])
    assert np.allclose(out2[[1, 2, 0]], out, atol=1e-12)
    with pytest.raises(DimensionError, match="nonnegative"):
        itg.sample_states(s, np.array([1.0, 0.0]), [0.5, -0.1])


def test_generate_dataset_counts_and_accuracy():
    s = sy.Sho()
    ds = itg.generate_dataset(s, [-1.2, 1.2], 20, 10, 1.0, noise_std=0.0, seed=3)
    assert ds.n_trajectories == 20
    assert ds.n_samples == 200
    assert np.all(ds.sample_t >= 0) and np.all(ds.sample_t <= 1.0)
    exact = np.stack(
        [
            sy.analytic_solution(s, ds.x0_per_sample[i], ds.sample_t[i])
            for i in range(ds.n_samples)
        ]
    )
    assert np.max(np.abs(ds.sample_y - exact)) < 1e-8


def test_generate_dataset_noise_level():
    s = sy.Sho()
    ds = itg.generate_dataset(s, [-1.2, 1.2], 100, 50, 1.0, noise_std=0.1, seed=5)
    exact = np.stack(
        [
            sy.analytic_solution(s, ds.x0_per_sample[i], ds.sample_t[i])
            for i in range(ds.n_samples)
        ]
    )
    resid = ds.sample_y - exact
    std = resid.std(axis=0)
    assert np.all(np.abs(std - 0.1) < 0.01)  # within 10 percent over 5000 draws


def test_generate_dataset_deterministic():
    s = sy.HenonHeiles()
    a = itg.generate_dataset(s, [-1.0, 1.0], 5, 4, 1.0, noise_std=0.05, seed=11)
    b = itg.generate_dataset(s, [-1.0, 1.0], 5, 4, 1.0, noise_std=0.05, seed=11)
    assert np.array_equal(a.ics, b.ics)
    assert np.array_equal(a.sample_t, b.sample_t)
    assert np.array_equal(a.sample_y, b.sample_y)


def test_generate_dataset_rejects_bad_args():
    with pytest.raises(DimensionError):
        itg.generate_dataset(sy.Sho(), [-1.0, 1.0], 0, 5, 1.0)
    with pytest.raises(DimensionError):
        itg.generate_dataset(sy.Sho(), [-1.0, 1.0], 5, 5, -1.0)
    with pytest.raises(DimensionError):
        itg.generate_dataset(sy.Sho(), [1.0, -1.0], 5, 5, 1.0)


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("sample_y", [[0.1, np.nan], [0.2, 0.3]], "non-finite"),
        ("ics", [[0.1, np.inf], [0.2, 0.3]], "non-finite"),
        ("sample_t", [0.1, np.nan], "non-finite"),
        ("delta_t", np.nan, "finite"),
        ("sample_traj", [0, 1, 1], "shapes"),
        ("sample_y", [[0.1, 0.2, 0.3], [0.2, 0.3, 0.4]], "shapes"),
        ("sample_t", [[0.1], [0.2]], "shapes"),
        ("ics", [[0.1, 0.2, 0.3], [0.2, 0.3, 0.4]], r"\(N, 2d\)"),
        ("ics", [0.1, 0.2], r"\(N, 2d\)"),
        ("sample_traj", [0, 2], "must index the initial conditions"),
        ("sample_t", [0.1, 1.5], r"must lie in \[0, delta_t\]"),
        ("sample_t", [-0.1, 0.2], r"must lie in \[0, delta_t\]"),
        ("ics", np.zeros((0, 2)), "needs a trajectory and a sample, got 0 and 2"),
        ("seed", "abc", "seed must be an integer of at least 0, got 'abc'"),
        ("seed", -1, "seed must be an integer of at least 0"),
        ("seed", 1.0, "seed must be an integer of at least 0"),
    ],
)
def test_a_dataset_is_checked_when_it_is_built(field, value, match):
    args = {
        "ics": [[0.1, 0.2], [0.3, 0.4]],
        "sample_traj": [0, 1],
        "sample_t": [0.1, 0.2],
        "sample_y": [[0.1, 0.2], [0.3, 0.4]],
        "delta_t": 1.0,
    }
    itg.TrajectoryDataset(**args)
    with pytest.raises(DimensionError, match=match):
        itg.TrajectoryDataset(**{**args, field: value})


def test_nonfinite_or_nonpositive_end_time_raises_up_front():
    for t_end in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(DimensionError, match="t_end"):
            itg.integrate(sy.Sho(), np.array([1.0, 0.0]), t_end)


@pytest.mark.parametrize("name", ["rtol", "atol", "fixed_step"])
def test_nan_tolerance_or_fixed_step_raises_up_front(name):
    with pytest.raises(DimensionError, match=name):
        itg.integrate(sy.Sho(), np.array([1.0, 0.0]), 1.0, **{name: np.nan})


def test_generate_dataset_names_the_trajectory_that_fails():
    # The field is NaN where q < -0.5: of the 4 initial conditions of seed 1 only the
    # second, (-0.71, 0.90), starts there, and the other orbits stay above it in the window.
    s = FaultyOscillator(lambda call, x: x[:, 0] < -0.5)
    with pytest.raises(IntegrationError, match=r"^trajectory 1: non-finite state at t=0"):
        itg.generate_dataset(s, [-1.0, 1.0], 4, 3, 1.0, seed=1)


def test_generate_dataset_rejects_a_nonfinite_window():
    for delta_t in (np.nan, np.inf):
        with pytest.raises(DimensionError, match="delta_t"):
            itg.generate_dataset(sy.Sho(), [-1.0, 1.0], 5, 5, delta_t)


# Bound Henon-Heiles, the oscillator and the damped system, against SciPy's
# DOP853 at a far tighter tolerance.  The controllers differ, so states are
# compared within tolerance, not step for step.
SCIPY_CASES = [
    (sy.Sho(m=1.3, k=0.7), np.array([1.0, -0.4]), 10.0),
    (sy.HenonHeiles(), np.array([0.2, -0.15, 0.1, 0.22]), 20.0),
    (sy.DampedAugmented(lam=0.5), sy.embed_physical(1.0, 0.3), 10.0),
]


@pytest.mark.parametrize("case", range(len(SCIPY_CASES)), ids=["sho", "henon_heiles", "damped"])
def test_final_and_dense_states_match_scipy_dop853(case):
    scipy_integrate = pytest.importorskip("scipy.integrate")
    s, x0, t_end = SCIPY_CASES[case]
    ref = scipy_integrate.solve_ivp(
        lambda t, y: s.vector_field(y), (0.0, t_end), x0, method="DOP853", rtol=1e-13, atol=1e-15,
        dense_output=True,
    )
    assert ref.success
    sol = itg.integrate(s, x0, t_end)
    times = np.linspace(0.0, t_end, 97)
    tol = 2e-10 * np.max(np.abs(ref.y))
    assert np.max(np.abs(sol.ys[-1] - ref.y[:, -1])) < tol
    assert np.max(np.abs(sol(times) - ref.sol(times).T)) < tol
    got, errors = itg._sample_rows(s, x0[None], times[None, ::-1])
    assert errors == {}
    assert np.max(np.abs(got[0] - ref.sol(times[::-1]).T)) < tol


@pytest.mark.parametrize("fixed_step", [None, 0.1])
def test_nonfinite_last_stage_is_named(fixed_step):
    # K_12 = f(y_new) has no weight in the error estimate; a NaN there still
    # fails the step.  The field calls before it are the one at x0, the
    # starting-step probe (adaptive only) and the stages K_1 .. K_11.
    last_stage = 12 + (fixed_step is None)
    s = FaultyOscillator(lambda call, x: call == last_stage + 1)
    with pytest.raises(IntegrationError, match="non-finite state at t=0"):
        itg.integrate(s, np.array([1.0, 0.0]), 1.0, fixed_step=fixed_step)
    assert s.calls == last_stage + 1


def _nan_in_one_extra_stage():
    """An oscillator whose field is NaN only at the state of step 1's first extra dense stage."""
    x0, t_end = np.array([1.0, 0.0]), 2.0
    seen = []

    def record(call, x):
        seen.append(x.copy())
        return False

    sol = itg.integrate(FaultyOscillator(record), x0, t_end)
    assert sol.n_rejected == 0 and sol.n_steps > 3
    # integrate forms the extra stages of every step after the solve, one
    # row per step: its last three field calls.  Row 1 of the first is
    # step 1's stage 13; a batch of any size forms it with the same bits.
    assert len(seen[-3]) == sol.n_steps
    target = seen[-3][1]
    s = FaultyOscillator(lambda call, x: (x == target).all(axis=1))
    return s, x0, t_end, sol.ts[1] + 0.5 * (sol.ts[2] - sol.ts[1]), sol


def test_nonfinite_dense_output_fails_integrate():
    s, x0, t_end, _, sol = _nan_in_one_extra_stage()
    with pytest.raises(IntegrationError, match=f"non-finite dense output in the step from t={sol.ts[1]:.6g}$"):
        itg.integrate(s, x0, t_end)


def test_nonfinite_dense_output_fails_only_its_sampled_row():
    s, x0, t_end, t_mid, sol = _nan_in_one_extra_stage()
    # Row 0 asks for a time inside step 1; row 1 only for the end, on the last step.
    states, errors = itg._sample_rows(s, np.stack([x0, x0]), np.array([[t_mid, t_end], [t_end, t_end]]))
    assert list(errors) == [0] and "non-finite dense output" in errors[0]
    assert np.isnan(states[0]).all()
    np.testing.assert_allclose(states[1], np.stack([sol.ys[-1]] * 2), rtol=0, atol=1e-14)
    with pytest.raises(IntegrationError, match="non-finite dense output"):
        itg.sample_states(s, x0, [t_mid, t_end])  # t_end keeps step 1 whole


def test_dense_output_is_built_once_per_solve(monkeypatch):
    calls = []
    coefficients = itg._coefficients
    monkeypatch.setattr(itg, "_coefficients", lambda *args: calls.append(len(args[1])) or coefficients(*args))
    s = sy.HenonHeiles()
    X = np.random.default_rng(3).uniform(-0.25, 0.25, size=(3, 4))
    T = np.random.default_rng(4).uniform(0.0, 5.0, size=(3, 8))
    states, errors = itg._sample_rows(s, X, T)
    assert errors == {} and len(calls) == 1
    for i in range(3):
        assert np.array_equal(states[i], itg.sample_states(s, X[i], T[i]))
    assert len(calls) == 4
    sol = itg.integrate(s, X[0], 5.0)
    assert calls[-1] == sol.n_steps and len(calls) == 5


@pytest.mark.parametrize("max_steps", [0, -3, 2.5, 10.0, True, "5", None])
def test_max_steps_must_be_a_positive_integer(max_steps):
    with pytest.raises(DimensionError, match="max_steps"):
        itg.integrate(sy.Sho(), np.array([1.0, 0.0]), 1.0, max_steps=max_steps)


def test_max_steps_bounds_the_accepted_steps():
    x0 = np.array([1.0, 0.0])
    n = itg.integrate(sy.Sho(), x0, 3.0).n_steps
    assert itg.integrate(sy.Sho(), x0, 3.0, max_steps=np.int64(n)).n_steps == n
    with pytest.raises(IntegrationError, match=f"exceeded {n - 1} steps"):
        itg.integrate(sy.Sho(), x0, 3.0, max_steps=n - 1)


@pytest.mark.parametrize("noise_std", [-0.1, np.nan, np.inf])
def test_generate_dataset_rejects_a_bad_noise_level(noise_std):
    with pytest.raises(DimensionError, match="noise_std"):
        itg.generate_dataset(sy.Sho(), [-1.0, 1.0], 5, 5, 1.0, noise_std=noise_std)


def test_dense_solution_is_unchanged_by_later_solves():
    # The stepper reuses its stage buffers; a returned solution owns its arrays.
    s, x0 = sy.HenonHeiles(), np.array([0.1, -0.2, 0.15, 0.05])
    sol = itg.integrate(s, x0, 5.0)
    saved = [a.copy() for a in (sol.ts, sol.ys, sol.coeffs)]
    times = np.linspace(0.0, 5.0, 41)
    before = sol(times)
    itg.integrate(s, x0[::-1], 7.0)
    itg._sample_rows(s, np.stack([x0, -x0]), np.array([[1.0, 5.0], [2.0, 3.0]]))
    for a, b in zip((sol.ts, sol.ys, sol.coeffs), saved):
        assert np.array_equal(a, b)
    assert np.array_equal(sol(times), before)
