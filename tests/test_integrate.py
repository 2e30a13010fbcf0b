"""Reference integrator and dataset generation."""

import numpy as np
import pytest

from sympflow import integrate as itg
from sympflow import systems as sy
from sympflow.errors import DimensionError, IntegrationError


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


@pytest.mark.parametrize(
    "system, x0",
    [
        (sy.Sho(), [0.3, 0.2]),
        (sy.HenonHeiles(), [0.1, -0.2, 0.15, 0.05]),
        (sy.DampedAugmented(lam=0.5), [0.3, 0.2, -0.1, 0.4]),
    ],
    ids=["sho", "henon_heiles", "damped"],
)
def test_plain_callable_takes_the_same_steps_as_the_system(system, x0):
    # A callable f(t, y) is called row by row on the same arithmetic as the
    # system's field, so the two solves agree bit for bit.
    x0 = np.array(x0)
    want = itg.integrate(system, x0, 5.0)
    got = itg.integrate(lambda t, y: system.vector_field(y), x0, 5.0)
    assert (got.n_steps, got.n_rejected) == (want.n_steps, want.n_rejected)
    assert np.array_equal(got.ys, want.ys) and np.array_equal(got.coeffs, want.coeffs)


def test_interpolation_range_checked():
    sol = itg.integrate(sy.Sho(), np.array([1.0, 0.0]), 1.0)
    with pytest.raises(DimensionError):
        sol(1.5)


def test_stiffness_error():
    # Blow-up in finite time forces the step size to underflow.
    f = lambda t, y: np.array([y[0] ** 2])
    with pytest.raises(IntegrationError):
        itg.integrate(f, np.array([1.0]), 2.0)


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
    # K_12 = f(t + h, y_new) has no weight in the error estimate; a NaN there
    # still fails the step.  The calls before it are the field at t = 0, the
    # starting-step probe (adaptive only) and the stages K_1 .. K_11.
    last_stage = 12 + (fixed_step is None)
    calls = []

    def f(t, y):
        calls.append(t)
        return np.full(2, np.nan) if len(calls) == last_stage + 1 else np.array([y[1], -y[0]])

    with pytest.raises(IntegrationError, match="non-finite state at t=0"):
        itg.integrate(f, np.array([1.0, 0.0]), 1.0, fixed_step=fixed_step)
    assert len(calls) == last_stage + 1


def _nan_in_one_extra_stage():
    """An oscillator whose field is NaN only where step 1's first extra dense stage lands."""
    sho = lambda t, y: np.array([y[1], -y[0]])  # noqa: E731
    x0, t_end = np.array([1.0, 0.0]), 2.0
    sol = itg.integrate(sho, x0, t_end)
    assert sol.n_rejected == 0 and sol.n_steps > 3
    t0, h = sol.ts[1], sol.ts[2] - sol.ts[1]
    # Extra stage 13 sits at t0 + 0.1 h; the nearest stages of a step, at
    # 0.079 h and 0.118 h, stay outside.
    lo, hi = t0 + 0.09 * h, t0 + 0.11 * h

    def f(t, y):
        return np.full(2, np.nan) if lo < t < hi else sho(t, y)

    return f, x0, t_end, t0 + 0.5 * h, sol


def test_nonfinite_dense_output_fails_integrate():
    f, x0, t_end, _, _ = _nan_in_one_extra_stage()
    with pytest.raises(IntegrationError, match="non-finite dense output"):
        itg.integrate(f, x0, t_end)


def test_nonfinite_dense_output_fails_only_its_sampled_row():
    f, x0, t_end, t_mid, sol = _nan_in_one_extra_stage()
    # Row 0 asks for a time inside step 1; row 1 only for the end, on the last step.
    states, errors = itg._sample_rows(f, np.stack([x0, x0]), np.array([[t_mid, t_end], [t_end, t_end]]))
    assert list(errors) == [0] and "non-finite dense output" in errors[0]
    assert np.isnan(states[0]).all()
    np.testing.assert_allclose(states[1], np.stack([sol.ys[-1]] * 2), rtol=0, atol=1e-14)
    with pytest.raises(IntegrationError, match="non-finite dense output"):
        itg.sample_states(f, x0, [t_mid])


@pytest.mark.parametrize("value", [lambda t, y: 1.0, lambda t, y: np.ones(3), lambda t, y: np.ones((2, 1))])
def test_callable_field_not_shaped_like_the_state_is_rejected(value):
    with pytest.raises(DimensionError, match="shape"):
        itg.integrate(value, [0.0, 0.0], 1.0)
    with pytest.raises(DimensionError, match="shape"):
        itg.sample_states(value, [0.0, 0.0], [0.5])


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
