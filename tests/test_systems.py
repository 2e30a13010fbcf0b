"""Benchmark systems: energies, vector fields, projection, analytic flows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympflow import systems as sy
from sympflow.errors import DimensionError, UnsupportedSystemError
from sympflow.model import symplectic_matrix

from _oracles import assert_close, fd_gradient


ALL_SYSTEMS = [
    sy.Sho(),
    sy.Sho(m=1.7, k=0.6),
    sy.HenonHeiles(),
    sy.DampedAugmented(lam=0.5),
    sy.DampedAugmented(m=1.3, k=0.8, lam=0.1),
]


def test_sho_energy():
    assert sy.Sho().hamiltonian(np.array([1.0, 0.0])) == 0.5


def test_henon_heiles_energy_of_reference_point():
    # Direct evaluation at (q_x, q_y, p_x, p_y) = (0.3, -0.3, 0.3, 0) under
    # the fixed coordinate ordering gives 0.117.
    x0 = np.array([0.3, -0.3, 0.3, 0.0])
    assert sy.HenonHeiles().hamiltonian(x0) == pytest.approx(0.117, abs=1e-15)


def test_damped_energy_vanishes_on_antisymmetric_points():
    s = sy.DampedAugmented(lam=0.7)
    for q, p in ((0.0, 0.0), (1.0, 0.5), (-0.4, 1.2)):
        x = sy.embed_physical(q, p)
        assert s.hamiltonian(x) == pytest.approx(0.0, abs=1e-15)


def test_sho_vector_field_reference():
    assert np.array_equal(
        sy.Sho().vector_field(np.array([1.0, 0.0])), np.array([0.0, -1.0])
    )


def test_henon_heiles_equilibrium_at_origin():
    assert np.all(sy.HenonHeiles().vector_field(np.zeros(4)) == 0.0)


@pytest.mark.parametrize("system", ALL_SYSTEMS, ids=lambda s: type(s).__name__)
def test_vector_field_is_j_grad_h(system):
    rng = np.random.default_rng(1)
    J = symplectic_matrix(system.d)
    for _ in range(10):
        x = rng.uniform(-1, 1, size=2 * system.d)
        fd_grad = fd_gradient(lambda xx: system.hamiltonian(xx), x, 1e-6)
        assert_close(
            system.vector_field(x), J @ fd_grad, rtol=1e-6, floor=1e-9,
            label="J grad H",
        )
        assert_close(
            system.gradient(x), fd_grad, rtol=1e-6, floor=1e-9, label="grad H"
        )


@pytest.mark.parametrize("system", ALL_SYSTEMS, ids=lambda s: type(s).__name__)
def test_vector_field_jacobian_fd(system):
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, size=2 * system.d)
    got = system.vector_field_jacobian(x)
    want = fd_gradient(lambda xx: system.vector_field(xx), x, 1e-6)
    assert_close(got, want, rtol=1e-6, floor=1e-9, label="vf jacobian")


@pytest.mark.parametrize("system", ALL_SYSTEMS, ids=lambda s: type(s).__name__)
def test_vector_field_writes_into_a_stage_slot(system):
    # The integrator passes K[:, i] of its (B, 13, n) stage stack as out.
    rng = np.random.default_rng(3)
    n = 2 * system.d
    # Batches of at most sy._ROW_LIMIT rows take the Python-float path.
    for B in (1, 2, sy._ROW_LIMIT, sy._ROW_LIMIT + 1, 7, 64):
        x = rng.uniform(-1, 1, size=(B, n))
        K = np.full((B, 13, n), np.nan)
        got = system._vector_field(x, K[:, 5])
        assert got is not None and np.shares_memory(got, K)
        np.testing.assert_allclose(K[:, 5], system.vector_field(x), rtol=1e-15, atol=0)
        assert np.isnan(np.delete(K, 5, axis=1)).all()
        for i in range(B):
            one = np.empty((1, n))
            system._vector_field(x[i : i + 1], one)
            assert np.array_equal(K[i, 5], one[0])


@settings(max_examples=40, deadline=None)
@given(
    index=st.integers(0, len(ALL_SYSTEMS) - 1),
    B=st.integers(1, 3 * sy._ROW_LIMIT),
    log_mag=st.floats(-3.0, 200.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_batch_is_bitwise_its_one_row_calls(index, B, log_mag, seed):
    # Either side of the row limit; at 1e200 the products overflow to inf
    # and their differences to NaN, which both paths must produce alike.
    system = ALL_SYSTEMS[index]
    rng = np.random.default_rng(seed)
    n = 2 * system.d
    x = rng.uniform(-1, 1, size=(B, n)) * 10.0**log_mag
    K = np.full((B, 13, n), 7.0)
    system._vector_field(x, K[:, 5])
    for i in range(B):
        one = np.empty((1, n))
        system._vector_field(x[i : i + 1], one)
        assert np.array_equal(K[i, 5], one[0], equal_nan=True)
    assert (np.delete(K, 5, axis=1) == 7.0).all()


def test_physical_limit_projection_values():
    out = sy.physical_limit_project(np.array([1.0, 0.0, 2.0, 0.0]))
    assert np.array_equal(out, np.array([0.5, 0.5, 1.0, -1.0]))


def test_projection_fixes_subspace_points():
    x = sy.embed_physical(0.7, -0.2)
    assert np.array_equal(sy.physical_limit_project(x), x)


def test_projection_idempotent():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(100, 4))
    once = sy.physical_limit_project(pts)
    twice = sy.physical_limit_project(once)
    assert np.array_equal(once, twice)


def test_projection_rejects_wrong_dimension():
    with pytest.raises(DimensionError):
        sy.physical_limit_project(np.array([1.0, 2.0]))


def test_embed_physical():
    assert np.array_equal(sy.embed_physical(0, 0), np.zeros(4))
    assert np.array_equal(sy.embed_physical(1.0, 0.5), np.array([1.0, 1.0, 0.5, -0.5]))
    x = sy.embed_physical(0.3, -0.9)
    assert np.array_equal(sy.physical_limit_project(x), x)


def test_physical_subspace_is_invariant():
    # On projected points the augmented field keeps q_a' = q_b' and
    # pi_a' = -pi_b' exactly.
    rng = np.random.default_rng(4)
    s = sy.DampedAugmented(lam=0.8)
    pts = sy.physical_limit_project(rng.normal(size=(50, 4)))
    f = s.vector_field(pts)
    assert np.max(np.abs(f[:, 0] - f[:, 1])) < 1e-14
    assert np.max(np.abs(f[:, 2] + f[:, 3])) < 1e-14


def test_sho_analytic_periodicity():
    s = sy.Sho()
    x0 = np.array([1.0, 0.0])
    back = sy.analytic_solution(s, x0, 2.0 * np.pi)
    assert np.max(np.abs(back - x0)) < 1e-12
    quarter = sy.analytic_solution(s, x0, np.pi / 2.0)
    assert_close(quarter, np.array([0.0, -1.0]), rtol=0, floor=1e-12, label="quarter")


def test_damped_analytic_satisfies_ode():
    # First-order residual (q' - p/m, p' + (lam/m) p + k q) with a 4th-order
    # central difference of the closed form.
    s = sy.DampedAugmented(lam=0.5)
    h = 1e-4

    def state(t):
        return sy.analytic_solution(s, (1.0, 0.0), t)

    for t in (0.3, 1.7, 6.0):
        x = state(t)
        dx = (-state(t + 2 * h) + 8 * state(t + h) - 8 * state(t - h) + state(t - 2 * h)) / (
            12 * h
        )
        assert abs(dx[0] - x[1] / s.m) < 1e-10
        assert abs(dx[1] + s.lam / s.m * x[1] + s.k * x[0]) < 1e-10


def test_overdamped_rejected():
    with pytest.raises(UnsupportedSystemError):
        sy.analytic_solution(sy.DampedAugmented(lam=2.5), (1.0, 0.0), 1.0)


def test_system_from_name():
    assert isinstance(sy.system_from_name("sho"), sy.Sho)
    assert isinstance(sy.system_from_name("henon_heiles"), sy.HenonHeiles)
    s = sy.system_from_name("damped", lam=0.3)
    assert s.lam == 0.3
    with pytest.raises(UnsupportedSystemError):
        sy.system_from_name("pendulum")
    for name, params in (("sho", {"bogus": 2}), ("sho", {"d": 2}), ("henon_heiles", {"m": 1.0})):
        with pytest.raises(UnsupportedSystemError, match="takes no parameter"):
            sy.system_from_name(name, **params)


@pytest.mark.parametrize("cls, d", [(sy.Sho, 1), (sy.HenonHeiles, 2), (sy.DampedAugmented, 2)])
def test_the_dimension_is_fixed_by_the_system(cls, d):
    assert cls().d == d
    with pytest.raises(TypeError):
        cls(d=d + 1)


def test_invariant_parameter_checks():
    with pytest.raises(DimensionError):
        sy.Sho(m=-1.0)
    with pytest.raises(DimensionError):
        sy.DampedAugmented(lam=-0.1)


@pytest.mark.parametrize(
    "cls, kwargs",
    [
        (sy.Sho, {"m": float("nan")}),
        (sy.Sho, {"k": float("inf")}),
        (sy.DampedAugmented, {"m": float("inf")}),
        (sy.DampedAugmented, {"k": float("nan")}),
        (sy.DampedAugmented, {"lam": float("nan")}),
        (sy.DampedAugmented, {"lam": float("inf")}),
    ],
)
def test_nonfinite_parameters_are_rejected(cls, kwargs):
    with pytest.raises(DimensionError, match="must be finite"):
        cls(**kwargs)


@pytest.mark.parametrize("bad", ["2", True, None, [1.0]])
@pytest.mark.parametrize(
    "cls, param", [(sy.Sho, "m"), (sy.Sho, "k"), (sy.DampedAugmented, "m"), (sy.DampedAugmented, "k"), (sy.DampedAugmented, "lam")]
)
def test_parameters_must_be_real_numbers(cls, param, bad):
    with pytest.raises(DimensionError, match="must be a real number"):
        cls(**{param: bad})


def test_parameters_are_stored_as_floats():
    s = sy.DampedAugmented(m=2, k=np.float64(0.5), lam=0)
    assert [type(v) for v in (s.m, s.k, s.lam)] == [float] * 3
