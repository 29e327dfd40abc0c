"""Poincare map, periodic orbits, critical radius, perturbation decay."""

import numpy as np
import pytest

from melab.grid import Grid2D, ParameterError, ScalarField, VectorField2
from melab.model import (
    DissipationSpec,
    Forcing,
    MaterialParams,
    State,
    build_galerkin_basis,
    random_state,
)
from melab import energy, orbit, stepping

from mpmath_reference import r_critical_reference


PARAMS = MaterialParams(rho_m=1.0, mu=1.0, lam=0.5, nu1=0.2, mu0=1.0, b0=1.0)
LIN = DissipationSpec(kind="linear", alpha=1.0)
CONSTS = {"C1": 0.5, "C2": 0.02, "C3": 0.1, "eps": 2.5}


def small_forcing(period=1.0, amp=0.05):
    return Forcing(period=period, terms=[
        {"target": "f2", "g": {"a0": 0.0, "cos": [1.0], "sin": []},
         "shape": {"jx": 1, "jy": 1, "amplitude": amp, "component": 0}},
    ])


@pytest.fixture(scope="module")
def grid():
    return Grid2D(12, 12, 1.0, 1.0)


@pytest.fixture(scope="module")
def basis(grid):
    return build_galerkin_basis(grid, PARAMS, m=5, m_magnetic=5)


@pytest.fixture(scope="module")
def cfg():
    return stepping.StepperConfig(dt=5e-3, sample_every=50)


def test_preconditions(grid, cfg):
    z = State.zero(grid)
    with pytest.raises(ParameterError):
        orbit.poincare_map(z, PARAMS, DissipationSpec(kind="none"), small_forcing(), cfg)


def test_map_refuses_period_not_whole_steps(grid):
    """T / dt = 1 / 0.3 is not integral: the map would flow over 0.9."""
    cfg = stepping.StepperConfig(dt=0.3)
    with pytest.raises(ParameterError, match="whole number of steps"):
        orbit.poincare_map(State.zero(grid), PARAMS, LIN, small_forcing(period=1.0), cfg)


def test_map_fixes_zero_unforced(grid, cfg):
    z = State.zero(grid)
    img = orbit.poincare_map(z, PARAMS, LIN, Forcing.zero(), cfg)
    assert orbit.energy_norm(img, PARAMS) == 0.0


def test_map_dissipative_unforced(grid, basis, cfg):
    for seed in range(3):
        z = random_state(grid, basis, seed=seed, amplitude=0.1)
        img = orbit.poincare_map(z, PARAMS, LIN, Forcing.zero(), cfg)
        assert orbit.energy_norm(img, PARAMS) <= orbit.energy_norm(z, PARAMS)


def test_map_affine_without_coupling(grid, basis, cfg, monkeypatch):
    """With the magnetic coupling switched off the one-period map is
    affine: S(z1 + z2) - S(0) = (S(z1) - S(0)) + (S(z2) - S(0))."""
    def no_coupling(grid, v, h, params):
        return np.zeros_like(v), np.zeros_like(h)

    monkeypatch.setattr(stepping, "coupling_packed", no_coupling)
    f = small_forcing()
    z1 = random_state(grid, basis, seed=1, amplitude=0.1)
    z2 = random_state(grid, basis, seed=2, amplitude=0.1)
    z12 = State(
        VectorField2(grid, z1.u.ux + z2.u.ux, z1.u.uy + z2.u.uy, bc="dirichlet_zero"),
        VectorField2(grid, z1.ut.ux + z2.ut.ux, z1.ut.uy + z2.ut.uy, bc="dirichlet_zero"),
        ScalarField(grid, z1.h.values + z2.h.values, bc="neumann"),
    )
    s0 = orbit.poincare_map(State.zero(grid), PARAMS, LIN, f, cfg)
    s1 = orbit.poincare_map(z1, PARAMS, LIN, f, cfg)
    s2 = orbit.poincare_map(z2, PARAMS, LIN, f, cfg)
    s12 = orbit.poincare_map(z12, PARAMS, LIN, f, cfg)
    lhs = s12.h.values - s0.h.values
    rhs = (s1.h.values - s0.h.values) + (s2.h.values - s0.h.values)
    assert np.max(np.abs(lhs - rhs)) < 1e-10
    lhs_u = s12.u.ux - s0.u.ux
    rhs_u = (s1.u.ux - s0.u.ux) + (s2.u.ux - s0.u.ux)
    assert np.max(np.abs(lhs_u - rhs_u)) < 1e-10


def test_find_periodic_zero_forcing(grid, cfg):
    po = orbit.find_periodic(State.zero(grid), PARAMS, LIN, Forcing.zero(), cfg, tol=1e-10)
    assert po.converged and po.iterations <= 3
    assert orbit.energy_norm(po.z_star, PARAMS) <= 1e-10


def test_find_periodic_contracts(grid, cfg):
    po = orbit.find_periodic(State.zero(grid), PARAMS, LIN, small_forcing(), cfg,
                             tol=1e-8, max_iter=40)
    assert po.converged
    assert po.residual <= 1e-8 * max(1.0, orbit.energy_norm(po.z_star, PARAMS))
    ratios = [b / a for a, b in zip(po.residual_history[:-1], po.residual_history[1:])]
    assert np.median(ratios) < 0.9  # geometric contraction observed
    # the archived trajectory's endpoint mismatch is the reported residual
    endpoint = po.trajectory.final().with_time(0.0)
    assert orbit.energy_distance(endpoint, po.z_star, PARAMS) == pytest.approx(
        po.residual, rel=1e-10
    )
    # re-applying the map keeps the residual small
    again = orbit.poincare_map(po.z_star, PARAMS, LIN, small_forcing(), cfg)
    assert orbit.energy_distance(again, po.z_star, PARAMS) <= 2e-8 * max(
        1.0, orbit.energy_norm(po.z_star, PARAMS)
    )


def test_find_periodic_flags_nonconvergence(grid, cfg):
    po = orbit.find_periodic(State.zero(grid), PARAMS, LIN, small_forcing(), cfg,
                             tol=1e-15, max_iter=2)
    assert not po.converged and po.iterations == 2


def test_r_critical_zero_forcing():
    rc = orbit.r_critical(0.0, 1.0, 0.2, 2.0, CONSTS)
    assert rc.value == 0.0 and rc.admissible and rc.denominator > 0


def test_r_critical_two_paths_agree():
    for f in np.linspace(0.0, 0.3, 20):
        rc = orbit.r_critical(f, 1.0, 0.2, 2.0, CONSTS)
        ref = r_critical_reference(f, 1.0, 0.2, 2.0, CONSTS)
        if np.isfinite(rc.value):
            assert abs(rc.value - ref) <= 1e-14 * max(1.0, abs(ref))


def test_r_critical_monotone_in_f():
    vals = [orbit.r_critical(f, 1.0, 0.2, 2.0, CONSTS).value
            for f in np.linspace(0.0, 0.3, 50)]
    assert all(b > a for a, b in zip(vals[:-1], vals[1:]))


def test_r_critical_large_period_floor():
    consts = dict(CONSTS)
    f = 0.1
    floor_den = 1.0 - (consts["C2"] / 0.2) * (1.0 + f)
    floor = (consts["C1"] * f + consts["C3"] / 0.2 * f**2) / floor_den
    rc = orbit.r_critical(f, 1.0, 0.2, 500.0, consts)
    assert rc.value == pytest.approx(floor, rel=1e-10)


def test_r_critical_inadmissible_denominator():
    bad = {"C1": 0.5, "C2": 5.0, "C3": 0.1, "eps": 2.5}
    rc = orbit.r_critical(0.1, 1.0, 0.2, 2.0, bad)
    assert not rc.admissible and "denominator" in rc.diagnostic


def test_ball_mapping_unforced(grid, basis, cfg):
    rep = orbit.ball_mapping_check(0.2, 10, PARAMS, LIN, Forcing.zero(), cfg,
                                   basis, seed=1, surface=True)
    assert rep["fraction_inside"] == 1.0
    assert rep["worst_excess"] == 0.0


def test_perturbation_zero_is_zero(grid, cfg):
    po = orbit.find_periodic(State.zero(grid), PARAMS, LIN, small_forcing(), cfg,
                             tol=1e-8, max_iter=40)
    run = orbit.run_perturbation(
        po,
        VectorField2.zeros(grid, bc="dirichlet_zero"),
        VectorField2.zeros(grid, bc="dirichlet_zero"),
        ScalarField.zeros(grid, bc="neumann"),
        1.0, PARAMS, LIN, small_forcing(), cfg,
    )
    assert np.max(run.ep_series) == 0.0


def test_perturbation_quadratic_scaling(grid, basis, cfg):
    """Halving the initial perturbation quarters E_p while the dynamics
    stays in the linear regime."""
    f = small_forcing()
    po = orbit.find_periodic(State.zero(grid), PARAMS, LIN, f, cfg, tol=1e-9, max_iter=40)
    seed_state = random_state(grid, basis, seed=3, amplitude=2e-3)
    runs = []
    for fac in (1.0, 0.5):
        s = seed_state.scaled(fac)
        runs.append(orbit.run_perturbation(po, s.u, s.ut, s.h, 1.0, PARAMS, LIN, f, cfg))
    ratio = runs[0].ep_series[1:] / np.maximum(runs[1].ep_series[1:], 1e-300)
    assert np.all(np.abs(ratio - 4.0) < 0.2)


def test_decay_bound_report(grid, basis, cfg):
    f = small_forcing()
    po = orbit.find_periodic(State.zero(grid), PARAMS, LIN, f, cfg, tol=1e-9, max_iter=40)
    seed_state = random_state(grid, basis, seed=4, amplitude=1e-3)
    run = orbit.run_perturbation(po, seed_state.u, seed_state.ut, seed_state.h,
                                 3.0, PARAMS, LIN, f, cfg)
    c_e = max(energy.energy_e1(s, PARAMS) for s in run.base_traj.samples)
    consts = energy.assemble_constants(grid, PARAMS, alpha=LIN.alpha, basis=basis,
                                       c_e=c_e, c_h=run.c_h, ep0=float(run.ep_series[0]))
    rep = orbit.check_decay_bound(run, consts, LIN.alpha, PARAMS.nu1)
    # the t=0 bound dominates E_p(0) by at least the prefactor 2(2+alpha)
    bound0 = 2.0 * (2.0 + LIN.alpha) * rep["ep0"] * np.exp(4.0 * rep["c_h"] / PARAMS.nu1)
    assert bound0 >= 2.0 * (2.0 + LIN.alpha) * rep["ep0"]
    assert rep["bound_margin_min"] >= 0.0
    assert rep["violations"] == []
    assert rep["fitted_rate"] is not None and rep["fitted_rate"] < 0


def test_perturbation_requires_mean_zero(grid, cfg):
    po = orbit.find_periodic(State.zero(grid), PARAMS, LIN, small_forcing(), cfg,
                             tol=1e-8, max_iter=40)
    bad = ScalarField(grid, np.ones(grid.shape), bc="neumann")
    with pytest.raises(ParameterError):
        orbit.run_perturbation(
            po,
            VectorField2.zeros(grid, bc="dirichlet_zero"),
            VectorField2.zeros(grid, bc="dirichlet_zero"),
            bad, 1.0, PARAMS, LIN, small_forcing(), cfg,
        )
