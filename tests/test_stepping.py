"""Time integration: convergence, conservation, reduced dynamics."""

import numpy as np
import pytest

from melab.grid import Grid2D, ParameterError, ScalarField
from melab.model import (
    DissipationSpec,
    DivergedStateError,
    Forcing,
    MaterialParams,
    State,
    build_galerkin_basis,
    random_state,
)
from melab import energy, stepping


PARAMS = MaterialParams(rho_m=1.0, mu=1.0, lam=0.5, nu1=0.1, mu0=1.0, b0=1.0)
NONE = DissipationSpec(kind="none")
ZERO_F = Forcing.zero()


@pytest.fixture(scope="module")
def grid():
    return Grid2D(16, 16, 1.0, 1.0)


@pytest.fixture(scope="module")
def basis(grid):
    return build_galerkin_basis(grid, PARAMS, m=6, m_magnetic=6)


def test_config_validation():
    with pytest.raises(ParameterError):
        stepping.StepperConfig(dt=0.0)
    with pytest.raises(ParameterError):
        stepping.StepperConfig(dt=1e-3, scheme="leapfrog")


def test_zero_state_stays_zero(grid):
    cfg = stepping.StepperConfig(dt=1e-2, sample_every=5)
    traj = stepping.integrate(State.zero(grid), 0.5, PARAMS, NONE, ZERO_F, cfg)
    assert traj.termination.kind == "completed"
    for s in traj.samples:
        assert np.all(s.u.ux == 0) and np.all(s.h.values == 0)


def test_sampling_controls(grid, basis):
    st = random_state(grid, basis, seed=0, amplitude=0.05)
    cfg = stepping.StepperConfig(dt=1e-2, sample_every=10)
    traj = stepping.integrate(st, 0.5, PARAMS, NONE, ZERO_F, cfg)
    assert len(traj.samples) == 6  # t=0 plus every 10th of 50 steps
    assert traj.samples[-1].t == pytest.approx(0.5, abs=1e-12)
    assert len(traj.energy_log) == len(traj.samples)


def test_second_order_self_convergence(grid, basis):
    """Richardson triple confirms order 2 of the midpoint scheme."""
    st = random_state(grid, basis, seed=1, amplitude=0.05)
    finals = []
    for dt in (4e-3, 2e-3, 1e-3):
        cfg = stepping.StepperConfig(dt=dt, sample_every=10**6)
        traj = stepping.integrate(st, 0.2, PARAMS, NONE, ZERO_F, cfg)
        finals.append(traj.final())
    e1 = np.max(np.abs(finals[0].h.values - finals[1].h.values))
    e2 = np.max(np.abs(finals[1].h.values - finals[2].h.values))
    assert e1 / e2 > 3.5


def test_mean_h_conserved(grid, basis):
    st = random_state(grid, basis, seed=2, amplitude=0.1, mean_zero_h=False)
    cfg = stepping.StepperConfig(dt=2e-3, sample_every=250)
    traj = stepping.integrate(st, 1.0, PARAMS, NONE, ZERO_F, cfg)
    m0 = float(np.sum(traj.samples[0].h.values * grid.weights))
    for s in traj.samples:
        assert abs(float(np.sum(s.h.values * grid.weights)) - m0) <= 1e-13


def test_unforced_damped_energy_decays(grid, basis):
    st = random_state(grid, basis, seed=3, amplitude=0.1)
    spec = DissipationSpec(kind="linear", alpha=1.0)
    cfg = stepping.StepperConfig(dt=2e-3, sample_every=50)
    traj = stepping.integrate(st, 1.0, PARAMS, spec, ZERO_F, cfg)
    es = [s.e_total for s in traj.energy_log]
    assert all(b <= a + 1e-12 for a, b in zip(es[:-1], es[1:]))
    assert es[-1] < 0.5 * es[0]


def test_power_dissipation_decays(grid, basis):
    st = random_state(grid, basis, seed=4, amplitude=0.1)
    spec = DissipationSpec(kind="power", alpha=0.2, k0=0.5, k1=1.0, p=3.0, r_rho=1.0, k_c=0.2)
    cfg = stepping.StepperConfig(dt=2e-3, sample_every=100)
    traj = stepping.integrate(st, 0.5, PARAMS, spec, ZERO_F, cfg)
    es = [s.e_total for s in traj.energy_log]
    assert es[-1] < es[0]


def test_rk4_matches_imex(grid, basis):
    st = random_state(grid, basis, seed=5, amplitude=0.05)
    cfg_i = stepping.StepperConfig(dt=5e-4, sample_every=10**6)
    cfg_r = stepping.StepperConfig(dt=5e-4, scheme="explicit_rk4", sample_every=10**6)
    a = stepping.integrate(st, 0.1, PARAMS, NONE, ZERO_F, cfg_i).final()
    b = stepping.integrate(st, 0.1, PARAMS, NONE, ZERO_F, cfg_r).final()
    assert np.max(np.abs(a.h.values - b.h.values)) < 1e-6
    assert np.max(np.abs(a.u.ux - b.u.ux)) < 1e-6


def test_divergence_detected(grid, basis):
    """A grossly unstable configuration raises with the partial
    trajectory attached."""
    st = random_state(grid, basis, seed=6, amplitude=50.0)
    cfg = stepping.StepperConfig(dt=0.2, scheme="explicit_rk4", sample_every=1)
    with pytest.raises(DivergedStateError) as err:
        stepping.integrate(st, 20.0, PARAMS, NONE, ZERO_F, cfg)
    traj = err.value.trajectory
    assert traj is not None and traj.termination.kind == "diverged"


def test_overflowing_step_is_divergence():
    """A step whose fields overflow ends the run as divergence at that
    step's time, with the trajectory so far attached; non-finite input
    stays a validation error."""
    g = Grid2D(8, 8, 1.0, 1.0)
    basis = build_galerkin_basis(g, PARAMS, m=4, m_magnetic=4)
    st = random_state(g, basis, seed=7, amplitude=1e150, n_modes=4)
    cfg = stepping.StepperConfig(dt=0.5, scheme="explicit_rk4", sample_every=1)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergedStateError) as err:
        stepping.integrate(st, 5.0, PARAMS, NONE, ZERO_F, cfg)
    assert err.value.term == "state" and err.value.t == 0.5
    traj = err.value.trajectory
    assert traj.termination.kind == "diverged" and traj.termination.t == 0.5
    assert [s.t for s in traj.samples] == [0.0]
    with pytest.raises(ParameterError):
        ScalarField(g, np.full(g.shape, np.inf), bc="neumann")


def test_galerkin_full_rank_equivalence():
    g = Grid2D(8, 8, 1.0, 1.0)
    basis = build_galerkin_basis(g, PARAMS, m=2 * g.n_interior, m_magnetic=g.n_nodes)
    st = random_state(g, basis, seed=7, amplitude=0.05, n_modes=5)
    c0 = stepping.state_to_coeffs(basis, st)
    cfg = stepping.StepperConfig(dt=2e-3, sample_every=10**6)
    spec = DissipationSpec(kind="linear", alpha=0.3)
    red = stepping.integrate_galerkin(c0, basis, 0.3, PARAMS, spec, ZERO_F, cfg)
    red_state = stepping.coeffs_to_state(basis, *red.final(), 0.3)
    full = stepping.integrate(st, 0.3, PARAMS, spec, ZERO_F, cfg).final()
    assert np.max(np.abs(full.h.values - red_state.h.values)) < 1e-12
    assert np.max(np.abs(full.u.ux - red_state.u.ux)) < 1e-12


def test_galerkin_truncation_energy_bounded(grid, basis):
    st = random_state(grid, basis, seed=8, amplitude=0.05)
    c0 = stepping.state_to_coeffs(basis, st)
    cfg = stepping.StepperConfig(dt=2e-3, sample_every=50)
    spec = DissipationSpec(kind="linear", alpha=0.5)
    red = stepping.integrate_galerkin(c0, basis, 0.5, PARAMS, spec, ZERO_F, cfg)
    assert red.termination.kind == "completed"
    assert red.energy_log[-1] <= red.energy_log[0] * 1.001


def test_coeff_dimension_checked(grid, basis):
    cfg = stepping.StepperConfig(dt=1e-3)
    with pytest.raises(ParameterError):
        stepping.integrate_galerkin(
            (np.zeros(3), np.zeros(3), np.zeros(3)), basis, 0.1, PARAMS, NONE, ZERO_F, cfg
        )


# ---------------------------------------------------------------------------
# exact time grid

def test_integrate_refuses_partial_last_step(grid):
    cfg = stepping.StepperConfig(dt=0.3, sample_every=1)
    with pytest.raises(ParameterError, match="whole number of steps"):
        stepping.integrate(State.zero(grid), 1.0, PARAMS, NONE, ZERO_F, cfg)


def test_integrate_lands_on_t_end_from_nonzero_t0(grid):
    cfg = stepping.StepperConfig(dt=0.3, sample_every=1)
    traj = stepping.integrate(State.zero(grid, t=0.1), 1.0, PARAMS, NONE, ZERO_F, cfg)
    assert len(traj.samples) == 4
    assert traj.final().t == pytest.approx(1.0, abs=1e-12)


def test_integrate_galerkin_refuses_partial_last_step(grid, basis):
    c0 = (np.zeros(basis.m), np.zeros(basis.m), np.zeros(basis.m_magnetic))
    cfg = stepping.StepperConfig(dt=0.3)
    with pytest.raises(ParameterError, match="whole number of steps"):
        stepping.integrate_galerkin(c0, basis, 1.0, PARAMS, NONE, ZERO_F, cfg)


# ---------------------------------------------------------------------------
# one diagnostics path

def test_one_energy_total_per_state(grid, basis, monkeypatch):
    """n steps sampled every k compute the energy of each of the n + 1
    states once: the blow-up guard and the energy log share it."""
    calls = []
    original = energy.energy_total

    def counting(state, params):
        calls.append(state.t)
        return original(state, params)

    monkeypatch.setattr(energy, "energy_total", counting)
    st = random_state(grid, basis, seed=9, amplitude=0.05)
    n, k = 20, 5
    cfg = stepping.StepperConfig(dt=1e-2, sample_every=k)
    traj = stepping.integrate(st, n * 1e-2, PARAMS, NONE, ZERO_F, cfg)
    assert len(traj.energy_log) == n // k + 1
    assert len(calls) == n + 1


def test_energy_log_of_bare_samples_matches_integrate(grid, basis):
    """A trajectory rebuilt from bare samples, as replay does, fills the
    same energy log as the integrator, bit for bit."""
    st = random_state(grid, basis, seed=10, amplitude=0.05)
    spec = DissipationSpec(kind="linear", alpha=0.5)
    forcing = Forcing(period=0.2, terms=[
        {"target": "f1", "g": {"a0": 0.0, "cos": [], "sin": [1.0]},
         "shape": {"jx": 1, "jy": 1, "amplitude": 0.2}},
    ])
    cfg = stepping.StepperConfig(dt=1e-2, sample_every=3)
    traj = stepping.integrate(st, 0.2, PARAMS, spec, forcing, cfg)
    rebuilt = stepping.Trajectory(samples=list(traj.samples), params=PARAMS)
    assert len(rebuilt.energy_log) == len(traj.energy_log) == len(traj.samples)
    for got, want in zip(rebuilt.energy_log, traj.energy_log):
        assert vars(got) == vars(want)


def test_bare_samples_need_params(grid):
    with pytest.raises(ParameterError):
        stepping.Trajectory(samples=[State.zero(grid)])


def test_zero_forcing_is_not_evaluated(grid, basis, monkeypatch):
    """Without forcing terms no forcing field is built, and the states are
    bit for bit those of a forcing whose only term is zero."""
    calls = []
    for name in ("f1", "f2"):
        original = getattr(Forcing, name)

        def counting(self, g, t, _original=original):
            calls.append(t)
            return _original(self, g, t)

        monkeypatch.setattr(Forcing, name, counting)
    st = random_state(grid, basis, seed=11, amplitude=0.05)
    cfg = stepping.StepperConfig(dt=1e-2, sample_every=5)
    spec = DissipationSpec(kind="linear", alpha=0.5)
    unforced = stepping.integrate(st, 0.1, PARAMS, spec, ZERO_F, cfg)
    assert calls == []
    zero_term = Forcing(period=1.0, terms=[
        {"target": "f1", "g": {"a0": 0.0}, "shape": {"amplitude": -1.0}},
        {"target": "f2", "g": {"a0": 0.0}, "shape": {"amplitude": -1.0}},
    ])
    zero_forced = stepping.integrate(st, 0.1, PARAMS, spec, zero_term, cfg)
    assert len(calls) == 4 * 10
    for a, b in zip(unforced.samples, zero_forced.samples):
        for x, y in ((a.u.ux, b.u.ux), (a.u.uy, b.u.uy), (a.ut.ux, b.ut.ux),
                     (a.ut.uy, b.ut.uy), (a.h.values, b.h.values)):
            assert x.tobytes() == y.tobytes()
