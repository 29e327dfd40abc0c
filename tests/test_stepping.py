"""Time integration: convergence, conservation, reduced dynamics."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from hypothesis import example, given, settings, strategies as st
from scipy import sparse

from melab.grid import (
    DomainMismatchError,
    Grid2D,
    MelabError,
    ParameterError,
    ScalarField,
    VectorField2,
    lame_apply,
    lame_operator_matrix,
    laplacian_neumann,
    pack_interior,
    pin_boundary,
    unpack_interior,
)
from melab.model import (
    DissipationSpec,
    DivergedStateError,
    Forcing,
    MaterialParams,
    State,
    build_galerkin_basis,
    induction_term,
    lorentz_force,
    random_state,
)
from melab import energy, model, stepping

from field_reference import dissipation_eval


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


@pytest.mark.parametrize("make", [
    lambda: stepping.StepperConfig(dt=np.inf),
    lambda: stepping.StepperConfig(dt=np.nan),
    lambda: MaterialParams(rho_m=np.nan),
    lambda: MaterialParams(b0=np.nan),
    lambda: MaterialParams(mu=np.inf),
    lambda: DissipationSpec(kind="linear", alpha=np.nan),
    lambda: DissipationSpec(kind="power", alpha=0.5, k1=np.inf),
    lambda: Forcing(period=np.nan),
    lambda: Forcing(period=np.inf),
    lambda: Grid2D(8, 8, np.inf, 1.0),
])
def test_non_finite_parameters_refused(make):
    """A NaN or infinite number built in Python is refused as the config
    path refuses it, not later as a factorization error or a divergence."""
    with pytest.raises(ParameterError, match="must be finite"):
        make()


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
    assert len(traj.times) == len(traj.energies) == len(traj.samples)
    assert traj.times == [s.t for s in traj.samples]


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


def test_rk4_fourth_order_self_convergence(grid, basis):
    """Richardson triple confirms order 4 of the RK4 scheme."""
    st = random_state(grid, basis, seed=1, amplitude=0.05)
    finals = []
    for dt in (8e-3, 4e-3, 2e-3):
        cfg = stepping.StepperConfig(dt=dt, scheme="explicit_rk4", sample_every=10**6)
        traj = stepping.integrate(st, 0.2, PARAMS, NONE, ZERO_F, cfg)
        finals.append(traj.final())
    e1 = np.max(np.abs(finals[0].h.values - finals[1].h.values))
    e2 = np.max(np.abs(finals[1].h.values - finals[2].h.values))
    assert e1 / e2 > 12


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
    es = traj.energies
    assert all(b <= a + 1e-12 for a, b in zip(es[:-1], es[1:]))
    assert es[-1] < 0.5 * es[0]


def test_power_dissipation_decays(grid, basis):
    st = random_state(grid, basis, seed=4, amplitude=0.1)
    spec = DissipationSpec(kind="power", alpha=0.2, k1=1.0, p=3.0)
    cfg = stepping.StepperConfig(dt=2e-3, sample_every=100)
    traj = stepping.integrate(st, 0.5, PARAMS, spec, ZERO_F, cfg)
    es = traj.energies
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


@pytest.mark.parametrize("scheme, amplitude", [
    ("explicit_rk4", 1e150),
    ("imex_midpoint", 1e80),
    ("imex_midpoint", 1e100),
    ("imex_midpoint", 1e150),
])
def test_overflowing_step_is_divergence(scheme, amplitude):
    """A step whose fields overflow ends the run as divergence at that
    step's time, with the trajectory so far attached, on the grid and in
    eigencoordinates; non-finite input stays a validation error."""
    g = Grid2D(8, 8, 1.0, 1.0)
    basis = build_galerkin_basis(g, PARAMS, m=4, m_magnetic=4)
    st = random_state(g, basis, seed=7, amplitude=amplitude, n_modes=4)
    cfg = stepping.StepperConfig(dt=0.5, scheme=scheme, sample_every=1)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergedStateError) as err:
        stepping.integrate(st, 5.0, PARAMS, NONE, ZERO_F, cfg)
    assert err.value.term == "state" and err.value.t == 0.5
    traj = err.value.trajectory
    assert traj.termination.kind == "diverged" and traj.termination.t == 0.5
    assert [s.t for s in traj.samples] == [0.0]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergedStateError) as err:
        stepping.integrate_galerkin(stepping.state_to_coeffs(basis, st), basis, 5.0,
                                    PARAMS, NONE, ZERO_F, cfg)
    assert err.value.term == "state" and err.value.t == 0.5
    red = err.value.trajectory
    assert red.termination.kind == "diverged" and red.termination.t == 0.5
    assert red.times == [0.0] and len(red.samples) == len(red.energies) == 1
    with pytest.raises(ParameterError):
        ScalarField(g, np.full(g.shape, np.inf), bc="neumann")


FORCED = Forcing(period=0.2, terms=[
    {"target": "f1", "g": {"a0": 0.1, "sin": [1.0]}, "shape": {"jx": 1, "jy": 2, "amplitude": 0.5}},
    {"target": "f2", "g": {"cos": [1.0]}, "shape": {"jx": 2, "jy": 1, "amplitude": 0.5}},
])


@pytest.mark.parametrize("scheme", list(stepping.SCHEMES))
@pytest.mark.parametrize("spec, forcing", [
    (DissipationSpec(kind="linear", alpha=0.3), ZERO_F),
    (DissipationSpec(kind="power", alpha=0.3, k1=2.0, p=3.5), FORCED),
], ids=["linear", "power-forced"])
def test_galerkin_full_rank_equivalence(scheme, spec, forcing):
    """At full rank the reduced dynamics are the grid scheme in other
    coordinates, whichever scheme the config names."""
    g = Grid2D(8, 8, 1.0, 1.0)
    basis = build_galerkin_basis(g, PARAMS, m=2 * g.n_interior, m_magnetic=g.n_nodes)
    st = random_state(g, basis, seed=7, amplitude=0.05, n_modes=5)
    c0 = stepping.state_to_coeffs(basis, st)
    cfg = stepping.StepperConfig(dt=2e-3, scheme=scheme, sample_every=10**6)
    red = stepping.integrate_galerkin(c0, basis, 0.3, PARAMS, spec, forcing, cfg)
    red_state = stepping.coeffs_to_state(basis, *red.final(), 0.3)
    full = stepping.integrate(st, 0.3, PARAMS, spec, forcing, cfg).final()
    for x, y in ((full.u.ux, red_state.u.ux), (full.u.uy, red_state.u.uy),
                 (full.ut.ux, red_state.ut.ux), (full.ut.uy, red_state.ut.uy),
                 (full.h.values, red_state.h.values)):
        assert np.max(np.abs(x - y)) < 1e-12


def test_galerkin_truncation_energy_bounded(grid, basis):
    st = random_state(grid, basis, seed=8, amplitude=0.05)
    c0 = stepping.state_to_coeffs(basis, st)
    cfg = stepping.StepperConfig(dt=2e-3, sample_every=50)
    spec = DissipationSpec(kind="linear", alpha=0.5)
    red = stepping.integrate_galerkin(c0, basis, 0.5, PARAMS, spec, ZERO_F, cfg)
    assert red.termination.kind == "completed"
    assert red.energies[-1] <= red.energies[0] * 1.001


def test_coeff_dimension_checked(grid, basis):
    cfg = stepping.StepperConfig(dt=1e-3)
    with pytest.raises(DomainMismatchError):
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


def test_both_integrators_refuse_negative_horizon():
    """A horizon before the initial time is refused on the grid and in
    eigencoordinates alike, even when it is a whole number of steps."""
    g = Grid2D(8, 8, 1.0, 1.0)
    basis = build_galerkin_basis(g, PARAMS, m=4, m_magnetic=4)
    cfg = stepping.StepperConfig(dt=0.5)
    with pytest.raises(ParameterError, match="t_end must be >= initial time"):
        stepping.integrate(State.zero(g), -1.0, PARAMS, NONE, ZERO_F, cfg)
    c0 = (np.zeros(basis.m), np.zeros(basis.m), np.zeros(basis.m_magnetic))
    with pytest.raises(ParameterError, match="t_end must be >= initial time"):
        stepping.integrate_galerkin(c0, basis, -1.0, PARAMS, NONE, ZERO_F, cfg)


# ---------------------------------------------------------------------------
# one diagnostics path

def test_one_energy_total_per_state(grid, basis, monkeypatch):
    """n steps sampled every k compute the energy of each of the n + 1
    states once: the blow-up guard and the trajectory share it."""
    calls = []
    original = energy.energy_packed

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(energy, "energy_packed", counting)
    st = random_state(grid, basis, seed=9, amplitude=0.05)
    n, k = 20, 5
    cfg = stepping.StepperConfig(dt=1e-2, sample_every=k)
    traj = stepping.integrate(st, n * 1e-2, PARAMS, NONE, ZERO_F, cfg)
    assert len(traj.energies) == n // k + 1
    assert len(calls) == n + 1


def test_one_elastic_product_per_state(grid, basis, monkeypatch):
    """n IMEX steps apply A_el n + 1 times, once per state: the step from a
    state and its energy share one product with the fused matrix."""
    products = []
    grid_ops, energy_packed = stepping._grid_ops, energy.energy_packed

    def counting_ops(*args):
        ops = grid_ops(*args)

        def terms(u, v, h):
            products.append("terms")
            return ops.terms(u, v, h)

        return dataclasses.replace(ops, terms=terms)

    def counting_energy(grid, params, u, v, h, el=None):
        if el is None:
            products.append("energy")
        return energy_packed(grid, params, u, v, h, el)

    monkeypatch.setattr(stepping, "_grid_ops", counting_ops)
    monkeypatch.setattr(energy, "energy_packed", counting_energy)
    st = random_state(grid, basis, seed=9, amplitude=0.05)
    n = 20
    cfg = stepping.StepperConfig(dt=1e-2, sample_every=5)
    for scheme in stepping.SCHEMES:
        products.clear()
        stepping.integrate(st, n * 1e-2, PARAMS, NONE, ZERO_F,
                           dataclasses.replace(cfg, scheme=scheme))
        assert products.count("energy") == 0
        # RK4 applies it again at each of its three later stages
        assert products.count("terms") == {"imex_midpoint": n + 1, "explicit_rk4": 4 * n + 1}[scheme]


@pytest.mark.parametrize("forced", [False, True])
def test_sparse_products_per_step(grid, basis, monkeypatch, forced):
    """Every sparse product of a grid run goes through ``_csr_apply``: n
    IMEX steps make 2n + 1 of them (one fused product per state, one
    blockdiag(G, D) product at each predictor), n RK4 steps 4n + 1 (one
    fused product per stage), forced or not."""
    calls = []
    csr_apply = stepping._csr_apply

    def counting(a, x):
        calls.append(a.shape)
        return csr_apply(a, x)

    monkeypatch.setattr(stepping, "_csr_apply", counting)
    st = random_state(grid, basis, seed=14, amplitude=0.05)
    forcing = Forcing(period=0.1, terms=[
        {"target": "f1", "g": {"sin": [1.0]}, "shape": {"jx": 1, "jy": 1}},
        {"target": "f2", "g": {"cos": [1.0]}, "shape": {}}]) if forced else ZERO_F
    spec = DissipationSpec(kind="power", alpha=0.5)
    n = 10
    for scheme, per_step, predictor in (("imex_midpoint", 2, n), ("explicit_rk4", 4, 0)):
        calls.clear()
        stepping.integrate(st, n * 1e-2, PARAMS, spec, forcing,
                           stepping.StepperConfig(dt=1e-2, scheme=scheme, sample_every=3))
        assert len(calls) == per_step * n + 1
        assert calls.count(grid.grad_and_div.shape) == predictor


def test_fields_built_only_for_samples(monkeypatch):
    """Between samples a run builds no field, forced or not: runs of 40 and
    80 steps, each sampled at its start and its end, build the same
    number."""
    g = Grid2D(8, 8, 1.0, 1.0)
    st = random_state(g, build_galerkin_basis(g, PARAMS, m=4), seed=13, amplitude=0.05)
    spec = DissipationSpec(kind="linear", alpha=0.5)
    built = []
    for cls in (ScalarField, VectorField2):
        original = cls.__post_init__

        def counting(self, _original=original):
            built.append(type(self))
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    forced = Forcing(period=0.2, terms=[
        {"target": "f1", "g": {"sin": [1.0]}, "shape": {"jx": 1, "jy": 1, "amplitude": 0.2}},
        {"target": "f2", "g": {"cos": [0.5]}, "shape": {"amplitude": 0.1, "component": 1}},
    ])
    for forcing in (ZERO_F, forced):
        counts = []
        for n in (40, 80):
            built.clear()
            cfg = stepping.StepperConfig(dt=1e-2, sample_every=n)
            traj = stepping.integrate(st, n * 1e-2, PARAMS, spec, forcing, cfg)
            assert len(traj.samples) == 2
            counts.append(len(built))
        assert counts[0] == counts[1], forcing.terms


def test_energy_log_of_bare_samples_matches_integrate(grid, basis):
    """A trajectory rebuilt from bare samples as replay rebuilds it, each
    state's energy_total as its energy, gives the integrator's energy.csv
    table bit for bit, its g column and forcing work included."""
    st = random_state(grid, basis, seed=10, amplitude=0.05)
    spec = DissipationSpec(kind="linear", alpha=0.5)
    forcing = Forcing(period=0.2, terms=[
        {"target": "f1", "g": {"a0": 0.0, "cos": [], "sin": [1.0]},
         "shape": {"jx": 1, "jy": 1, "amplitude": 0.2}},
        {"target": "f2", "g": {"cos": [1.0]}, "shape": {"amplitude": 0.1, "component": 1}},
    ])
    cfg = stepping.StepperConfig(dt=1e-2, sample_every=3)
    traj = stepping.integrate(st, 0.2, PARAMS, spec, forcing, cfg)
    samples = list(traj.samples)
    rebuilt = stepping.Trajectory(samples, [s.t for s in samples],
                                  [energy.energy_total(s, PARAMS) for s in samples],
                                  params=PARAMS, dissipation=spec, forcing=forcing)
    table = energy.energy_table(traj)
    assert table.shape[0] == len(traj.samples)
    assert np.all(table[:, 4] != 0)
    assert energy.energy_table(rebuilt).tobytes() == table.tobytes()


def test_zero_forcing_is_not_evaluated(grid, basis, monkeypatch):
    """Without forcing terms no forcing is evaluated, and the states are
    bit for bit those of a forcing whose only term is zero."""
    calls = []
    original = Forcing.packed_on

    def counting(self, g):
        at = original(self, g)

        def counted(t):
            calls.append(t)
            return at(t)

        return counted

    monkeypatch.setattr(Forcing, "packed_on", counting)
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
    assert len(calls) == 2 * 10
    for a, b in zip(unforced.samples, zero_forced.samples):
        for x, y in ((a.u.ux, b.u.ux), (a.u.uy, b.u.uy), (a.ut.ux, b.ut.ux),
                     (a.ut.uy, b.ut.uy), (a.h.values, b.h.values)):
            assert x.tobytes() == y.tobytes()


def test_forcing_profiles_built_once_per_grid(grid, basis):
    """Over 100 forced steps each term's profile is built once per grid and
    looked up once per run, is read-only, and the forces equal the profiles
    computed afresh, bit for bit."""
    f1 = {"target": "f1", "g": {"sin": [0.5]}, "shape": {"jx": 2, "jy": 1, "amplitude": 0.3}}
    f2 = {"target": "f2", "g": {"cos": [1.0]}, "shape": {"jx": 1, "jy": 2, "component": 1}}
    forcing = Forcing(period=0.5, terms=[f1, f2])
    cfg = stepping.StepperConfig(dt=1e-2, sample_every=50)
    spec = DissipationSpec(kind="linear", alpha=0.5)
    model._profile.cache_clear()
    st = random_state(grid, basis, seed=12, amplitude=0.05)
    stepping.integrate(st, 1.0, PARAMS, spec, forcing, cfg)
    info = model._profile.cache_info()
    assert (info.misses, info.hits) == (2, 0)
    other = Grid2D(10, 12, 1.0, 1.3)
    stepping.integrate(State.zero(other), 1.0, PARAMS, spec, forcing, cfg)
    assert model._profile.cache_info().misses == 4
    for g in (grid, other):
        x, y = g.xy
        t = 0.3
        gt1, gt2 = 0.5 * np.sin(2 * np.pi * t / 0.5), np.cos(2 * np.pi * t / 0.5)
        s1 = 0.3 * np.cos(2 * np.pi * x / g.lx) * np.cos(np.pi * y / g.ly)
        s2 = pin_boundary(1.0 * np.sin(np.pi * x / g.lx) * np.sin(2 * np.pi * y / g.ly))
        assert forcing.f1(g, t).values.tobytes() == (np.zeros(g.shape) + gt1 * s1).tobytes()
        v = forcing.f2(g, t)
        assert v.uy.tobytes() == (np.zeros(g.shape) + gt2 * s2).tobytes()
        assert not v.ux.any()
        for term in forcing.terms:
            assert not model._profile(g, term["target"], **term["shape"]).flags.writeable


# ---------------------------------------------------------------------------
# the array-level IMEX kernel against a field-level reference


def _dense_columns(apply, n: int) -> np.ndarray:
    """Dense matrix of a linear map on R^n, one unit vector at a time."""
    cols = [apply(e) for e in np.eye(n)]
    return np.column_stack(cols)


def _field_system(g, params, spec, forcing):
    """The system written with the field API: dense matrices of lame_apply
    and laplacian_neumann, and the explicit terms (coupling, forcing and the
    whole dissipation law, over rho_m) of fields u', h at time t."""
    def forces(v, h, t):
        lor = lorentz_force(h, params)
        f2 = forcing.f2(g, t)
        damp = dissipation_eval(spec, v)
        fx = pin_boundary((lor.ux + f2.ux - damp.ux) / params.rho_m)
        fy = pin_boundary((lor.uy + f2.uy - damp.uy) / params.rho_m)
        fh = induction_term(v, h, params).values + forcing.f1(g, t).values
        return pack_interior(VectorField2(g, fx, fy, bc="dirichlet_zero")), fh.ravel()

    a_el = _dense_columns(
        lambda e: pack_interior(lame_apply(unpack_interior(g, e), params.mu, params.lam)),
        2 * g.n_interior)
    lap = _dense_columns(
        lambda e: laplacian_neumann(ScalarField(g, e.reshape(g.shape), bc="neumann")).values.ravel(),
        g.n_nodes)
    return a_el, lap, forces


def reference_imex(state, params, spec, forcing, dt):
    """One IMEX midpoint step with dense solves: elasticity, diffusion and
    the linear damping implicit, the coupling, the forcing and the
    superlinear damping at an explicit midpoint."""
    g = state.grid
    a = 0.5 * dt
    rho = params.rho_m
    alpha = 0.0 if spec.kind == "none" else spec.alpha
    a_el, lap, field_forces = _field_system(g, params, spec, forcing)

    def forces(v, h, t):    # the linear damping goes back to the implicit side
        fu, fh = field_forces(unpack_interior(g, v),
                              ScalarField(g, h.reshape(g.shape), bc="neumann"), t)
        return fu + alpha * v / rho, fh

    n_u, n_h = a_el.shape[0], lap.shape[0]
    u, v, h = state.y
    fu0, fh0 = forces(v, h, state.t)
    v_hat = v + a * ((-(a_el @ u) - alpha * v) / rho + fu0)
    h_hat = h + a * (params.nu1 * (lap @ h) + fh0)
    fu, fh = forces(v_hat, h_hat, state.t + a)
    h_new = np.linalg.solve(np.eye(n_h) - a * params.nu1 * lap,
                            h + a * params.nu1 * (lap @ h) + dt * fh)
    v_mid = np.linalg.solve((2.0 * rho + dt * alpha) * np.eye(n_u) + dt * a * a_el,
                            2.0 * rho * v + dt * (-(a_el @ u) + rho * fu))
    return State(g, (u + dt * v_mid, 2.0 * v_mid - v, h_new), state.t + dt)


def reference_rk4(state, params, spec, forcing, dt):
    """One classical RK4 step of the field-level right-hand side, every
    term explicit."""
    g = state.grid
    a_el, lap, forces = _field_system(g, params, spec, forcing)

    def rates(u, v, h, t):
        fu, fh = forces(unpack_interior(g, v), ScalarField(g, h.reshape(g.shape), bc="neumann"), t)
        return v, -(a_el @ u) / params.rho_m + fu, params.nu1 * (lap @ h) + fh

    y, t = state.y, state.t
    k1 = rates(*y, t)
    k2 = rates(*(x + 0.5 * dt * k for x, k in zip(y, k1)), t + 0.5 * dt)
    k3 = rates(*(x + 0.5 * dt * k for x, k in zip(y, k2)), t + 0.5 * dt)
    k4 = rates(*(x + dt * k for x, k in zip(y, k3)), t + dt)
    new = [x + dt / 6.0 * (p + 2.0 * q + 2.0 * r + w) for x, p, q, r, w in zip(y, k1, k2, k3, k4)]
    return State(g, new, t + dt)


REFERENCES = {"imex_midpoint": reference_imex, "explicit_rk4": reference_rk4}


dissipations = st.one_of(
    st.just(DissipationSpec(kind="none")),
    st.builds(DissipationSpec, kind=st.just("linear"), alpha=st.floats(0.1, 3.0)),
    st.builds(DissipationSpec, kind=st.just("power"), alpha=st.floats(0.0, 3.0),
              k1=st.floats(0.0, 2.0), p=st.floats(3.0, 4.0)),
)
materials = st.builds(MaterialParams, rho_m=st.floats(0.5, 3.0), mu=st.floats(0.2, 3.0),
                      lam=st.floats(0.2, 3.0), nu1=st.floats(0.05, 2.0),
                      mu0=st.floats(0.2, 3.0), b0=st.floats(-2.0, 2.0))
grids = st.builds(Grid2D, st.integers(4, 24), st.integers(4, 24),
                  st.floats(0.2, 5.0), st.floats(0.2, 5.0))


@pytest.mark.parametrize("scheme", list(stepping.SCHEMES))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(grid=grids, params=materials, spec=dissipations, dt=st.floats(1e-3, 2e-2),
       t=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
@example(grid=Grid2D(20, 6, 0.4, 3.0), params=PARAMS, spec=NONE, dt=1e-2, t=0.3, seed=1)
@example(grid=Grid2D(5, 23, 4.5, 0.3), params=PARAMS,
         spec=DissipationSpec(kind="power", alpha=0.5), dt=1e-2, t=0.0, seed=2)
def test_step_matches_field_reference(scheme, grid, params, spec, dt, t, seed):
    """One kernel step (packed arrays; for IMEX banded Cholesky solves with
    interleaved and reordered DOFs) equals the field-level reference with
    dense operators to 1e-12 relative on every field, forced in f1 and f2,
    on grids that are wider than tall and taller than wide."""
    rng = np.random.default_rng(seed)
    forcing = Forcing(period=float(rng.uniform(0.5, 2.0)), terms=[
        {"target": "f1", "g": {"a0": 0.1, "sin": [1.0]},
         "shape": {"jx": 1, "jy": 2, "amplitude": float(rng.uniform(-1, 1))}},
        {"target": "f2", "g": {"cos": [1.0, 0.5]},
         "shape": {"jx": 2, "jy": 1, "amplitude": float(rng.uniform(-1, 1)),
                   "component": int(rng.integers(2))}},
    ])
    state = State.from_fields(
        VectorField2(grid, pin_boundary(rng.standard_normal(grid.shape)),
                     pin_boundary(rng.standard_normal(grid.shape)), bc="dirichlet_zero"),
        VectorField2(grid, pin_boundary(rng.standard_normal(grid.shape)),
                     pin_boundary(rng.standard_normal(grid.shape)), bc="dirichlet_zero"),
        ScalarField(grid, rng.standard_normal(grid.shape), bc="neumann"),
        t,
    )
    ops = stepping._grid_ops(grid, dt, params, spec, forcing)
    got = State(grid, stepping.step(ops, state.y, t, stepping.StepperConfig(dt=dt, scheme=scheme)),
                t + dt)
    want = REFERENCES[scheme](state, params, spec, forcing, dt)
    for x, y in ((got.u.ux, want.u.ux), (got.u.uy, want.u.uy), (got.ut.ux, want.ut.ux),
                 (got.ut.uy, want.ut.uy), (got.h.values, want.h.values)):
        assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))


def test_basis_build_leaves_the_cached_operators_alone():
    """A grid trajectory stepped after an eigenbasis build and an abs() of
    the cached Lame matrix, with the same caches, is byte for byte the one
    stepped before them: neither reorders a cached matrix's sums."""
    g = Grid2D(20, 20, 1.0, 1.0)
    params = MaterialParams(rho_m=1.0, mu=1.3, lam=0.7, nu1=0.1, mu0=1.0, b0=1.0)
    u = VectorField2.from_functions(
        g, lambda x, y: 0.1 * np.sin(np.pi * x) * np.sin(2 * np.pi * y),
        lambda x, y: 0.05 * x * (1 - x) * y * (1 - y), bc="dirichlet_zero")
    h = ScalarField.from_function(g, lambda x, y: 0.1 * np.cos(np.pi * x * y), bc="neumann")
    state = State.from_fields(u, VectorField2.zeros(g, bc="dirichlet_zero"), h)
    cfg = stepping.StepperConfig(dt=2e-3, sample_every=5)

    def run():
        traj = stepping.integrate(state, 0.02, params, NONE, ZERO_F, cfg)
        states = [a.tobytes() for s in traj.samples
                  for a in (s.u.ux, s.u.uy, s.ut.ux, s.ut.uy, s.h.values)]
        return states, energy.energy_table(traj).tobytes()

    before = run()
    assert 2 * g.n_interior >= model.LANCZOS_MIN_DOF    # the build runs eigsh
    build_galerkin_basis(g, params, m=6, m_magnetic=2)
    abs(lame_operator_matrix(g, params.mu, params.lam))
    assert run() == before


def test_factor_refuses_asymmetric_matrix():
    """An asymmetric implicit matrix is a bug, not bad input: the factor
    builder raises, and not as a validation error."""
    m = sparse.csr_array(np.array([[4.0, 1.0, 0.0], [1.0 + 1e-12, 4.0, 1.0], [0.0, 1.0, 4.0]]))
    with pytest.raises(ValueError, match="not symmetric") as err:
        stepping._banded_cholesky(m, np.arange(3))
    assert not isinstance(err.value, MelabError)


def test_factor_memory_bounded_at_64():
    """At 64 x 64 (7938 vector unknowns) five IMEX steps run, and the
    cached banded factors of both implicit matrices hold at most 20 MB (a
    dense LU of the elastic one alone would hold about 500 MB)."""
    g = Grid2D(64, 64, 1.0, 1.0)
    u = VectorField2.from_functions(
        g, lambda x, y: 0.1 * np.sin(np.pi * x) * np.sin(np.pi * y),
        lambda x, y: 0.05 * np.sin(2 * np.pi * x) * np.sin(np.pi * y), bc="dirichlet_zero")
    h = ScalarField.from_function(g, lambda x, y: 0.1 * np.cos(np.pi * x), bc="neumann")
    spec = DissipationSpec(kind="linear", alpha=0.5)
    cfg = stepping.StepperConfig(dt=1e-3, sample_every=5)
    traj = stepping.integrate(State.from_fields(u, VectorField2.zeros(g, bc="dirichlet_zero"), h),
                              5e-3, PARAMS, spec, ZERO_F, cfg)
    assert traj.termination.kind == "completed"
    hits = stepping._implicit_ops.cache_info().hits
    ops = stepping._implicit_ops(g, cfg.dt, PARAMS, spec.alpha)
    assert stepping._implicit_ops.cache_info().hits == hits + 1
    held = sum(a.nbytes for factor in ops[-2:] for a in factor if a is not None)
    assert held <= 20e6


@pytest.mark.parametrize("nx, ny", [(12, 12), (30, 6), (6, 30)])
def test_solve_is_scipys_banded_solve(nx, ny):
    """The direct LAPACK solve of both cached factors is byte for byte
    scipy's cho_solve_banded on the reordered right-hand side, and leaves
    the right-hand side alone.  The magnetic factor's order is the identity,
    stored as None, exactly when ny <= nx."""
    rng = np.random.default_rng(nx * ny)
    chol_h, chol_u = stepping._implicit_ops(Grid2D(nx, ny, 1.0, 1.0), 1e-2, PARAMS, 0.5)[-2:]
    assert (chol_h[1] is None) == (ny <= nx) and chol_u[1] is not None
    for cb, order, rank in (chol_h, chol_u):
        for _ in range(3):
            b = rng.standard_normal(cb.shape[1])
            perm = np.arange(len(b)) if order is None else order
            want = scipy.linalg.cho_solve_banded((cb, False), b[perm])[np.argsort(perm)]
            b_copy = b.copy()
            assert stepping._cho_solve((cb, order, rank), b).tobytes() == want.tobytes()
            assert b.tobytes() == b_copy.tobytes()


def test_solve_refuses_short_right_hand_side():
    """A factor whose order is shorter than its matrix is a bug: LAPACK's
    argument error surfaces as ValueError, not as a validation error."""
    cb, order, rank = stepping._implicit_ops(Grid2D(8, 8, 1.0, 1.0), 1e-2, PARAMS, 0.0)[-1]
    with pytest.raises(ValueError, match="illegal value in argument 8") as err:
        stepping._cho_solve((cb, order[:-1], rank), np.ones(cb.shape[1]))
    assert not isinstance(err.value, MelabError)


@pytest.mark.parametrize("nx, ny", [(30, 6), (6, 30)])
def test_factor_bandwidth_follows_shorter_side(nx, ny):
    """Unknowns run along the shorter grid side, and the elastic DOFs are
    interleaved (ux, uy) per node: the half-bandwidths are 4(min(nx, ny) - 1)
    for the elastic matrix and min(nx, ny) + 1 for the magnetic one."""
    ops = stepping._implicit_ops(Grid2D(nx, ny, 1.0, 1.0), 1e-2, PARAMS, 0.0)
    (cb_h, _, _), (cb_u, _, _) = ops[-2:]
    assert cb_u.shape[0] - 1 == 4 * (min(nx, ny) - 1)
    assert cb_h.shape[0] - 1 == min(nx, ny) + 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(grid=grids, params=materials, seed=st.integers(0, 2**32 - 1))
@example(grid=Grid2D(20, 6, 0.4, 3.0), params=PARAMS, seed=1)
@example(grid=Grid2D(5, 23, 4.5, 0.3), params=PARAMS, seed=2)
def test_fused_terms_match_the_blocks(grid, params, seed):
    """A state's terms from its one fused product are byte for byte those
    of the separate blocks: blockdiag(-A_el, nu1 L) @ [u; h] and the
    coupling from blockdiag(G, D) @ [h; (b0 + h) u'], which is also the
    coupling the predictor's force evaluation makes."""
    rng = np.random.default_rng(seed)
    n = 2 * grid.n_interior
    u, v, h = rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(grid.n_nodes)
    ops = stepping._grid_ops(grid, 1e-2, params, NONE, ZERO_F)
    el, lh, (cu, ch) = ops.terms(u, v, h)
    a_el = lame_operator_matrix(grid, params.mu, params.lam)
    lin = sparse.block_diag((-a_el, params.nu1 * grid.lap_neumann), format="csr")
    want = lin @ np.concatenate((u, h))
    assert np.concatenate((el, lh)).tobytes() == want.tobytes()
    bh = params.b0 + h[grid.interior]
    want_cu, want_ch = model.coupling_packed(
        bh, grid.grad_and_div @ np.concatenate((h, bh * v)), params)
    assert cu.tobytes() == want_cu.tobytes() and ch.tobytes() == want_ch.tobytes()
    for got, want in zip(ops.forces(v, h, 0.0, (cu, ch)), ops.forces(v, h, 0.0)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("nx, ny", [(12, 12), (20, 6), (5, 23)])
def test_csr_apply_is_scipys_product(nx, ny):
    """``_csr_apply`` calls scipy's private CSR kernel; on every cached grid
    operator and the fused matrix its bytes are those of ``a @ x``."""
    g = Grid2D(nx, ny, 1.0, 1.3)
    fused = stepping._implicit_ops(g, 1e-2, PARAMS, 0.5)[0]
    mats = [g.ddx, g.ddy, g.lap_neumann, g.lap_dirichlet, g.grad, g.div, g.grad_and_div,
            g.grad_div, lame_operator_matrix(g, PARAMS.mu, PARAMS.lam), fused]
    rng = np.random.default_rng(nx * ny)
    for a in mats:
        x = rng.standard_normal(a.shape[1])
        assert stepping._csr_apply(a, x).tobytes() == (a @ x).tobytes()
