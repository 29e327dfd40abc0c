"""Energy functionals, constants ledger, and the identity residual."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from melab.grid import (
    ContractViolationError,
    Grid2D,
    ParameterError,
    ScalarField,
    VectorField2,
    grad_edge_inner,
    pin_boundary,
)
from melab.model import (
    DissipationSpec,
    Forcing,
    MaterialParams,
    State,
    build_galerkin_basis,
    random_state,
)
from melab import energy, stepping


PARAMS = MaterialParams(rho_m=1.0, mu=1.0, lam=0.5, nu1=0.1, mu0=1.0, b0=1.0)


@pytest.fixture(scope="module")
def grid():
    return Grid2D(16, 16, 1.0, 1.0)


@pytest.fixture(scope="module")
def basis(grid):
    return build_galerkin_basis(grid, PARAMS, m=6, m_magnetic=6)


def test_energy_zero_state(grid):
    assert energy.energy_total(State.zero(grid), PARAMS) == 0.0
    assert energy.energy_e1(State.zero(grid), PARAMS) == 0.0


def test_energy_scales_quadratically(grid, basis):
    st = random_state(grid, basis, seed=0, amplitude=0.1)
    e1 = energy.energy_total(st, PARAMS)
    e4 = energy.energy_total(st.scaled(2.0), PARAMS)
    assert e4 == pytest.approx(4.0 * e1, rel=1e-12)
    ep = energy.energy_perturbation(st.u, st.ut, st.h, PARAMS)
    assert ep > 0


def test_perturbation_energy_weights_kinetic_by_rho_m():
    """The perturbation energy is the total energy's form, kinetic weight
    rho_m included, so the decay experiment and the orbit's energy
    distance measure a triple alike."""
    g = Grid2D(8, 8, 1.0, 1.0)
    params = MaterialParams(rho_m=2.0, mu=1.0, lam=0.5, nu1=0.1, mu0=1.0, b0=1.0)
    st = random_state(g, build_galerkin_basis(g, params, m=6), seed=0, amplitude=0.1)
    assert energy.energy_perturbation(st.u, st.ut, st.h, params) == energy.energy_total(st, params)


def edge_energy(grid, params, ux, uy, vx, vy, h):
    """Reference: the total energy of nodal arrays by the edge quadrature,
    mu times the edge gradient sum plus (lam + mu) times the weighted
    collocated divergence squared for the elastic term."""
    w = grid.weights
    kin = params.rho_m * float(np.sum((vx * vx + vy * vy) * w))
    el = params.mu * (grad_edge_inner(ux, ux, grid) + grad_edge_inner(uy, uy, grid))
    dv = grid.dmat_x @ ux + uy @ grid.dmat_y.T
    el += (params.lam + params.mu) * float(np.sum(dv * dv * w))
    mag = params.mu0 * float(np.sum(h * h * w))
    return 0.5 * (kin + el + mag)


unequal_cells = st.tuples(st.integers(4, 20), st.integers(4, 20)).filter(lambda n: n[0] != n[1])
unequal_sides = st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0)).filter(lambda s: s[0] != s[1])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(cells=unequal_cells, sides=unequal_sides, rho_m=st.floats(0.2, 5.0), mu=st.floats(0.1, 5.0),
       lam=st.floats(0.1, 5.0), mu0=st.floats(0.1, 5.0), seed=st.integers(0, 2**32 - 1))
def test_energy_form_is_the_edge_energy(cells, sides, rho_m, mu, lam, mu0, seed):
    """On clamped fields the packed form with W_v A_el is the edge-quadrature
    energy to 1e-13 relative, on grids wider than tall and taller than
    wide."""
    g = Grid2D(*cells, *sides)
    params = MaterialParams(rho_m=rho_m, mu=mu, lam=lam, nu1=0.1, mu0=mu0, b0=1.0)
    rng = np.random.default_rng(seed)
    u, ut = (VectorField2(g, pin_boundary(rng.standard_normal(g.shape)),
                          pin_boundary(rng.standard_normal(g.shape)), bc="dirichlet_zero")
             for _ in range(2))
    h = ScalarField(g, rng.standard_normal(g.shape), bc="neumann")
    want = edge_energy(g, params, u.ux, u.uy, ut.ux, ut.uy, h.values)
    got = energy.energy_total(State(u, ut, h), params)
    assert abs(got - want) <= 1e-13 * want
    assert energy.energy_perturbation(u, ut, h, params) == got


def test_perturbation_energy_refuses_unclamped_velocity(grid, basis):
    """The packed form reads interior values only, so a perturbation whose
    v or v' is not tagged clamped is refused rather than measured short."""
    s = random_state(grid, basis, seed=3, amplitude=0.1)
    loose = VectorField2(grid, s.ut.ux, s.ut.uy, bc="none")
    with pytest.raises(ContractViolationError):
        energy.energy_perturbation(s.u, loose, s.h, PARAMS)


def test_lyapunov_g_equivalent_to_energy(grid, basis):
    """For admissible eps the shifted functional stays within constant
    multiples of the energy."""
    st = random_state(grid, basis, seed=1, amplitude=0.1)
    alpha = 1.0
    c_omega = energy.poincare_constant(grid, PARAMS)
    eps = energy.admissible_shift(alpha, PARAMS.nu1, c_omega)
    e = energy.energy_total(st, PARAMS)
    g = energy.lyapunov_g(st, eps, alpha, PARAMS)
    assert 0.25 * e <= g <= 4.0 * e
    with pytest.raises(ParameterError):
        energy.lyapunov_g(st, -1.0, alpha, PARAMS)


def test_poincare_constant_sharp(grid, basis):
    """|v| <= C a2(v,v)^{1/2} with equality on the ground mode."""
    from melab.grid import bilinear_a2, norm_l2

    c = energy.poincare_constant(grid, PARAMS)
    v = basis.elastic_mode(0)
    ratio = norm_l2(v) / np.sqrt(bilinear_a2(v, v, PARAMS.mu, PARAMS.lam))
    assert ratio == pytest.approx(c, rel=1e-10)
    for j in range(1, basis.m):
        v = basis.elastic_mode(j)
        r = norm_l2(v) / np.sqrt(bilinear_a2(v, v, PARAMS.mu, PARAMS.lam))
        assert r <= c + 1e-12


def test_ledger_roundtrip():
    led = energy.ConstantsLedger()
    led.set("c_omega", 0.3, "measured")
    led.set("c_mu", 1.0, "configured")
    text = led.to_json()
    again = energy.ConstantsLedger.from_json(text)
    assert again.value("c_omega") == 0.3
    doc = json.loads(text)
    assert doc["c_mu"]["provenance"] == "configured"
    with pytest.raises(Exception):
        led.set("bad", 1.0, "guessed")


def test_energy_sample_row():
    s = energy.EnergySample(t=1.0, e_total=2.0, e1=3.0)
    row = s.row(residual=0.5)
    assert len(row) == len(energy.CSV_HEADER.split(","))
    assert row[0] == 1.0 and row[-1] == 0.5


def test_identity_residual_unforced(grid, basis):
    """dE/dt = -mu0*nu1*|grad h|^2 closes to O(dt^2) on the midpoint
    scheme."""
    st = random_state(grid, basis, seed=3, amplitude=0.05)
    cfg = stepping.StepperConfig(dt=2e-3, sample_every=1)
    traj = stepping.integrate(st, 0.2, PARAMS, DissipationSpec(kind="none"), Forcing.zero(), cfg)
    rep = energy.energy_identity_residual(traj, PARAMS)
    assert rep["max_abs"] < 5e-6
    cfg2 = stepping.StepperConfig(dt=1e-3, sample_every=1)
    traj2 = stepping.integrate(st, 0.2, PARAMS, DissipationSpec(kind="none"), Forcing.zero(), cfg2)
    rep2 = energy.energy_identity_residual(traj2, PARAMS)
    assert rep["max_abs"] / rep2["max_abs"] > 3.0


def test_identity_residual_forced_damped(grid, basis):
    """The residual of the full balance (dissipation + forcing power)
    stays O(dt^2) with linear damping and periodic forcing."""
    st = random_state(grid, basis, seed=4, amplitude=0.05)
    spec = DissipationSpec(kind="linear", alpha=0.8)
    f = Forcing(period=0.5, terms=[
        {"target": "f2", "g": {"a0": 0.0, "cos": [1.0], "sin": []},
         "shape": {"jx": 1, "jy": 1, "amplitude": 0.2, "component": 0}},
        {"target": "f1", "g": {"a0": 0.0, "cos": [], "sin": [1.0]},
         "shape": {"jx": 1, "jy": 1, "amplitude": 0.2}},
    ])
    cfg = stepping.StepperConfig(dt=1e-3, sample_every=1)
    traj = stepping.integrate(st, 0.2, PARAMS, spec, f, cfg)
    rep = energy.energy_identity_residual(traj, PARAMS)
    assert rep["max_abs"] < 1e-5


def test_decay_rate_fit():
    ts = np.linspace(0.0, 5.0, 200)
    vals = 3.0 * np.exp(-0.7 * ts)
    rate, r2 = energy.decay_rate_fit(ts, vals)
    assert rate == pytest.approx(-0.7, abs=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-10)
    rate, _ = energy.decay_rate_fit(ts, vals, window=(1.0, 4.0))
    assert rate == pytest.approx(-0.7, abs=1e-10)
    with pytest.raises(ParameterError):
        energy.decay_rate_fit(ts[:5], vals[:5])


def test_accumulate_ch_monotone(grid, basis):
    st = random_state(grid, basis, seed=5, amplitude=0.1)
    cfg = stepping.StepperConfig(dt=2e-3, sample_every=5)
    traj = stepping.integrate(st, 0.3, PARAMS, DissipationSpec(kind="none"), Forcing.zero(), cfg)
    full = energy.accumulate_ch(traj)
    traj_short = stepping.Trajectory(
        samples=traj.samples[: len(traj.samples) // 2],
        params=PARAMS, dissipation=traj.dissipation, forcing=traj.forcing,
    )
    assert full >= energy.accumulate_ch(traj_short) - 1e-15
    assert full > 0


def test_assemble_constants(grid, basis):
    led = energy.assemble_constants(grid, PARAMS, alpha=1.0, basis=basis,
                                    c_e=0.5, c_h=0.2, ep0=1e-4)
    for name in ("c_omega", "eps", "eta", "c_big0", "c_big1"):
        assert led.value(name) >= 0
    assert led.entries["c_omega"]["provenance"] == "measured"
    assert led.value("c_big1") <= led.value("c_big0") / (2.0 + 1.0) + 1e-12


@pytest.mark.parametrize("extra", [{}, {"c_e": 0.01}, {"c_e": 0.01, "c_h": 0.2, "ep0": 1e-4}])
def test_constants_need_no_magnetic_modes(grid, extra):
    """The Neumann gap is a closed form, so a basis with one magnetic mode
    gives the same ledger as one with eight."""
    one = build_galerkin_basis(grid, PARAMS, m=8, m_magnetic=1)
    eight = build_galerkin_basis(grid, PARAMS, m=8, m_magnetic=8)
    a = energy.assemble_constants(grid, PARAMS, alpha=1.0, basis=one, **extra)
    b = energy.assemble_constants(grid, PARAMS, alpha=1.0, basis=eight, **extra)
    assert a.entries == b.entries
    assert a.value("c_big0") > 0
    no_basis = energy.assemble_constants(grid, PARAMS, alpha=1.0, **extra)
    for name, entry in b.entries.items():
        assert no_basis.value(name) == pytest.approx(entry["value"], rel=1e-12)


def test_c_big0_carries_the_neumann_gap():
    """Without c_e the coercivity constant is min(alpha, eta, nu1*lam_N1/2),
    here the last: lam_N1 from a dense eigensolve of the Neumann Laplacian."""
    g = Grid2D(12, 9, 1.2, 0.8)
    w = g.weights.ravel()
    sym = np.sqrt(w)[:, None] * -g.lap_neumann.toarray() / np.sqrt(w)[None, :]
    gap = np.linalg.eigvalsh(0.5 * (sym + sym.T))[1]
    led = energy.assemble_constants(g, PARAMS, alpha=1.0)
    assert 0.5 * PARAMS.nu1 * gap < min(1.0, led.value("eta"))
    assert led.value("c_big0") == pytest.approx(0.5 * PARAMS.nu1 * gap, rel=1e-12)
