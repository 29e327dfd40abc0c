"""Energy functionals, constants ledger, and the identity residual."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from melab.grid import (
    ContractViolationError,
    Grid2D,
    ParameterError,
    ScalarField,
    VectorField2,
    divergence,
    grad_edge_inner,
    lame_operator_matrix,
    norm_l2,
    pin_boundary,
    unpack_interior,
)
from melab.model import (
    DissipationSpec,
    Forcing,
    MaterialParams,
    State,
    build_galerkin_basis,
    random_state,
)
from melab import analysis, energy, stepping

import field_reference
from field_reference import bilinear_a2


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
    dmat_x, dmat_y = field_reference.derivative_matrices(grid)
    dv = dmat_x @ ux + uy @ dmat_y.T
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


def _forced(period, a2, a1, component=0):
    """Forcing g2(t) sin sin in one component of f2 and g1(t) cos cos in f1."""
    return Forcing(period=period, terms=[
        {"target": "f2", "g": {"cos": [a2]},
         "shape": {"jx": 1, "jy": 1, "amplitude": 1.0, "component": component}},
        {"target": "f1", "g": {"sin": [a1]}, "shape": {"jx": 1, "jy": 1, "amplitude": 1.0}},
    ])


def _smooth_state(g, rng, amplitude, m=6):
    """A random combination of the m lowest closed-form modes, u and u'
    scaled to max |.| = amplitude, h mean-zero of the same size."""
    _, dm = g.dirichlet_modes(m)
    _, nm = g.neumann_modes(m)

    def scaled(x):
        return amplitude * x / np.max(np.abs(x))

    u, v = (scaled(np.concatenate([dm @ rng.standard_normal(m), dm @ rng.standard_normal(m)]))
            for _ in range(2))
    h = scaled(nm[:, 1:] @ rng.standard_normal(m - 1))
    return State(unpack_interior(g, u), unpack_interior(g, v),
                 ScalarField(g, h.reshape(g.shape), bc="neumann"))


def _table_row(state, params):
    """The energy.csv row of the one-sample trajectory of state, by column
    name."""
    traj = stepping.Trajectory([state], [state.t], [energy.energy_total(state, params)],
                               params=params, dissipation=DissipationSpec(),
                               forcing=Forcing.zero())
    return dict(zip(energy.CSV_HEADER.split(","), energy.energy_table(traj)[0]))


def _abs_product(m, x):
    """|m| |x|."""
    return abs(m) @ np.abs(x)


def _abs_form(m, w, x):
    """|x|.(w |m| |x|), the scale of the round-off of x.(w m x)."""
    return float(np.dot(np.abs(x), w * _abs_product(m, x)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(cells=st.tuples(st.integers(4, 24), st.integers(4, 24)).filter(lambda n: n[0] != n[1]),
       sides=unequal_sides, rho_m=st.floats(0.2, 5.0), mu=st.floats(0.1, 5.0),
       lam=st.floats(0.1, 5.0), mu0=st.floats(0.1, 5.0), nu1=st.floats(0.01, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_packed_diagnostics_are_the_field_forms(cells, sides, rho_m, mu, lam, mu0, nu1, seed):
    """Each packed diagnostic equals its field-level reference within 1e-12
    of the form's absolute-value scale: e1, |grad h|^2 and |Lh|^2 of a
    random clamped state, the energy-balance residual of a short forced,
    power-damped run from smooth random data, and |h| and |div u'| of that
    run's samples."""
    g = Grid2D(*cells, *sides)
    params = MaterialParams(rho_m=rho_m, mu=mu, lam=lam, nu1=nu1, mu0=mu0, b0=1.0)
    rng = np.random.default_rng(seed)
    u, ut = (VectorField2(g, pin_boundary(0.1 * rng.standard_normal(g.shape)),
                          pin_boundary(0.1 * rng.standard_normal(g.shape)), bc="dirichlet_zero")
             for _ in range(2))
    s = State(u, ut, ScalarField(g, 0.1 * rng.standard_normal(g.shape), bc="neumann"))
    pu, pv, ph = s.packed()
    a_el, lap = lame_operator_matrix(g, mu, lam), g.lap_neumann
    wv, w = g.vector_weights, g.weights.ravel()

    got = _table_row(s, params)
    assert got["grad_h_sq"] == grad_edge_inner(s.h.values, s.h.values, g)
    e1_scale = 0.5 * (_abs_form(a_el, wv, pv) + float(np.dot(wv, _abs_product(a_el, pu) ** 2))
                      + got["grad_h_sq"])
    assert abs(got["e1"] - field_reference.energy_e1(s, params)) <= 1e-12 * e1_scale
    lh_scale = float(np.dot(w, _abs_product(lap, ph) ** 2))
    assert abs(got["lh_sq"] - field_reference.lh_squared(s.h)) <= 1e-12 * lh_scale
    assert energy.energy_e1(s, params) == got["e1"]
    assert energy.lh_tilde_squared(s.h) == got["lh_sq"]

    spec = DissipationSpec(kind="power", alpha=0.5, k1=1.0, p=3.5)
    traj = stepping.integrate(_smooth_state(g, rng, 0.1), 4e-3, params, spec,
                              _forced(0.05, 0.7, -0.4), stepping.StepperConfig(dt=1e-3))
    want, scale = field_reference.identity_residual(traj, params)
    assert np.all(np.abs(energy.energy_identity_residual(traj, params)["residual"] - want)
                  <= 1e-12 * scale)
    rep = analysis.lasalle_report(traj)
    for k, x in enumerate(traj.samples):
        v = x.packed()[1]
        div_sq = norm_l2(divergence(x.ut)) ** 2
        assert abs(rep["div_ut_l2"][k] ** 2 - div_sq) <= 1e-12 * _abs_form(g.grad_div, wv, v)
        assert rep["h_l2"][k] == pytest.approx(norm_l2(x.h), rel=1e-12)
        assert rep["grad_h_l2"][k] ** 2 == pytest.approx(
            grad_edge_inner(x.h.values, x.h.values, g), rel=1e-12)
        assert rep["energy"][k] == energy.energy_total(x, params)


def test_grad_h_sq_keeps_its_digits_under_a_large_mean():
    """|grad h|^2 is a sum of squared differences of h, so a constant 100
    added to h changes it at round-off of the differences only; a form
    h.(W L h) in h itself would lose digits to cancellation."""
    g = Grid2D(13, 9, 1.3, 0.7)
    delta = 1e-3 * np.random.default_rng(0).standard_normal(g.shape)
    rest = VectorField2.zeros(g, bc="dirichlet_zero")

    def grad_h_sq(h):
        state = State(rest, rest, ScalarField(g, h, bc="neumann"))
        return _table_row(state, PARAMS)["grad_h_sq"]

    assert grad_h_sq(100.0 + delta) == pytest.approx(grad_h_sq(delta), rel=1e-9)


def test_diagnostics_build_no_fields(monkeypatch, grid, basis):
    """The per-state diagnostics work on packed arrays: the energy.csv
    table, the energy-balance residual and the LaSalle report construct no
    ScalarField or VectorField2."""
    s = random_state(grid, basis, seed=6, amplitude=0.1)
    traj = stepping.integrate(s, 0.05, PARAMS, DissipationSpec(kind="power", alpha=0.5),
                              _forced(0.5, 0.2, 0.2), stepping.StepperConfig(dt=1e-2))
    built = []
    for cls in (ScalarField, VectorField2):
        def counting(self, check=cls.__post_init__):
            built.append(type(self).__name__)
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counting)
    for diagnostic in (lambda: energy.energy_table(traj),
                       lambda: energy.energy_identity_residual(traj, PARAMS),
                       lambda: analysis.lasalle_report(traj)):
        diagnostic()
        assert built == []


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


def test_energy_sample_row(grid, basis):
    """energy.csv has one row per sample and one column per CSV_HEADER
    name: the first is the sample time, the last the residual of the
    interval ending at the sample, 0 on the first row."""
    st = random_state(grid, basis, seed=2, amplitude=0.05)
    cfg = stepping.StepperConfig(dt=1e-2, sample_every=2)
    traj = stepping.integrate(st, 0.06, PARAMS, DissipationSpec(kind="none"), Forcing.zero(), cfg)
    table = energy.energy_table(traj)
    assert table.shape == (4, len(energy.CSV_HEADER.split(",")))
    assert list(table[:, 0]) == traj.times
    assert table[0, -1] == 0.0
    assert list(table[1:, -1]) == list(energy.energy_identity_residual(traj, PARAMS)["residual"])


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


@settings(max_examples=30, deadline=None, derandomize=True)
@given(cells=unequal_cells, sides=unequal_sides,
       params=st.builds(MaterialParams, rho_m=st.floats(0.2, 5.0), mu=st.floats(0.1, 5.0),
                        lam=st.floats(0.1, 5.0), nu1=st.floats(0.01, 1.0),
                        mu0=st.floats(0.1, 5.0), b0=st.floats(0.0, 2.0)),
       kind=st.sampled_from(["none", "linear", "power"]), alpha=st.floats(0.1, 2.0),
       k1=st.floats(0.0, 2.0), p=st.floats(3.0, 4.0),
       forcing=st.none() | st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                                     st.integers(0, 1)),
       amplitude=st.floats(0.05, 0.5), seed=st.integers(0, 2**32 - 1))
def test_identity_residual_is_second_order(cells, sides, params, kind, alpha, k1, p, forcing,
                                           amplitude, seed):
    """The energy-balance residual is O(dt^2): halving dt from 0.01 to
    0.005 cuts its max abs by more than 3, on random grids, aspect ratios
    and materials, for every dissipation kind, forced (period 2) and
    unforced, from smooth random data.

    The order is asymptotic, so the coarse step must resolve the run.  The
    run excites the data's six modes and, through the coupling, the first
    mode across the short side.  With top the largest of their eigenvalues
    and c^2 = (lam + 2 mu + mu0 (b0 + amplitude)^2) / rho_m the squared
    speed of the fastest wave, dt times the frequency c sqrt(top) and
    times the diffusion rate nu1 top is at most 0.2, and the
    magnetoacoustic wave, stepped explicitly, crosses at most 0.2 cells
    per step.  Coarser steps are still stable at most draws, but their
    ratio can fall below 3 before it tends to 4."""
    g = Grid2D(*cells, *sides)
    c_mag_sq = params.mu0 * (params.b0 + amplitude) ** 2 / params.rho_m
    c_sq = (params.lam + 2.0 * params.mu) / params.rho_m + c_mag_sq
    top = max(g.dirichlet_modes(6)[0][-1], (np.pi / min(g.lx, g.ly)) ** 2)
    rate = max(np.sqrt(c_sq * top), params.nu1 * top)
    assume(0.01 * rate <= 0.2 and 0.01 * np.sqrt(c_mag_sq) <= 0.2 * min(g.dx, g.dy))
    spec = DissipationSpec(kind=kind, alpha=0.0 if kind == "none" else alpha, k1=k1, p=p)
    f = Forcing.zero() if forcing is None else _forced(2.0, *forcing)
    s = _smooth_state(g, np.random.default_rng(seed), amplitude)
    res = [energy.energy_identity_residual(
               stepping.integrate(s, 0.1, params, spec, f, stepping.StepperConfig(dt=dt)),
               params)["max_abs"]
           for dt in (0.01, 0.005)]
    assert res[0] > 3.0 * res[1], res


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
    lh = np.array([field_reference.lh_squared(s.h) for s in traj.samples])
    ts = np.array([s.t for s in traj.samples])
    want = np.max(np.cumsum(np.concatenate([[0.0], 0.5 * (lh[1:] + lh[:-1]) * np.diff(ts)])))
    assert full == pytest.approx(want, rel=1e-10)
    half = len(traj.samples) // 2
    traj_short = stepping.Trajectory(
        traj.samples[:half], traj.times[:half], traj.energies[:half],
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
