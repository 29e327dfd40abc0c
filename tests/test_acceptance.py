"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The criteria exercise the full pipeline at desk scale: discrete energy
identity and adjointness, mean conservation, the continuation-lemma and
closed-form condition oracles, the periodic orbit and its perturbation
decay, ball mapping, the disk Bessel mode, long-run limit-set trends, and
Galerkin/grid consistency.
"""

import time

import numpy as np
import pytest

from melab.grid import (
    Grid2D,
    ScalarField,
    VectorField2,
    divergence,
    gradient,
    inner,
    lame_apply,
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
from melab import analysis, energy, orbit, stepping

from mpmath_reference import (
    condition_regularity_reference,
    condition_stability_reference,
    r_critical_reference,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE {num:02d}] {name}: {status}{suffix}")
    return ok


# ---------------------------------------------------------------------------
# shared heavyweight fixtures

ORBIT_PARAMS = MaterialParams(rho_m=1.0, mu=1.0, lam=0.5, nu1=1.0, mu0=1.0, b0=1.0)
ORBIT_SPEC = DissipationSpec(kind="linear", alpha=1.0)
ORBIT_PERIOD = 2.0
ORBIT_FORCING = Forcing(period=ORBIT_PERIOD, terms=[
    {"target": "f2", "g": {"a0": 0.0, "cos": [1.0], "sin": []},
     "shape": {"jx": 1, "jy": 1, "amplitude": 0.05, "component": 0}},
    {"target": "f1", "g": {"a0": 0.0, "cos": [], "sin": [1.0]},
     "shape": {"jx": 1, "jy": 1, "amplitude": 0.02}},
])


@pytest.fixture(scope="module")
def orbit_grid():
    return Grid2D(24, 24, 1.0, 1.0)


@pytest.fixture(scope="module")
def periodic_orbit(orbit_grid):
    cfg = stepping.StepperConfig(dt=2e-3, sample_every=100)
    t0 = time.perf_counter()
    po = orbit.find_periodic(
        State.zero(orbit_grid), ORBIT_PARAMS, ORBIT_SPEC, ORBIT_FORCING, cfg,
        tol=1e-8, max_iter=30,
    )
    po.wall_time = time.perf_counter() - t0
    return po


# ---------------------------------------------------------------------------

def test_criterion_01_energy_identity():
    """Unforced, mechanically undamped 32x32 run at nu1 = 0.1: max per-step
    energy-balance residual <= 1e-6 at dt = 1e-3 (within 60 s), improving
    by >= 3.6x when dt halves."""
    g = Grid2D(32, 32, 1.0, 1.0)
    params = MaterialParams(rho_m=1.0, mu=1.0, lam=0.5, nu1=0.1, mu0=1.0, b0=1.0)
    basis = build_galerkin_basis(g, params, m=8, m_magnetic=8)
    st = random_state(g, basis, seed=3, amplitude=0.05)
    spec, f = DissipationSpec(kind="none"), Forcing.zero()

    t0 = time.perf_counter()
    traj = stepping.integrate(st, 1.0, params, spec, f,
                              stepping.StepperConfig(dt=1e-3, sample_every=1))
    res = energy.energy_identity_residual(traj, params)["max_abs"]
    wall = time.perf_counter() - t0

    traj2 = stepping.integrate(st, 1.0, params, spec, f,
                               stepping.StepperConfig(dt=5e-4, sample_every=1))
    res2 = energy.energy_identity_residual(traj2, params)["max_abs"]

    ok = res <= 1e-6 and res / res2 >= 3.6 and wall <= 60.0
    assert _report(1, "energy identity residual", ok,
                   f"res={res:.3e}, ratio={res / res2:.2f}, wall={wall:.1f}s")


def test_criterion_02_mean_conservation():
    """mean(h) drifts by <= 1e-12 over 1e4 steps."""
    g = Grid2D(16, 16, 1.0, 1.0)
    params = MaterialParams(rho_m=1.0, mu=1.0, lam=0.5, nu1=0.1, mu0=1.0, b0=1.0)
    basis = build_galerkin_basis(g, params, m=6, m_magnetic=6)
    u, v, h = random_state(g, basis, seed=2, amplitude=0.1).y
    st = State(g, (u, v, h + 0.1))    # mean(h) = 0.1
    traj = stepping.integrate(st, 10.0, params, DissipationSpec(kind="none"),
                              Forcing.zero(), stepping.StepperConfig(dt=1e-3, sample_every=500))
    means = [float(np.sum(s.h.values * g.weights)) / (g.lx * g.ly) for s in traj.samples]
    drift = max(abs(m - means[0]) for m in means)
    ok = drift <= 1e-12
    assert _report(2, "mean(h) conservation", ok, f"drift={drift:.2e} over 10^4 steps")


def test_criterion_03_adjointness_suite():
    """Gradient/divergence duality on 100 random pairs and symmetry of the
    elastic operator, both to 1e-12 relative."""
    g = Grid2D(17, 15, 1.1, 0.9)
    rng = np.random.default_rng(0)
    worst_dual = 0.0
    for _ in range(100):
        h = ScalarField(g, rng.standard_normal(g.shape))
        w = VectorField2(g, pin_boundary(rng.standard_normal(g.shape)),
                         pin_boundary(rng.standard_normal(g.shape)), bc="dirichlet_zero")
        lhs = inner(gradient(h), w)
        rhs = -inner(h, divergence(w))
        worst_dual = max(worst_dual, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    worst_sym = 0.0
    for _ in range(100):
        u = VectorField2(g, pin_boundary(rng.standard_normal(g.shape)),
                         pin_boundary(rng.standard_normal(g.shape)), bc="dirichlet_zero")
        w = VectorField2(g, pin_boundary(rng.standard_normal(g.shape)),
                         pin_boundary(rng.standard_normal(g.shape)), bc="dirichlet_zero")
        a = inner(lame_apply(u, 1.0, 0.6), w)
        b = inner(lame_apply(w, 1.0, 0.6), u)
        worst_sym = max(worst_sym, abs(a - b) / max(abs(a), abs(b), 1.0))
    ok = worst_dual <= 1e-12 and worst_sym <= 1e-12
    assert _report(3, "adjointness suite", ok,
                   f"duality={worst_dual:.2e}, symmetry={worst_sym:.2e}")


def test_criterion_04_botsenyuk_oracle():
    """1000 randomized admissible (a, gamma) series: roots solve the
    quadratic to 1e-12; constructed certificates pass, constructed
    violations are detected."""
    rng = np.random.default_rng(7)
    worst_root = 0.0
    certificates_ok = True
    violations_caught = True
    for trial in range(1000):
        n = int(rng.integers(8, 40))
        t = np.sort(rng.uniform(0.0, 5.0, n))
        t += np.arange(n) * 1e-6  # enforce strict increase
        a = float(rng.uniform(0.1, 5.0))
        gamma = rng.uniform(0.0, 0.9, n) / (4.0 * a)
        disc = 1.0 - 4.0 * a * gamma
        xi1 = (1.0 - np.sqrt(disc)) / (2.0 * a)
        xi2 = (1.0 + np.sqrt(disc)) / (2.0 * a)
        for z in (xi1, xi2):
            worst_root = max(worst_root, float(np.max(np.abs(a * z**2 - z + gamma))))
        margin = 1e-3 * (1.0 + xi1)
        x_cert = np.maximum(xi1 - margin, 0.0)
        rep = analysis.botsenyuk_check(analysis.BotsenyukInput(t, x_cert, gamma, a))
        if not (rep["admissible"] and rep["conclusion_holds"]):
            certificates_ok = False
        if trial % 10 == 0:
            x_bad = x_cert.copy()
            k = n // 2
            x_bad[k:] = xi1[k:] + 0.1 * (1.0 + xi1[k:])
            rep = analysis.botsenyuk_check(analysis.BotsenyukInput(t, x_bad, gamma, a))
            if rep.get("conclusion_holds", False):
                violations_caught = False
        root_rep = analysis.botsenyuk_check(analysis.BotsenyukInput(t, x_cert, gamma, a))
        worst_root = max(worst_root, float(np.max(np.abs(
            a * root_rep["xi1"]**2 - root_rep["xi1"] + gamma))))
    ok = worst_root <= 1e-12 and certificates_ok and violations_caught
    assert _report(4, "continuation lemma oracle", ok,
                   f"root residual={worst_root:.2e}, certificates={certificates_ok}, "
                   f"violations detected={violations_caught}")


def test_criterion_05_condition_formulas():
    """Two-path agreement to 1e-14 for the closed-form conditions and the
    critical radius; r_critical(0) = 0; strict monotonicity on a 50-point
    forcing scan."""
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(50):
        e, f, nu, c = rng.uniform(0, 2), rng.uniform(0, 1), rng.uniform(0.1, 3), rng.uniform(0.1, 2)
        a = analysis.condition_regularity(e, f, nu, c)["lhs"]
        b = condition_regularity_reference(e, f, nu, c)["lhs"]
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
        nu2, ce, co, cs = rng.uniform(0.1, 3, 4)
        a = analysis.condition_stability(nu2, ce, co, cs)["threshold"]
        b = condition_stability_reference(nu2, ce, co, cs)["threshold"]
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    consts = {"C1": 0.5, "C2": 0.02, "C3": 0.1, "eps": 2.5}
    fs = np.linspace(0.0, 0.3, 50)
    vals = []
    for f in fs:
        rc = orbit.r_critical(f, 1.0, 0.2, 2.0, consts)
        ref = r_critical_reference(f, 1.0, 0.2, 2.0, consts)
        worst = max(worst, abs(rc.value - ref) / max(1.0, abs(ref)))
        vals.append(rc.value)
    zero_at_zero = vals[0] == 0.0
    monotone = all(b > a for a, b in zip(vals[:-1], vals[1:]))
    ok = worst <= 1e-14 and zero_at_zero and monotone
    assert _report(5, "condition formulas two-path", ok,
                   f"worst diff={worst:.2e}, r_cr(0)={vals[0]}, monotone={monotone}")


def test_criterion_06_periodic_orbit(periodic_orbit):
    """alpha = 1, nu1 = 1, T = 2, small trigonometric forcing, 24x24:
    Picard converges to residual <= 1e-8 in <= 30 iterations within 10
    minutes; archived endpoint mismatch equals the reported residual."""
    po = periodic_orbit
    endpoint = po.trajectory.final().with_time(0.0)
    mismatch = orbit.energy_distance(endpoint, po.z_star, ORBIT_PARAMS)
    ok = (
        po.converged
        and po.residual <= 1e-8
        and po.iterations <= 30
        and abs(mismatch - po.residual) <= 1e-12 * max(1.0, po.residual)
        and po.wall_time <= 600.0
    )
    assert _report(6, "periodic orbit", ok,
                   f"iters={po.iterations}, res={po.residual:.2e}, "
                   f"mismatch={mismatch:.2e}, wall={po.wall_time:.0f}s")


def test_criterion_07_perturbation_decay(orbit_grid, periodic_orbit):
    """Perturbing the orbit with E_p(0) = 1e-4 E(0): fitted decay rate over
    [0, 5T] is negative and the exponential bound holds at every sample."""
    po = periodic_orbit
    basis = build_galerkin_basis(orbit_grid, ORBIT_PARAMS, m=6, m_magnetic=6)
    e0 = energy.energy_total(po.z_star, ORBIT_PARAMS)
    pert = random_state(orbit_grid, basis, seed=21, amplitude=1.0)
    ep_raw = energy.energy_perturbation(pert.u, pert.ut, pert.h, ORBIT_PARAMS)
    pert = pert.scaled(np.sqrt(1e-4 * e0 / ep_raw))
    run = orbit.run_perturbation(
        po, pert.u, pert.ut, pert.h, 5.0 * ORBIT_PERIOD,
        ORBIT_PARAMS, ORBIT_SPEC, ORBIT_FORCING,
        stepping.StepperConfig(dt=2e-3, sample_every=50),
    )
    c_e = max(energy.energy_e1(s, ORBIT_PARAMS) for s in run.base_traj.samples)
    consts = energy.assemble_constants(
        orbit_grid, ORBIT_PARAMS, alpha=ORBIT_SPEC.alpha, basis=basis,
        c_e=c_e, c_h=run.c_h, ep0=float(run.ep_series[0]),
    )
    rep = orbit.check_decay_bound(run, consts, ORBIT_SPEC.alpha, ORBIT_PARAMS.nu1)
    ep_ratio = run.ep_series[0] / e0
    ok = (
        abs(ep_ratio - 1e-4) <= 1e-6
        and rep["fitted_rate"] is not None
        and rep["fitted_rate"] < 0
        and rep["violations"] == []
        and rep["bound_margin_min"] >= 0
    )
    assert _report(7, "perturbation decay bound", ok,
                   f"rate={rep['fitted_rate']:.3f}, c1={rep['c1']:.3f}, "
                   f"c_h={rep['c_h']:.2e}, margin={rep['bound_margin_min']:.2e}")


def test_criterion_08_ball_mapping():
    """f = 0: 100 random states on the sphere sqrt(E) = R map strictly
    inside the ball."""
    g = Grid2D(12, 12, 1.0, 1.0)
    params = MaterialParams(rho_m=1.0, mu=1.0, lam=0.5, nu1=0.2, mu0=1.0, b0=1.0)
    basis = build_galerkin_basis(g, params, m=5, m_magnetic=5)
    cfg = stepping.StepperConfig(dt=5e-3, sample_every=10**6)
    rep = orbit.ball_mapping_check(
        0.3, 100, params, DissipationSpec(kind="linear", alpha=1.0),
        Forcing.zero(period=1.0), cfg, basis, seed=5, surface=True,
    )
    ok = rep["fraction_inside"] == 1.0 and rep["worst_excess"] == 0.0
    assert _report(8, "ball mapping (unforced)", ok,
                   f"fraction={rep['fraction_inside']}, excess={rep['worst_excess']}")


def test_criterion_09_disk_mode():
    """zeta_1 to 1e-9; the azimuthal Bessel mode meets the residual
    tolerances; the closed-form oscillation has zero wave defect."""
    z1 = analysis.bessel_j1_zero(1)
    spec = analysis.DiskModeSpec.build(1, radial_points=2000)
    params = MaterialParams(rho_m=2.0, mu=1.5, lam=0.5, nu1=0.1, mu0=1.0, b0=1.0)
    rep = analysis.disk_mode_residual(spec, params)
    ok = (
        abs(z1 - 3.8317059702) <= 1e-9
        and rep["residual_eigen"] <= 1e-8
        and rep["residual_div"] == 0.0
        and rep["residual_boundary"] <= 1e-12
        and rep["wave_defect"] <= 1e-10
    )
    assert _report(9, "disk invariant mode", ok,
                   f"zeta1 err={abs(z1 - 3.8317059702):.1e}, "
                   f"res_i={rep['residual_eigen']:.1e}, res_iii={rep['residual_boundary']:.1e}")


def test_criterion_10_lasalle_trend():
    """Generic-data rectangle run to t = 50 at 32x32: E monotone
    nonincreasing (within residual tolerance) and |h|(50) <= 0.1 |h|(0),
    within 15 minutes."""
    g = Grid2D(32, 32, 1.0, 1.0)
    params = MaterialParams(rho_m=1.0, mu=1.0, lam=0.5, nu1=0.3, mu0=1.0, b0=1.0)
    basis = build_galerkin_basis(g, params, m=6, m_magnetic=6)
    raw = random_state(g, basis, seed=11, amplitude=1.0)
    st = State.from_fields(
        VectorField2(g, 1e-3 * raw.u.ux, 1e-3 * raw.u.uy, bc="dirichlet_zero"),
        VectorField2(g, 1e-3 * raw.ut.ux, 1e-3 * raw.ut.uy, bc="dirichlet_zero"),
        ScalarField(g, 0.1 * raw.h.values, bc="neumann"),
    )
    t0 = time.perf_counter()
    traj = stepping.integrate(st, 50.0, params, DissipationSpec(kind="none"),
                              Forcing.zero(), stepping.StepperConfig(dt=5e-3, sample_every=100))
    wall = time.perf_counter() - t0
    rep = analysis.lasalle_report(traj)
    slack = 1e-9 * max(rep["energy"][0], 1.0)
    monotone = rep["energy_max_increase"] <= slack
    ok = monotone and rep["h_ratio"] <= 0.1 and wall <= 900.0
    assert _report(10, "limit-set trend", ok,
                   f"h ratio={rep['h_ratio']:.2e}, "
                   f"max E increase={rep['energy_max_increase']:.2e}, wall={wall:.0f}s")


def test_criterion_11_galerkin_consistency():
    """Full-rank reduced trajectory matches the grid integrator to 1e-6 at
    t = 0.1 on 12x12; truncation error at t = 0.5 is monotone nonincreasing
    over m in {5, 10, 20, 40}."""
    g = Grid2D(12, 12, 1.0, 1.0)
    params = MaterialParams(rho_m=1.0, mu=1.0, lam=0.5, nu1=0.1, mu0=1.0, b0=1.0)
    spec, zf = DissipationSpec(kind="none"), Forcing.zero()
    full_rank = build_galerkin_basis(g, params, m=2 * g.n_interior, m_magnetic=g.n_nodes)
    st = random_state(g, full_rank, seed=13, amplitude=0.05, n_modes=5)
    cfg = stepping.StepperConfig(dt=1e-3, sample_every=10**6)

    c0 = stepping.state_to_coeffs(full_rank, st)
    red = stepping.integrate_galerkin(c0, full_rank, 0.1, params, spec, zf, cfg)
    red_state = stepping.coeffs_to_state(full_rank, *red.final(), 0.1)
    grid_state = stepping.integrate(st, 0.1, params, spec, zf, cfg).final()
    mismatch = max(
        float(np.max(np.abs(grid_state.h.values - red_state.h.values))),
        float(np.max(np.abs(grid_state.u.ux - red_state.u.ux))),
        float(np.max(np.abs(grid_state.u.uy - red_state.u.uy))),
    )

    t_end = 0.5
    ref = stepping.integrate(st, t_end, params, spec, zf, cfg).final()
    errs = []
    for m in (5, 10, 20, 40):
        b = build_galerkin_basis(g, params, m=m, m_magnetic=m)
        red_m = stepping.integrate_galerkin(
            stepping.state_to_coeffs(b, st), b, t_end, params, spec, zf, cfg
        )
        s = stepping.coeffs_to_state(b, *red_m.final(), t_end)
        errs.append(float(np.sqrt(
            np.sum((s.h.values - ref.h.values) ** 2 * g.weights)
            + np.sum(((s.u.ux - ref.u.ux) ** 2 + (s.u.uy - ref.u.uy) ** 2) * g.weights)
        )))
    monotone = all(b <= a for a, b in zip(errs[:-1], errs[1:]))
    ok = mismatch <= 1e-6 and monotone
    assert _report(11, "Galerkin consistency", ok,
                   f"full-rank mismatch={mismatch:.2e}, "
                   f"truncation errors={['%.1e' % e for e in errs]}")
