"""Standalone verifiers: continuation lemma, conditions, Bessel modes,
divergence-ratio scan, long-run trends."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from melab.grid import Grid2D, ParameterError
from melab.model import DissipationSpec, Forcing, MaterialParams, build_galerkin_basis, random_state
from melab import analysis, stepping

from mpmath_reference import condition_regularity_reference, condition_stability_reference


PARAMS = MaterialParams(rho_m=1.0, mu=1.0, lam=0.5, nu1=0.3, mu0=1.0, b0=1.0)


# ---------------------------------------------------------------------------
# continuation lemma

def test_botsenyuk_input_validation():
    t = np.linspace(0, 1, 5)
    with pytest.raises(ParameterError):
        analysis.BotsenyukInput(t, np.zeros(4), np.zeros(5), 1.0)
    with pytest.raises(ParameterError):
        analysis.BotsenyukInput(t, -np.ones(5), np.zeros(5), 1.0)
    with pytest.raises(ParameterError):
        analysis.BotsenyukInput(t, np.zeros(5), np.zeros(5), 0.0)


def test_botsenyuk_known_roots():
    t = np.linspace(0, 1, 10)
    inp = analysis.BotsenyukInput(t, np.full(10, 0.2), np.full(10, 3.0 / 16.0), 1.0)
    rep = analysis.botsenyuk_check(inp)
    assert rep["admissible"]
    assert np.allclose(rep["xi1"], 0.25, atol=1e-14)
    assert np.allclose(rep["xi2"], 0.75, atol=1e-14)
    # roots solve a z^2 - z + gamma = 0
    for z in (rep["xi1"], rep["xi2"]):
        assert np.max(np.abs(1.0 * z**2 - z + 3.0 / 16.0)) < 1e-14
    assert rep["conclusion_holds"]


def test_botsenyuk_degenerate_gamma():
    t = np.linspace(0, 1, 5)
    inp = analysis.BotsenyukInput(t, np.zeros(5), np.zeros(5), 2.0)
    rep = analysis.botsenyuk_check(inp)
    assert np.allclose(rep["xi1"], 0.0) and np.allclose(rep["xi2"], 0.5)
    # x(0) = 0 is not strictly below xi1(0) = 0: hypothesis not met
    assert not rep["start_below"]


def test_botsenyuk_inadmissible():
    t = np.linspace(0, 1, 5)
    gamma = np.array([0.1, 0.1, 0.3, 0.1, 0.1])  # 1 - 4*a*gamma <= 0 at t=0.5
    inp = analysis.BotsenyukInput(t, np.zeros(5), gamma, 1.0)
    rep = analysis.botsenyuk_check(inp)
    assert not rep["admissible"]
    assert rep["first_failing_t"] == pytest.approx(0.5)


def test_botsenyuk_violation_detected():
    t = np.linspace(0, 1, 20)
    gamma = np.full(20, 0.1)
    a = 1.0
    xi1 = (1.0 - np.sqrt(1.0 - 4.0 * a * gamma)) / (2.0 * a)
    x = xi1 - 1e-3
    x[10:] = xi1[10:] + 0.05  # jumps above the barrier
    inp = analysis.BotsenyukInput(t, x, gamma, a)
    rep = analysis.botsenyuk_check(inp)
    assert rep["admissible"] and rep["start_below"]
    assert not rep["conclusion_holds"]
    assert rep["first_violation_t"] == pytest.approx(t[10])


# ---------------------------------------------------------------------------
# smallness conditions

def test_condition_regularity_trivial():
    rep = analysis.condition_regularity(0.0, 0.0, 0.5, 1.0)
    assert rep["lhs"] == 0.0 and rep["satisfied"]


def test_condition_regularity_crossover():
    # lhs grows linearly in nu1, rhs quadratically: satisfied for large nu1
    flags = [analysis.condition_regularity(0.01, 0.01, nu, 1.0)["satisfied"]
             for nu in (0.05, 20.0)]
    assert flags == [False, True]


def test_condition_regularity_matches_reference():
    rng = np.random.default_rng(0)
    for _ in range(30):
        e, f, nu, c = rng.uniform(0, 2), rng.uniform(0, 1), rng.uniform(0.1, 3), rng.uniform(0.1, 2)
        a = analysis.condition_regularity(e, f, nu, c)
        b = condition_regularity_reference(e, f, nu, c)
        assert abs(a["lhs"] - b["lhs"]) <= 1e-14 * max(1.0, abs(b["lhs"]))
        assert a["satisfied"] == b["satisfied"]


def test_condition_stability_arithmetic():
    rep = analysis.condition_stability(3.0, 1.0, 1.0, 0.5)
    assert rep["threshold"] == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-14)
    assert rep["satisfied"]
    assert analysis.condition_stability(1.0, 0.0, 1.0, 0.5)["threshold"] == 0.0


def test_condition_stability_matches_reference():
    rng = np.random.default_rng(1)
    for _ in range(30):
        nu, ce, co, cs = rng.uniform(0.1, 3, 4)
        a = analysis.condition_stability(nu, ce, co, cs)
        b = condition_stability_reference(nu, ce, co, cs)
        assert abs(a["threshold"] - b["threshold"]) <= 1e-14 * max(1.0, b["threshold"])
        assert a["satisfied"] == b["satisfied"]


def test_condition_stability_monotone_in_nu1():
    flags = [analysis.condition_stability(nu, 1.0, 1.0, 0.5)["satisfied"]
             for nu in np.linspace(0.5, 6.0, 12)]
    assert flags == sorted(flags)


# ---------------------------------------------------------------------------
# Bessel

def test_j1_small_argument_series():
    # J1(x) ~ x/2 - x^3/16 for small x
    x = 1e-3
    assert analysis.bessel_j1(x) == pytest.approx(x / 2 - x**3 / 16, abs=1e-17)
    assert analysis.bessel_j1(-x) == pytest.approx(-analysis.bessel_j1(x))
    assert analysis.bessel_j1(0.0) == 0.0


def test_first_zero():
    z1 = analysis.bessel_j1_zero(1)
    assert abs(z1 - 3.8317059702) < 1e-9
    assert abs(analysis.bessel_j1(z1)) <= 1e-12


def test_zero_table_and_spacing():
    table = analysis.bessel_root_table(25)
    zs = [z for _, z in table]
    assert all(b > a for a, b in zip(zs[:-1], zs[1:]))
    assert abs((zs[20] - zs[19]) - np.pi) < 0.01
    for _, z in table:
        assert abs(analysis.bessel_j1(z)) <= 1e-12


def test_zeros_interlace_j0():
    from scipy.special import jn_zeros

    j0z = jn_zeros(0, 6)
    j1z = [analysis.bessel_j1_zero(m) for m in range(1, 6)]
    assert all(j0z[i] < j1z[i] < j0z[i + 1] for i in range(5))


def test_zero_bounds():
    with pytest.raises(ParameterError):
        analysis.bessel_j1_zero(0)
    with pytest.raises(ParameterError):
        analysis.bessel_j1_zero(51)


# ---------------------------------------------------------------------------
# disk mode

def test_disk_mode_residuals():
    spec = analysis.DiskModeSpec.build(1, radial_points=2000)
    rep = analysis.disk_mode_residual(spec, PARAMS)
    assert rep["residual_div"] == 0.0
    assert rep["residual_boundary"] <= 1e-12
    assert rep["residual_eigen"] <= 1e-8
    assert rep["wave_defect"] <= 1e-10
    assert rep["omega"] == pytest.approx(spec.zeta_m * np.sqrt(PARAMS.mu / PARAMS.rho_m))


def test_disk_mode_higher_index():
    spec = analysis.DiskModeSpec.build(3, radial_points=1500)
    rep = analysis.disk_mode_residual(spec, PARAMS)
    assert rep["residual_eigen"] <= 1e-7
    assert rep["mode_l2"] > 0


def test_disk_mode_residual_every_root():
    """Every supported root meets the residual bounds at 2000 points."""
    for m in range(1, 51):
        rep = analysis.disk_mode_residual(analysis.DiskModeSpec.build(m), PARAMS)
        assert rep["residual_eigen"] <= 1e-11, m
        assert rep["residual_boundary"] <= 1e-14, m


IMPORT_PROBE = """
import sys
import melab
from melab import analysis
from melab.model import DissipationSpec, Forcing, random_state

params = melab.MaterialParams(rho_m=1.0, mu=1.0, lam=0.5, nu1=0.3, mu0=1.0, b0=1.0)
grid = melab.Grid2D(12, 12, 1.0, 1.0)
basis = melab.build_galerkin_basis(grid, params, m=8)
melab.integrate(random_state(grid, basis, seed=0, amplitude=0.05), 0.05, params,
                DissipationSpec(kind="linear", alpha=1.0), Forcing.zero(),
                melab.StepperConfig(dt=0.01))
print(",".join(m for m in ("scipy.special", "scipy.sparse.linalg", "mpmath") if m in sys.modules))
analysis.bessel_j1_zero(1)
print("scipy.special" in sys.modules)
"""


def test_optional_modules_load_on_first_use():
    """Importing melab, a dense 12 x 12 basis build and a short run load
    neither scipy.special, scipy.sparse.linalg nor mpmath; the first Bessel
    root loads scipy.special."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["", "True"]


def test_disk_mode_spec_validation():
    with pytest.raises(ParameterError):
        analysis.DiskModeSpec(m=1, zeta_m=3.5)
    with pytest.raises(ParameterError, match="not the m = 1-th"):
        analysis.DiskModeSpec(m=1, zeta_m=analysis.bessel_j1_zero(3))
    with pytest.raises(ParameterError):
        analysis.DiskModeSpec.build(1, radial_points=10**6 + 1)


# ---------------------------------------------------------------------------
# divergence-ratio scan

def test_property_p_positive_floor():
    g = Grid2D(24, 24, 1.0, 1.0)
    rep = analysis.property_p_scan(g, PARAMS, 20)
    assert rep["min_div_ratio"] > 0.1
    assert rep["diam"] == pytest.approx(np.sqrt(2.0))


def test_property_p_swap_symmetry():
    a = analysis.property_p_scan(Grid2D(20, 16, 1.0, 0.7), PARAMS, 8)
    b = analysis.property_p_scan(Grid2D(16, 20, 0.7, 1.0), PARAMS, 8)
    assert a["min_div_ratio"] == pytest.approx(b["min_div_ratio"], rel=1e-9)


def test_property_p_scan_at_80_matches_the_48_floor():
    """The closed-form modes need no dense eigensolve: an 80x80 scan runs,
    and its floor is within 5 % of the 48x48 one."""
    a = analysis.property_p_scan(Grid2D(80, 80, 1.0, 1.0), PARAMS, 12)
    b = analysis.property_p_scan(Grid2D(48, 48, 1.0, 1.0), PARAMS, 12)
    assert abs(a["min_div_ratio"] - b["min_div_ratio"]) < 0.05 * b["min_div_ratio"]


def test_property_p_keeps_degenerate_group_whole():
    """At 32x32 the 12th mode opens a double eigenvalue: the scan takes the
    whole group, with the ratio the 13-mode scan gives it."""
    g = Grid2D(32, 32, 1.0, 1.0)
    a = analysis.property_p_scan(g, PARAMS, 12)
    b = analysis.property_p_scan(g, PARAMS, 13)
    last = a["groups"][-1]
    assert last["eigenvalue"] == pytest.approx(195.246, rel=1e-5)
    assert last["multiplicity"] == 2 and a["modes"] == 13
    assert a["groups"] == b["groups"]


def test_property_p_refinement_stability():
    a = analysis.property_p_scan(Grid2D(32, 32, 1.0, 1.0), PARAMS, 12)
    b = analysis.property_p_scan(Grid2D(48, 48, 1.0, 1.0), PARAMS, 12)
    assert abs(a["min_div_ratio"] - b["min_div_ratio"]) < 0.05 * b["min_div_ratio"]


# ---------------------------------------------------------------------------
# long-run trends

def test_lasalle_zero_data():
    g = Grid2D(10, 10, 1.0, 1.0)
    from melab.model import State

    cfg = stepping.StepperConfig(dt=1e-2, sample_every=10)
    traj = stepping.integrate(State.zero(g), 1.0, PARAMS,
                              DissipationSpec(kind="none"), Forcing.zero(), cfg)
    rep = analysis.lasalle_report(traj)
    assert np.all(rep["h_l2"] == 0) and np.all(rep["energy"] == 0)
    assert rep["energy_monotone"]


def test_lasalle_h_decays():
    g = Grid2D(12, 12, 1.0, 1.0)
    basis = build_galerkin_basis(g, PARAMS, m=4, m_magnetic=4)
    st = random_state(g, basis, seed=2, amplitude=0.05)
    cfg = stepping.StepperConfig(dt=5e-3, sample_every=40)
    traj = stepping.integrate(st, 8.0, PARAMS, DissipationSpec(kind="none"),
                              Forcing.zero(), cfg)
    rep = analysis.lasalle_report(traj)
    assert rep["h_ratio"] < 1.0
    assert rep["energy_ratio"] <= 1.0 + 1e-9
