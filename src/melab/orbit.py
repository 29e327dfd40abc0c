"""Periodic orbits under time-periodic forcing and their stability.

The one-period flow map S is a contraction for small forcing with linear
mechanical damping; a T-periodic solution is its fixed point, found by
direct Picard iteration.  The stability experiment co-evolves the base
orbit and a perturbed copy, reads the perturbation off by subtraction, and
checks the exponential decay bound for the perturbation energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import (
    DomainMismatchError,
    MelabError,
    ParameterError,
    ScalarField,
    VectorField2,
    mean,
)
from .model import (
    DissipationSpec,
    DivergedStateError,
    Forcing,
    GalerkinBasis,
    MaterialParams,
    State,
    random_state,
)
from .stepping import StepperConfig, Trajectory, integrate
from . import energy as energy_mod


def _require_periodic_setup(spec: DissipationSpec) -> None:
    if spec.kind != "linear":    # DissipationSpec refuses a linear law with alpha <= 0
        raise ParameterError("the one-period map needs linear mechanical dissipation")


def _difference_energy(a: State, b: State, params: MaterialParams) -> float:
    """The total energy of the perturbation triple (v, v', b) = a - b."""
    if b.grid != a.grid:
        raise DomainMismatchError("states live on different grids")
    return energy_mod.energy_packed(a.grid, params, *(x - y for x, y in zip(a.y, b.y)))


def energy_norm(state: State, params: MaterialParams) -> float:
    return float(np.sqrt(max(energy_mod.energy_total(state, params), 0.0)))


def energy_distance(a: State, b: State, params: MaterialParams) -> float:
    return float(np.sqrt(max(_difference_energy(a, b, params), 0.0)))


@dataclass
class PeriodicOrbit:
    z_star: State
    residual: float
    iterations: int
    trajectory: Trajectory
    converged: bool
    residual_history: list = field(default_factory=list)

    def to_report(self) -> dict:
        return {
            "residual": self.residual,
            "iterations": self.iterations,
            "converged": self.converged,
            "residual_history": list(self.residual_history),
        }


@dataclass
class PerturbationRun:
    times: np.ndarray
    ep_series: np.ndarray
    base_traj: Trajectory
    c_h: float


def poincare_map(
    z: State,
    params: MaterialParams,
    spec: DissipationSpec,
    forcing: Forcing,
    config: StepperConfig,
    return_trajectory: bool = False,
):
    """Flow z through one forcing period; the image is reported at t = 0 so
    the map composes with itself."""
    _require_periodic_setup(spec)
    z0 = z.with_time(0.0)
    traj = integrate(z0, forcing.period, params, spec, forcing, config)
    out = traj.final().with_time(0.0)
    if return_trajectory:
        return out, traj
    return out


def find_periodic(
    z_init: State,
    params: MaterialParams,
    spec: DissipationSpec,
    forcing: Forcing,
    config: StepperConfig,
    tol: float = 1e-8,
    max_iter: int = 60,
) -> PeriodicOrbit:
    """Picard iteration z <- S(z) until the fixed-point residual
    ||S(z) - z|| drops below tol * max(1, ||z||), all in the energy norm."""
    _require_periodic_setup(spec)
    if tol <= 0 or max_iter < 1:
        raise ParameterError("tol must be positive and max_iter >= 1")
    z = z_init.with_time(0.0)
    history = []
    best = None
    for it in range(1, max_iter + 1):
        z_next, traj = poincare_map(z, params, spec, forcing, config, return_trajectory=True)
        res = energy_distance(z_next, z, params)
        history.append(res)
        if best is None or res < best[0]:
            best = (res, z, traj)
        if res <= tol * max(1.0, energy_norm(z, params)):
            return PeriodicOrbit(z, res, it, traj, True, history)
        z = z_next
    res, z_best, traj_best = best
    return PeriodicOrbit(z_best, res, max_iter, traj_best, False, history)


# ---------------------------------------------------------------------------
# critical radius of the self-mapping ball

@dataclass(frozen=True)
class RCritical:
    value: float
    denominator: float
    contraction: float    # sqrt(2+a)*exp(-eps*T/(2+a)), the denominator's contraction factor
    admissible: bool
    diagnostic: str = ""


def r_critical(
    f_l1_norm: float,
    alpha: float,
    nu1: float,
    period: float,
    consts: dict,
) -> RCritical:
    """Closed-form critical radius

        R_cr = [C1*f + (C3/nu1)*f^2]
             / [1 - sqrt(2+a)*exp(-eps*T/(2+a)) - (C2/nu1)*(1+f)]

    admissible when the denominator is positive and R_cr lands in (0, 1)
    (f = 0 admits R_cr = 0 as the degenerate inner radius)."""
    if f_l1_norm < 0 or alpha <= 0 or nu1 <= 0 or period <= 0:
        raise ParameterError("need f >= 0 and positive alpha, nu1, period")
    for key in ("C1", "C2", "C3", "eps"):
        if key not in consts:
            raise ParameterError(f"missing constant {key!r}")
    f = float(f_l1_norm)
    num = consts["C1"] * f + (consts["C3"] / nu1) * f * f
    contraction = float(np.sqrt(2.0 + alpha) * np.exp(-consts["eps"] * period / (2.0 + alpha)))
    den = 1.0 - contraction - (consts["C2"] / nu1) * (1.0 + f)
    if den <= 0:
        return RCritical(np.inf, den, contraction, False,
                         "nonpositive denominator: contraction margin exhausted")
    value = num / den
    ok = 0.0 <= value < 1.0
    diag = "" if ok else f"R_cr = {value:.6g} outside [0, 1)"
    return RCritical(float(value), float(den), contraction, ok, diag)


def ball_mapping_check(
    radius: float,
    n_samples: int,
    params: MaterialParams,
    spec: DissipationSpec,
    forcing: Forcing,
    config: StepperConfig,
    basis: GalerkinBasis,
    seed: int = 0,
    surface: bool = False,
) -> dict:
    """Sample states with sqrt(E) <= radius, push each through one forcing
    period, and report how many land back inside the ball."""
    if radius <= 0 or n_samples < 1:
        raise ParameterError("radius must be positive and n_samples >= 1")
    _require_periodic_setup(spec)
    rng = np.random.default_rng(seed)
    g = basis.grid
    inside = 0
    worst_excess = 0.0
    violations = []
    for k in range(n_samples):
        raw = random_state(g, basis, seed=int(rng.integers(0, 2**31 - 1)), amplitude=1.0)
        e_raw = energy_norm(raw, params)
        if e_raw == 0:
            continue
        r_target = radius if surface else radius * rng.uniform() ** 0.5
        z = raw.scaled(r_target / e_raw)
        e_in = energy_norm(z, params)
        try:
            image = poincare_map(z, params, spec, forcing, config)
            e_out = energy_norm(image, params)
        except DivergedStateError:
            e_out = np.inf
        if e_out <= radius * (1.0 + 1e-12):
            inside += 1
        else:
            worst_excess = max(worst_excess, e_out - radius)
            violations.append({"sample": k, "e_in": e_in, "e_out": e_out})
    return {
        "radius": radius,
        "n_samples": n_samples,
        "fraction_inside": inside / n_samples,
        "worst_excess": worst_excess,
        "violations": violations,
    }


# ---------------------------------------------------------------------------
# perturbation decay experiment

def run_perturbation(
    orbit: PeriodicOrbit,
    v0: VectorField2,
    v1: VectorField2,
    b0: ScalarField,
    t_end: float,
    params: MaterialParams,
    spec: DissipationSpec,
    forcing: Forcing,
    config: StepperConfig,
) -> PerturbationRun:
    """Co-evolve the base orbit and its perturbed copy; the perturbation
    pair (v, b) is the sampled difference of the two trajectories."""
    g = orbit.z_star.grid
    p = State.from_fields(v0, v1, b0)
    if p.grid != g:
        raise DomainMismatchError("perturbation fields must share the orbit grid")
    if abs(mean(b0)) > 1e-12 * np.max(np.abs(b0.values)):
        raise ParameterError("b0 must be mean-zero")
    z0 = orbit.z_star.with_time(0.0)
    zp = State(g, tuple(x + y for x, y in zip(z0.y, p.y)))
    base_traj = integrate(z0, t_end, params, spec, forcing, config)
    pert_traj = integrate(zp, t_end, params, spec, forcing, config)
    if len(base_traj.samples) != len(pert_traj.samples):
        raise MelabError("base and perturbed trajectories sampled differently")
    eps = [_difference_energy(sp, sb, params)
           for sb, sp in zip(base_traj.samples, pert_traj.samples)]
    c_h = energy_mod.accumulate_ch(base_traj)
    return PerturbationRun(np.array(base_traj.times), np.asarray(eps), base_traj, c_h)


def check_decay_bound(
    run: PerturbationRun,
    consts: energy_mod.ConstantsLedger,
    alpha: float,
    nu1: float,
) -> dict:
    """Pointwise check of E_p(t) <= 2(2+alpha) E_p(0) exp(-C1 t + 4 C_h/nu1),
    with C1 taken from the ledger and C_h measured along the base orbit."""
    ep0 = float(run.ep_series[0])
    c1 = consts.value("c_big1")
    c_h = run.c_h
    prefactor = 2.0 * (2.0 + alpha) * ep0 * np.exp(4.0 * c_h / nu1)
    bound = prefactor * np.exp(-c1 * run.times)
    margin = bound - run.ep_series
    violations = [float(t) for t, m in zip(run.times, margin) if m < 0]
    fitted_rate = None
    r2 = None
    if ep0 > 0 and np.all(run.ep_series > 0):
        try:
            fitted_rate, r2 = energy_mod.decay_rate_fit(run.times, run.ep_series)
        except ParameterError:
            pass
    return {
        "c1": float(c1),
        "c_h": float(c_h),
        "ep0": ep0,
        "bound_margin_min": float(margin.min()),
        "fitted_rate": None if fitted_rate is None else float(fitted_rate),
        "fit_r2": None if r2 is None else float(r2),
        "violations": violations,
    }
