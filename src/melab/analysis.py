"""Standalone verifiers: the quadratic continuation lemma, closed-form
smallness conditions, Bessel disk modes (J1, its zeros and derivatives from
scipy.special), the divergence-ratio scan that probes property P on
rectangles, and trend reporting for long unforced runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .grid import Grid2D, MelabError, ParameterError, pack_interior
from .model import MaterialParams
from . import energy as energy_mod


# ---------------------------------------------------------------------------
# quadratic continuation lemma:  x <= gamma + a x^2

@dataclass(frozen=True)
class BotsenyukInput:
    t_grid: np.ndarray
    x: np.ndarray
    gamma: np.ndarray
    a: float

    def __post_init__(self):
        t = np.asarray(self.t_grid, dtype=float)
        x = np.asarray(self.x, dtype=float)
        g = np.asarray(self.gamma, dtype=float)
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "gamma", g)
        if not (len(t) == len(x) == len(g)):
            raise ParameterError("series lengths must match the time grid")
        if len(t) < 1 or np.any(np.diff(t) <= 0):
            raise ParameterError("t_grid must be strictly increasing")
        if self.a <= 0:
            raise ParameterError("a must be positive")
        if np.any(x < 0) or np.any(g < 0):
            raise ParameterError("x and gamma must be nonnegative")


def botsenyuk_check(inp: BotsenyukInput) -> dict:
    """Continuation bound for x <= gamma + a x^2: when the discriminant
    1 - 4 a gamma stays positive and x starts below the smaller root
    xi1 = (1 - sqrt(1-4a*gamma))/(2a), x can never cross xi1."""
    a = inp.a
    disc = 1.0 - 4.0 * a * inp.gamma
    admissible = bool(np.all(disc > 0))
    report = {"a": a, "admissible": admissible}
    if not admissible:
        report["first_failing_t"] = float(inp.t_grid[np.argmax(disc <= 0)])
        return report
    root = np.sqrt(disc)
    xi1 = (1.0 - root) / (2.0 * a)
    xi2 = (1.0 + root) / (2.0 * a)
    hyp = inp.x <= inp.gamma + a * inp.x**2 + 1e-12 * (1.0 + inp.x**2)
    start_ok = bool(inp.x[0] < xi1[0])
    concl = inp.x <= xi1 + 1e-12 * (1.0 + xi1)
    report.update(
        xi1=xi1,
        xi2=xi2,
        hypothesis_met=bool(np.all(hyp)),
        start_below=start_ok,
        conclusion_holds=bool(start_ok and np.all(concl)),
    )
    if not report["conclusion_holds"] and start_ok:
        report["first_violation_t"] = float(inp.t_grid[np.argmax(~concl)])
    return report


# ---------------------------------------------------------------------------
# closed-form smallness conditions

def condition_regularity(e1_0: float, f_h1_l1: float, nu1: float, c_mu: float) -> dict:
    """6 c^2 E1(0) + 2 nu1 sqrt(2) c E1(0)^{1/2} + 8 c nu1 |f| < nu1^2."""
    if e1_0 < 0 or f_h1_l1 < 0 or nu1 <= 0 or c_mu <= 0:
        raise ParameterError("invalid condition inputs")
    lhs = (
        6.0 * c_mu**2 * e1_0
        + 2.0 * nu1 * np.sqrt(2.0) * c_mu * np.sqrt(e1_0)
        + 8.0 * c_mu * nu1 * f_h1_l1
    )
    rhs = nu1**2
    return {
        "lhs": float(lhs),
        "rhs": float(rhs),
        "satisfied": bool(lhs < rhs),
        "margin": float(rhs - lhs),
    }


def condition_stability(nu1: float, c_e: float, c_omega: float, c_small: float) -> dict:
    """nu1 > 2 sqrt(C_Omega) max(sqrt(2) C_E, 2 c C_E^2), plus the inline
    requirement nu1 > 2 sqrt(2) C_E sqrt(C_Omega)."""
    if nu1 <= 0 or c_e < 0 or c_omega <= 0 or c_small <= 0:
        raise ParameterError("invalid condition inputs")
    threshold = 2.0 * np.sqrt(c_omega) * max(np.sqrt(2.0) * c_e, 2.0 * c_small * c_e**2)
    inline = 2.0 * np.sqrt(2.0) * c_e * np.sqrt(c_omega)
    return {
        "threshold": float(threshold),
        "satisfied": bool(nu1 > threshold),
        "margin": float(nu1 - threshold),
        "inline_threshold": float(inline),
        "inline_satisfied": bool(nu1 > inline),
    }


# ---------------------------------------------------------------------------
# Bessel J1 and the disk's invariant azimuthal modes.  scipy.special is
# imported on first use only: no other path needs it, and its import adds
# tens of milliseconds and about 2 MB to a process.

MAX_RADIAL_POINTS = 10**6   # the vectorised residual holds a few arrays this long


def bessel_j1(x: float) -> float:
    from scipy import special

    return float(special.j1(x))


def bessel_j1_zero(m: int) -> float:
    """m-th positive root of J1; supports m <= 50."""
    if m < 1:
        raise ParameterError("m must be >= 1")
    if m > 50:
        raise ParameterError("roots beyond m = 50 are unsupported")
    from scipy import special

    return float(special.jn_zeros(1, m)[-1])


def bessel_root_table(m_max: int) -> list[tuple[int, float]]:
    return [(m, bessel_j1_zero(m)) for m in range(1, m_max + 1)]


@dataclass(frozen=True)
class DiskModeSpec:
    m: int
    zeta_m: float
    radial_points: int = 2000

    def __post_init__(self):
        if self.m < 1 or not 16 <= self.radial_points <= MAX_RADIAL_POINTS:
            raise ParameterError(
                f"mode index >= 1 and 16 to {MAX_RADIAL_POINTS} radial points")
        if abs(bessel_j1(self.zeta_m)) > 1e-12:
            raise ParameterError("zeta_m is not a root of J1")
        if abs(self.zeta_m - bessel_j1_zero(self.m)) > 1e-12 * self.zeta_m:
            raise ParameterError(f"zeta_m is a root of J1 but not the m = {self.m}-th one")

    @classmethod
    def build(cls, m: int, radial_points: int = 2000) -> "DiskModeSpec":
        return cls(m=m, zeta_m=bessel_j1_zero(m), radial_points=radial_points)


def disk_mode_residual(spec: DiskModeSpec, params: MaterialParams) -> dict:
    """Residuals of the azimuthal disk mode xi = (0, J1(zeta r)):
    (i) vector-Laplacian eigen-equation, (ii) divergence, (iii) boundary
    value; plus the closed-form oscillation frequency check."""
    from scipy import special

    z = spec.zeta_m
    n = spec.radial_points
    r = (np.arange(n) + 0.5) / n          # midpoint rule on (0, 1)
    dr = 1.0 / n
    x = z * r
    # J1, J1', J1'' from one routine, which takes the derivatives from
    # neighboring orders: J1' = (J0 - J2)/2 and J1'' = (J3 - 3 J1)/4 --
    # independent of the ODE being verified
    j, jp, jpp = (special.jvp(1, x, k) for k in range(3))
    # w(r) = J1(zeta r):  w'' + w'/r + (zeta^2 - 1/r^2) w, scaled form
    res = z * z * (jpp + jp / x + (1.0 - 1.0 / (x * x)) * j)
    res_i = float(np.sqrt(2.0 * np.pi * np.dot(res * res, r) * dr))
    res_ii = 0.0        # purely azimuthal field with radial profile
    res_iii = abs(bessel_j1(z))
    omega = z * np.sqrt(params.mu / params.rho_m)
    # rho u'' - mu Lap u on u = xi cos(omega t): (-rho omega^2 + mu zeta^2) xi
    wave_defect = abs(-params.rho_m * omega**2 + params.mu * z * z)
    return {
        "m": spec.m,
        "zeta_m": z,
        "residual_eigen": res_i,
        "residual_div": res_ii,
        "residual_boundary": res_iii,
        "mode_l2": float(np.sqrt(2.0 * np.pi * np.dot(j * j, r) * dr)),
        "omega": float(omega),
        "wave_defect": float(wave_defect),
        "induction_source": 0.0,    # div(B0 u') = B0 div u' = 0 identically
    }


# ---------------------------------------------------------------------------
# property P on rectangles: divergence-ratio floor of Dirichlet eigenmodes

_GROUP_RTOL = 1e-6    # eigenvalues this close (relative) form one degenerate group


def property_p_scan(grid: Grid2D, params: MaterialParams, m_modes: int) -> dict:
    """Divergence content of componentwise Dirichlet Laplacian eigenmodes.

    The closed-form DST modes are taken in whole degenerate groups (the cut
    runs on to the end of the m_modes-th mode's group).  Within each group
    the minimum of ||div xi||^2 / ||xi||^2 over the span is a generalized
    eigenvalue of the divergence Gram F^T (grad_div F) against the mass Gram
    F^T F; a positive floor means no divergence-free eigenmode, the evidence
    that the rectangle has property P."""
    if m_modes < 1:
        raise ParameterError("need at least one mode")
    vals, vecs = grid.dirichlet_modes(min(m_modes, grid.n_interior), group_rtol=_GROUP_RTOL)
    diam = float(np.hypot(grid.lx, grid.ly))

    groups = []
    start = 0
    for k in range(1, len(vals) + 1):
        if k == len(vals) or abs(vals[k] - vals[start]) > _GROUP_RTOL * max(1.0, vals[start]):
            groups.append((start, k))
            start = k
    results = []
    for a, b in groups:
        f = scipy.linalg.block_diag(vecs[:, a:b], vecs[:, a:b])   # x, then y components
        gram_d = f.T @ (grid.grad_div @ f)
        lam_min = float(scipy.linalg.eigh(gram_d, f.T @ f, eigvals_only=True)[0])
        ratio = np.sqrt(max(lam_min, 0.0)) * diam
        results.append(
            {"eigenvalue": float(vals[a]), "multiplicity": b - a, "div_ratio": float(ratio)}
        )
    return {
        "modes": len(vals),
        "diam": diam,
        "groups": results,
        "min_div_ratio": float(min(g["div_ratio"] for g in results)),
    }


# ---------------------------------------------------------------------------
# long-run trend reporting

def lasalle_report(traj) -> dict:
    """Finite-horizon trends of an unforced, mechanically undamped run:
    h-norms, velocity divergence, and the recorded total energy,
    with fitted rates.  |h| is a W-weighted dot and |div u'|^2 the form
    u'.(W_v grad_div u') on the packed state.  Descriptive only; no
    infinite-time claim is asserted."""
    samples = traj.samples
    if len(samples) < 2:
        raise ParameterError("trajectory too short")
    g = samples[0].grid
    w, wv = g.weights.ravel(), g.vector_weights
    hs = [s.h.values.ravel() for s in samples]
    vs = [pack_interior(s.ut) for s in samples]
    ts = np.array(traj.times)
    h_l2 = np.sqrt([np.dot(w * h, h) for h in hs])
    grad_h = np.sqrt([energy_mod.grad_h_squared(s.h) for s in samples])
    div_ut = np.sqrt([max(np.dot(wv * (g.grad_div @ v), v), 0.0) for v in vs])
    e = np.array(traj.energies)
    e_increase = float(np.max(np.diff(e), initial=0.0))
    monotone = bool(e_increase <= 1e-9 * max(e[0], 1.0))
    out = {
        "t": ts,
        "h_l2": h_l2,
        "grad_h_l2": grad_h,
        "div_ut_l2": div_ut,
        "energy": e,
        "energy_monotone": monotone,
        "energy_max_increase": e_increase,
        "h_ratio": float(h_l2[-1] / h_l2[0]) if h_l2[0] > 0 else 0.0,
        "energy_ratio": float(e[-1] / e[0]) if e[0] > 0 else 0.0,
    }
    if np.all(h_l2 > 0) and len(ts) >= 10:
        rate, r2 = energy_mod.decay_rate_fit(ts, h_l2**2)
        out["h_sq_fitted_rate"] = float(rate)
        out["h_sq_fit_r2"] = float(r2)
    return out
