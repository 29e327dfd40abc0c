"""Energy functionals, inequality constants and decay diagnostics.

Every per-state diagnostic is a quadratic form on a state's flat
coordinates ``State.y`` = (u, u', h), with the matrices the integrator
steps with: A_el the Lame matrix ``grid.lame_operator_matrix``, L the flux
Laplacian ``grid.lap_neumann``, W the trapezoid weights and W_v those of
the packed interior DOFs:

    E      = 1/2 (rho_m u'.(W_v u') + u.(W_v A_el u) + mu0 h.(W h))
    E1     = 1/2 (u'.(W_v A_el u') + (A_el u).(W_v A_el u) + |grad h|^2)
    |Lh|^2 = (L h).(W L h)

On clamped fields these are the edge-quadrature forms: W_v A_el's divergence
part is D^T W D, the weighted divergence squared, and on the zero-boundary
subspace the five-point Dirichlet form equals the edge sum
``grad_edge_inner``.  Only |grad h|^2 stays that edge sum, a sum of squared
differences of h.  Its matrix form -h.(W L h) sums products of h itself,
which cancel when h has a large mean: for h = 100 plus noise of size 1e-3 it
is off by 3.5e-7.  The edge sum is the form whose flux difference is L, so
the reported dissipation pairs exactly with the discrete diffusion operator
and the per-step energy balance closes to the integrator's truncation error
rather than to the mesh width.

The (u', u) and |u|^2 sums of ``lyapunov_g`` and the f1 work of
``energy_identity_residual`` stay sums over the nodal arrays, bit for bit
what the field forms gave.

A trajectory records each sample's time and energy; ``energy_table`` computes
the other columns of energy.csv from the samples, for archive and replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grid import (
    Grid2D,
    MelabError,
    ParameterError,
    ScalarField,
    VectorField2,
    grad_edge_inner,
    interior_nodal,
    lame_operator_matrix,
)
from .model import MaterialParams, State, build_galerkin_basis


CSV_HEADER = "t,e_total,e1,e_p,g,grad_h_sq,lh_sq,residual"


@dataclass
class ConstantsLedger:
    """Named inequality constants, each recorded with provenance
    "measured": every value is computed from the grid and the parameters."""

    entries: dict = field(default_factory=dict)

    def set(self, name: str, value: float) -> None:
        if value < 0:
            raise ParameterError(f"constant {name} must be nonnegative, got {value}")
        self.entries[name] = {"value": float(value), "provenance": "measured"}

    def value(self, name: str) -> float:
        if name not in self.entries:
            raise KeyError(f"constant {name!r} not in ledger")
        return self.entries[name]["value"]


# ---------------------------------------------------------------------------
# energies

def energy_packed(grid: Grid2D, params: MaterialParams, u, v, h, el=None) -> float:
    """Total energy of packed interior u, u' and raveled nodal h: kinetic +
    elastic + magnetic, the magnetic term weighted by mu0 so the
    dissipation identity closes for any mu0; el, if given, is -A_el u."""
    wv = grid.vector_weights
    if el is None:
        el = -(lame_operator_matrix(grid, params.mu, params.lam) @ u)
    return 0.5 * float(params.rho_m * np.dot(wv * v, v) - np.dot(wv * u, el)
                       + params.mu0 * np.dot(grid.weights.ravel() * h, h))


def energy_total(state: State, params: MaterialParams) -> float:
    """:func:`energy_packed` of a state."""
    return energy_packed(state.grid, params, *state.y)


def _e1_packed(grid: Grid2D, params: MaterialParams, u, v, grad_h_sq: float) -> float:
    """Second-level energy of packed interior u, u', given |grad h|^2."""
    wv = grid.vector_weights
    a_el = lame_operator_matrix(grid, params.mu, params.lam)
    au = a_el @ u
    return 0.5 * float(np.dot(wv * v, a_el @ v) + np.dot(wv * au, au) + grad_h_sq)


def _lh_sq_packed(grid: Grid2D, h) -> float:
    """(L h).(W L h) of raveled nodal h."""
    lh = grid.lap_neumann @ h
    return float(np.dot(grid.weights.ravel() * lh, lh))


def energy_e1(state: State, params: MaterialParams) -> float:
    """Second-level energy: elastic norm of u', squared elastic operator of
    u, and the gradient seminorm of h."""
    u, v, h = state.y
    return _e1_packed(state.grid, params, u, v, grad_edge_inner(h, h, state.grid))


def energy_perturbation(
    v: VectorField2, vt: VectorField2, b: ScalarField, params: MaterialParams
) -> float:
    """Perturbation energy of the triple (v, v', b), v and v' clamped and b
    Neumann: the total energy's form, rho_m-weighted kinetic term included."""
    return energy_total(State.from_fields(v, vt, b), params)


def lyapunov_g(
    state: State,
    eps_or_eta: float,
    alpha: float,
    params: MaterialParams,
    e_total: float | None = None,
) -> float:
    """Shifted energy functional E + eps*(u', u) + (alpha*eps/2)|u|^2, with
    E the state's total energy, or e_total if given."""
    if eps_or_eta <= 0:
        raise ParameterError("eps/eta must be positive")
    base = energy_total(state, params) if e_total is None else e_total
    w = state.grid.weights
    (ux, uy), (vx, vy) = (interior_nodal(state.grid, x) for x in state.y[:2])
    cross, u_sq = float(np.sum((vx * ux + vy * uy) * w)), float(np.sum((ux * ux + uy * uy) * w))
    return base + eps_or_eta * cross + 0.5 * alpha * eps_or_eta * u_sq


@lru_cache(maxsize=8)
def poincare_constant(grid: Grid2D, params: MaterialParams) -> float:
    """Discrete Poincare constant 1/sqrt(lambda_1) of the elastic form:
    |v|_2 <= C * a2(v, v)^{1/2}, sharp on the ground mode."""
    return _poincare_of(build_galerkin_basis(grid, params, m=1, m_magnetic=1))


def _poincare_of(basis) -> float:
    lam1 = float(basis.elastic_vals[0])
    if lam1 <= 0:
        raise MelabError("elastic eigensolve returned a nonpositive ground eigenvalue")
    return 1.0 / np.sqrt(lam1)


def admissible_shift(alpha: float, nu1: float, c_omega: float) -> float:
    """Default eps/eta: half the admissible ceiling min(1, C^-2, alpha/2, nu1)."""
    return 0.5 * min(1.0, c_omega**-2, alpha / 2.0 if alpha > 0 else np.inf, nu1)


# ---------------------------------------------------------------------------
# trajectory diagnostics

def grad_h_squared(h: ScalarField) -> float:
    return grad_edge_inner(h.values, h.values, h.grid)


def lh_tilde_squared(h: ScalarField) -> float:
    """Squared L2 norm of the magnetic operator output (the Laplacian of h)."""
    return _lh_sq_packed(h.grid, h.values.ravel())


def energy_identity_residual(traj, params: MaterialParams) -> dict:
    """Per-interval residual of the discrete dissipation balance

        dE/dt + (rho(u'), u') + mu0*nu1*|grad h|^2
            = (f2, u') + mu0*(f1, h)

    with midpoint (state-average) sampling between consecutive samples, E
    the trajectory's recorded energies and its dissipation law and forcing:
    the dissipation and forcing work are weighted dot products on the packed
    interior u' and the nodal h.  Returns the residual series and its max
    abs.
    """
    if params != traj.params:
        raise ParameterError("params differ from the trajectory's")
    spec, forcing = traj.dissipation, traj.forcing
    samples, times, energies = traj.samples, traj.times, traj.energies
    if len(samples) < 2:
        raise ParameterError("need at least 2 trajectory samples")
    g = samples[0].grid
    wv = g.vector_weights
    forcing_at = None if forcing.is_zero else forcing.packed_on(g)
    t_mid, res = [], []
    for k in range(len(samples) - 1):
        (_, va, ha), (_, vb, hb) = samples[k].y, samples[k + 1].y
        v = 0.5 * (va + vb)
        h = (0.5 * (ha + hb)).reshape(g.shape)
        tm = 0.5 * (times[k] + times[k + 1])
        r = (energies[k + 1] - energies[k]) / (times[k + 1] - times[k])
        r += params.mu0 * params.nu1 * grad_edge_inner(h, h, g)
        r += float(np.dot(wv * np.concatenate(spec.pointwise(*v.reshape(2, -1))), v))
        if forcing_at is not None:
            f2, f1 = forcing_at(tm)
            r -= float(np.dot(wv * f2, v))
            r -= params.mu0 * float(np.sum(f1.reshape(g.shape) * h * g.weights))
        t_mid.append(tm)
        res.append(r)
    res = np.asarray(res)
    return {
        "t": np.asarray(t_mid),
        "residual": res,
        "max_abs": float(np.max(np.abs(res))),
    }


def energy_table(traj) -> np.ndarray:
    """The rows of energy.csv, in CSV_HEADER order, of a grid trajectory:
    per sample its time and recorded energy E, then E1, e_p (0), the
    shifted functional g (0 without linear damping), |grad h|^2, |Lh|^2 and
    the energy-balance residual of the interval that ends there (0 on the
    first row)."""
    params, samples = traj.params, traj.samples
    alpha = traj.dissipation.linear_alpha
    eps = None
    if alpha > 0:
        eps = admissible_shift(alpha, params.nu1, poincare_constant(samples[0].grid, params))
    res = energy_identity_residual(traj, params)["residual"] if len(samples) > 1 else []
    rows = []
    for s, t, e, r in zip(samples, traj.times, traj.energies, [0.0, *res]):
        u, v, h = s.y
        grad_h_sq = grad_edge_inner(h, h, s.grid)
        rows.append([t, e, _e1_packed(s.grid, params, u, v, grad_h_sq), 0.0,
                     lyapunov_g(s, eps, alpha, params, e_total=e) if eps else 0.0,
                     grad_h_sq, _lh_sq_packed(s.grid, h), float(r)])
    return np.array(rows)


def accumulate_ch(traj) -> float:
    """Supremum over the sampled horizon of int_0^t |Lap h|^2 ds (time
    trapezoid over the samples); nondecreasing in the horizon."""
    ts = np.array(traj.times)
    if len(ts) < 2:
        return 0.0
    vals = np.array([_lh_sq_packed(s.grid, s.y[2]) for s in traj.samples])
    partial = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(ts))])
    return float(partial.max())


def decay_rate_fit(ts, values) -> tuple[float, float]:
    """Least-squares slope of log(value) against t; returns (rate, r^2)."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(ts) < 10:
        raise ParameterError("decay fit needs at least 10 points")
    if np.any(values <= 0):
        raise ParameterError("decay fit requires positive values")
    logs = np.log(values)
    coeffs = np.polyfit(ts, logs, 1)
    fit = np.polyval(coeffs, ts)
    ss_res = float(np.sum((logs - fit) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(coeffs[0]), r2


# ---------------------------------------------------------------------------
# constants assembly

def assemble_constants(
    grid: Grid2D,
    params: MaterialParams,
    alpha: float,
    basis=None,
    c_e: float | None = None,
    c_h: float | None = None,
    ep0: float | None = None,
) -> ConstantsLedger:
    """Measure the discrete inequality constants used by the smallness
    conditions and the perturbation decay bound.

    The coercivity constant of the damped perturbation estimate is measured
    from the discrete eigenvalues:

        c_big0 = min(alpha, eta, 2*lam_neumann_1 * max(0, nu1/4 - 2*eta*c_e))

    where lam_neumann_1 is the smallest nonzero Neumann eigenvalue of the
    scalar Laplacian (mean-zero h carries at least that much gradient), in
    closed form.  C_Omega is the given basis's, else ``poincare_constant``'s.
    """
    ledger = ConstantsLedger()
    c_omega = poincare_constant(grid, params) if basis is None else _poincare_of(basis)
    ledger.set("c_omega", c_omega)
    eps = admissible_shift(alpha, params.nu1, c_omega)
    ledger.set("eps", eps)
    lam_n1 = float(grid.neumann_modes(2)[0][1])

    def c_big0(eta):
        return min(
            alpha if alpha > 0 else np.inf,
            eta if eta > 0 else np.inf,
            2.0 * lam_n1 * max(0.0, params.nu1 / 4.0 - 2.0 * eta * (c_e or 0.0)),
        )

    # admissible eta for the perturbation functional
    eta = 0.5 * min(1.0, alpha / (2.0 * c_omega**2)) if alpha > 0 else 0.0
    if c_e is not None:
        ledger.set("c_e", c_e)
    if c_h is not None:
        ledger.set("c_h_int", c_h)
        if ep0 is not None and ep0 > 0 and c_h > 0 and eta > 0:
            # keep eta inside the admissible list's third entry
            cap = c_big0(eta) / (c_h * np.sqrt(2.0 * ep0))
            eta = min(eta, 0.5 * cap) if cap > 0 else eta
    ledger.set("eta", eta)
    ledger.set("c_big0", c_big0(eta))

    if c_h is not None and ep0 is not None:
        c_big1 = (ledger.value("c_big0") - c_h * np.sqrt(2.0 * ep0) * eta) / (2.0 + alpha)
        ledger.set("c_big1", max(c_big1, 0.0))
    return ledger
