"""Time integration of the coupled system, full-grid and reduced.

Each scheme is written once, on flat coordinate arrays (u, u', h), over an
``OperatorSet`` that the grid and a Galerkin basis both provide, so the
reduced dynamics are the grid scheme in eigencoordinates.

The default scheme is an IMEX midpoint rule: the stiff linear parts
(elasticity, magnetic diffusion, the linear part of the mechanical
dissipation) are advanced by the trapezoidal/midpoint implicit rule, while
the semilinear coupling (magnetic body force, induction flux), forcing and
the superlinear part of the dissipation are evaluated explicitly at a
midpoint predictor.  With this splitting the per-step energy balance
residual is O(dt^2) and mean(h) is conserved to round-off.  The classical
RK4 rule, every term explicit, is the cross-check.

On the grid a step works on flat arrays only: a state's linear part
(-A_el u, nu1 L h) is one product with blockdiag(-A_el, nu1 L), a force
evaluation one with the grid's blockdiag(G, D) (``model.coupling_packed``).
One loop (``_run``) steps both coordinate systems: it computes each state's
linear part once, for its energy and for the step from it, reads divergence
from that energy and records the kept samples with their times and
energies.  ``integrate`` starts from ``state0.y`` and keeps a grid sample
as ``State(grid, y, t)`` around the loop's own arrays: no packing, no fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg
from scipy import sparse

from .grid import (
    DomainMismatchError,
    Grid2D,
    ParameterError,
    Schema,
    lame_operator_matrix,
    neumann_laplacian_matrix,
)
from .model import (
    DissipationSpec,
    DivergedStateError,
    Forcing,
    GalerkinBasis,
    MaterialParams,
    State,
    coupling_packed,
)
from . import energy as energy_mod


ENERGY_BLOWUP_FACTOR = 1e3

# the LAPACK banded Cholesky solve behind scipy's cho_solve_banded, called
# without its per-call argument checks
_pbtrs = scipy.linalg.get_lapack_funcs("pbtrs", dtype=np.float64)


@dataclass(frozen=True)
class StepperConfig(Schema):
    section = "stepper"
    dt: float
    scheme: str = "imex_midpoint"
    sample_every: int = 1

    def __post_init__(self):
        if self.dt <= 0 or self.sample_every < 1:
            raise ParameterError("need dt > 0 and sample_every >= 1")
        if self.scheme not in SCHEMES:
            raise ParameterError(f"unknown scheme {self.scheme!r}; one of {sorted(SCHEMES)}")


@dataclass(frozen=True)
class Termination:
    kind: str            # "completed" | "diverged"
    t: float


@dataclass
class Trajectory:
    """Sampled states, their times and their total energies; a sample is
    ``State(grid, y, t)`` on the grid, the coefficient triple y in
    eigencoordinates, y being the loop's own arrays."""

    samples: list = field(default_factory=list)
    times: list = field(default_factory=list)
    energies: list = field(default_factory=list)
    params: MaterialParams | None = None
    dissipation: DissipationSpec | None = None
    forcing: Forcing | None = None
    termination: Termination | None = None

    def final(self):
        return self.samples[-1]


def _banded_cholesky(m, order: np.ndarray):
    """Cholesky factor, in LAPACK upper banded storage, of the sparse
    symmetric positive definite matrix m with its unknowns taken in
    ``order`` (Golub & Van Loan, Matrix Computations, 4.3), as
    (factor, order, inverse order).  Only one triangle is read, so an
    asymmetric m is refused: it is a bug, not bad input."""
    if abs(m - m.T).max() > 1e-14 * np.abs(m.data).max():
        raise ValueError("implicit matrix is not symmetric")
    rank = np.argsort(order)    # the inverse permutation
    c = m.tocoo()
    c.sum_duplicates()
    i, j = rank[c.row], rank[c.col]
    up = i <= j
    bw = int(np.max(j[up] - i[up]))
    ab = np.zeros((bw + 1, m.shape[0]))
    ab[bw + i[up] - j[up], j[up]] = c.data[up]
    return scipy.linalg.cholesky_banded(ab), order, rank


def _cho_solve(factor, b: np.ndarray) -> np.ndarray:
    cb, order, rank = factor
    x, info = _pbtrs(cb, b[order], overwrite_b=1)
    if info != 0:
        raise ValueError(f"pbtrs: illegal value in argument {-info}")
    return x[rank]


def _node_order(n0: int, n1: int) -> np.ndarray:
    """Row-major indices of an n0 x n1 node array, shorter side fastest."""
    idx = np.arange(n0 * n1).reshape(n0, n1)
    return (idx if n1 <= n0 else idx.T).ravel()


@lru_cache(maxsize=8)
def _implicit_ops(grid: Grid2D, dt: float, params: MaterialParams, alpha: float):
    """The linear operator blockdiag(-A_el, nu1 Lap), the nodal weights w
    and the banded Cholesky factors of the implicit matrices of the IMEX
    midpoint step: diag(w) (I - (dt/2) nu1 Lap), symmetric in that form,
    over all nodes, and (2 rho_m + dt alpha) I + (dt^2/2) A_el with the
    interior DOFs interleaved (ux, uy) per node."""
    a = 0.5 * dt
    lap = neumann_laplacian_matrix(grid)
    w = grid.weights.ravel()
    m_h = sparse.diags_array(w) @ (sparse.eye_array(grid.n_nodes) - (a * params.nu1) * lap)
    a_el = lame_operator_matrix(grid, params.mu, params.lam)
    ni = grid.n_interior
    m_u = (2.0 * params.rho_m + dt * alpha) * sparse.eye_array(2 * ni) + (dt * a) * a_el
    nodes = _node_order(grid.nx - 1, grid.ny - 1)
    return (sparse.block_diag((-a_el, params.nu1 * lap), format="csr"), w,
            _banded_cholesky(m_h, _node_order(grid.nx + 1, grid.ny + 1)),
            _banded_cholesky(m_u, np.column_stack([nodes, nodes + ni]).ravel()))


def _explicit_forces(v, h, t: float, params, spec, forcing, grid):
    """Coupling + forcing + superlinear dissipation, from the packed interior
    u' and the raveled h: the packed interior acceleration and the raveled
    flux."""
    fu, fh = coupling_packed(grid, v, h, params)
    if not forcing.is_zero:
        f2, f1 = forcing.packed(grid, t)
        fu, fh = fu + f2, fh + f1
    if spec.kind == "power":
        vx, vy = v.reshape(2, -1)
        fu = fu - np.tile(spec.k1 * np.sqrt(vx**2 + vy**2) ** spec.p, 2) * v
    return fu / params.rho_m, fh


# ---------------------------------------------------------------------------
# the schemes, over an operator set in one coordinate system

@dataclass(frozen=True)
class OperatorSet:
    """What the schemes need of the system in one coordinate system, with
    (u, v, h) the displacement, the velocity and the magnetic field as flat
    arrays: the linear part, the two implicit midpoint solves of step dt,
    the explicit forces and the total energy."""

    rho_m: float
    alpha: float          # the linear damping, taken implicitly
    linear: object        # (u, h) -> (el, lh) = (-A_el u, nu1 Lap h)
    solve_u: object       # b -> ((2 rho_m + dt alpha) I + (dt^2/2) A_el)^-1 b
    solve_h: object       # b -> (I - (dt/2) nu1 Lap)^-1 b
    forces: object        # (v, h, t) -> explicit (acceleration, flux)
    energy: object        # (u, v, h, el) -> total energy, el from linear


def _grid_ops(grid: Grid2D, dt: float, params, spec, forcing) -> OperatorSet:
    """Packed interior u, v and raveled nodal h: the sparse products and the
    cached banded Cholesky factors."""
    alpha = spec.linear_alpha
    lin, w, chol_h, chol_u = _implicit_ops(grid, dt, params, alpha)
    n = 2 * grid.n_interior

    def linear(u, h):
        el_lh = lin @ np.concatenate((u, h))
        return el_lh[:n], el_lh[n:]

    return OperatorSet(
        params.rho_m, alpha,
        linear=linear,
        solve_u=lambda b: _cho_solve(chol_u, b),
        solve_h=lambda b: _cho_solve(chol_h, w * b),
        forces=lambda v, h, t: _explicit_forces(v, h, t, params, spec, forcing, grid),
        energy=lambda u, v, h, el: energy_mod.energy_packed(grid, params, u, v, h, el),
    )


def _galerkin_ops(basis: GalerkinBasis, dt: float, params, spec, forcing) -> OperatorSet:
    """Eigencoordinates: the linear operators are diagonal in the
    eigenvalues, the forces go lift -> grid forces -> project."""
    a = 0.5 * dt
    alpha = spec.linear_alpha
    lam_el = basis.elastic_vals
    lam_mag = basis.magnetic_vals - 1.0     # nu1-scaled decay rates
    den_u = 2.0 * params.rho_m + dt * alpha + dt * a * lam_el
    den_h = 1.0 + a * lam_mag

    def forces(v, h, t):
        return basis.project(*_explicit_forces(*basis.lift(v, h), t, params, spec, forcing,
                                               basis.grid))

    return OperatorSet(
        params.rho_m, alpha,
        linear=lambda c, ct: (-(lam_el * c), -(lam_mag * ct)),
        solve_u=lambda b: b / den_u,
        solve_h=lambda b: b / den_h,
        forces=forces,
        energy=lambda c, cdot, ct, el: 0.5 * float(
            params.rho_m * np.dot(cdot, cdot) - np.dot(c, el) + params.mu0 * np.dot(ct, ct)),
    )


def imex_midpoint(ops: OperatorSet, u, v, h, t: float, dt: float, lin=None):
    """One IMEX midpoint step, lin = ops.linear(u, h) if given: elasticity,
    diffusion and the linear damping by the implicit midpoint rule, the
    forces at an explicit midpoint predictor.  Non-finite values pass through."""
    a = 0.5 * dt
    rho = ops.rho_m
    el, lh = ops.linear(u, h) if lin is None else lin
    fu0, fh0 = ops.forces(v, h, t)
    v_hat = v + a * ((el - ops.alpha * v) / rho + fu0)
    h_hat = h + a * (lh + fh0)
    fu, fh = ops.forces(v_hat, h_hat, t + a)
    v_mid = ops.solve_u(2.0 * rho * v + dt * (el + rho * fu))
    return u + dt * v_mid, 2.0 * v_mid - v, ops.solve_h(h + a * lh + dt * fh)


def explicit_rk4(ops: OperatorSet, u, v, h, t: float, dt: float, lin=None):
    """One classical fourth-order Runge-Kutta step, every term explicit,
    lin = ops.linear(u, h) if given."""
    def rates(y, t, lin=None):
        u, v, h = y
        el, lh = ops.linear(u, h) if lin is None else lin
        fu, fh = ops.forces(v, h, t)
        return v, (el - ops.alpha * v) / ops.rho_m + fu, lh + fh

    y = (u, v, h)
    k1 = rates(y, t, lin)
    k2 = rates([x + (0.5 * dt) * k for x, k in zip(y, k1)], t + 0.5 * dt)
    k3 = rates([x + (0.5 * dt) * k for x, k in zip(y, k2)], t + 0.5 * dt)
    k4 = rates([x + dt * k for x, k in zip(y, k3)], t + dt)
    return tuple(x + (dt / 6.0) * (p + 2 * q + 2 * r + s)
                 for x, p, q, r, s in zip(y, k1, k2, k3, k4))


SCHEMES = {"imex_midpoint": imex_midpoint, "explicit_rk4": explicit_rk4}


def step(ops: OperatorSet, y, t: float, config: StepperConfig, lin=None):
    """One step dt of the config's scheme from flat coordinates y = (u, v, h)
    at time t, with lin = ops.linear(u, h) if the caller has it; non-finite
    values pass through.  The stepping loop calls it once per step, through
    this module-level name."""
    return SCHEMES[config.scheme](ops, *y, t, config.dt, lin)


def _step_count(t0: float, t_end: float, dt: float) -> int:
    """Number of steps from t0 to t_end; refuses t_end < t0 and a horizon
    that is not a whole number of steps rather than stopping short of or
    past t_end."""
    if t_end < t0:
        raise ParameterError("t_end must be >= initial time")
    ratio = (t_end - t0) / dt
    n_steps = int(round(ratio))
    if abs(ratio - n_steps) > 1e-9 * max(ratio, 1.0):
        raise ParameterError(
            f"t_end - t0 = {t_end:g} - {t0:g} is not a whole number of steps dt = {dt:g}"
        )
    return n_steps


@np.errstate(over="ignore", invalid="ignore")
def _run(ops: OperatorSet, y, t: float, t_end: float, config: StepperConfig, sample, traj):
    """The stepping loop of both integrators, over flat coordinates
    y = (u, v, h) from t to t_end.  Each state's linear part is computed
    once, for its energy and for the step from it, and its energy once, for
    the blow-up guard and for ``traj``, which records ``sample(y, t)``, t and
    e of the initial state, every sample_every-th and the final one.  An
    energy that is not finite, or that jumps by more than
    ENERGY_BLOWUP_FACTOR, raises DivergedStateError with ``traj``, its
    termination set, attached; the overflow itself warns nothing."""
    def record(y, t, e):
        traj.samples.append(sample(y, t))
        traj.times.append(t)
        traj.energies.append(e)

    n_steps = _step_count(t, t_end, config.dt)
    lin = ops.linear(y[0], y[2])
    e = ops.energy(*y, lin[0])
    record(y, t, e)
    for k in range(n_steps):
        y = step(ops, y, t, config, lin)
        t += config.dt
        lin = ops.linear(y[0], y[2])
        e_old, e = e, ops.energy(*y, lin[0])
        if not np.isfinite(e) or e > ENERGY_BLOWUP_FACTOR * (e_old + 1.0):
            err = DivergedStateError("energy_blowup" if np.isfinite(e) else "state", t)
            traj.termination, err.trajectory = Termination("diverged", t), traj
            raise err
        if (k + 1) % config.sample_every == 0 or k == n_steps - 1:
            record(y, t, e)
    traj.termination = Termination("completed", t)


def integrate(
    state0: State,
    t_end: float,
    params: MaterialParams,
    spec: DissipationSpec,
    forcing: Forcing,
    config: StepperConfig,
) -> Trajectory:
    """Step on the grid until t_end, sampling every config.sample_every
    steps (initial and final states always included).  Divergence raises
    DivergedStateError with the trajectory so far attached."""
    g = state0.grid
    traj = Trajectory(params=params, dissipation=spec, forcing=forcing)
    _run(_grid_ops(g, config.dt, params, spec, forcing), state0.y, state0.t, t_end, config,
         lambda y, t: State(g, y, t), traj)
    return traj


# ---------------------------------------------------------------------------
# reduced (spectral) integration

def state_to_coeffs(basis: GalerkinBasis, state: State):
    """Coefficients (c, c', ct) of a state on the basis grid."""
    if state.grid != basis.grid:
        raise DomainMismatchError("state grid does not match basis grid")
    u, v, h = state.y
    (c, ct), (cdot, _) = basis.project(u, h), basis.project(v, h)
    return c, cdot, ct


def _coeffs(basis: GalerkinBasis, coeffs) -> tuple:
    """(c, c', ct) as float arrays, refused unless their lengths are the basis's."""
    y = tuple(np.array(x, dtype=float) for x in coeffs)
    if [x.shape for x in y] != [(basis.m,), (basis.m,), (basis.m_magnetic,)]:
        raise DomainMismatchError("coefficient dimensions do not match basis")
    return y


def coeffs_to_state(basis: GalerkinBasis, c, cdot, ct, t: float) -> State:
    """The state at time t of the coefficients (c, c', ct)."""
    c, cdot, ct = _coeffs(basis, (c, cdot, ct))
    (u, h), (v, _) = basis.lift(c, ct), basis.lift(cdot, ct)
    return State(basis.grid, (u, v, h), t)


def integrate_galerkin(
    coeffs0,
    basis: GalerkinBasis,
    t_end: float,
    params: MaterialParams,
    spec: DissipationSpec,
    forcing: Forcing,
    config: StepperConfig,
) -> Trajectory:
    """Reduced dynamics: the grid's scheme in eigencoordinates, where the
    linear terms act diagonally through the eigenvalues and the forces go
    lift -> grid forces -> project, stepped by the grid's loop and
    guarded by its divergence test; the samples are coefficient triples."""
    traj = Trajectory(params=params, dissipation=spec, forcing=forcing)
    _run(_galerkin_ops(basis, config.dt, params, spec, forcing), _coeffs(basis, coeffs0), 0.0,
         t_end, config, lambda y, t: y, traj)
    return traj
