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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg
from scipy import sparse

from .grid import (
    Grid2D,
    NonFiniteValueError,
    ParameterError,
    ScalarField,
    Schema,
    lame_operator_matrix,
    neumann_laplacian_matrix,
    pack_arrays,
    pack_interior,
    unpack_arrays,
    unpack_interior,
)
from .model import (
    DissipationSpec,
    DivergedStateError,
    Forcing,
    GalerkinBasis,
    MaterialParams,
    State,
    induction_nodal,
    lorentz_nodal,
    project,
    reconstruct,
)
from . import energy as energy_mod


ENERGY_BLOWUP_FACTOR = 1e3


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
    """Sampled states and their energy log, the only store of per-state
    diagnostics; built from bare samples, it fills the log itself."""

    samples: list = field(default_factory=list)
    energy_log: list = field(default_factory=list)
    config: StepperConfig | None = None
    params: MaterialParams | None = None
    dissipation: DissipationSpec | None = None
    forcing: Forcing | None = None
    termination: Termination | None = None

    def __post_init__(self):
        if self.samples and not self.energy_log:
            if self.params is None:
                raise ParameterError("a trajectory with samples needs params for its energy log")
            self.energy_log = [energy_mod.energy_sample(s, self.params) for s in self.samples]

    def record(self, state: State, e_total: float) -> None:
        """Append a sample and its log entry; e_total is the state's energy."""
        self.samples.append(state.copy())
        self.energy_log.append(energy_mod.energy_sample(state, self.params, e_total))

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    def final(self) -> State:
        return self.samples[-1]


def _banded_cholesky(m, order: np.ndarray):
    """Cholesky factor, in LAPACK upper banded storage, of the sparse
    symmetric positive definite matrix m with its unknowns taken in
    ``order`` (Golub & Van Loan, Matrix Computations, 4.3), as
    (factor, order, inverse order).  Only one triangle is read, so an
    asymmetric m is refused: it is a bug, not bad input."""
    if abs(m - m.T).max() > 1e-14 * abs(m).max():
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
    return scipy.linalg.cho_solve_banded((cb, False), b[order], check_finite=False)[rank]


def _node_order(n0: int, n1: int) -> np.ndarray:
    """Row-major indices of an n0 x n1 node array, shorter side fastest."""
    idx = np.arange(n0 * n1).reshape(n0, n1)
    return (idx if n1 <= n0 else idx.T).ravel()


@lru_cache(maxsize=8)
def _implicit_ops(grid: Grid2D, dt: float, params: MaterialParams, alpha: float):
    """The sparse explicit operators, the nodal weights w and the banded
    Cholesky factors of the implicit matrices of the IMEX midpoint step:
    diag(w) (I - (dt/2) nu1 Lap), symmetric in that form, over all nodes,
    and (2 rho_m + dt alpha) I + (dt^2/2) A_el with the interior DOFs
    interleaved (ux, uy) per node."""
    a = 0.5 * dt
    lap = neumann_laplacian_matrix(grid)
    w = grid.weights.ravel()
    m_h = sparse.diags_array(w) @ (sparse.eye_array(grid.n_nodes) - (a * params.nu1) * lap)
    a_el = lame_operator_matrix(grid, params.mu, params.lam)
    ni = grid.n_interior
    m_u = (2.0 * params.rho_m + dt * alpha) * sparse.eye_array(2 * ni) + (dt * a) * a_el
    nodes = _node_order(grid.nx - 1, grid.ny - 1)
    return (lap, a_el, w,
            _banded_cholesky(m_h, _node_order(grid.nx + 1, grid.ny + 1)),
            _banded_cholesky(m_u, np.column_stack([nodes, nodes + ni]).ravel()))


def _explicit_forces(v, h, t: float, params, spec, forcing, grid):
    """Coupling + forcing + superlinear dissipation, from the packed interior
    u' and the raveled h: the packed interior acceleration and the raveled
    flux."""
    vx, vy = unpack_arrays(grid, v)
    h = h.reshape(grid.shape)
    lor_x, lor_y = lorentz_nodal(grid, h, params)
    fh = induction_nodal(grid, vx, vy, h, params)
    f2x = f2y = pw_x = pw_y = 0.0    # scalar zeros add bit for bit as zero fields
    if not forcing.is_zero:
        f2 = forcing.f2(grid, t)
        f2x, f2y, fh = f2.ux, f2.uy, fh + forcing.f1(grid, t).values
    if spec.kind == "power":
        fac = spec.k1 * np.sqrt(vx**2 + vy**2) ** spec.p
        pw_x, pw_y = fac * vx, fac * vy
    fu = pack_arrays(lor_x + f2x - pw_x, lor_y + f2y - pw_y) / params.rho_m
    return fu, fh.ravel()


# ---------------------------------------------------------------------------
# the schemes, over an operator set in one coordinate system

@dataclass(frozen=True)
class OperatorSet:
    """What the schemes need of the system in one coordinate system, with
    (u, v, h) the displacement, the velocity and the magnetic field as flat
    arrays: the two linear operators, the two implicit midpoint solves of
    step dt and the explicit forces."""

    rho_m: float
    alpha: float          # the linear damping, taken implicitly
    elastic: object       # u -> -A_el u
    diffusion: object     # h -> nu1 Lap h
    solve_u: object       # b -> ((2 rho_m + dt alpha) I + (dt^2/2) A_el)^-1 b
    solve_h: object       # b -> (I - (dt/2) nu1 Lap)^-1 b
    forces: object        # (v, h, t) -> explicit (acceleration, flux)


def _grid_ops(grid: Grid2D, dt: float, params, spec, forcing) -> OperatorSet:
    """Packed interior u, v and raveled nodal h: the sparse products and the
    cached banded Cholesky factors."""
    alpha = spec.linear_alpha
    lap, a_el, w, chol_h, chol_u = _implicit_ops(grid, dt, params, alpha)
    return OperatorSet(
        params.rho_m, alpha,
        elastic=lambda u: -(a_el @ u),
        diffusion=lambda h: params.nu1 * (lap @ h),
        solve_u=lambda b: _cho_solve(chol_u, b),
        solve_h=lambda b: _cho_solve(chol_h, w * b),
        forces=lambda v, h, t: _explicit_forces(v, h, t, params, spec, forcing, grid),
    )


def _galerkin_ops(basis: GalerkinBasis, dt: float, params, spec, forcing) -> OperatorSet:
    """Eigencoordinates: the linear operators are diagonal in the
    eigenvalues, the forces go reconstruct -> grid forces -> project."""
    g = basis.grid
    a = 0.5 * dt
    alpha = spec.linear_alpha
    lam_el = basis.elastic_vals
    lam_mag = basis.magnetic_vals - 1.0     # nu1-scaled decay rates
    den_u = 2.0 * params.rho_m + dt * alpha + dt * a * lam_el
    den_h = 1.0 + a * lam_mag
    ws = g.weights.ravel()

    def forces(v, h, t):
        fu, fh = _explicit_forces(basis.elastic_vecs @ v, basis.magnetic_vecs @ h, t,
                                  params, spec, forcing, g)
        return basis.elastic_vecs.T @ (g.vector_weights * fu), basis.magnetic_vecs.T @ (ws * fh)

    return OperatorSet(
        params.rho_m, alpha,
        elastic=lambda c: -(lam_el * c),
        diffusion=lambda ct: -(lam_mag * ct),
        solve_u=lambda b: b / den_u,
        solve_h=lambda b: b / den_h,
        forces=forces,
    )


def imex_midpoint(ops: OperatorSet, u, v, h, t: float, dt: float):
    """One IMEX midpoint step: elasticity, diffusion and the linear damping
    by the implicit midpoint rule, the forces at an explicit midpoint
    predictor.  Non-finite values pass through to the result."""
    a = 0.5 * dt
    rho = ops.rho_m
    el, lh = ops.elastic(u), ops.diffusion(h)
    fu0, fh0 = ops.forces(v, h, t)
    v_hat = v + a * ((el - ops.alpha * v) / rho + fu0)
    h_hat = h + a * (lh + fh0)
    fu, fh = ops.forces(v_hat, h_hat, t + a)
    v_mid = ops.solve_u(2.0 * rho * v + dt * (el + rho * fu))
    return u + dt * v_mid, 2.0 * v_mid - v, ops.solve_h(h + a * lh + dt * fh)


def explicit_rk4(ops: OperatorSet, u, v, h, t: float, dt: float):
    """One classical fourth-order Runge-Kutta step, every term explicit."""
    def rates(y, t):
        u, v, h = y
        fu, fh = ops.forces(v, h, t)
        return v, (ops.elastic(u) - ops.alpha * v) / ops.rho_m + fu, ops.diffusion(h) + fh

    y = (u, v, h)
    k1 = rates(y, t)
    k2 = rates([x + (0.5 * dt) * k for x, k in zip(y, k1)], t + 0.5 * dt)
    k3 = rates([x + (0.5 * dt) * k for x, k in zip(y, k2)], t + 0.5 * dt)
    k4 = rates([x + dt * k for x, k in zip(y, k3)], t + dt)
    return tuple(x + (dt / 6.0) * (p + 2 * q + 2 * r + s)
                 for x, p, q, r, s in zip(y, k1, k2, k3, k4))


SCHEMES = {"imex_midpoint": imex_midpoint, "explicit_rk4": explicit_rk4}


def step(state: State, params: MaterialParams, spec: DissipationSpec, forcing: Forcing,
         config: StepperConfig) -> State:
    """Advance one step on the grid; boundary tags and mean(h) are
    preserved.  Fields are built only for the returned state, whose
    constructors refuse non-finite values (NonFiniteValueError).  The
    energy blow-up guard is ``integrate``'s, which has both energies."""
    g = state.grid
    ops = _grid_ops(g, config.dt, params, spec, forcing)
    u, v, h = SCHEMES[config.scheme](ops, pack_interior(state.u), pack_interior(state.ut),
                                     state.h.values.ravel(), state.t, config.dt)
    return State(unpack_interior(g, u), unpack_interior(g, v),
                 ScalarField(g, h.reshape(g.shape), bc="neumann"), state.t + config.dt)


def _step_count(t0: float, t_end: float, dt: float) -> int:
    """Number of steps from t0 to t_end; refuses a horizon that is not a
    whole number of steps rather than stopping short of or past t_end."""
    ratio = (t_end - t0) / dt
    n_steps = int(round(ratio))
    if abs(ratio - n_steps) > 1e-9 * max(ratio, 1.0):
        raise ParameterError(
            f"t_end - t0 = {t_end:g} - {t0:g} is not a whole number of steps dt = {dt:g}"
        )
    return n_steps


def integrate(
    state0: State,
    t_end: float,
    params: MaterialParams,
    spec: DissipationSpec,
    forcing: Forcing,
    config: StepperConfig,
) -> Trajectory:
    """Repeatedly step until t_end, sampling every config.sample_every
    steps (initial and final states always included).  Each state's energy
    is computed once, for the blow-up guard and the energy log.  A step
    whose fields stop being finite raises DivergedStateError, with the
    trajectory so far attached."""
    if t_end < state0.t:
        raise ParameterError("t_end must be >= initial time")
    n_steps = _step_count(state0.t, t_end, config.dt)
    traj = Trajectory(
        config=config, params=params, dissipation=spec, forcing=forcing
    )
    state = state0
    e = energy_mod.energy_total(state, params)
    traj.record(state, e)
    try:
        for k in range(n_steps):
            try:
                state = step(state, params, spec, forcing, config)
            except NonFiniteValueError as err:
                raise DivergedStateError("state", state.t + config.dt) from err
            e_old, e = e, energy_mod.energy_total(state, params)
            if not np.isfinite(e):
                raise DivergedStateError("state", state.t)
            if e > ENERGY_BLOWUP_FACTOR * (e_old + 1.0):
                raise DivergedStateError("energy_blowup", state.t)
            if (k + 1) % config.sample_every == 0 or k == n_steps - 1:
                traj.record(state, e)
    except DivergedStateError as err:
        traj.termination = Termination("diverged", err.t if err.t is not None else state.t)
        err.trajectory = traj
        raise
    traj.termination = Termination("completed", state.t)
    return traj


# ---------------------------------------------------------------------------
# reduced (spectral) integration

@dataclass
class CoeffTrajectory:
    times: list = field(default_factory=list)
    coeffs: list = field(default_factory=list)     # (c, cdot, ctilde) triples
    energy_log: list = field(default_factory=list)
    termination: Termination | None = None

    def final(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.coeffs[-1]


def coeff_energy(basis: GalerkinBasis, c, cdot, ct, params: MaterialParams) -> float:
    """Total energy in eigencoordinates (mass-orthonormal modes)."""
    return 0.5 * float(
        params.rho_m * np.dot(cdot, cdot)
        + np.dot(basis.elastic_vals * c, c)
        + params.mu0 * np.dot(ct, ct)
    )


def state_to_coeffs(basis: GalerkinBasis, state: State):
    return project(basis, state.u), project(basis, state.ut), project(basis, state.h)


def coeffs_to_state(basis: GalerkinBasis, c, cdot, ct, t: float) -> State:
    return State(
        reconstruct(basis, c, "elastic"),
        reconstruct(basis, cdot, "elastic"),
        reconstruct(basis, ct, "magnetic"),
        t,
    )


def integrate_galerkin(
    coeffs0,
    basis: GalerkinBasis,
    t_end: float,
    params: MaterialParams,
    spec: DissipationSpec,
    forcing: Forcing,
    config: StepperConfig,
) -> CoeffTrajectory:
    """Reduced dynamics: the grid's scheme in eigencoordinates, where the
    linear terms act diagonally through the eigenvalues and the forces go
    reconstruct -> grid forces -> project.  Coefficients that stop being
    finite raise DivergedStateError, with the trajectory so far attached."""
    c, cdot, ct = (np.array(x, dtype=float) for x in coeffs0)
    if c.shape != (basis.m,) or cdot.shape != (basis.m,) or ct.shape != (basis.m_magnetic,):
        raise ParameterError("coefficient dimensions do not match basis")
    dt = config.dt
    scheme = SCHEMES[config.scheme]
    ops = _galerkin_ops(basis, dt, params, spec, forcing)
    traj = CoeffTrajectory()
    t = 0.0

    def log():
        traj.times.append(t)
        traj.coeffs.append((c.copy(), cdot.copy(), ct.copy()))
        traj.energy_log.append(coeff_energy(basis, c, cdot, ct, params))

    n_steps = _step_count(0.0, t_end, dt)
    log()
    for k in range(n_steps):
        c, cdot, ct = scheme(ops, c, cdot, ct, t, dt)
        t += dt
        if not (np.isfinite(c).all() and np.isfinite(cdot).all() and np.isfinite(ct).all()):
            traj.termination = Termination("diverged", t)
            err = DivergedStateError("galerkin_coeffs", t)
            err.trajectory = traj
            raise err
        if (k + 1) % config.sample_every == 0 or k == n_steps - 1:
            log()
    traj.termination = Termination("completed", t)
    return traj
