"""Time integration of the coupled system, full-grid and reduced.

The default scheme is an IMEX midpoint rule: the stiff linear parts
(elasticity, magnetic diffusion, the linear part of the mechanical
dissipation) are advanced by the trapezoidal/midpoint implicit rule, while
the semilinear coupling (magnetic body force, induction flux), forcing and
the superlinear part of the dissipation are evaluated explicitly at a
midpoint predictor.  With this splitting the per-step energy balance
residual is O(dt^2) and mean(h) is conserved to round-off.
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
    VectorField2,
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
    rhs as model_rhs,
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
        if self.scheme not in ("imex_midpoint", "explicit_rk4"):
            raise ParameterError(f"unknown scheme {self.scheme!r}")


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


def _explicit_forces(vx, vy, h, t: float, params, spec, forcing, grid):
    """Coupling + forcing + superlinear dissipation, from the nodal arrays
    of u' and h: the packed interior acceleration and the raveled flux."""
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


def step(state: State, params: MaterialParams, spec: DissipationSpec, forcing: Forcing,
         config: StepperConfig) -> State:
    """Advance one step; boundary tags and mean(h) are preserved.  The
    energy blow-up guard is ``integrate``'s, which has both energies."""
    if config.scheme == "explicit_rk4":
        return _step_rk4(state, params, spec, forcing, config.dt)
    return _step_imex(state, params, spec, forcing, config.dt)


def _step_imex(state, params, spec, forcing, dt):
    """One IMEX midpoint step on packed and nodal arrays; fields are built
    only for the returned state.  Non-finite right-hand sides raise
    NonFiniteValueError before the solves."""
    g = state.grid
    a = 0.5 * dt
    alpha = 0.0 if spec.kind == "none" else spec.alpha    # the implicit linear damping
    lap, a_el, w, chol_h, chol_u = _implicit_ops(g, dt, params, alpha)

    u_n = pack_interior(state.u)
    v_n = pack_interior(state.ut)
    h_n = state.h.values.ravel()

    # midpoint predictor (explicit half step)
    fu0, fh0 = _explicit_forces(state.ut.ux, state.ut.uy, state.h.values, state.t,
                                params, spec, forcing, g)
    el_n = -(a_el @ u_n)
    lu_n = (el_n - alpha * v_n) / params.rho_m
    lh_n = params.nu1 * (lap @ h_n)
    vx, vy = unpack_arrays(g, v_n + a * (lu_n + fu0))
    h_hat = (h_n + a * (lh_n + fh0)).reshape(g.shape)
    fu, fh = _explicit_forces(vx, vy, h_hat, state.t + a, params, spec, forcing, g)

    # implicit midpoint solves
    rhs_h = w * (h_n + a * lh_n + dt * fh)
    rhs_u = 2.0 * params.rho_m * v_n + dt * (el_n + params.rho_m * fu)
    if not (np.isfinite(rhs_h).all() and np.isfinite(rhs_u).all()):
        raise NonFiniteValueError(f"IMEX step from t={state.t:g} has non-finite values")
    h_new = _cho_solve(chol_h, rhs_h)
    v_mid = _cho_solve(chol_u, rhs_u)

    return State(
        unpack_interior(g, u_n + dt * v_mid),
        unpack_interior(g, 2.0 * v_mid - v_n),
        ScalarField(g, h_new.reshape(g.shape), bc="neumann"),
        state.t + dt,
    )


def _step_rk4(state, params, spec, forcing, dt):
    g = state.grid

    def deriv(u, v, h, t):
        acc, hdot = model_rhs(State(u, v, h, t), params, spec, forcing)
        return v, acc, hdot

    def advance(u, v, h, du, dv, dh, fac):
        return (
            VectorField2(g, u.ux + fac * du.ux, u.uy + fac * du.uy, bc="dirichlet_zero"),
            VectorField2(g, v.ux + fac * dv.ux, v.uy + fac * dv.uy, bc="dirichlet_zero"),
            ScalarField(g, h.values + fac * dh.values, bc="neumann"),
        )

    u, v, h, t = state.u, state.ut, state.h, state.t
    k1 = deriv(u, v, h, t)
    k2 = deriv(*advance(u, v, h, *k1, 0.5 * dt), t + 0.5 * dt)
    k3 = deriv(*advance(u, v, h, *k2, 0.5 * dt), t + 0.5 * dt)
    k4 = deriv(*advance(u, v, h, *k3, dt), t + dt)

    def rk(x, i, name):
        a, b, c, d = (getattr(k[i], name) for k in (k1, k2, k3, k4))
        return x + (dt / 6.0) * (a + 2 * b + 2 * c + d)

    return State(
        VectorField2(g, rk(u.ux, 0, "ux"), rk(u.uy, 0, "uy"), bc="dirichlet_zero"),
        VectorField2(g, rk(v.ux, 1, "ux"), rk(v.uy, 1, "uy"), bc="dirichlet_zero"),
        ScalarField(g, rk(h.values, 2, "values"), bc="neumann"),
        t + dt,
    )


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
    """Reduced dynamics: the linear terms act diagonally through the
    eigenvalues; coupling terms go reconstruct -> operator -> project.
    Mirrors the IMEX midpoint structure of the grid stepper."""
    c, cdot, ct = (np.array(x, dtype=float) for x in coeffs0)
    if c.shape != (basis.m,) or cdot.shape != (basis.m,) or ct.shape != (basis.m_magnetic,):
        raise ParameterError("coefficient dimensions do not match basis")
    g = basis.grid
    dt = config.dt
    a = 0.5 * dt
    alpha = 0.0 if spec.kind == "none" else spec.alpha    # the implicit linear damping
    lam_el = basis.elastic_vals
    lam_mag = basis.magnetic_vals - 1.0     # nu1-scaled decay rates
    den_h = 1.0 + a * lam_mag
    den_u = 2.0 * params.rho_m + dt * alpha + dt * a * lam_el

    ws = g.weights.ravel()

    def forces(cd, cth, t):
        vx, vy = unpack_arrays(g, basis.elastic_vecs @ cd)
        h = (basis.magnetic_vecs @ cth).reshape(g.shape)
        fu, fh = _explicit_forces(vx, vy, h, t, params, spec, forcing, g)
        return basis.elastic_vecs.T @ (g.vector_weights * fu), basis.magnetic_vecs.T @ (ws * fh)

    traj = CoeffTrajectory()
    t = 0.0

    def log():
        traj.times.append(t)
        traj.coeffs.append((c.copy(), cdot.copy(), ct.copy()))
        traj.energy_log.append(coeff_energy(basis, c, cdot, ct, params))

    n_steps = _step_count(0.0, t_end, dt)
    log()
    for k in range(n_steps):
        fu0, fh0 = forces(cdot, ct, t)
        lu0 = (-(lam_el * c) - alpha * cdot) / params.rho_m
        lh0 = -lam_mag * ct
        cd_hat = cdot + a * (lu0 + fu0)
        ct_hat = ct + a * (lh0 + fh0)
        fu, fh = forces(cd_hat, ct_hat, t + a)

        ct = ((1.0 - a * lam_mag) * ct + dt * fh) / den_h
        v_mid = (2.0 * params.rho_m * cdot + dt * (-(lam_el * c) + params.rho_m * fu)) / den_u
        c = c + dt * v_mid
        cdot = 2.0 * v_mid - cdot
        t += dt
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(cdot)) and np.all(np.isfinite(ct))):
            traj.termination = Termination("diverged", t)
            raise DivergedStateError("galerkin_coeffs", t)
        if (k + 1) % config.sample_every == 0 or k == n_steps - 1:
            log()
    traj.termination = Termination("completed", t)
    return traj
