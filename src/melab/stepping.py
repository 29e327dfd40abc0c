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

On the grid a step works on flat arrays only.  A state's terms, its
linear part (-A_el u, nu1 L h) and its coupling, are one product with the
fused matrix [[-A_el, 0, 0], [0, nu1 L, 0], [0, G, 0], [0, 0, D]] applied
to [u; h; (b0 + h) u']; the predictor's force evaluation is one product
with the grid's blockdiag(G, D) (``model.coupling_packed`` turns either
into the coupling).  Each product calls scipy's CSR kernel directly
(``_csr_apply``).  An IMEX step makes two products, an RK4 step four; the
IMEX solves are a division in the grid's DCT-I modes for h
(``Grid2D.neumann_resolvent``) and a banded Cholesky solve for u'.  One
loop (``_run``) steps both coordinate systems: it computes each state's
terms once, for its energy and for the step from it, reads divergence
from that energy and hands each kept sample, with its time and energy, to
a trajectory's ``add``.  ``integrate`` starts from ``state0.y`` and makes a
grid sample ``State(grid, y, t)`` around the loop's own arrays: no packing,
no fields.  Its default trajectory keeps every sample in memory; a caller
may pass one that keeps fewer, such as the CLI's archive writer, which
writes the samples out in fixed chunks as they come.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg
from scipy import sparse
from scipy.sparse import _sparsetools

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


def _csr_apply(a: sparse.csr_array, x: np.ndarray) -> np.ndarray:
    """a @ x for a CSR matrix a and a contiguous float vector x: the kernel
    that scipy's product runs, on a zeroed output, without the product's
    dispatch, so the sums and their bytes are the same."""
    y = np.zeros(a.shape[0])
    _sparsetools.csr_matvec(a.shape[0], a.shape[1], a.indptr, a.indices, a.data, x, y)
    return y


@dataclass(frozen=True)
class StepperConfig(Schema):
    section = "stepper"
    dt: float
    scheme: str = "imex_midpoint"
    sample_every: int = 1

    def __post_init__(self):
        self._require_finite_floats()
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
    eigencoordinates, y being the loop's own arrays.  The stepping loop
    records through ``add``, which keeps every sample; a subclass may
    write samples out and drop them, keeping the three lists aligned."""

    samples: list = field(default_factory=list)
    times: list = field(default_factory=list)
    energies: list = field(default_factory=list)
    params: MaterialParams | None = None
    dissipation: DissipationSpec | None = None
    forcing: Forcing | None = None
    termination: Termination | None = None

    def add(self, sample, t: float, e: float) -> None:
        """Record a sample with its time and total energy."""
        self.samples.append(sample)
        self.times.append(t)
        self.energies.append(e)

    def final(self):
        return self.samples[-1]


def _banded_cholesky(m, order: np.ndarray):
    """Cholesky factor, in LAPACK upper banded storage, of the sparse
    symmetric positive definite matrix m with its unknowns taken in
    ``order`` (Golub & Van Loan, Matrix Computations, 4.3), as
    (factor, order, inverse order).  Only one triangle is read, so an
    asymmetric m is refused: it is a bug, not bad input.  LAPACK factors
    the Fortran-ordered band in place."""
    if abs(m - m.T).max() > 1e-14 * np.abs(m.data).max():
        raise ValueError("implicit matrix is not symmetric")
    rank = np.argsort(order)    # the inverse permutation
    c = m.tocoo()
    c.sum_duplicates()
    i, j = rank[c.row], rank[c.col]
    up = i <= j
    bw = int(np.max(j[up] - i[up]))
    ab = np.zeros((bw + 1, m.shape[0]), order="F")
    ab[bw + i[up] - j[up], j[up]] = c.data[up]
    return scipy.linalg.cholesky_banded(ab, overwrite_ab=True), order, rank


def _cho_solve(factor, b: np.ndarray) -> np.ndarray:
    """The solution x of m x = b, for the factor of m; b is left as it is."""
    cb, order, rank = factor
    x, info = _pbtrs(cb, b[order], overwrite_b=1)
    if info != 0:
        raise ValueError(f"pbtrs: illegal value in argument {-info}")
    return x[rank]


@lru_cache(maxsize=8)
def _implicit_ops(grid: Grid2D, dt: float, params: MaterialParams, alpha: float):
    """The fused matrix [[-A_el, 0, 0], [0, nu1 Lap, 0], [0, G, 0],
    [0, 0, D]] of a state's terms and the two implicit solves of the IMEX
    midpoint step: the grid's resolvent b -> (I - (dt/2) nu1 Lap)^-1 b,
    which divides in the closed-form DCT-I modes, and the banded Cholesky
    factor of (2 rho_m + dt alpha) I + (dt^2/2) A_el with the interior DOFs
    interleaved (ux, uy) per node.  Each row of the fused matrix holds one
    block's row, in that block's order, so its products are bit for bit
    the blocks' own."""
    a = 0.5 * dt
    lap = neumann_laplacian_matrix(grid)
    a_el = lame_operator_matrix(grid, params.mu, params.lam)
    ni = grid.n_interior
    m_u = (2.0 * params.rho_m + dt * alpha) * sparse.eye_array(2 * ni) + (dt * a) * a_el
    nodes = np.arange(ni).reshape(grid.nx - 1, grid.ny - 1)    # shorter side fastest
    nodes = (nodes if grid.ny <= grid.nx else nodes.T).ravel()
    fused = sparse.bmat([[-a_el, None, None], [None, params.nu1 * lap, None],
                         [None, grid.grad, None], [None, None, grid.div]], format="csr")
    return (fused, grid.neumann_resolvent(a * params.nu1),
            _banded_cholesky(m_u, np.column_stack([nodes, nodes + ni]).ravel()))


def _grid_forces(grid: Grid2D, params, spec, forcing):
    """(v, h, t, c) -> the explicit coupling + forcing + superlinear
    dissipation at packed interior u' and raveled h: the packed interior
    acceleration and the raveled flux.  c is the coupling pair of ``terms``
    if the caller has it, else one product with blockdiag(G, D) makes it;
    the forcing profiles are looked up once, here."""
    interior, grad_and_div = grid.interior, grid.grad_and_div
    forcing_at = None if forcing.is_zero else forcing.packed_on(grid)

    def forces(v, h, t, c=None):
        if c is None:
            bh = params.b0 + h[interior]
            c = coupling_packed(bh, _csr_apply(grad_and_div, np.concatenate((h, bh * v))),
                                params)
        fu, fh = c
        if forcing_at is not None:
            f2, f1 = forcing_at(t)
            fu, fh = fu + f2, fh + f1
        if spec.kind == "power":
            fu = fu - spec.superlinear(v) * v
        return fu / params.rho_m, fh

    return forces


# ---------------------------------------------------------------------------
# the schemes, over an operator set in one coordinate system

@dataclass(frozen=True)
class OperatorSet:
    """What the schemes need of the system in one coordinate system, with
    (u, v, h) the displacement, the velocity and the magnetic field as flat
    arrays: a state's terms, the two implicit midpoint solves of step dt,
    the explicit forces and the total energy."""

    rho_m: float
    alpha: float          # the linear damping, taken implicitly
    terms: object         # (u, v, h) -> (el, lh, c) = (-A_el u, nu1 Lap h, coupling or None)
    solve_u: object       # b -> ((2 rho_m + dt alpha) I + (dt^2/2) A_el)^-1 b
    solve_h: object       # b -> (I - (dt/2) nu1 Lap)^-1 b, diagonal in the DCT-I modes
    forces: object        # (v, h, t, c=None) -> explicit (acceleration, flux), c from terms
    energy: object        # (u, v, h, el) -> total energy, el from terms


def _grid_ops(grid: Grid2D, dt: float, params, spec, forcing) -> OperatorSet:
    """Packed interior u, v and raveled nodal h: one product with the fused
    matrix per state, the coupling by ``model.coupling_packed``, the cached
    elastic banded Cholesky factor and the grid's magnetic resolvent."""
    alpha = spec.linear_alpha
    fused, solve_h, chol_u = _implicit_ops(grid, dt, params, alpha)
    interior, n, m = grid.interior, 2 * grid.n_interior, 2 * grid.n_interior + grid.n_nodes

    def terms(u, v, h):
        bh = params.b0 + h[interior]
        out = _csr_apply(fused, np.concatenate((u, h, bh * v)))
        return out[:n], out[n:m], coupling_packed(bh, out[m:], params)

    return OperatorSet(
        params.rho_m, alpha,
        terms=terms,
        solve_u=lambda b: _cho_solve(chol_u, b),
        solve_h=solve_h,
        forces=_grid_forces(grid, params, spec, forcing),
        energy=lambda u, v, h, el: energy_mod.energy_packed(grid, params, u, v, h, el),
    )


def _galerkin_ops(basis: GalerkinBasis, dt: float, params, spec, forcing) -> OperatorSet:
    """Eigencoordinates: the linear operators are diagonal in the
    eigenvalues, the forces go lift -> grid forces -> project, and the
    terms carry no coupling."""
    a = 0.5 * dt
    alpha = spec.linear_alpha
    lam_el = basis.elastic_vals
    lam_mag = basis.magnetic_vals - 1.0     # nu1-scaled decay rates
    den_u = 2.0 * params.rho_m + dt * alpha + dt * a * lam_el
    den_h = 1.0 + a * lam_mag

    grid_forces = _grid_forces(basis.grid, params, spec, forcing)

    def forces(v, h, t, c=None):
        return basis.project(*grid_forces(*basis.lift(v, h), t))

    return OperatorSet(
        params.rho_m, alpha,
        terms=lambda c, cdot, ct: (-(lam_el * c), -(lam_mag * ct), None),
        solve_u=lambda b: b / den_u,
        solve_h=lambda b: b / den_h,
        forces=forces,
        energy=lambda c, cdot, ct, el: 0.5 * float(
            params.rho_m * np.dot(cdot, cdot) - np.dot(c, el) + params.mu0 * np.dot(ct, ct)),
    )


def imex_midpoint(ops: OperatorSet, u, v, h, t: float, dt: float, terms):
    """One IMEX midpoint step from the state's terms = ops.terms(u, v, h):
    elasticity, diffusion and the linear damping by the implicit midpoint
    rule, the forces at an explicit midpoint predictor.  Non-finite values
    pass through."""
    a = 0.5 * dt
    rho = ops.rho_m
    el, lh, c = terms
    fu0, fh0 = ops.forces(v, h, t, c)
    v_hat = v + a * ((el - ops.alpha * v) / rho + fu0)
    h_hat = h + a * (lh + fh0)
    fu, fh = ops.forces(v_hat, h_hat, t + a)
    v_mid = ops.solve_u(2.0 * rho * v + dt * (el + rho * fu))
    return u + dt * v_mid, 2.0 * v_mid - v, ops.solve_h(h + a * lh + dt * fh)


def explicit_rk4(ops: OperatorSet, u, v, h, t: float, dt: float, terms):
    """One classical fourth-order Runge-Kutta step, every term explicit,
    from the state's terms = ops.terms(u, v, h)."""
    def rates(y, t, terms=None):
        u, v, h = y
        el, lh, c = ops.terms(u, v, h) if terms is None else terms
        fu, fh = ops.forces(v, h, t, c)
        return v, (el - ops.alpha * v) / ops.rho_m + fu, lh + fh

    y = (u, v, h)
    k1 = rates(y, t, terms)
    k2 = rates([x + (0.5 * dt) * k for x, k in zip(y, k1)], t + 0.5 * dt)
    k3 = rates([x + (0.5 * dt) * k for x, k in zip(y, k2)], t + 0.5 * dt)
    k4 = rates([x + dt * k for x, k in zip(y, k3)], t + dt)
    return tuple(x + (dt / 6.0) * (p + 2 * q + 2 * r + s)
                 for x, p, q, r, s in zip(y, k1, k2, k3, k4))


SCHEMES = {"imex_midpoint": imex_midpoint, "explicit_rk4": explicit_rk4}


def step(ops: OperatorSet, y, t: float, config: StepperConfig, terms):
    """One step dt of the config's scheme from flat coordinates y = (u, v, h)
    at time t, with their terms = ops.terms(*y); non-finite values pass
    through.  The stepping loop calls it once per step, through this
    module-level name."""
    return SCHEMES[config.scheme](ops, *y, t, config.dt, terms)


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
    y = (u, v, h) from t to t_end.  Each state's terms are computed once,
    for its energy and for the step from it, and its energy once, for
    the blow-up guard and for ``traj.add(sample(y, t), t, e)``, called for
    the initial state, every sample_every-th and the final one.  A horizon
    that is not a whole number of steps is refused before the first
    ``add``.  An energy that is not finite, or that jumps by more than
    ENERGY_BLOWUP_FACTOR, raises DivergedStateError with ``traj``, its
    termination set, attached; the overflow itself warns nothing."""
    n_steps = _step_count(t, t_end, config.dt)
    terms = ops.terms(*y)
    e = ops.energy(*y, terms[0])
    traj.add(sample(y, t), t, e)
    for k in range(n_steps):
        y = step(ops, y, t, config, terms)
        t += config.dt
        terms = ops.terms(*y)
        e_old, e = e, ops.energy(*y, terms[0])
        if not np.isfinite(e) or e > ENERGY_BLOWUP_FACTOR * (e_old + 1.0):
            err = DivergedStateError("energy_blowup" if np.isfinite(e) else "state", t)
            traj.termination, err.trajectory = Termination("diverged", t), traj
            raise err
        if (k + 1) % config.sample_every == 0 or k == n_steps - 1:
            traj.add(sample(y, t), t, e)
    traj.termination = Termination("completed", t)


def integrate(
    state0: State,
    t_end: float,
    params: MaterialParams,
    spec: DissipationSpec,
    forcing: Forcing,
    config: StepperConfig,
    traj: Trajectory | None = None,
) -> Trajectory:
    """Step on the grid until t_end, sampling every config.sample_every
    steps (initial and final states always included) into ``traj``, a new
    in-memory Trajectory by default, whose params, dissipation and forcing
    it sets; returns ``traj``.  Divergence raises DivergedStateError with
    the trajectory so far attached."""
    g = state0.grid
    traj = Trajectory() if traj is None else traj
    traj.params, traj.dissipation, traj.forcing = params, spec, forcing
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
