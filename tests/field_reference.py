"""Field-level references for the packed diagnostics and the operators:
each quadratic form written with the field API and the edge quadrature, and
the collocated derivative, the coupling terms and the Lame operator applied
with the dense first-derivative stencil or per component, independent of the
assembled matrices the library uses."""

import numpy as np

from melab.grid import (
    ContractViolationError,
    ParameterError,
    ScalarField,
    VectorField2,
    divergence,
    grad_edge_inner,
    inner,
    lame_apply,
    laplacian_neumann,
    norm_l2,
    pack_interior,
    pin_boundary,
    unpack_interior,
)


def sbp_derivative(n: int, h: float) -> np.ndarray:
    """Dense collocated first derivative on n nodes spaced h, entry by entry:
    centered inside, one-sided on the two end rows."""
    d = np.zeros((n, n))
    for i in range(1, n - 1):
        d[i, i - 1] = -0.5 / h
        d[i, i + 1] = 0.5 / h
    d[0, 0], d[0, 1] = -1.0 / h, 1.0 / h
    d[-1, -2], d[-1, -1] = -1.0 / h, 1.0 / h
    return d


def derivative_matrices(grid) -> tuple[np.ndarray, np.ndarray]:
    """The dense stencils along x and y, acting on the first and second index
    of a nodal array."""
    return sbp_derivative(grid.nx + 1, grid.dx), sbp_derivative(grid.ny + 1, grid.dy)


def lorentz_nodal(grid, h: np.ndarray, params) -> tuple[np.ndarray, np.ndarray]:
    """Magnetic body force -mu0*(b0 + h)*grad h on nodal arrays (x, y)."""
    dx, dy = derivative_matrices(grid)
    fac = -params.mu0 * (params.b0 + h)
    return fac * (dx @ h), fac * (h @ dy.T)


def induction_nodal(grid, vx: np.ndarray, vy: np.ndarray, h: np.ndarray, params) -> np.ndarray:
    """Induction flux -div((b0 + h) u') on nodal arrays."""
    dx, dy = derivative_matrices(grid)
    fac = params.b0 + h
    return -(dx @ (fac * vx) + (fac * vy) @ dy.T)


def lame_by_component(u: VectorField2, mu: float, lam: float) -> VectorField2:
    """-mu*Lap(u) - (lam+mu)*grad(div u) as (lam+mu) grad_div u minus mu
    times the Dirichlet Laplacian of each component, with no assembled
    Lame matrix."""
    g = u.grid
    v = pack_interior(u)
    lap_v = (g.lap_dirichlet @ v.reshape(2, g.n_interior).T).T.ravel()
    return unpack_interior(g, (lam + mu) * (g.grad_div @ v) - mu * lap_v)


def bilinear_a2(u: VectorField2, w: VectorField2, mu: float, lam: float) -> float:
    """Elastic form  mu*sum_i (grad u_i, grad w_i) + (lam+mu)*(div u, div w).

    Uses the edge gradient for the mu term and the collocated divergence,
    so it agrees with (lame_apply(u), w) to round-off on zero-boundary fields.
    """
    if mu <= 0 or lam <= 0:
        raise ParameterError("Lame constants must satisfy mu > 0, lambda > 0")
    if u.bc != "dirichlet_zero" or w.bc != "dirichlet_zero":
        raise ContractViolationError("bilinear_a2 requires dirichlet_zero fields")
    g = u.grid
    grad_part = grad_edge_inner(u.ux, w.ux, g) + grad_edge_inner(u.uy, w.uy, g)
    div_part = inner(divergence(u), divergence(w))
    return mu * grad_part + (lam + mu) * div_part


def dissipation_eval(spec, w: VectorField2) -> VectorField2:
    """Pointwise dissipation law applied to a velocity field."""
    rx, ry = spec.pointwise(w.ux, w.uy)
    if w.bc == "dirichlet_zero":
        rx, ry = pin_boundary(rx), pin_boundary(ry)
    return VectorField2(w.grid, rx, ry, bc=w.bc)


def energy_e1(state, params) -> float:
    """Second-level energy: elastic norm of u', squared elastic operator of
    u, and the gradient seminorm of h."""
    lu = lame_apply(state.u, params.mu, params.lam)
    return 0.5 * (bilinear_a2(state.ut, state.ut, params.mu, params.lam) + inner(lu, lu)
                  + grad_edge_inner(state.h.values, state.h.values, state.grid))


def forcing_l1_norms(forcing, grid, steps: int) -> tuple[float, float]:
    """int_0^T ||f(t)|| dt in L2 and in H1 by the time trapezoid over steps
    intervals, from the forcing's fields f1 and f2 at each sample time."""
    ts = np.linspace(0.0, forcing.period, steps + 1)
    l2, h1 = [], []
    for t in ts:
        f1, f2 = forcing.f1(grid, t), forcing.f2(grid, t)
        l2.append(np.sqrt(norm_l2(f2) ** 2 + norm_l2(f1) ** 2))
        h1.append(np.sqrt(norm_l2(f1) ** 2 + grad_edge_inner(f1.values, f1.values, grid)
                          + norm_l2(f2) ** 2 + grad_edge_inner(f2.ux, f2.ux, grid)
                          + grad_edge_inner(f2.uy, f2.uy, grid)))
    return float(np.trapezoid(l2, ts)), float(np.trapezoid(h1, ts))


def lh_squared(h: ScalarField) -> float:
    lap = laplacian_neumann(h)
    return inner(lap, lap)


def identity_residual(traj, params):
    """The dissipation balance of ``energy_identity_residual`` on midpoint
    fields, per interval, and the sum of its terms' absolute values."""
    spec, forcing = traj.dissipation, traj.forcing
    res, scale = [], []
    for a, b, ea, eb in zip(traj.samples[:-1], traj.samples[1:],
                            traj.energies[:-1], traj.energies[1:]):
        g = a.grid
        ut = VectorField2(g, 0.5 * (a.ut.ux + b.ut.ux), 0.5 * (a.ut.uy + b.ut.uy),
                          bc="dirichlet_zero")
        h = ScalarField(g, 0.5 * (a.h.values + b.h.values), bc="neumann")
        tm = 0.5 * (a.t + b.t)
        terms = [
            (eb - ea) / (b.t - a.t),
            params.mu0 * params.nu1 * grad_edge_inner(h.values, h.values, g),
            inner(dissipation_eval(spec, ut), ut),
            -inner(forcing.f2(g, tm), ut),
            -params.mu0 * inner(forcing.f1(g, tm), h),
        ]
        res.append(sum(terms))
        scale.append(sum(abs(x) for x in terms))
    return np.array(res), np.array(scale)
