"""Field-level references for the packed diagnostics and the operators:
each quadratic form written with the field API and the nodal edge sum, the
scalar Laplacians as Kronecker sums of 1D stencils, the dissipation law
spelled out per component, and the collocated derivative, the coupling
terms and the Lame operator applied with the dense first-derivative stencil
or per component, independent of the assembled matrices and the edge matrix
the library uses."""

import numpy as np
from scipy import sparse

from melab.grid import (
    ContractViolationError,
    ParameterError,
    ScalarField,
    VectorField2,
    divergence,
    inner,
    lame_apply,
    laplacian_neumann,
    norm_l2,
    pack_interior,
    pin_boundary,
    unpack_interior,
)


def edge_inner(a: np.ndarray, b: np.ndarray, grid) -> float:
    """Edge quadrature of the gradients of nodal a and b, raveled or not:
    the products of their forward differences summed over the x-edges with
    weight dx*wy and over the y-edges with weight wx*dy."""
    a, b = a.reshape(grid.shape), b.reshape(grid.shape)
    ex = (a[1:, :] - a[:-1, :]) / grid.dx * ((b[1:, :] - b[:-1, :]) / grid.dx)
    ey = (a[:, 1:] - a[:, :-1]) / grid.dy * ((b[:, 1:] - b[:, :-1]) / grid.dy)
    return (float(np.sum(ex * (grid.dx * grid.wy[None, :])))
            + float(np.sum(ey * (grid.wx[:, None] * grid.dy))))


def flux_1d(w: np.ndarray, h: float) -> sparse.csr_array:
    """1D zero-flux Laplacian diag(1/w) (-E^T E / h) on len(w) nodes, E the
    forward difference a[i+1] - a[i]."""
    n = len(w)
    e = sparse.diags_array([-1.0, 1.0], offsets=[0, 1], shape=(n - 1, n))
    return sparse.diags_array(1.0 / w) @ (-(e.T @ e) / h)


def second_difference(n: int, h: float) -> sparse.csr_array:
    """1D three-point second difference on n interior nodes, zero ends."""
    return sparse.diags_array([1.0, -2.0, 1.0], offsets=[-1, 0, 1], shape=(n, n)) / h**2


def kron_sum(ax, ay) -> sparse.csr_array:
    """ax along the first (x) index plus ay along the second (y) index of
    row-major node arrays, in canonical CSR form."""
    eye = sparse.eye_array
    m = (sparse.kron(ax, eye(ay.shape[0])) + sparse.kron(eye(ax.shape[0]), ay)).tocsr()
    m.sum_duplicates()
    return m


def kron_laplacians(grid) -> tuple[sparse.csr_array, sparse.csr_array]:
    """The Neumann Laplacian over all nodes and the Dirichlet one on interior
    nodes, each the Kronecker sum of its two 1D stencils."""
    return (kron_sum(flux_1d(grid.wx, grid.dx), flux_1d(grid.wy, grid.dy)),
            kron_sum(second_difference(grid.nx - 1, grid.dx),
                     second_difference(grid.ny - 1, grid.dy)))


def dissipation_law(spec, zx: np.ndarray, zy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rho(z) per component: 0 for 'none', alpha z for 'linear' and
    (alpha + k1 |z|^p) z for 'power', |z| the pointwise Euclidean norm."""
    if spec.kind == "none":
        return np.zeros_like(zx), np.zeros_like(zy)
    if spec.kind == "linear":
        return spec.alpha * zx, spec.alpha * zy
    fac = spec.alpha + spec.k1 * np.sqrt(zx * zx + zy * zy) ** spec.p
    return fac * zx, fac * zy


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
    grad_part = edge_inner(u.ux, w.ux, g) + edge_inner(u.uy, w.uy, g)
    div_part = inner(divergence(u), divergence(w))
    return mu * grad_part + (lam + mu) * div_part


def dissipation_eval(spec, w: VectorField2) -> VectorField2:
    """The dissipation law applied to a velocity field."""
    rx, ry = dissipation_law(spec, w.ux, w.uy)
    if w.bc == "dirichlet_zero":
        rx, ry = pin_boundary(rx), pin_boundary(ry)
    return VectorField2(w.grid, rx, ry, bc=w.bc)


def energy_e1(state, params) -> float:
    """Second-level energy: elastic norm of u', squared elastic operator of
    u, and the gradient seminorm of h."""
    lu = lame_apply(state.u, params.mu, params.lam)
    return 0.5 * (bilinear_a2(state.ut, state.ut, params.mu, params.lam) + inner(lu, lu)
                  + edge_inner(state.h.values, state.h.values, state.grid))


def forcing_l1_norms(forcing, grid, steps: int) -> tuple[float, float]:
    """int_0^T ||f(t)|| dt in L2 and in H1 by the time trapezoid over steps
    intervals, from the forcing's fields f1 and f2 at each sample time."""
    ts = np.linspace(0.0, forcing.period, steps + 1)
    l2, h1 = [], []
    for t in ts:
        f1, f2 = forcing.f1(grid, t), forcing.f2(grid, t)
        l2.append(np.sqrt(norm_l2(f2) ** 2 + norm_l2(f1) ** 2))
        h1.append(np.sqrt(norm_l2(f1) ** 2 + edge_inner(f1.values, f1.values, grid)
                          + norm_l2(f2) ** 2 + edge_inner(f2.ux, f2.ux, grid)
                          + edge_inner(f2.uy, f2.uy, grid)))
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
            params.mu0 * params.nu1 * edge_inner(h.values, h.values, g),
            inner(dissipation_eval(spec, ut), ut),
            -inner(forcing.f2(g, tm), ut),
            -params.mu0 * inner(forcing.f1(g, tm), h),
        ]
        res.append(sum(terms))
        scale.append(sum(abs(x) for x in terms))
    return np.array(res), np.array(scale)
