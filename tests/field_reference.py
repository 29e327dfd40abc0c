"""Field-level references for the packed diagnostics: each quadratic form
written with the field API and the edge quadrature, independent of the
assembled matrices the diagnostics use."""

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
    pin_boundary,
)


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


def lh_squared(h: ScalarField) -> float:
    lap = laplacian_neumann(h)
    return inner(lap, lap)


def identity_residual(traj, params):
    """The dissipation balance of ``energy_identity_residual`` on midpoint
    fields, per interval, and the sum of its terms' absolute values."""
    spec, forcing = traj.dissipation, traj.forcing
    res, scale = [], []
    for a, b, ea, eb in zip(traj.samples[:-1], traj.samples[1:],
                            traj.energy_log[:-1], traj.energy_log[1:]):
        g = a.grid
        ut = VectorField2(g, 0.5 * (a.ut.ux + b.ut.ux), 0.5 * (a.ut.uy + b.ut.uy),
                          bc="dirichlet_zero")
        h = ScalarField(g, 0.5 * (a.h.values + b.h.values), bc="neumann")
        tm = 0.5 * (a.t + b.t)
        terms = [
            (eb.e_total - ea.e_total) / (b.t - a.t),
            params.mu0 * params.nu1 * grad_edge_inner(h.values, h.values, g),
            inner(dissipation_eval(spec, ut), ut),
            -inner(forcing.f2(g, tm), ut),
            -params.mu0 * inner(forcing.f1(g, tm), h),
        ]
        res.append(sum(terms))
        scale.append(sum(abs(x) for x in terms))
    return np.array(res), np.array(scale)
