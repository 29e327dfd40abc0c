"""Continuum oracle: the coupled system converges to a manufactured
solution of the PDE at second order in space and time.

The discrete identities (the energy balance, grad/div adjointness, mean(h)
conservation) also hold for a consistent discretization of another PDE,
say one whose Lame matrix has lam in place of lam + mu; this test checks
that it is this one:

    rho_m u'' + alpha u' + k1 |u'|^p u' = mu Lap u + (lam + mu) grad div u
                                          - mu0 (b0 + h) grad h + f2,
    h' = nu1 Lap h - div((b0 + h) u') + f1,

with u clamped and h of zero normal flux (Roache, Verification and
Validation in Computational Science and Engineering, 1998, ch. 3).  The
manufactured u and h satisfy both boundary conditions, and f1, f2 are
their exact residuals, derived by hand below: a wrong derivative there
would leave an O(1) error and fail the order check as surely as a wrong
operator in melab would.  They enter through a Forcing whose ``packed_on``
evaluates them at the grid nodes.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from melab import stepping
from melab.grid import Grid2D
from melab.model import DissipationSpec, Forcing, MaterialParams, State

PARAMS = MaterialParams(rho_m=1.5, lam=0.7, nu1=0.4, mu0=0.8, b0=1.2)
LX, LY, T = 1.0, 1.3, 0.5
AMP_U, AMP_H = 0.3, 0.4


def exact(grid, t):
    """The manufactured u, u', h at time t on the grid's nodes, with the
    partial derivatives the residuals need:

        u = 0.3 (sin(ax) sin(by) cos t, (1 + x) sin(2ax) sin(by) sin t),
        h = 0.4 cos(ax) cos(2by) (1 + sin(2t)/2),    a = pi/lx, b = pi/ly.
    """
    x, y = grid.xy
    a, b = np.pi / grid.lx, np.pi / grid.ly
    sx, cx, s2x, c2x = np.sin(a * x), np.cos(a * x), np.sin(2 * a * x), np.cos(2 * a * x)
    sy, cy, s2y, c2y = np.sin(b * y), np.cos(b * y), np.sin(2 * b * y), np.cos(2 * b * y)
    # uy's x-profile g = (1 + x) sin(2ax) and its derivatives
    g = (1 + x) * s2x
    gx = s2x + 2 * a * (1 + x) * c2x
    gxx = 4 * a * c2x - 4 * a**2 * (1 + x) * s2x
    st, ct = np.sin(t), np.cos(t)
    tau = 1 + 0.5 * np.sin(2 * t)
    f = {
        "ux": AMP_U * sx * sy * ct, "uy": AMP_U * g * sy * st,
        "vx": -AMP_U * sx * sy * st, "vy": AMP_U * g * sy * ct,
        "h": AMP_H * cx * c2y * tau, "ht": AMP_H * cx * c2y * np.cos(2 * t),
        "hx": -AMP_H * a * sx * c2y * tau, "hy": -2 * AMP_H * b * cx * s2y * tau,
    }
    f["lap_ux"] = -(a**2 + b**2) * f["ux"]
    f["lap_uy"] = AMP_U * (gxx - b**2 * g) * sy * st
    f["lap_h"] = -(a**2 + 4 * b**2) * f["h"]
    # grad div u and div u'
    f["div_x"] = AMP_U * (-a**2 * sx * sy * ct + b * gx * cy * st)
    f["div_y"] = AMP_U * (a * b * cx * cy * ct - b**2 * g * sy * st)
    f["div_v"] = AMP_U * (-a * cx * sy * st + b * g * cy * ct)
    return f


def residuals(grid, t, params, spec):
    """(f2x, f2y, f1) at the nodes: the PDE residuals of the manufactured
    solution, u'' = -u."""
    f = exact(grid, t)
    p = params
    q = p.b0 + f["h"]
    dx, dy = spec.pointwise(f["vx"], f["vy"])
    f2x = (-p.rho_m * f["ux"] + dx - p.mu * f["lap_ux"] - (p.lam + p.mu) * f["div_x"]
           + p.mu0 * q * f["hx"])
    f2y = (-p.rho_m * f["uy"] + dy - p.mu * f["lap_uy"] - (p.lam + p.mu) * f["div_y"]
           + p.mu0 * q * f["hy"])
    f1 = (f["ht"] - p.nu1 * f["lap_h"] + q * f["div_v"]
          + f["hx"] * f["vx"] + f["hy"] * f["vy"])
    return f2x, f2y, f1


def interior(fx, fy):
    """The packed interior values of a nodal vector field (fx, fy)."""
    return np.concatenate((fx[1:-1, 1:-1].ravel(), fy[1:-1, 1:-1].ravel()))


@dataclass
class ManufacturedForcing(Forcing):
    """The residuals f2, f1 of the manufactured solution as a forcing."""

    params: MaterialParams = PARAMS
    spec: DissipationSpec = DissipationSpec()
    is_zero = False

    def packed_on(self, grid):
        def at(t):
            f2x, f2y, f1 = residuals(grid, t, self.params, self.spec)
            return interior(f2x, f2y), f1.ravel()

        return at


def state_at(grid, t):
    """The manufactured solution at time t, clamped to the grid."""
    f = exact(grid, t)
    return State(grid, (interior(f["ux"], f["uy"]), interior(f["vx"], f["vy"]), f["h"].ravel()), t)


LINEAR = DissipationSpec(kind="linear", alpha=0.3)
# case: (dissipation, scheme, steps over [0, T] and grid shape for n = 8, 16, 32).
# IMEX takes dt = T/(4n).  Explicit RK4 must keep dt nu1 |Lap|, here about
# 2.55 n^2 dt, below 2.78, so it takes dt = 2T/n^2, where its own time error
# is far below the space error.
CASES = {
    "imex": (LINEAR, "imex_midpoint", lambda n: 4 * n, lambda n: (n, n)),
    "rk4": (LINEAR, "explicit_rk4", lambda n: n * n // 2, lambda n: (n, n)),
    "imex-power": (DissipationSpec(kind="power", alpha=0.3, k1=4.0, p=3.0), "imex_midpoint",
                   lambda n: 4 * n, lambda n: (n, n)),
    "imex-rectangle": (LINEAR, "imex_midpoint", lambda n: 4 * n, lambda n: (n, 3 * n // 2)),
}


@pytest.mark.parametrize("case", list(CASES))
def test_second_order_convergence(case):
    """The max-norm errors of u, u' and h at T fall by about 4 per halving
    of the mesh width (and of dt): every observed order lies in [1.8, 2.3].
    At 8^2 to 32^2 with IMEX the orders are 2.02/1.99 (u), 1.85/2.07 (u')
    and 2.04/2.01 (h)."""
    spec, scheme, n_steps, shape = CASES[case]
    errors = []
    for n in (8, 16, 32):
        grid = Grid2D(*shape(n), LX, LY)
        forcing = ManufacturedForcing(period=T, params=PARAMS, spec=spec)
        cfg = stepping.StepperConfig(dt=T / n_steps(n), scheme=scheme, sample_every=n_steps(n))
        end = stepping.integrate(state_at(grid, 0.0), T, PARAMS, spec, forcing, cfg).samples[-1]
        errors.append([np.max(np.abs(x - y)) for x, y in zip(end.y, state_at(grid, T).y)])
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all((orders >= 1.8) & (orders <= 2.3)), orders
