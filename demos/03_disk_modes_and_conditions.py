"""Demo: analytic disk modes, the divergence-ratio scan, and the
closed-form smallness conditions.

On the unit disk the azimuthal fields (0, J1(zeta_m r)) are divergence-free
Dirichlet eigenmodes, so the disk admits undamped elastic oscillations
with h = 0.  Rectangles show no such mode: every Dirichlet eigenmode
carries a positive divergence fraction.
"""

import numpy as np

from melab.grid import Grid2D
from melab.model import MaterialParams
from melab import analysis, energy


def main():
    params = MaterialParams(rho_m=1.0, mu=1.0, lam=0.5, nu1=0.3, mu0=1.0, b0=1.0)

    print("first roots of J1:")
    for m, z in analysis.bessel_root_table(5):
        print(f"  zeta_{m} = {z:.12f}   J1 = {analysis.bessel_j1(z):+.1e}")

    spec = analysis.DiskModeSpec.build(1, radial_points=2000)
    rep = analysis.disk_mode_residual(spec, params)
    print("\nazimuthal disk mode (0, J1(zeta_1 r)):")
    print(f"  eigen-equation residual : {rep['residual_eigen']:.2e}")
    print(f"  divergence residual     : {rep['residual_div']:.2e}")
    print(f"  boundary residual       : {rep['residual_boundary']:.2e}")
    print(f"  oscillation frequency   : {rep['omega']:.6f} (defect {rep['wave_defect']:.1e})")

    grid = Grid2D(24, 24, 1.0, 1.0)
    scan = analysis.property_p_scan(grid, params, 16)
    print(f"\nrectangle divergence-ratio floor over {scan['modes']} modes: "
          f"{scan['min_div_ratio']:.3f} (> 0 means no divergence-free eigenmode)")

    print("\nsmallness conditions at nu1 =", params.nu1)
    reg = analysis.condition_regularity(e1_0=0.001, f_h1_l1=0.001, nu1=params.nu1, c_mu=1.0)
    print(f"  regularity: lhs {reg['lhs']:.4f} vs rhs {reg['rhs']:.4f} -> {reg['satisfied']}")
    c_omega = energy.poincare_constant(grid, params)
    stab = analysis.condition_stability(params.nu1, c_e=0.05, c_omega=c_omega, c_small=0.5)
    print(f"  stability (measured C_Omega {c_omega:.4f}): "
          f"threshold {stab['threshold']:.4f} -> {stab['satisfied']}")


if __name__ == "__main__":
    main()
