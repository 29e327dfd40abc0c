"""Physical parameters, dissipation laws, forcing, the coupling terms and
the spectral (eigenbasis) reduction of the coupled magnetoelastic system.

The governing equations on the rectangle are

    rho_m u'' = -L u - rho(u') - mu0 (b0 + h) grad h + f2
    h'        = nu1 Lap h - div((b0 + h) u') + f1

with L the elastic operator, the grid's cached Lame matrix
:func:`melab.grid.lame_operator_matrix`, u clamped on the boundary and h
carrying zero normal flux.  The coupling terms are products with the grid's
SBP derivatives (G and D in the step, ddx and ddy in the field forms), so
their energy contributions cancel exactly at the semi-discrete level.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg
from scipy import sparse

from .grid import (
    ContractViolationError,
    DomainMismatchError,
    Grid2D,
    MelabError,
    ParameterError,
    ScalarField,
    Schema,
    VectorField2,
    grad_edge_inner,
    lame_operator_matrix,
    norm_l2,
    pack_interior,
    parse_section,
    unpack_interior,
)


class DivergedStateError(MelabError):
    """A run's energy stopped being finite (term 'state') or blew up
    ('energy_blowup'); the integrators attach the run so far as
    ``trajectory``."""

    trajectory = None

    def __init__(self, term: str, t: float | None = None):
        self.term = term
        self.t = t
        where = f" at t={t:g}" if t is not None else ""
        super().__init__(f"non-finite values in term '{term}'{where}")


@dataclass(frozen=True)
class MaterialParams(Schema):
    section = "material"
    rho_m: float = 1.0
    mu: float = 1.0
    lam: float = field(default=0.5, metadata={"key": "lambda"})
    nu1: float = 0.1
    mu0: float = 1.0
    b0: float = 1.0

    def __post_init__(self):
        if min(self.rho_m, self.mu, self.lam, self.nu1, self.mu0) <= 0:
            raise ParameterError(
                "rho_m, mu, lam, nu1, mu0 must all be positive"
            )


@dataclass(frozen=True)
class DissipationSpec(Schema):
    """Mechanical dissipation law rho(z).

    kind 'none': 0; 'linear': alpha*z; 'power': alpha*z + k1*|z|^p z
    (pointwise Euclidean norm), a concrete law compatible with the
    polynomial growth hypotheses and the monotonicity constant k_c = alpha.

    The IMEX step takes k1*|u'|^p u' explicitly, at its midpoint predictor,
    so dt*k1*|u'|^p/rho_m must stay below O(1).  Rough data can break that:
    white-noise clamped data of size 0.1 on a 4 x 14 grid (rho_m = 0.5,
    k1 = 1, p = 3.5) diverges at dt = 1e-3 and completes at dt = 5e-4.
    """

    section = "dissipation"
    kind: str = "none"
    alpha: float = 0.0
    k0: float = 1.0
    k1: float = 1.0
    p: float = 3.0
    r_rho: float = 1.0
    k_c: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "linear", "power"):
            raise ParameterError(f"unknown dissipation kind {self.kind!r}")
        if self.kind == "linear" and self.alpha <= 0:
            raise ParameterError("linear dissipation requires alpha > 0")
        if self.kind == "power":
            if self.k0 <= 0 or self.k1 < 0 or self.r_rho <= 0:
                raise ParameterError("power dissipation requires k0 > 0, k1 >= 0, r_rho > 0")
            if not (3.0 <= self.p <= 4.0):
                raise ParameterError("power exponent p must lie in [3, 4]")

    @property
    def linear_alpha(self) -> float:
        """The coefficient of the law's linear part alpha*z."""
        return 0.0 if self.kind == "none" else self.alpha

    @property
    def q_exponent(self) -> float:
        """Conjugate-type exponent (p+2)/(p+1) of the forcing space."""
        return (self.p + 2.0) / (self.p + 1.0)

    def pointwise(self, zx: np.ndarray, zy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.kind == "none":
            return np.zeros_like(zx), np.zeros_like(zy)
        if self.kind == "linear":
            return self.alpha * zx, self.alpha * zy
        mag = np.sqrt(zx * zx + zy * zy)
        fac = self.alpha + self.k1 * mag**self.p
        return fac * zx, fac * zy


@dataclass(frozen=True)
class TrigPoly(Schema):
    """Trigonometric polynomial in 2*pi*t/T; exactly T-periodic."""

    section = "forcing term g"
    a0: float = 0.0
    cos: tuple = ()
    sin: tuple = ()

    def __call__(self, t: float, period: float) -> float:
        w = 2.0 * np.pi * t / period
        val = self.a0
        for k, a in enumerate(self.cos, start=1):
            val += a * np.cos(k * w)
        for k, b in enumerate(self.sin, start=1):
            val += b * np.sin(k * w)
        return val


# forcing term and shape schemas: key -> (type name, default)
_TERM_KEYS = {"target": ("str", MISSING), "g": ("dict", {}), "shape": ("dict", {})}
_SHAPE_KEYS = {
    "f1": {"jx": ("int", 1), "jy": ("int", 0), "amplitude": ("float", 1.0)},
    "f2": {"jx": ("int", 1), "jy": ("int", 1), "amplitude": ("float", 1.0),
           "component": ("int", 0)},
}


def _parse_term(term) -> tuple[str, TrigPoly, dict]:
    """A forcing term's target, its parsed g and its shape with every
    default filled in."""
    t = parse_section(term, _TERM_KEYS, "forcing term")
    if t["target"] not in _SHAPE_KEYS:
        raise ParameterError("forcing term target must be 'f1' or 'f2'")
    shape = parse_section(t["shape"], _SHAPE_KEYS[t["target"]], f"{t['target']} shape")
    if shape.get("component", 0) not in (0, 1):
        raise ParameterError("f2 shape component must be 0 (x) or 1 (y)")
    return t["target"], TrigPoly.from_dict(t["g"]), shape


@lru_cache(maxsize=32)
def _profile(grid: Grid2D, target: str, jx: int, jy: int, amplitude: float,
             component: int = 0) -> tuple[np.ndarray, ...]:
    """A forcing term's spatial profile in flat coordinates, built once per
    grid and shape and read-only.  f1: (cosine product over all nodes,),
    mean-zero unless (jx, jy) = (0, 0).  f2: (ux, uy) at the interior nodes,
    a sine product in ux for component 0 and uy for 1, zero on the boundary."""
    x, y = grid.xy
    if target == "f1":
        out = ((amplitude * np.cos(jx * np.pi * x / grid.lx)
                * np.cos(jy * np.pi * y / grid.ly)).ravel(),)
    else:
        mode = (amplitude * np.sin(jx * np.pi * x / grid.lx)
                * np.sin(jy * np.pi * y / grid.ly))[1:-1, 1:-1].ravel()
        zero = np.zeros_like(mode)
        out = (mode, zero) if component == 0 else (zero, mode)
    for a in out:
        a.flags.writeable = False
    return out


# time-trapezoid intervals over one period of the forcing norms
FORCING_NORM_STEPS = 200


@dataclass
class Forcing(Schema):
    """T-periodic forcing as a sum of separable terms g(t)*phi(x, y).

    Each term is {"target": "f1"|"f2", "g": TrigPoly dict, "shape": {"jx",
    "jy", "amplitude", and for f2 "component"}}; the constructor checks the
    keys and keeps each term with every default filled in.
    """

    section = "forcing"
    period: float
    terms: list = field(default_factory=list)

    def __post_init__(self):
        if self.period <= 0:
            raise ParameterError("forcing period must be positive")
        self._parsed = [_parse_term(t) for t in self.terms]
        self.terms = [{"target": tg, "g": g.to_dict(), "shape": shape}
                      for tg, g, shape in self._parsed]

    @classmethod
    def zero(cls, period: float = 1.0) -> "Forcing":
        return cls(period=period, terms=[])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def packed(self, grid: Grid2D, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(f2, f1) at t in flat coordinates, f2 packed interior and f1
        raveled: the sum of the terms' cached read-only profiles times g(t)."""
        f2, f1 = np.zeros((2, grid.n_interior)), np.zeros((1, grid.n_nodes))
        for tg, g, shape in self._parsed:
            gt = g(t, self.period)
            for a, p in zip(f1 if tg == "f1" else f2, _profile(grid, tg, **shape)):
                a += gt * p
        return f2.ravel(), f1[0]

    def f1(self, grid: Grid2D, t: float) -> ScalarField:
        return ScalarField(grid, self.packed(grid, t)[1].reshape(grid.shape), bc="none")

    def f2(self, grid: Grid2D, t: float) -> VectorField2:
        f2 = unpack_interior(grid, self.packed(grid, t)[0])
        f2.bc = "none"
        return f2

    def l1_l2_norm(self, grid: Grid2D) -> float:
        """Time-trapezoid approximation of int_0^T |f(t)|_L2 dt over one
        period (both components combined)."""
        ts = np.linspace(0.0, self.period, FORCING_NORM_STEPS + 1)
        vals = [np.sqrt(norm_l2(self.f2(grid, t)) ** 2 + norm_l2(self.f1(grid, t)) ** 2)
                for t in ts]
        return float(np.trapezoid(vals, ts))

    def l1_h1_norm(self, grid: Grid2D) -> float:
        """int_0^T ||f(t)||_H1 dt with the discrete H1 norm."""
        ts = np.linspace(0.0, self.period, FORCING_NORM_STEPS + 1)
        vals = []
        for t in ts:
            f1, f2 = self.f1(grid, t), self.f2(grid, t)
            sq = (
                norm_l2(f1) ** 2
                + grad_edge_inner(f1.values, f1.values, grid)
                + norm_l2(f2) ** 2
                + grad_edge_inner(f2.ux, f2.ux, grid)
                + grad_edge_inner(f2.uy, f2.uy, grid)
            )
            vals.append(np.sqrt(sq))
        return float(np.trapezoid(vals, ts))


@dataclass
class State:
    """Snapshot (u, u', h, t) of the coupled system."""

    u: VectorField2
    ut: VectorField2
    h: ScalarField
    t: float = 0.0

    def __post_init__(self):
        if not (self.u.grid == self.ut.grid == self.h.grid):
            raise DomainMismatchError("state fields live on different grids")
        if self.u.bc != "dirichlet_zero" or self.ut.bc != "dirichlet_zero":
            raise ContractViolationError("u, u' must be dirichlet_zero")
        if self.h.bc != "neumann":
            raise ContractViolationError("h must be neumann")

    @property
    def grid(self) -> Grid2D:
        return self.u.grid

    def packed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat coordinates (u, u', h): packed interior u and u', raveled h."""
        return pack_interior(self.u), pack_interior(self.ut), self.h.values.ravel()

    def copy(self) -> "State":
        return State(self.u.copy(), self.ut.copy(), self.h.copy(), self.t)

    def with_time(self, t: float) -> "State":
        return State(self.u.copy(), self.ut.copy(), self.h.copy(), t)

    def scaled(self, factor: float) -> "State":
        g = self.grid
        return State(
            VectorField2(g, factor * self.u.ux, factor * self.u.uy, bc="dirichlet_zero"),
            VectorField2(g, factor * self.ut.ux, factor * self.ut.uy, bc="dirichlet_zero"),
            ScalarField(g, factor * self.h.values, bc="neumann"),
            self.t,
        )

    @classmethod
    def zero(cls, grid: Grid2D, t: float = 0.0) -> "State":
        return cls(
            VectorField2.zeros(grid, bc="dirichlet_zero"),
            VectorField2.zeros(grid, bc="dirichlet_zero"),
            ScalarField.zeros(grid, bc="neumann"),
            t,
        )


# ---------------------------------------------------------------------------
# coupling terms

def coupling_packed(grid: Grid2D, v: np.ndarray, h: np.ndarray,
                    params: MaterialParams) -> tuple[np.ndarray, np.ndarray]:
    """The coupling terms on packed interior u' and raveled h, from one
    product with blockdiag(G, D): the body force -mu0 (b0 + h) G h and the
    induction flux -D((b0 + h) u'), :func:`lorentz_force` at the interior
    nodes and :func:`induction_term`."""
    bh = params.b0 + h[grid.interior]
    gh_dw = grid.grad_and_div @ np.concatenate((h, bh * v))
    return (-params.mu0 * bh) * gh_dw[:len(v)], -gh_dw[len(v):]


def lorentz_force(h: ScalarField, params: MaterialParams) -> VectorField2:
    """Magnetic body-force contribution -mu0*(b0 + h)*grad h on the
    right-hand side of the elastic equation, from the grid's ddx and ddy."""
    if h.bc != "neumann":
        raise ContractViolationError("lorentz_force requires a Neumann field")
    g, a = h.grid, h.values.ravel()
    fac = -params.mu0 * (params.b0 + a)
    return VectorField2(g, *((fac * (d @ a)).reshape(g.shape) for d in (g.ddx, g.ddy)),
                        bc="none")


def induction_term(ut: VectorField2, h: ScalarField, params: MaterialParams) -> ScalarField:
    """Right-hand-side contribution -div((b0 + h) u') of the magnetic
    equation, from the grid's ddx and ddy; integrates to zero because the
    flux vanishes on the boundary."""
    if ut.bc != "dirichlet_zero":
        raise ContractViolationError("induction_term requires dirichlet_zero u'")
    g, fac = ut.grid, params.b0 + h.values.ravel()
    return ScalarField(g, -(g.ddx @ (fac * ut.ux.ravel()) + g.ddy @ (fac * ut.uy.ravel()))
                       .reshape(g.shape), bc="none")


# ---------------------------------------------------------------------------
# dissipation-law validators

def _sample_shells(rng: np.random.Generator, n: int, r_max: float) -> np.ndarray:
    """Random 2-vectors with radii spread over (0, r_max]."""
    radii = r_max * (np.arange(1, n + 1) / n)
    angles = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])


def validate_h2(spec: DissipationSpec, n_samples: int = 10_000, seed: int = 0) -> dict:
    """Sampled check of the polynomial dissipation hypotheses

        (rho(z), z) >= k0 |z|^{p+2}        for all z,
        |rho(z)|   <= k1_bound |z|^{p+1}   for |z| >= r_rho,

    over shells |z| in (0, 10*r_rho].  The upper bound is checked against
    the law's k1 plus the linear part's worst-case contribution.
    """
    if spec.kind != "power":
        raise ParameterError("validate_h2 applies to power-law dissipation")
    rng = np.random.default_rng(seed)
    z = _sample_shells(rng, n_samples, 10.0 * spec.r_rho)
    rx, ry = spec.pointwise(z[:, 0], z[:, 1])
    mag = np.hypot(z[:, 0], z[:, 1])
    pair = rx * z[:, 0] + ry * z[:, 1]
    lower = pair - spec.k0 * mag ** (spec.p + 2.0)
    i_lo = int(np.argmin(lower))
    k1_bound = spec.k1 + spec.alpha / spec.r_rho**spec.p
    outer = mag >= spec.r_rho
    rho_mag = np.hypot(rx, ry)
    upper = np.where(outer, k1_bound * mag ** (spec.p + 1.0) - rho_mag, np.inf)
    i_up = int(np.argmin(upper))
    report = {
        "q": spec.q_exponent,
        "margin_lower": float(lower.min()),
        "worst_shell_lower": float(mag[i_lo]),
        "margin_upper": float(upper[i_up]) if np.isfinite(upper[i_up]) else None,
        "worst_shell_upper": float(mag[i_up]) if np.isfinite(upper[i_up]) else None,
        "k1_bound": k1_bound,
        "n_samples": n_samples,
    }
    report["passed"] = bool(
        lower.min() >= -1e-12 and (report["margin_upper"] is None or report["margin_upper"] >= -1e-12)
    )
    return report


def validate_kc(spec: DissipationSpec, n_samples: int = 10_000, seed: int = 0) -> dict:
    """Sampled check of the monotonicity condition

        (rho(u + w) - rho(u), z) >= k_c (w, z)

    with the increment direction z = w (the pairing used in the decay
    argument; a literal all-z statement only admits linear laws).  The
    linear law satisfies it with equality at k_c = alpha.
    """
    rng = np.random.default_rng(seed)
    r_scale = 5.0 * (spec.r_rho if spec.kind == "power" else 1.0)
    u = _sample_shells(rng, n_samples, r_scale)
    w = _sample_shells(rng, n_samples, r_scale)[rng.permutation(n_samples)]
    rux, ruy = spec.pointwise(u[:, 0], u[:, 1])
    rvx, rvy = spec.pointwise(u[:, 0] + w[:, 0], u[:, 1] + w[:, 1])
    lhs = (rvx - rux) * w[:, 0] + (rvy - ruy) * w[:, 1]
    rhs_ = spec.k_c * (w[:, 0] ** 2 + w[:, 1] ** 2)
    margin = lhs - rhs_
    i = int(np.argmin(margin))
    scale = max(1.0, float(np.abs(rhs_).max()))
    passed = bool(margin[i] >= -1e-12 * scale)
    report = {
        "k_c": spec.k_c,
        "margin": float(margin[i]),
        "passed": passed,
        "n_samples": n_samples,
    }
    if not passed:
        report["witness"] = {
            "u": [float(u[i, 0]), float(u[i, 1])],
            "w": [float(w[i, 0]), float(w[i, 1])],
            "z": [float(w[i, 0]), float(w[i, 1])],
        }
    return report


# ---------------------------------------------------------------------------
# Galerkin eigenbasis

MAX_DENSE_DOF = 5000    # unknowns the dense eigensolve path may densify
# Below this many unknowns the dense elastic solve is the faster one (one
# BLAS thread, m = 5 or 8: 7 ms against 7-11 ms for Lanczos with its
# certificate at 338 unknowns, 21-25 ms against 14-16 ms at 578; the two
# swap places between about 400 and 580), and a process that builds only
# such bases also skips importing scipy.sparse.linalg (18 ms, 1.9 MB).
LANCZOS_MIN_DOF = 500


@dataclass
class GalerkinBasis:
    """Leading eigenpairs of the elastic and magnetic bilinear forms,
    mass-orthonormal under the trapezoid quadrature."""

    grid: Grid2D
    m: int
    m_magnetic: int
    elastic_vals: np.ndarray       # (m,)
    elastic_vecs: np.ndarray       # (2*n_interior, m), packed interior DOFs
    magnetic_vals: np.ndarray      # (m_magnetic,)
    magnetic_vecs: np.ndarray      # (n_nodes, m_magnetic)

    def elastic_mode(self, j: int) -> VectorField2:
        return unpack_interior(self.grid, self.elastic_vecs[:, j])

    def magnetic_mode(self, k: int) -> ScalarField:
        return ScalarField(self.grid, self.magnetic_vecs[:, k].reshape(self.grid.shape), bc="neumann")

    def save(self, path) -> None:
        np.savez(
            path,
            signature=self.grid.signature(),
            grid=np.array([self.grid.nx, self.grid.ny, self.grid.lx, self.grid.ly]),
            m=self.m,
            m_magnetic=self.m_magnetic,
            elastic_vals=self.elastic_vals,
            elastic_vecs=self.elastic_vecs,
            magnetic_vals=self.magnetic_vals,
            magnetic_vecs=self.magnetic_vecs,
        )


def build_galerkin_basis(
    grid: Grid2D,
    params: MaterialParams,
    m: int,
    m_magnetic: int | None = None,
) -> GalerkinBasis:
    """First m eigenpairs of the elastic form and m_magnetic of the magnetic
    form, trapezoid-orthonormal: the closed-form ``grid.neumann_modes`` with
    values 1 + nu1*kappa, and, as every interior node weighs dx*dy, the m
    lowest eigenpairs of the symmetric Lame matrix, ascending.  Those come
    from ``_lanczos_modes``; a basis of N/2 or more of the N unknowns,
    beyond Lanczos' reach, or on fewer than LANCZOS_MIN_DOF unknowns comes
    from a dense ``eigh``, limited to MAX_DENSE_DOF unknowns."""
    if m_magnetic is None:
        m_magnetic = m
    n = 2 * grid.n_interior
    if m < 1 or m > n:
        raise ParameterError(f"need 1 <= m <= {n} elastic modes")
    if m_magnetic < 1 or m_magnetic > grid.n_nodes:
        raise ParameterError(f"need 1 <= m_magnetic <= {grid.n_nodes} magnetic modes")
    # ARPACK needs k < N and builds a Krylov space of max(2k + 1, 20) vectors
    dense = n < LANCZOS_MIN_DOF or 2 * m + 1 >= n
    if dense and n > MAX_DENSE_DOF:
        raise ParameterError(f"{m} of {n} elastic modes need a dense eigensolve "
                             f"(limit {MAX_DENSE_DOF} DOF)")

    a_el = lame_operator_matrix(grid, params.mu, params.lam)
    if dense:
        vals, vecs = scipy.linalg.eigh(a_el.toarray(), subset_by_index=(0, m - 1))
    else:
        vals, vecs = _lanczos_modes(a_el, m)
    kappa, mvecs = grid.neumann_modes(m_magnetic)
    return GalerkinBasis(
        grid=grid,
        m=m,
        m_magnetic=m_magnetic,
        elastic_vals=vals,
        elastic_vecs=vecs / np.sqrt(grid.dx * grid.dy),
        magnetic_vals=1.0 + params.nu1 * kappa,
        magnetic_vecs=mvecs,
    )


def _lanczos_modes(a: sparse.csr_array, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m lowest eigenpairs of the sparse symmetric positive definite
    matrix a, ascending: shift-invert Lanczos about 0 (ARPACK through
    ``eigsh``; Saad, Numerical Methods for Large Eigenvalue Problems, 2nd
    ed., 2011, ch. 4-5) from a fixed start vector, so a build replays bit
    for bit, with the count certified by ``_certify_mode_count``."""
    import scipy.sparse.linalg    # here, so that dense-only processes skip it

    v0 = np.random.default_rng(0).standard_normal(a.shape[0])
    vals, vecs = scipy.sparse.linalg.eigsh(a, m, sigma=0.0, v0=v0, tol=0)
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    _certify_mode_count(a, vals)
    return vals, vecs


# Eigenvalues within this relative distance of the highest returned one form
# its degenerate group; exact pairs of a square grid split at about 1e-13.
_GROUP_RTOL = 1e-8


def _certify_mode_count(a: sparse.csr_array, vals: np.ndarray) -> None:
    """Check that the ascending eigenvalues vals of the symmetric matrix a
    are its lowest, none skipped, by Sylvester's law of inertia: the pivots
    of an LDL^T factorization of a - cut*I, with cut just below the start
    of the highest value's degenerate group, hold as many negatives as a
    has eigenvalues below cut.  Lanczos can miss one copy of a repeated
    eigenvalue; that shows as fewer returned values below cut."""
    import scipy.sparse.linalg

    start = vals[vals >= vals[-1] * (1.0 - _GROUP_RTOL)][0]
    cut = start * (1.0 - _GROUP_RTOL)
    lu = scipy.sparse.linalg.splu((a - cut * sparse.eye_array(a.shape[0])).tocsc(),
                                  diag_pivot_thresh=0, options={"SymmetricMode": True})
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise MelabError("inertia count needs a symmetric pivot order")
    below = int(np.count_nonzero(lu.U.diagonal() < 0))
    found = int(np.count_nonzero(vals < cut))
    if found != below:
        raise MelabError(f"Lanczos returned {found} elastic eigenvalues below {cut:.17g}, "
                         f"the Lame matrix has {below}")


def project(basis: GalerkinBasis, field_) -> np.ndarray:
    """Mass-orthogonal coefficients of a field in the basis span."""
    if isinstance(field_, VectorField2):
        if field_.grid != basis.grid:
            raise DomainMismatchError("field grid does not match basis grid")
        return basis.elastic_vecs.T @ (basis.grid.vector_weights * pack_interior(field_))
    if isinstance(field_, ScalarField):
        if field_.grid != basis.grid:
            raise DomainMismatchError("field grid does not match basis grid")
        ws = basis.grid.weights.ravel()
        return basis.magnetic_vecs.T @ (ws * field_.values.ravel())
    raise DomainMismatchError("project() accepts ScalarField or VectorField2")


def reconstruct(basis: GalerkinBasis, coeffs: np.ndarray, kind: str = "elastic"):
    """Field represented by the coefficient vector."""
    coeffs = np.asarray(coeffs, dtype=float)
    if kind == "elastic":
        if coeffs.shape != (basis.m,):
            raise DomainMismatchError(f"expected {basis.m} elastic coefficients")
        return unpack_interior(basis.grid, basis.elastic_vecs @ coeffs)
    if kind == "magnetic":
        if coeffs.shape != (basis.m_magnetic,):
            raise DomainMismatchError(f"expected {basis.m_magnetic} magnetic coefficients")
        return ScalarField(
            basis.grid, (basis.magnetic_vecs @ coeffs).reshape(basis.grid.shape), bc="neumann"
        )
    raise ParameterError("kind must be 'elastic' or 'magnetic'")


def random_state(
    grid: Grid2D,
    basis: GalerkinBasis,
    seed: int,
    amplitude: float = 1.0,
    n_modes: int | None = None,
    mean_zero_h: bool = True,
) -> State:
    """Random eigenmode combination with controlled energy scale."""
    if seed < 0 or (n_modes is not None and n_modes < 1):
        raise ParameterError("random_state needs seed >= 0 and n_modes >= 1")
    rng = np.random.default_rng(seed)
    mel = n_modes or basis.m
    mmag = n_modes or basis.m_magnetic
    mel = min(mel, basis.m)
    mmag = min(mmag, basis.m_magnetic)
    cu = np.zeros(basis.m)
    cv = np.zeros(basis.m)
    ch = np.zeros(basis.m_magnetic)
    cu[:mel] = rng.standard_normal(mel) / np.sqrt(np.maximum(basis.elastic_vals[:mel], 1.0))
    cv[:mel] = rng.standard_normal(mel)
    ch[:mmag] = rng.standard_normal(mmag)
    if mean_zero_h:
        ch[0] = 0.0  # drop the constant magnetic mode
    u = reconstruct(basis, amplitude * cu, "elastic")
    ut = reconstruct(basis, amplitude * cv, "elastic")
    h = reconstruct(basis, amplitude * ch, "magnetic")
    return State(u, ut, h, 0.0)
