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
    interior_nodal,
    lame_operator_matrix,
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
        self._require_finite_floats()
        if min(self.rho_m, self.mu, self.lam, self.nu1, self.mu0) <= 0:
            raise ParameterError(
                "rho_m, mu, lam, nu1, mu0 must all be positive"
            )


@dataclass(frozen=True)
class DissipationSpec(Schema):
    """Mechanical dissipation law rho(z).

    kind 'none': 0; 'linear': alpha*z; 'power': alpha*z + k1*|z|^p z
    (pointwise Euclidean norm).  The power law meets the polynomial growth
    and monotonicity hypotheses in closed form:

        (rho(z), z) = alpha |z|^2 + k1 |z|^(p+2) >= k1 |z|^(p+2),
        (rho(u + w) - rho(u), w) >= alpha |w|^2, as |z|^p z is monotone.

    On packed velocities v it is (linear_alpha + superlinear(v)) * v.  The
    IMEX step takes superlinear(v) * v explicitly, at its midpoint predictor,
    so dt*k1*|u'|^p/rho_m must stay below O(1).  Rough data can break that:
    white-noise clamped data of size 0.1 on a 4 x 14 grid (rho_m = 0.5,
    k1 = 1, p = 3.5) diverges at dt = 1e-3 and completes at dt = 5e-4.
    """

    section = "dissipation"
    kind: str = "none"
    alpha: float = 0.0
    k1: float = 1.0
    p: float = 3.0

    def __post_init__(self):
        self._require_finite_floats()
        if self.kind not in ("none", "linear", "power"):
            raise ParameterError(f"unknown dissipation kind {self.kind!r}")
        if self.kind == "linear" and self.alpha <= 0:
            raise ParameterError("linear dissipation requires alpha > 0")
        if self.kind == "power":
            if self.k1 < 0:
                raise ParameterError("power dissipation requires k1 >= 0")
            if not (3.0 <= self.p <= 4.0):
                raise ParameterError("power exponent p must lie in [3, 4]")

    @property
    def linear_alpha(self) -> float:
        """The coefficient of the law's linear part alpha*z."""
        return 0.0 if self.kind == "none" else self.alpha

    def superlinear(self, v: np.ndarray):
        """k1 |v|^p at each DOF of packed interior velocities v (ux, then uy),
        |v| the pointwise Euclidean norm; 0 unless the kind is 'power'."""
        if self.kind != "power":
            return 0.0
        vx, vy = v.reshape(2, -1)
        return np.tile(self.k1 * np.sqrt(vx**2 + vy**2) ** self.p, 2)


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


def _parse_term(term) -> dict:
    """A forcing term checked, with every default of its g and its shape
    filled in."""
    t = parse_section(term, _TERM_KEYS, "forcing term")
    if t["target"] not in _SHAPE_KEYS:
        raise ParameterError("forcing term target must be 'f1' or 'f2'")
    shape = parse_section(t["shape"], _SHAPE_KEYS[t["target"]], f"{t['target']} shape")
    if shape.get("component", 0) not in (0, 1):
        raise ParameterError("f2 shape component must be 0 (x) or 1 (y)")
    return {"target": t["target"], "g": TrigPoly.from_dict(t["g"]).to_dict(), "shape": shape}


@lru_cache(maxsize=32)
def _profile(grid: Grid2D, target: str, jx: int, jy: int, amplitude: float,
             component: int = 0) -> np.ndarray:
    """A forcing term's spatial profile in the flat layout of ``packed_on``,
    f2 packed interior then f1 over all nodes, built once per grid and shape
    and read-only.  f1: a cosine product, mean-zero unless (jx, jy) = (0, 0).
    f2: a sine product in ux for component 0 and uy for 1, zero on the
    boundary."""
    x, y = grid.xy
    n = grid.n_interior
    out = np.zeros(2 * n + grid.n_nodes)
    if target == "f1":
        out[2 * n:] = (amplitude * np.cos(jx * np.pi * x / grid.lx)
                       * np.cos(jy * np.pi * y / grid.ly)).ravel()
    else:
        mode = amplitude * np.sin(jx * np.pi * x / grid.lx) * np.sin(jy * np.pi * y / grid.ly)
        out[component * n:(component + 1) * n] = mode[1:-1, 1:-1].ravel()
    out.flags.writeable = False
    return out


# time-trapezoid intervals over one period of the forcing norms
FORCING_NORM_STEPS = 200


@dataclass(frozen=True)
class Forcing(Schema):
    """Immutable T-periodic forcing as a sum of separable terms g(t)*phi(x, y),
    evaluated in flat coordinates by ``packed_on`` only.

    Each term is {"target": "f1"|"f2", "g": TrigPoly dict, "shape": {"jx",
    "jy", "amplitude", and for f2 "component"}}; ``terms`` holds them once,
    checked and with every default filled in, in a tuple.
    """

    section = "forcing"
    period: float
    terms: list = ()    # the config type, "list"; held as a tuple

    def __post_init__(self):
        self._require_finite_floats()
        if self.period <= 0:
            raise ParameterError("forcing period must be positive")
        object.__setattr__(self, "terms", tuple(_parse_term(t) for t in self.terms))

    @classmethod
    def zero(cls, period: float = 1.0) -> "Forcing":
        return cls(period=period)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def to_dict(self) -> dict:
        return {"period": self.period, "terms": list(self.terms)}

    def packed_on(self, grid: Grid2D):
        """t -> (f2, f1) at t in flat coordinates, f2 packed interior and f1
        raveled: the sum of the terms' cached read-only profiles times g(t),
        the profiles looked up once, here."""
        n, period = 2 * grid.n_interior, self.period
        terms = [(TrigPoly(**t["g"]), _profile(grid, t["target"], **t["shape"]))
                 for t in self.terms]
        size = n + grid.n_nodes

        def at(t: float) -> tuple[np.ndarray, np.ndarray]:
            out = np.zeros(size)
            for g, profile in terms:
                out += g(t, period) * profile
            return out[:n], out[n:]

        return at

    def f1(self, grid: Grid2D, t: float) -> ScalarField:
        return ScalarField(grid, self.packed_on(grid)(t)[1].reshape(grid.shape), bc="none")

    def f2(self, grid: Grid2D, t: float) -> VectorField2:
        return VectorField2(grid, *interior_nodal(grid, self.packed_on(grid)(t)[0]), bc="none")

    def l1_l2_norm(self, grid: Grid2D) -> float:
        """Time-trapezoid approximation of int_0^T |f(t)|_L2 dt over one
        period (both components combined)."""
        return self._l1_norm(grid, gradient=False)

    def l1_h1_norm(self, grid: Grid2D) -> float:
        """int_0^T ||f(t)||_H1 dt with the discrete H1 norm."""
        return self._l1_norm(grid, gradient=True)

    def _l1_norm(self, grid: Grid2D, gradient: bool) -> float:
        """The time trapezoid of the L2 or H1 norm of (f2, f1) on the flat
        arrays of one ``packed_on``: weighted dots, plus edge sums for H1."""
        at, w2, w1 = self.packed_on(grid), grid.vector_weights, grid.weights.ravel()
        ts = np.linspace(0.0, self.period, FORCING_NORM_STEPS + 1)
        vals = []
        for f2, f1 in map(at, ts):
            sq = f2 @ (w2 * f2) + f1 @ (w1 * f1)
            if gradient:
                sq += sum(grad_edge_inner(a, a, grid) for a in (f1, *interior_nodal(grid, f2)))
            vals.append(np.sqrt(sq))
        return float(np.trapezoid(vals, ts))


@dataclass
class State:
    """The coupled system at time t in the flat coordinates the integrator
    steps, y = (u, u', h): packed interior u and u', raveled h, held as
    read-only views, not copies.  ``u``, ``ut`` and ``h`` build fields."""

    grid: Grid2D
    y: tuple
    t: float = 0.0

    def __post_init__(self):
        # from a list: CPython resizes a tuple(generator) and strands it in a free list
        self.y = tuple([np.asarray(x, dtype=float).view() for x in self.y])
        shapes, n = [x.shape for x in self.y], 2 * self.grid.n_interior
        if shapes != [(n,), (n,), (self.grid.n_nodes,)]:
            raise DomainMismatchError(f"state array shapes {shapes} do not fit {self.grid}")
        if not all(np.isfinite(x).all() for x in self.y):
            raise ParameterError("state contains non-finite values")
        for x in self.y:
            x.flags.writeable = False

    @classmethod
    def from_fields(cls, u: VectorField2, ut: VectorField2, h: ScalarField,
                    t: float = 0.0) -> "State":
        """The state of clamped u, u' and Neumann h on one grid."""
        if not (u.grid == ut.grid == h.grid):
            raise DomainMismatchError("state fields live on different grids")
        if (u.bc, ut.bc, h.bc) != ("dirichlet_zero", "dirichlet_zero", "neumann"):
            raise ContractViolationError("u, u' must be dirichlet_zero and h neumann")
        return cls(u.grid, (pack_interior(u), pack_interior(ut), h.values.flatten()), t)

    @property
    def u(self) -> VectorField2:
        return unpack_interior(self.grid, self.y[0])

    @property
    def ut(self) -> VectorField2:
        return unpack_interior(self.grid, self.y[1])

    @property
    def h(self) -> ScalarField:
        return ScalarField(self.grid, self.y[2].reshape(self.grid.shape), bc="neumann")

    def with_time(self, t: float) -> "State":
        return State(self.grid, self.y, t)

    def scaled(self, factor: float) -> "State":
        return State(self.grid, tuple(factor * x for x in self.y), self.t)

    @classmethod
    def zero(cls, grid: Grid2D, t: float = 0.0) -> "State":
        n = 2 * grid.n_interior
        return cls(grid, (np.zeros(n), np.zeros(n), np.zeros(grid.n_nodes)), t)


# ---------------------------------------------------------------------------
# coupling terms

def coupling_packed(bh: np.ndarray, gh_dw: np.ndarray,
                    params: MaterialParams) -> tuple[np.ndarray, np.ndarray]:
    """The coupling terms on packed interior u' and raveled h, from
    bh = b0 + h at the packed interior DOFs and gh_dw = [G h; D(bh u')],
    the product of [h; bh u'] with the grid's blockdiag(G, D) or with the
    coupling rows of the step's fused matrix: the body force
    -mu0 bh G h and the induction flux -D(bh u'), :func:`lorentz_force` at
    the interior nodes and :func:`induction_term`."""
    return (-params.mu0 * bh) * gh_dw[:len(bh)], -gh_dw[len(bh):]


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

    def project(self, u: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mass-orthogonal coefficients (c, ct) of packed interior u and
        raveled nodal h, the trapezoid-weighted products with the modes."""
        return (self.elastic_vecs.T @ (self.grid.vector_weights * u),
                self.magnetic_vecs.T @ (self.grid.weights.ravel() * h))

    def lift(self, c: np.ndarray, ct: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Packed interior u and raveled nodal h of the coefficients (c, ct)."""
        return self.elastic_vecs @ c, self.magnetic_vecs @ ct

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
    eigenvalue; that shows as fewer returned values below cut.  Minimum
    degree on a^T + a, SuperLU's order for its symmetric mode, fills less than COLAMD."""
    import scipy.sparse.linalg

    start = vals[vals >= vals[-1] * (1.0 - _GROUP_RTOL)][0]
    cut = start * (1.0 - _GROUP_RTOL)
    lu = scipy.sparse.linalg.splu((a - cut * sparse.eye_array(a.shape[0])).tocsc(),
                                  permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                                  options={"SymmetricMode": True})
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise MelabError("inertia count needs a symmetric pivot order")
    below = int(np.count_nonzero(lu.U.diagonal() < 0))
    found = int(np.count_nonzero(vals < cut))
    if found != below:
        raise MelabError(f"Lanczos returned {found} elastic eigenvalues below {cut:.17g}, "
                         f"the Lame matrix has {below}")


def random_state(
    grid: Grid2D,
    basis: GalerkinBasis,
    seed: int,
    amplitude: float = 1.0,
    n_modes: int | None = None,
) -> State:
    """Random eigenmode combination with controlled energy scale, without
    the constant magnetic mode: mean(h) is zero to round-off."""
    if grid != basis.grid:
        raise DomainMismatchError("random_state grid does not match basis grid")
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
    ch[0] = 0.0
    ct = amplitude * ch
    (u, h), (v, _) = basis.lift(amplitude * cu, ct), basis.lift(amplitude * cv, ct)
    return State(grid, (u, v, h))
