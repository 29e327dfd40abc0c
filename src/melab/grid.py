"""Rectangular nodal grid, fields and mimetic difference operators.

The operator pair (gradient, divergence) satisfies a discrete
integration-by-parts identity under the trapezoid quadrature:

    (grad h, w) + (h, div w) = 0

exactly (to round-off) whenever w vanishes on the boundary.  The Neumann
Laplacian is the flux difference of edge-centered gradients, which makes it
self-adjoint in the quadrature inner product and pairs it exactly with the
edge gradient form ``grad_edge_inner``; the elastic operator pairs
the Dirichlet Laplacian with the quadrature adjoint of the divergence in the
same way.  That compatibility is what turns the continuous energy balance of
the model into a machine-checkable identity.

Each operator has one definition: a sparse matrix assembled once per grid
from 1D stencils by Kronecker products (``Grid2D.ddx``/``ddy``, the SBP
first derivatives over all nodes, whose interior rows and columns are the
gradient G and the divergence D; ``Grid2D.lap_neumann``,
``Grid2D.lap_dirichlet``, ``Grid2D.grad_div``), and the Lame matrix
``lame_operator_matrix``, cached once per grid and material.  Applying an
operator is a matrix-vector product with it and the implicit solves factor
it in banded form.  The matrices are built in canonical CSR form (sorted
indices, no duplicates): scipy sorts a non-canonical matrix in place
whenever an operation needs it so, after which every product with the
cached matrix would sum in another order.  The eigenpairs of both scalar
Laplacians are closed forms, DCT-I and DST-I tensor modes
(``Grid2D.neumann_modes``, ``Grid2D.dirichlet_modes``).

The module also holds the config schema (``parse_section``, ``Schema``)
through which every parameter type reads its section of a config file, and
``write_csv``, the one writer of the archive CSV files.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from functools import cached_property, lru_cache

import numpy as np
from scipy import sparse


class MelabError(Exception):
    """Base class for all package errors."""


class DomainMismatchError(MelabError):
    """Fields defined on different grids were combined."""


class ContractViolationError(MelabError):
    """A field carried the wrong boundary tag for the operation."""


class ParameterError(MelabError):
    """A physical or numerical parameter violated its constraints."""


def parse_section(d, keys: dict, what: str) -> dict:
    """Config section ``d`` checked against its schema ``keys`` (key ->
    (type name, default); MISSING marks a required key, a None default an
    optional one that may be null) and returned with every default filled in."""
    if not isinstance(d, dict):
        raise ParameterError(f"{what} must be a JSON object, got {d!r}")
    unknown = sorted(set(d) - set(keys))
    if unknown:
        raise ParameterError(
            f"unknown key {', '.join(map(repr, unknown))} in {what}; allowed: {', '.join(keys)}"
        )
    out = {}
    for key, (kind, default) in keys.items():
        if key not in d:
            if default is MISSING:
                raise ParameterError(f"{what} needs the key {key!r}")
            out[key] = default
        elif d[key] is None and default is None:
            out[key] = None
        else:
            out[key] = _coerce(d[key], kind, f"{what}.{key}")
    return out


def _coerce(v, kind: str, where: str):
    def number(x):    # a finite float, or an int that converts to one
        return (isinstance(x, int) and not isinstance(x, bool) and abs(x) < 1e308) or (
            isinstance(x, float) and np.isfinite(x))

    if kind == "float" and number(v):
        return float(v)
    if kind == "int" and number(v) and float(v).is_integer():
        return int(v)
    if kind == "tuple" and isinstance(v, (list, tuple)) and all(map(number, v)):
        return tuple(float(x) for x in v)
    if kind in ("str", "list", "dict") and type(v).__name__ == kind:
        return v
    raise ParameterError(f"{where} must be of type {kind}, got {v!r}")


def _config_key(f) -> str:
    """A field's config key: its name unless its metadata spells it."""
    return f.metadata.get("key", f.name)


class Schema:
    """A parameter type read from and written to one config section, whose
    keys, types and defaults are the dataclass's fields."""

    @classmethod
    def from_dict(cls, d: dict):
        keys = {
            _config_key(f):
                (f.type, f.default if f.default_factory is MISSING else f.default_factory())
            for f in fields(cls)
        }
        p = parse_section(d, keys, cls.section)
        return cls(**{f.name: p[_config_key(f)] for f in fields(cls)})

    def to_dict(self) -> dict:
        return {_config_key(f): getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class Grid2D(Schema):
    """Uniform nodal grid on the rectangle [0, lx] x [0, ly].

    nx, ny count cells; nodes are (nx+1) x (ny+1).  Field arrays are
    indexed [i, j] with x = i*dx, y = j*dy.
    """

    section = "grid"
    nx: int = 32
    ny: int = 32
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ParameterError("grid needs nx >= 4 and ny >= 4")
        if self.lx <= 0 or self.ly <= 0:
            raise ParameterError("side lengths must be positive")

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dy(self) -> float:
        return self.ly / self.ny

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx + 1, self.ny + 1)

    @property
    def n_nodes(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    @property
    def n_interior(self) -> int:
        return (self.nx - 1) * (self.ny - 1)

    @cached_property
    def xy(self) -> tuple[np.ndarray, np.ndarray]:
        x = np.linspace(0.0, self.lx, self.nx + 1)
        y = np.linspace(0.0, self.ly, self.ny + 1)
        return np.meshgrid(x, y, indexing="ij")

    @cached_property
    def wx(self) -> np.ndarray:
        """Trapezoid quadrature weights along x (length nx+1)."""
        w = np.full(self.nx + 1, self.dx)
        w[0] = w[-1] = 0.5 * self.dx
        return w

    @cached_property
    def wy(self) -> np.ndarray:
        w = np.full(self.ny + 1, self.dy)
        w[0] = w[-1] = 0.5 * self.dy
        return w

    @cached_property
    def weights(self) -> np.ndarray:
        """Nodal quadrature weights, shape (nx+1, ny+1)."""
        return np.outer(self.wx, self.wy)

    @cached_property
    def ddx(self) -> sparse.csr_array:
        """d/dx over all nodes (row-major): the collocated SBP first
        derivative (centered interior, one-sided boundary rows) along x."""
        return _canonical(sparse.kron(_sbp_derivative(self.nx + 1, self.dx),
                                      sparse.eye_array(self.ny + 1)))

    @cached_property
    def ddy(self) -> sparse.csr_array:
        """d/dy over all nodes (row-major), the same stencil along y."""
        return _canonical(sparse.kron(sparse.eye_array(self.nx + 1),
                                      _sbp_derivative(self.ny + 1, self.dy)))

    @cached_property
    def lap_neumann(self) -> sparse.csr_array:
        """Flux Laplacian with zero normal flux over all nodes (row-major):
        per direction H^{-1}(-E^T E/h) with E the forward difference, so
        (lap h, g) = -grad_edge_inner(h, g) and lap h integrates to zero."""
        return _kron_sum(_flux_1d(self.wx, self.dx), _flux_1d(self.wy, self.dy))

    @cached_property
    def lap_dirichlet(self) -> sparse.csr_array:
        """Five-point Laplacian on interior nodes (row-major), acting on
        fields with zero boundary values."""
        return _kron_sum(
            _second_difference(self.nx - 1, self.dx),
            _second_difference(self.ny - 1, self.dy),
        )

    @cached_property
    def grad(self) -> sparse.csr_array:
        """G: the collocated gradient of a nodal scalar at the packed interior
        vector DOFs, the interior rows of ddx and ddy."""
        nodes = self.interior[:self.n_interior]
        return _canonical(sparse.vstack([self.ddx[nodes], self.ddy[nodes]]))

    @cached_property
    def div(self) -> sparse.csr_array:
        """D: the collocated divergence at all nodes of packed interior vector
        DOFs, the interior columns of ddx and ddy, with
        (G h).(W_v w) + h.(W D w) = 0 to round-off."""
        nodes = self.interior[:self.n_interior]
        return _canonical(sparse.hstack([self.ddx[:, nodes], self.ddy[:, nodes]]))

    @cached_property
    def grad_and_div(self) -> sparse.csr_array:
        """blockdiag(G, D), so that one product maps [h; w] to [G h; D w]."""
        return _canonical(sparse.block_diag((self.grad, self.div)))

    @cached_property
    def interior(self) -> np.ndarray:
        """The node (row-major) of each packed interior vector DOF."""
        return np.tile(np.arange(self.n_nodes).reshape(self.shape)[1:-1, 1:-1].ravel(), 2)

    @cached_property
    def grad_div(self) -> sparse.csr_array:
        """W_v^{-1} D^T W D on packed interior vector DOFs (ux, then uy), with
        W the trapezoid weights: the quadrature adjoint of the divergence
        applied to it, i.e. -grad(div u) on the clamped subspace."""
        d, w = self.div, sparse.diags_array(self.weights.ravel())
        return _canonical(sparse.diags_array(1.0 / self.vector_weights) @ (d.T @ w @ d))

    def neumann_modes(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The m lowest eigenpairs of -lap_neumann: DCT-I tensor modes over
        all nodes, trapezoid-orthonormal, mode 0 constant."""
        return _lowest_modes(_cosine_modes(self.wx, self.dx), _cosine_modes(self.wy, self.dy), m)

    def dirichlet_modes(self, m: int, group_rtol: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """The m lowest eigenpairs of -lap_dirichlet: DST-I tensor modes on
        interior nodes, trapezoid-orthonormal.  With group_rtol > 0 the cut
        also takes every eigenvalue within group_rtol*max(1, v) above the
        m-th, v, so that it ends with a whole degenerate group."""
        return _lowest_modes(_sine_modes(self.nx - 1, self.dx), _sine_modes(self.ny - 1, self.dy),
                             m, group_rtol)

    @cached_property
    def vector_weights(self) -> np.ndarray:
        """Trapezoid weights of the packed interior vector DOFs."""
        return np.tile(self.weights[1:-1, 1:-1].ravel(), 2)

    @property
    def measure(self) -> float:
        return self.lx * self.ly

    def signature(self) -> str:
        """Stable identifier used by basis caches and archives."""
        return f"{self.nx}x{self.ny}:{self.lx!r}x{self.ly!r}"


def _sbp_derivative(n: int, h: float) -> sparse.csr_array:
    """1D collocated first derivative on n nodes spaced h: centered
    differences inside, one-sided ones on the two end rows."""
    d = sparse.diags_array([-0.5 / h, 0.5 / h], offsets=[-1, 1], shape=(n, n), format="lil")
    d[0, :2] = d[-1, -2:] = [-1.0 / h, 1.0 / h]
    return d.tocsr()


def _flux_1d(w: np.ndarray, h: float) -> sparse.csr_array:
    """1D zero-flux Laplacian diag(1/w) (-E^T E / h) on len(w) nodes."""
    n = len(w)
    e = sparse.diags_array([-1.0, 1.0], offsets=[0, 1], shape=(n - 1, n))
    return sparse.diags_array(1.0 / w) @ (-(e.T @ e) / h)


def _second_difference(n: int, h: float) -> sparse.csr_array:
    """1D three-point second difference on n interior nodes, zero ends."""
    return sparse.diags_array([1.0, -2.0, 1.0], offsets=[-1, 0, 1], shape=(n, n)) / h**2


def _trig_modes(fn, idx: np.ndarray, cells: int, h: float, w: np.ndarray):
    """Eigenvalues (2 - 2cos(k pi/n))/h^2 and vectors fn(k pi i/n), i, k in
    idx, of a 1D stencil on n cells, the vectors normalized under weights w."""
    vecs = fn(np.pi * np.outer(idx, idx) / cells)
    return (2.0 - 2.0 * np.cos(np.pi * idx / cells)) / h**2, vecs / np.sqrt(w @ vecs**2)


def _cosine_modes(w: np.ndarray, h: float):
    """Eigenpairs of -_flux_1d(w, h): cos(k pi i/n), i, k = 0..n."""
    return _trig_modes(np.cos, np.arange(len(w)), len(w) - 1, h, w)


def _sine_modes(n: int, h: float):
    """Eigenpairs of -_second_difference(n, h): sin(k pi i/(n+1)), i, k = 1..n."""
    return _trig_modes(np.sin, np.arange(1, n + 1), n + 1, h, np.full(n, h))


def _lowest_modes(x, y, m: int, group_rtol: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The m lowest eigenpairs of the Kronecker sum of two 1D operators from
    their pairs x (first index) and y (second index): eigenvalues ascending,
    ties in (i, j) order, tensor-product vectors as columns over row-major
    nodes; with group_rtol > 0 the cut is extended as in dirichlet_modes."""
    (kx, vx), (ky, vy) = x, y
    total = (kx[:, None] + ky[None, :]).ravel()
    order = np.argsort(total, kind="stable")
    if group_rtol > 0:
        top = total[order[m - 1]]
        m = int(np.searchsorted(total[order], top + group_rtol * max(1.0, top), side="right"))
    i, j = np.unravel_index(order[:m], (len(kx), len(ky)))
    return total[order[:m]], (vx[:, i][:, None, :] * vy[:, j][None, :, :]).reshape(-1, m)


def _kron_sum(ax, ay) -> sparse.csr_array:
    """ax along the first (x) index plus ay along the second (y) index of
    row-major node arrays."""
    eye = sparse.eye_array
    return _canonical(sparse.kron(ax, eye(ay.shape[0])) + sparse.kron(eye(ax.shape[0]), ay))


def _canonical(m) -> sparse.csr_array:
    """m as a CSR matrix with sorted indices and no duplicate entries."""
    m = m.tocsr()
    m.sum_duplicates()
    return m


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise ParameterError(f"{what} contains non-finite values")


@dataclass
class ScalarField:
    """Nodal scalar field; bc is 'neumann' or 'none'."""

    grid: Grid2D
    values: np.ndarray
    bc: str = "none"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise DomainMismatchError(
                f"scalar values shape {self.values.shape} != grid {self.grid.shape}"
            )
        if self.bc not in ("neumann", "none"):
            raise ContractViolationError(f"unknown scalar bc {self.bc!r}")
        _require_finite(self.values, "scalar field")

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy(), self.bc)

    @classmethod
    def from_function(cls, grid: Grid2D, fn, bc: str = "none") -> "ScalarField":
        x, y = grid.xy
        return cls(grid, np.asarray(fn(x, y), dtype=float) + np.zeros(grid.shape), bc)

    @classmethod
    def zeros(cls, grid: Grid2D, bc: str = "none") -> "ScalarField":
        return cls(grid, np.zeros(grid.shape), bc)


@dataclass
class VectorField2:
    """Nodal 2-vector field; bc is 'dirichlet_zero' or 'none'."""

    grid: Grid2D
    ux: np.ndarray
    uy: np.ndarray
    bc: str = "none"

    def __post_init__(self):
        self.ux = np.asarray(self.ux, dtype=float)
        self.uy = np.asarray(self.uy, dtype=float)
        for name, a in (("ux", self.ux), ("uy", self.uy)):
            if a.shape != self.grid.shape:
                raise DomainMismatchError(
                    f"{name} shape {a.shape} != grid {self.grid.shape}"
                )
        if self.bc not in ("dirichlet_zero", "none"):
            raise ContractViolationError(f"unknown vector bc {self.bc!r}")
        _require_finite(self.ux, "vector field ux")
        _require_finite(self.uy, "vector field uy")
        if self.bc == "dirichlet_zero":
            for a in (self.ux, self.uy):
                edge = np.concatenate([a[0, :], a[-1, :], a[:, 0], a[:, -1]])
                if np.any(edge != 0.0):
                    raise ContractViolationError(
                        "dirichlet_zero field has nonzero boundary values"
                    )

    def copy(self) -> "VectorField2":
        return VectorField2(self.grid, self.ux.copy(), self.uy.copy(), self.bc)

    @classmethod
    def from_functions(cls, grid: Grid2D, fx, fy, bc: str = "none") -> "VectorField2":
        x, y = grid.xy
        ux = np.asarray(fx(x, y), dtype=float) + np.zeros(grid.shape)
        uy = np.asarray(fy(x, y), dtype=float) + np.zeros(grid.shape)
        if bc == "dirichlet_zero":
            ux = pin_boundary(ux)
            uy = pin_boundary(uy)
        return cls(grid, ux, uy, bc)

    @classmethod
    def zeros(cls, grid: Grid2D, bc: str = "none") -> "VectorField2":
        return cls(grid, np.zeros(grid.shape), np.zeros(grid.shape), bc)


def pin_boundary(a: np.ndarray) -> np.ndarray:
    """Return a copy with boundary nodes set to exactly zero."""
    out = a.copy()
    out[0, :] = out[-1, :] = 0.0
    out[:, 0] = out[:, -1] = 0.0
    return out


def _same_grid(a, b) -> Grid2D:
    if a.grid is not b.grid and a.grid != b.grid:
        raise DomainMismatchError("fields live on different grids")
    return a.grid


# ---------------------------------------------------------------------------
# collocated derivatives (SBP pair)

def gradient(h: ScalarField) -> VectorField2:
    """Second-order collocated gradient, the products with the grid's ddx
    and ddy; exact on linear fields."""
    g, a = h.grid, h.values.ravel()
    return VectorField2(g, (g.ddx @ a).reshape(g.shape), (g.ddy @ a).reshape(g.shape), bc="none")


def divergence(w: VectorField2) -> ScalarField:
    """Collocated divergence ddx w_x + ddy w_y, negative adjoint of
    :func:`gradient` for fields vanishing on the boundary."""
    g = w.grid
    return ScalarField(g, (g.ddx @ w.ux.ravel() + g.ddy @ w.uy.ravel()).reshape(g.shape),
                       bc="none")


# ---------------------------------------------------------------------------
# edge-based (compatible) gradient machinery

def _edge_diff_x(grid: Grid2D, a: np.ndarray) -> np.ndarray:
    """Forward differences on x-edges, shape (nx, ny+1)."""
    return (a[1:, :] - a[:-1, :]) / grid.dx


def _edge_diff_y(grid: Grid2D, a: np.ndarray) -> np.ndarray:
    return (a[:, 1:] - a[:, :-1]) / grid.dy


def grad_edge_inner(a: np.ndarray, b: np.ndarray, grid: Grid2D) -> float:
    """Edge-quadrature inner product of the two nodal fields' gradients.

    This is the quadratic form whose flux-difference operator is exactly
    :func:`laplacian_neumann` (up to sign), so (lap h, g) = -grad_edge_inner.
    """
    ex = _edge_diff_x(grid, a) * _edge_diff_x(grid, b)
    ey = _edge_diff_y(grid, a) * _edge_diff_y(grid, b)
    sx = float(np.sum(ex * (grid.dx * grid.wy[None, :])))
    sy = float(np.sum(ey * (grid.wx[:, None] * grid.dy)))
    return sx + sy


def laplacian_neumann(h: ScalarField) -> ScalarField:
    """Five-point Laplacian with ghost-node reflection (zero normal flux):
    the grid's ``lap_neumann``, the flux-difference form of the edge
    gradient under trapezoid weights; the output integrates to zero.
    """
    if h.bc != "neumann":
        raise ContractViolationError("laplacian_neumann requires bc='neumann'")
    g = h.grid
    return ScalarField(g, (g.lap_neumann @ h.values.ravel()).reshape(g.shape), bc="none")


def lame_apply(u: VectorField2, mu: float, lam: float) -> VectorField2:
    """Elastic operator  -mu*Lap(u) - (lam+mu)*grad(div u), the product with
    :func:`lame_operator_matrix`; symmetric positive definite on the
    zero-boundary subspace.
    """
    if u.bc != "dirichlet_zero":
        raise ContractViolationError("lame_apply requires bc='dirichlet_zero'")
    return unpack_interior(u.grid, lame_operator_matrix(u.grid, mu, lam) @ pack_interior(u))


# ---------------------------------------------------------------------------
# quadrature

def inner(a, b) -> float:
    """Trapezoid nodal inner product of two fields of the same kind."""
    g = _same_grid(a, b)
    if isinstance(a, ScalarField) and isinstance(b, ScalarField):
        return float(np.sum(a.values * b.values * g.weights))
    if isinstance(a, VectorField2) and isinstance(b, VectorField2):
        return float(np.sum((a.ux * b.ux + a.uy * b.uy) * g.weights))
    raise DomainMismatchError("inner() needs two scalar or two vector fields")


def norm_l2(a) -> float:
    return float(np.sqrt(max(inner(a, a), 0.0)))


def mean(h: ScalarField) -> float:
    """Quadrature average of a scalar field over the domain."""
    return float(np.sum(h.values * h.grid.weights) / h.grid.measure)


# ---------------------------------------------------------------------------
# operator matrices and interior packing

def neumann_laplacian_matrix(grid: Grid2D) -> sparse.csr_array:
    """Sparse matrix of laplacian_neumann over all nodes (row-major); the
    grid's own ``lap_neumann``, not a copy."""
    return grid.lap_neumann


@lru_cache(maxsize=8)
def lame_operator_matrix(grid: Grid2D, mu: float, lam: float) -> sparse.csr_array:
    """The Lame matrix A_el = (lam+mu) grad_div - mu blockdiag(Lap_D, Lap_D)
    on interior vector DOFs, ordered (ux interior row-major, then uy
    interior): assembled once per grid and material and shared, not copied,
    by lame_apply, the eigenbasis, the energy and the implicit solves."""
    if mu <= 0 or lam <= 0:
        raise ParameterError("Lame constants must satisfy mu > 0, lambda > 0")
    lap = grid.lap_dirichlet
    return _canonical((lam + mu) * grid.grad_div - mu * sparse.block_diag((lap, lap)))


def pack_interior(u: VectorField2) -> np.ndarray:
    """Interior values of a vector field, packed (ux row-major, then uy)."""
    return np.concatenate([u.ux[1:-1, 1:-1].ravel(), u.uy[1:-1, 1:-1].ravel()])


def unpack_interior(grid: Grid2D, vec: np.ndarray) -> VectorField2:
    """The clamped vector field of packed interior DOFs."""
    out = np.zeros((2,) + grid.shape)
    out[:, 1:-1, 1:-1] = vec.reshape(2, grid.nx - 1, grid.ny - 1)
    return VectorField2(grid, out[0], out[1], bc="dirichlet_zero")


# ---------------------------------------------------------------------------
# CSV files

def write_csv(path, header: str, template: str, values) -> None:
    """Write the header line and then template % values in one write.  The
    template holds one '%.17g' slot per value in row-major order, so the
    file is byte for byte what numpy's text writer gives for the same rows
    with fmt "%.17g", delimiter "," and the header without comment prefix."""
    with open(path, "w") as fh:
        fh.write(f"{header}\n{template % tuple(values)}")


def row_template(n_rows: int, n_cols: int) -> str:
    """A write_csv template of n_rows rows of n_cols values each."""
    return (",".join(["%.17g"] * n_cols) + "\n") * n_rows


@lru_cache(maxsize=8)
def _node_rows(grid: Grid2D, n_values: int) -> str:
    """The snapshot template of a grid: one row per node in row-major
    order, its x,y formatted once here, then n_values value slots."""
    x, y = grid.xy
    slots = ",%.17g" * n_values + "\n"
    return "".join("%.17g,%.17g" % xy + slots for xy in zip(x.ravel().tolist(), y.ravel().tolist()))


def _save_nodal(path, header: str, grid: Grid2D, *arrays) -> None:
    values = np.column_stack([a.ravel() for a in arrays]).ravel().tolist()
    write_csv(path, header, _node_rows(grid, len(arrays)), values)


def _load_nodal(path, header: str, grid: Grid2D) -> list[np.ndarray]:
    """The value columns of a snapshot file, as nodal arrays of the grid;
    the x,y columns are not parsed."""
    n_values = header.count(",") - 1
    with open(path) as fh:
        found = fh.readline().rstrip("\n")
    if found != header:
        raise DomainMismatchError(f"{path}: header {found!r}, expected {header!r}")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(2, 2 + n_values),
                          ndmin=2)
    except ValueError as err:
        raise DomainMismatchError(f"{path}: {err}") from None
    if data.shape[0] != grid.n_nodes:
        raise DomainMismatchError(
            f"{path}: {data.shape[0]} rows, expected {grid.n_nodes} for grid {grid.signature()}")
    return [column.reshape(grid.shape) for column in data.T]


def save_scalar_csv(path, h: ScalarField) -> None:
    _save_nodal(path, "x,y,value", h.grid, h.values)


def save_vector_csv(path, u: VectorField2) -> None:
    _save_nodal(path, "x,y,vx,vy", u.grid, u.ux, u.uy)


def load_scalar_csv(path, grid: Grid2D, bc: str = "none") -> ScalarField:
    return ScalarField(grid, *_load_nodal(path, "x,y,value", grid), bc)


def load_vector_csv(path, grid: Grid2D, bc: str = "none") -> VectorField2:
    return VectorField2(grid, *_load_nodal(path, "x,y,vx,vy", grid), bc)
