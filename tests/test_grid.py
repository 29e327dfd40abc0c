"""Discrete calculus: adjointness, operator compatibility, quadrature."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from hypothesis.extra import numpy as hnp

from melab.grid import (
    ContractViolationError,
    DomainMismatchError,
    Grid2D,
    ParameterError,
    ScalarField,
    VectorField2,
    divergence,
    grad_edge_inner,
    gradient,
    inner,
    lame_apply,
    lame_operator_matrix,
    laplacian_neumann,
    load_scalar_csv,
    load_vector_csv,
    mean,
    neumann_laplacian_matrix,
    pack_interior,
    pin_boundary,
    row_template,
    save_scalar_csv,
    save_vector_csv,
    write_csv,
)
from melab.grid import _cosine_modes, _flux_1d, _second_difference, _sine_modes

from field_reference import bilinear_a2, derivative_matrices, lame_by_component


def random_scalar(grid, rng, bc="neumann"):
    return ScalarField(grid, rng.standard_normal(grid.shape), bc)


def random_vector(grid, rng):
    ux = pin_boundary(rng.standard_normal(grid.shape))
    uy = pin_boundary(rng.standard_normal(grid.shape))
    return VectorField2(grid, ux, uy, bc="dirichlet_zero")


@pytest.fixture
def grid():
    return Grid2D(17, 13, 1.3, 0.9)


# The identity tests run over random grids and aspect ratios: with each
# operator assembled once as a sparse matrix, these independent quadrature
# forms are what pin the matrices.
random_grids = st.builds(
    Grid2D,
    st.integers(4, 24),
    st.integers(4, 24),
    st.floats(0.2, 5.0),
    st.floats(0.2, 5.0),
)
seeds = st.integers(0, 2**32 - 1)
identity_settings = settings(max_examples=40, deadline=None, derandomize=True)


def test_grid_validation():
    with pytest.raises(ParameterError):
        Grid2D(3, 8, 1.0, 1.0)
    with pytest.raises(ParameterError):
        Grid2D(8, 8, -1.0, 1.0)


def test_weights_integrate_constants(grid):
    one = ScalarField(grid, np.ones(grid.shape))
    assert inner(one, one) == pytest.approx(grid.lx * grid.ly, rel=1e-14)
    assert mean(one) == pytest.approx(1.0, rel=1e-14)


@identity_settings
@given(grid=random_grids, seed=seeds)
def test_gradient_divergence_adjointness(grid, seed):
    """(grad h, w) = -(h, div w) for boundary-zero vector fields."""
    rng = np.random.default_rng(seed)
    for _ in range(3):
        h = random_scalar(grid, rng, bc="none")
        w = random_vector(grid, rng)
        lhs = inner(gradient(h), w)
        rhs = -inner(h, divergence(w))
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-13 * scale


@identity_settings
@given(grid=random_grids, seed=seeds)
def test_neumann_laplacian_pairs_with_edge_form(grid, seed):
    """(lap h, g) = -grad_edge_inner(h, g): the flux Laplacian is the
    operator of the edge-difference quadrature."""
    rng = np.random.default_rng(seed)
    for _ in range(3):
        h = random_scalar(grid, rng)
        g = random_scalar(grid, rng)
        lhs = inner(laplacian_neumann(h), g)
        rhs = -grad_edge_inner(h.values, g.values, grid)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_neumann_laplacian_conserves_mass(grid):
    rng = np.random.default_rng(5)
    h = random_scalar(grid, rng)
    lap = laplacian_neumann(h)
    assert abs(float(np.sum(lap.values * grid.weights))) <= 1e-12


@identity_settings
@given(grid=random_grids, seed=seeds)
def test_neumann_laplacian_conserves_mass_on_random_grids(grid, seed):
    """The integral of lap h is round-off of the integrand's size: at cell
    aspect ratios near 120:1 that size is about 3e4, and the sum exceeds
    the fixed grid's absolute 1e-12 with the stencil and the matrix alike."""
    h = random_scalar(grid, np.random.default_rng(seed))
    integrand = laplacian_neumann(h).values * grid.weights
    scale = float(np.sum(np.abs(integrand)))
    assert abs(float(np.sum(integrand))) <= 1e-12 * max(1.0, scale)


def test_laplacian_requires_neumann_tag(grid):
    h = ScalarField(grid, np.ones(grid.shape), bc="none")
    with pytest.raises(ContractViolationError):
        laplacian_neumann(h)


def test_neumann_eigenmode_convergence():
    """cos(pi x) eigenmode error of the Neumann Laplacian decays at
    second order."""
    errs = []
    for n in (16, 32, 64):
        g = Grid2D(n, n, 1.0, 1.0)
        x, _ = g.xy
        h = ScalarField(g, np.cos(np.pi * x), bc="neumann")
        lap = laplacian_neumann(h)
        errs.append(float(np.max(np.abs(lap.values + np.pi**2 * h.values))))
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


@identity_settings
@given(grid=random_grids, seed=seeds)
def test_lame_symmetry_and_a2_consistency(grid, seed):
    rng = np.random.default_rng(seed)
    for _ in range(3):
        u = random_vector(grid, rng)
        w = random_vector(grid, rng)
        luw = inner(lame_apply(u, 1.0, 0.7), w)
        lwu = inner(lame_apply(w, 1.0, 0.7), u)
        assert abs(luw - lwu) <= 1e-12 * max(1.0, abs(luw))
        a2 = bilinear_a2(u, w, 1.0, 0.7)
        assert abs(luw - a2) <= 1e-12 * max(1.0, abs(a2))


@identity_settings
@given(grid=random_grids, seed=seeds)
def test_lame_operator_matrix_matches_apply(grid, seed):
    """The assembled matrix on packed interior DOFs, and lame_apply, are the
    Lame operator applied per component."""
    u = random_vector(grid, np.random.default_rng(seed))
    ref = pack_interior(lame_by_component(u, 1.0, 0.7))
    for out in (lame_operator_matrix(grid, 1.0, 0.7) @ pack_interior(u),
                pack_interior(lame_apply(u, 1.0, 0.7))):
        assert np.max(np.abs(out - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("nx, ny", [(4, 4), (12, 7), (6, 31)])
def test_operator_matrices_are_canonical(nx, ny):
    """Every cached operator matrix is built with sorted indices and no
    duplicates, so no scipy operation that needs that form (abs, a shifted
    factorization) reorders it in place."""
    g = Grid2D(nx, ny, 1.0, 0.6)
    for m in (g.ddx, g.ddy, g.lap_neumann, g.lap_dirichlet, g.grad_div,
              neumann_laplacian_matrix(g), lame_operator_matrix(g, 1.0, 0.7)):
        assert m.format == "csr" and m.has_canonical_format


@pytest.mark.parametrize("nx, ny, lx, ly", [(4, 4, 1.0, 1.0), (12, 12, 1.0, 1.0),
                                          (7, 19, 0.3, 4.1), (32, 20, 2.0, 0.7)])
def test_lame_matrix_from_cached_divergence_is_unchanged(nx, ny, lx, ly):
    """grad_div is W_v^{-1} D^T W D with the grid's cached divergence D, and
    it and the Lame matrix are bit for bit those built from a Kronecker
    product of the dense entry-by-entry stencil, so the eigenbasis and the
    banded factors do not move; G, D and blockdiag(G, D) are canonical."""
    g, ref = Grid2D(nx, ny, lx, ly), Grid2D(nx, ny, lx, ly)
    px = sparse.eye_array(nx + 1, format="csr")[:, 1:-1]
    py = sparse.eye_array(ny + 1, format="csr")[:, 1:-1]
    dmat_x, dmat_y = derivative_matrices(ref)
    d = sparse.hstack([sparse.kron(dmat_x[:, 1:-1], py),
                       sparse.kron(px, dmat_y[:, 1:-1])]).tocsr()
    w = sparse.diags_array(ref.weights.ravel())
    grad_div = (sparse.diags_array(1.0 / ref.vector_weights) @ (d.T @ w @ d)).tocsr()
    grad_div.sum_duplicates()
    lap = ref.lap_dirichlet
    lame = ((0.4 + 1.3) * grad_div - 1.3 * sparse.block_diag((lap, lap))).tocsr()
    lame.sum_duplicates()
    for got, want in ((g.grad_div, grad_div), (lame_operator_matrix(g, 1.3, 0.4), lame)):
        for part in ("data", "indices", "indptr"):
            assert getattr(got, part).tobytes() == getattr(want, part).tobytes()
    for m in (g.grad, g.div, g.grad_and_div):
        assert m.format == "csr" and m.has_canonical_format


def _relative_asymmetry(m) -> float:
    return abs(m - m.T).max() / abs(m).max()


@identity_settings
@given(grid=random_grids, mu=st.floats(1e-2, 1e2), lam=st.floats(1e-2, 1e2),
       nu1=st.floats(1e-2, 1e2), dt=st.floats(1e-4, 1e-1))
def test_implicit_matrices_symmetric_on_random_grids(grid, mu, lam, nu1, dt):
    """The banded Cholesky factor reads one triangle of the two implicit
    matrices, so the step's factor builder refuses an asymmetry above
    1e-14 relative.  The Lame matrix is not always bit-symmetric (its
    Gram products round differently by row and column), but stays far
    inside that bound; diag(w) times the flux Laplacian is symmetric."""
    a_el = lame_operator_matrix(grid, mu, lam)
    m_u = sparse.eye_array(2 * grid.n_interior) + (0.5 * dt * dt) * a_el
    w = sparse.diags_array(grid.weights.ravel())
    m_h = w @ (sparse.eye_array(grid.n_nodes) - (0.5 * dt * nu1) * neumann_laplacian_matrix(grid))
    assert _relative_asymmetry(a_el) <= 1e-14
    assert _relative_asymmetry(m_u) <= 1e-14
    assert _relative_asymmetry(m_h) <= 1e-14


@identity_settings
@given(grid=random_grids)
def test_closed_form_1d_modes_satisfy_stencils(grid):
    """Each 1D stencil maps its closed-form DCT-I / DST-I vectors to the
    vectors times -(2 - 2cos(k pi/n))/h^2."""
    for n, h, w in ((grid.nx, grid.dx, grid.wx), (grid.ny, grid.dy, grid.wy)):
        for (vals, vecs), op in ((_cosine_modes(w, h), _flux_1d(w, h)),
                                 (_sine_modes(n - 1, h), _second_difference(n - 1, h))):
            assert np.abs(op @ vecs + vecs * vals).max() <= 1e-12 * vals.max() * np.abs(vecs).max()


@identity_settings
@given(grid=random_grids, m=st.integers(1, 40))
def test_kron_modes_are_the_lowest_eigenpairs(grid, m):
    """neumann_modes and dirichlet_modes are the m lowest eigenpairs of
    -lap_neumann and -lap_dirichlet, ascending and trapezoid-orthonormal;
    with a group tolerance the cut runs on to the end of the m-th mode's
    group."""
    inner_w = grid.weights[1:-1, 1:-1].ravel()
    spectra = []
    for lap, modes, w in ((grid.lap_neumann, grid.neumann_modes, grid.weights.ravel()),
                          (grid.lap_dirichlet, grid.dirichlet_modes, inner_w)):
        k = min(m, len(w))
        vals, vecs = modes(k)
        # -lap = diag(1/w) K with K symmetric: its spectrum is that of
        # diag(w)^(1/2) (-lap) diag(w)^(-1/2)
        sym = np.sqrt(w)[:, None] * -lap.toarray() / np.sqrt(w)[None, :]
        ref = np.linalg.eigvalsh(0.5 * (sym + sym.T))
        spectra.append(ref)
        top = abs(lap).sum(axis=1).max()
        assert np.all(np.diff(vals) >= 0)
        assert np.abs(vals - ref[:k]).max() <= 1e-12 * top
        assert np.abs(-(lap @ vecs) - vecs * vals).max() <= 1e-12 * top * np.abs(vecs).max()
        assert np.abs(vecs.T @ (w[:, None] * vecs) - np.eye(k)).max() <= 1e-12
    k = min(m, grid.n_interior)
    vals, vecs = grid.dirichlet_modes(k, group_rtol=1e-6)
    assert len(vals) >= k and vecs.shape == (grid.n_interior, len(vals))
    assert vals[-1] - vals[k - 1] <= 1e-6 * max(1.0, vals[k - 1])
    if len(vals) < grid.n_interior:
        assert spectra[1][len(vals)] - vals[k - 1] > 1e-6 * max(1.0, vals[k - 1])


def test_a2_coercive(grid):
    rng = np.random.default_rng(8)
    u = random_vector(grid, rng)
    assert bilinear_a2(u, u, 1.0, 0.5) > 0


def test_csv_roundtrip(tmp_path, grid):
    rng = np.random.default_rng(10)
    h = random_scalar(grid, rng, bc="none")
    save_scalar_csv(tmp_path / "h.csv", h)
    h2 = load_scalar_csv(tmp_path / "h.csv", grid)
    assert np.array_equal(h.values, h2.values)
    u = random_vector(grid, rng)
    save_vector_csv(tmp_path / "u.csv", u)
    u2 = load_vector_csv(tmp_path / "u.csv", grid, bc="dirichlet_zero")
    assert np.array_equal(u.ux, u2.ux) and np.array_equal(u.uy, u2.uy)
    header = (tmp_path / "h.csv").read_text().splitlines()[0]
    assert header == "x,y,value"
    header = (tmp_path / "u.csv").read_text().splitlines()[0]
    assert header == "x,y,vx,vy"


def savetxt_reference(path, grid, header, *arrays):
    """A snapshot file as numpy's savetxt writes it."""
    x, y = grid.xy
    rows = np.column_stack([x.ravel(), y.ravel(), *(a.ravel() for a in arrays)])
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header, comments="")


EXTREMES = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def grids_with_values(draw):
    """A grid with nx != ny and lx != ly, and three nodal arrays of finite
    doubles whose first entries are the extremes."""
    grid = draw(random_grids.filter(lambda g: g.nx != g.ny and g.lx != g.ly))
    values = draw(hnp.arrays(np.float64, (3,) + grid.shape, elements=st.one_of(
        st.sampled_from(EXTREMES), st.floats(allow_nan=False, allow_infinity=False))))
    values[:, 0, :len(EXTREMES)] = EXTREMES
    return grid, values


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@given(grids_with_values())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_csv_writer_matches_savetxt_and_roundtrips(tmp_path_factory, case):
    """The snapshot and table writer is byte-identical to savetxt with
    fmt %.17g, and the loaders give back every double exactly."""
    grid, (h, ux, uy) = case
    d = tmp_path_factory.mktemp("csv")
    save_scalar_csv(d / "h.csv", ScalarField(grid, h))
    savetxt_reference(d / "h_ref.csv", grid, "x,y,value", h)
    assert (d / "h.csv").read_bytes() == (d / "h_ref.csv").read_bytes()
    save_vector_csv(d / "u.csv", VectorField2(grid, ux, uy))
    savetxt_reference(d / "u_ref.csv", grid, "x,y,vx,vy", ux, uy)
    assert (d / "u.csv").read_bytes() == (d / "u_ref.csv").read_bytes()
    assert _same_bits(load_scalar_csv(d / "h_ref.csv", grid).values, h)
    u = load_vector_csv(d / "u_ref.csv", grid)
    assert _same_bits(u.ux, ux) and _same_bits(u.uy, uy)
    table = np.column_stack([ux.ravel(), h.ravel(), uy.ravel()])
    write_csv(d / "t.csv", "a,b,c", row_template(*table.shape), table.ravel().tolist())
    np.savetxt(d / "t_ref.csv", table, fmt="%.17g", delimiter=",", header="a,b,c", comments="")
    assert (d / "t.csv").read_bytes() == (d / "t_ref.csv").read_bytes()


def test_malformed_snapshot_names_file_and_rows(tmp_path, grid):
    """A snapshot with too few rows or the wrong header is refused with the
    file named, not a bare reshape error."""
    rng = np.random.default_rng(11)
    save_scalar_csv(tmp_path / "h.csv", random_scalar(grid, rng, bc="none"))
    lines = (tmp_path / "h.csv").read_text().splitlines(keepends=True)
    (tmp_path / "h.csv").write_text("".join(lines[:-5]))
    with pytest.raises(DomainMismatchError, match=f"h.csv: {grid.n_nodes - 5} rows, "
                                                  f"expected {grid.n_nodes}"):
        load_scalar_csv(tmp_path / "h.csv", grid)
    (tmp_path / "h.csv").write_text("".join(lines[:-1]) + lines[-1][:lines[-1].rindex(",")])
    with pytest.raises(DomainMismatchError, match="h.csv: .*column"):
        load_scalar_csv(tmp_path / "h.csv", grid)
    save_scalar_csv(tmp_path / "u.csv", random_scalar(grid, rng, bc="none"))
    with pytest.raises(DomainMismatchError, match="u.csv: header 'x,y,value'"):
        load_vector_csv(tmp_path / "u.csv", grid)
    with pytest.raises(DomainMismatchError, match=f"expected {Grid2D(8, 8).n_nodes}"):
        load_scalar_csv(tmp_path / "u.csv", Grid2D(8, 8))


def test_vector_boundary_enforced(grid):
    bad = np.ones(grid.shape)
    with pytest.raises(ContractViolationError):
        VectorField2(grid, bad, bad, bc="dirichlet_zero")
