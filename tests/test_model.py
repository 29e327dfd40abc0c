"""Physics assembly: coupling cancellation, dissipation laws, eigenbasis."""

import json

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from scipy import sparse
from hypothesis import example, given, settings, strategies as st

from melab import model, stepping
from melab.grid import (
    Grid2D,
    MelabError,
    ParameterError,
    ScalarField,
    VectorField2,
    divergence,
    gradient,
    inner,
    lame_operator_matrix,
    mean,
    neumann_laplacian_matrix,
    norm_l2,
    pin_boundary,
)
from melab.model import (
    DissipationSpec,
    Forcing,
    MaterialParams,
    State,
    build_galerkin_basis,
    induction_term,
    lorentz_force,
    project,
    random_state,
    reconstruct,
    validate_h2,
    validate_kc,
)
from melab.stepping import SCHEMES, StepperConfig

import field_reference


PARAMS = MaterialParams(rho_m=1.2, mu=1.0, lam=0.5, nu1=0.1, mu0=0.8, b0=1.5)


@pytest.fixture(scope="module")
def grid():
    return Grid2D(14, 12, 1.0, 1.2)


@pytest.fixture(scope="module")
def basis(grid):
    return build_galerkin_basis(grid, PARAMS, m=6, m_magnetic=6)


positive = st.floats(1e-2, 1e2)
random_grids = st.builds(Grid2D, st.integers(4, 24), st.integers(4, 24),
                         st.floats(0.2, 5.0), st.floats(0.2, 5.0))
random_params = st.builds(MaterialParams, rho_m=positive, mu=positive, lam=positive,
                          nu1=positive, mu0=positive, b0=st.floats(-5.0, 5.0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(random_grids, random_params, st.integers(0, 2**32 - 1))
def test_coupling_energy_cancellation(grid, params, seed):
    """(lorentz(h), w) + mu0 * (induction(w, h), h) = 0: the semi-discrete
    coupling terms exchange energy exactly, on any grid and for any
    material."""
    rng = np.random.default_rng(seed)
    for _ in range(3):
        h = ScalarField(grid, rng.standard_normal(grid.shape), bc="neumann")
        w = VectorField2(
            grid,
            pin_boundary(rng.standard_normal(grid.shape)),
            pin_boundary(rng.standard_normal(grid.shape)),
            bc="dirichlet_zero",
        )
        lhs = inner(lorentz_force(h, params), w)
        rhs_ = params.mu0 * inner(induction_term(w, h, params), h)
        assert abs(lhs + rhs_) <= 1e-11 * max(1.0, abs(lhs))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.tuples(st.integers(4, 24), st.integers(4, 24)).filter(lambda n: n[0] != n[1]),
       lx=st.floats(0.2, 5.0), ly=st.floats(0.2, 5.0), params=random_params,
       k1=st.floats(0.0, 2.0), p=st.floats(3.0, 4.0), seed=st.integers(0, 2**32 - 1))
def test_packed_coupling_matches_nodal_fields(n, lx, ly, params, k1, p, seed):
    """The step's forces on packed coordinates (one product with
    blockdiag(G, D), the cached forcing profiles, the power law) are the
    reference coupling terms with the dense stencil, plus forcing and
    damping on nodal arrays, over the interior, within 1e-14 of the size of
    their terms; so are gradient, divergence, lorentz_force and
    induction_term over all nodes.  The packed pair exchanges energy
    exactly, and W (D w) sums to zero, which keeps mean(h)."""
    g = Grid2D(n[0], n[1], lx, ly)
    rng = np.random.default_rng(seed)
    h = rng.standard_normal(g.shape)
    vx, vy = pin_boundary(rng.standard_normal(g.shape)), pin_boundary(rng.standard_normal(g.shape))
    v = np.concatenate([vx[1:-1, 1:-1].ravel(), vy[1:-1, 1:-1].ravel()])
    forcing = Forcing(period=float(rng.uniform(0.5, 2.0)), terms=[
        {"target": "f1", "g": {"a0": 0.1, "sin": [1.0]},
         "shape": {"jx": 1, "jy": 2, "amplitude": float(rng.uniform(-1, 1))}},
        {"target": "f2", "g": {"cos": [1.0, 0.5]},
         "shape": {"jx": 2, "jy": 1, "amplitude": float(rng.uniform(-1, 1)),
                   "component": int(rng.integers(2))}},
    ])
    spec = DissipationSpec(kind="power", alpha=0.5, k1=k1, p=p)
    t = float(rng.uniform(0.0, 2.0))
    fu, fh = stepping._grid_ops(g, 1e-2, params, spec, forcing).forces(v, h.ravel(), t)

    f2, f1 = forcing.f2(g, t), forcing.f1(g, t)
    fac = k1 * np.sqrt(vx**2 + vy**2) ** p
    lorentz = field_reference.lorentz_nodal(g, h, params)
    induction = field_reference.induction_nodal(g, vx, vy, h, params)
    want_u = [(lor + f - fac * c) / params.rho_m
              for lor, f, c in zip(lorentz, (f2.ux, f2.uy), (vx, vy))]
    want_h = induction + f1.values
    inv_h = 1.0 / min(g.dx, g.dy)
    scale_gh = np.abs(h).max() * inv_h
    scale_dw = max(np.abs(vx).max(), np.abs(vy).max()) * inv_h
    scale_lor = params.mu0 * np.abs(params.b0 + h).max() * scale_gh
    scale_ind = np.abs(params.b0 + h).max() * scale_dw
    scale_u = (scale_lor + max(np.abs(f2.ux).max(), np.abs(f2.uy).max())
               + np.abs(fac).max()) / params.rho_m
    scale_h = scale_ind + np.abs(f1.values).max()
    got_x, got_y = fu.reshape(2, n[0] - 1, n[1] - 1)
    assert np.abs(got_x - want_u[0][1:-1, 1:-1]).max() <= 1e-14 * scale_u
    assert np.abs(got_y - want_u[1][1:-1, 1:-1]).max() <= 1e-14 * scale_u
    assert np.abs(fh - want_h.ravel()).max() <= 1e-14 * scale_h

    dmat_x, dmat_y = field_reference.derivative_matrices(g)
    hf, w = ScalarField(g, h, bc="neumann"), VectorField2(g, vx, vy, bc="dirichlet_zero")
    gh, lor = gradient(hf), lorentz_force(hf, params)
    assert np.abs(gh.ux - dmat_x @ h).max() <= 1e-14 * scale_gh
    assert np.abs(gh.uy - h @ dmat_y.T).max() <= 1e-14 * scale_gh
    assert np.abs(divergence(w).values - (dmat_x @ vx + vy @ dmat_y.T)).max() <= 1e-14 * scale_dw
    assert np.abs(lor.ux - lorentz[0]).max() <= 1e-14 * scale_lor
    assert np.abs(lor.uy - lorentz[1]).max() <= 1e-14 * scale_lor
    assert np.abs(induction_term(w, hf, params).values - induction).max() <= 1e-14 * scale_ind

    cu, ch = model.coupling_packed(g, v, h.ravel(), params)
    lhs = float(np.dot(g.vector_weights * cu, v))
    rhs = params.mu0 * float(np.dot(g.weights.ravel() * ch, h.ravel()))
    assert abs(lhs + rhs) <= 1e-11 * max(1.0, abs(lhs))
    assert abs(float(np.dot(g.weights.ravel(), g.div @ v))) <= 1e-13


def test_induction_mean_free(grid):
    rng = np.random.default_rng(1)
    h = ScalarField(grid, rng.standard_normal(grid.shape), bc="neumann")
    w = VectorField2(
        grid,
        pin_boundary(rng.standard_normal(grid.shape)),
        pin_boundary(rng.standard_normal(grid.shape)),
        bc="dirichlet_zero",
    )
    assert abs(mean(ScalarField(grid, induction_term(w, h, PARAMS).values))) <= 1e-13


def test_material_validation():
    with pytest.raises(ParameterError):
        MaterialParams(rho_m=-1.0, mu=1.0, lam=0.5, nu1=0.1, mu0=1.0, b0=1.0)
    with pytest.raises(ParameterError):
        MaterialParams(rho_m=1.0, mu=0.0, lam=0.5, nu1=0.1, mu0=1.0, b0=1.0)


def test_dissipation_laws():
    lin = DissipationSpec(kind="linear", alpha=0.7)
    zx, zy = lin.pointwise(np.array([2.0]), np.array([-1.0]))
    assert zx[0] == pytest.approx(1.4) and zy[0] == pytest.approx(-0.7)
    pw = DissipationSpec(kind="power", alpha=0.1, k0=0.5, k1=1.0, p=3.0, r_rho=1.0, k_c=0.1)
    assert pw.q_exponent == pytest.approx(5.0 / 4.0)
    with pytest.raises(ParameterError):
        DissipationSpec(kind="power", p=5.0)
    with pytest.raises(ParameterError):
        DissipationSpec(kind="linear", alpha=0.0)


def test_validate_h2_power_law():
    # (rho(z), z) = alpha|z|^2 + k1|z|^{p+2} >= k0|z|^{p+2} needs k0 <= k1
    # on small shells, plus slack from the linear term
    spec = DissipationSpec(kind="power", alpha=0.2, k0=0.9, k1=1.0, p=3.0, r_rho=1.0, k_c=0.2)
    rep = validate_h2(spec, n_samples=4000, seed=3)
    assert rep["passed"]
    assert rep["q"] == pytest.approx((spec.p + 2) / (spec.p + 1))


def test_validate_kc_linear_tight():
    spec = DissipationSpec(kind="linear", alpha=0.4, k_c=0.4)
    rep = validate_kc(spec, n_samples=4000, seed=2)
    assert rep["passed"]
    # claiming more than alpha must fail with a witness
    bad = DissipationSpec(kind="linear", alpha=0.4, k_c=0.5)
    rep = validate_kc(bad, n_samples=4000, seed=2)
    assert not rep["passed"] and "witness" in rep


def test_forcing_profiles(grid):
    f = Forcing(period=2.0, terms=[
        {"target": "f2", "g": {"a0": 0.0, "cos": [1.0], "sin": []},
         "shape": {"jx": 1, "jy": 1, "amplitude": 0.3, "component": 0}},
        {"target": "f1", "g": {"a0": 1.0, "cos": [], "sin": [0.5]},
         "shape": {"jx": 1, "jy": 0, "amplitude": 0.2}},
    ])
    v = f.f2(grid, 0.0)
    assert np.all(v.ux[0, :] == 0) and np.all(v.ux[-1, :] == 0)
    assert np.abs(v.ux).max() > 0
    s = f.f1(grid, 0.3)
    assert abs(mean(ScalarField(grid, s.values))) <= 1e-13
    assert f.l1_l2_norm(grid) > 0
    assert not f.is_zero
    assert Forcing.zero().is_zero


def test_forcing_periodicity(grid):
    f = Forcing(period=1.5, terms=[
        {"target": "f2", "g": {"a0": 0.2, "cos": [1.0, 0.3], "sin": [0.5]},
         "shape": {"jx": 2, "jy": 1, "amplitude": 1.0, "component": 1}},
    ])
    a = f.f2(grid, 0.4)
    b = f.f2(grid, 0.4 + 1.5)
    assert np.allclose(a.uy, b.uy, atol=1e-13)


def test_state_contracts(grid):
    with pytest.raises(Exception):
        State(
            VectorField2.zeros(grid, bc="dirichlet_zero"),
            VectorField2.zeros(grid, bc="dirichlet_zero"),
            ScalarField.zeros(grid, bc="none"),
        )
    z = State.zero(grid)
    assert z.scaled(3.0).u.ux.max() == 0.0


def test_basis_orthonormal(grid, basis):
    for j in range(basis.m):
        for k in range(j, basis.m):
            ip = inner(basis.elastic_mode(j), basis.elastic_mode(k))
            assert ip == pytest.approx(1.0 if j == k else 0.0, abs=1e-10)
    for j in range(basis.m_magnetic):
        for k in range(j, basis.m_magnetic):
            ip = inner(basis.magnetic_mode(j), basis.magnetic_mode(k))
            assert ip == pytest.approx(1.0 if j == k else 0.0, abs=1e-10)


def test_basis_eigenvalue_ordering(grid, basis):
    assert np.all(np.diff(basis.elastic_vals) >= -1e-10)
    assert np.all(basis.elastic_vals > 0)
    # magnetic form a1 = nu1*(grad, grad) + mass: constant mode has value 1
    assert basis.magnetic_vals[0] == pytest.approx(1.0, abs=1e-10)


def test_projection_roundtrip(grid, basis):
    rng = np.random.default_rng(6)
    c = rng.standard_normal(basis.m)
    u = reconstruct(basis, c, "elastic")
    assert np.allclose(project(basis, u), c, atol=1e-10)
    ch = rng.standard_normal(basis.m_magnetic)
    h = reconstruct(basis, ch, "magnetic")
    assert np.allclose(project(basis, h), ch, atol=1e-10)


def test_basis_cache_roundtrip(tmp_path, grid, basis):
    basis.save(tmp_path / "b.npz")
    data = np.load(tmp_path / "b.npz", allow_pickle=False)
    assert str(data["signature"]) == grid.signature()
    assert (int(data["m"]), int(data["m_magnetic"])) == (basis.m, basis.m_magnetic)
    for name in ("elastic_vals", "elastic_vecs", "magnetic_vals", "magnetic_vecs"):
        assert np.array_equal(data[name], getattr(basis, name))


def _dense_generalized_eigenvalues(grid, params, m, m_magnetic):
    """Basis eigenvalues from dense generalized eigenproblems of the
    symmetrized forms against the diagonal quadrature masses."""
    wv = grid.vector_weights
    k_el = wv[:, None] * lame_operator_matrix(grid, params.mu, params.lam).toarray()
    vals = scipy.linalg.eigh(0.5 * (k_el + k_el.T), np.diag(wv),
                             subset_by_index=(0, m - 1), eigvals_only=True)
    ws = grid.weights.ravel()
    k_mag = ws[:, None] * (params.nu1 * -neumann_laplacian_matrix(grid).toarray())
    k_mag = 0.5 * (k_mag + k_mag.T) + np.diag(ws)
    mvals = scipy.linalg.eigh(k_mag, np.diag(ws), subset_by_index=(0, m_magnetic - 1),
                              eigvals_only=True)
    return vals, mvals


@settings(max_examples=40, deadline=None, derandomize=True)
@given(random_grids, st.integers(1, 10), st.integers(1, 10))
@example(Grid2D(4, 4, 1.0, 1.0), 9, 3)        # 18 unknowns: dense
@example(Grid2D(18, 16, 0.7, 1.9), 255, 2)    # half of 510 unknowns: dense
@example(Grid2D(18, 16, 0.7, 1.9), 254, 2)    # just under half: Lanczos
@example(Grid2D(24, 24, 1.0, 1.0), 8, 4)      # Lanczos through two pairs
def test_basis_matches_dense_generalized_eigensolve(grid, m, m_magnetic):
    """Closed-form magnetic modes and the symmetric elastic solve, Lanczos
    or dense, give the eigenvalues of the generalized problems,
    trapezoid-orthonormal eigenvectors and an exactly constant magnetic
    mode 0."""
    b = build_galerkin_basis(grid, PARAMS, m=m, m_magnetic=m_magnetic)
    vals, mvals = _dense_generalized_eigenvalues(grid, PARAMS, m, m_magnetic)
    assert np.all(np.abs(b.elastic_vals - vals) <= 1e-12 * np.abs(vals))
    assert np.all(np.abs(b.magnetic_vals - mvals) <= 1e-12 * np.abs(mvals))
    ev, mv = b.elastic_vecs, b.magnetic_vecs
    assert np.abs(ev.T @ (grid.vector_weights[:, None] * ev) - np.eye(m)).max() <= 1e-12
    assert np.abs(mv.T @ (grid.weights.ravel()[:, None] * mv) - np.eye(m_magnetic)).max() <= 1e-12
    assert np.all(mv[:, 0] == mv[0, 0])
    # eigenvector residuals A v = lambda v, with A the Lame matrix and
    # nu1 (-Lap) + I, against |A|_inf |v|_2
    for op, vecs, lam in ((lame_operator_matrix(grid, PARAMS.mu, PARAMS.lam), ev, b.elastic_vals),
                          (PARAMS.nu1 * -grid.lap_neumann + sparse.eye_array(grid.n_nodes),
                           mv, b.magnetic_vals)):
        scale = abs(op).sum(axis=1).max() * np.linalg.norm(vecs, axis=0).max()
        assert np.abs(op @ vecs - vecs * lam).max() <= 1e-12 * scale


def _eigsh_dropping(index):
    """scipy's eigsh that computes one mode more and drops the index-th
    lowest: a Lanczos run that missed that eigenvalue."""
    eigsh = scipy.sparse.linalg.eigsh

    def missing_one(a, k, **kw):
        vals, vecs = eigsh(a, k + 1, **kw)
        keep = np.delete(np.argsort(vals), index)
        return vals[keep], vecs[:, keep]
    return missing_one


@pytest.mark.parametrize("grid, index", [
    (Grid2D(18, 18, 1.0, 1.0), 0),    # one copy of the pair lambda_1 = lambda_2
    (Grid2D(18, 18, 1.0, 1.0), 5),    # one copy of the pair lambda_6 = lambda_7
    (Grid2D(19, 16, 1.0, 0.6), 0),    # lx != ly: simple eigenvalues
    (Grid2D(15, 22, 2.0, 1.3), 4),
])
def test_lanczos_certificate_catches_a_missed_mode(monkeypatch, grid, index):
    """The inertia count certifies every Lanczos basis, and a basis that
    skips an eigenvalue, even one copy of a repeated one, is refused."""
    assert 2 * grid.n_interior >= model.LANCZOS_MIN_DOF
    ok = build_galerkin_basis(grid, PARAMS, m=8, m_magnetic=1)
    vals = _dense_generalized_eigenvalues(grid, PARAMS, 9, 1)[0]
    assert np.all(np.abs(ok.elastic_vals - vals[:8]) <= 1e-12 * vals[:8])
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", _eigsh_dropping(index))
    with pytest.raises(MelabError, match="Lanczos returned 7 elastic eigenvalues"):
        build_galerkin_basis(grid, PARAMS, m=8, m_magnetic=1)


def test_lanczos_basis_at_64():
    """A 64 x 64 grid (7938 unknowns, beyond the dense limit) gets its 8
    lowest elastic modes with eigen-residuals and W-orthonormality within
    1e-12."""
    g = Grid2D(64, 64, 1.0, 1.0)
    b = build_galerkin_basis(g, PARAMS, m=8, m_magnetic=8)
    assert 2 * g.n_interior > model.MAX_DENSE_DOF
    assert np.all(np.diff(b.elastic_vals) >= 0)
    a = lame_operator_matrix(g, PARAMS.mu, PARAMS.lam)
    ev = b.elastic_vecs
    scale = abs(a).sum(axis=1).max() * np.linalg.norm(ev, axis=0).max()
    assert np.abs(a @ ev - ev * b.elastic_vals).max() <= 1e-12 * scale
    assert np.abs(ev.T @ (g.vector_weights[:, None] * ev) - np.eye(8)).max() <= 1e-12


def test_dense_basis_beyond_limit_refused_before_assembly(monkeypatch):
    """A basis of half the unknowns or more needs the dense solve; beyond
    MAX_DENSE_DOF it is refused before the Lame matrix is built."""
    def no_assembly(*args):
        raise AssertionError("the Lame matrix was built")

    monkeypatch.setattr(model, "lame_operator_matrix", no_assembly)
    g = Grid2D(64, 64, 1.0, 1.0)
    with pytest.raises(ParameterError, match="dense eigensolve"):
        build_galerkin_basis(g, PARAMS, m=g.n_interior, m_magnetic=1)


def test_random_state_mean_zero(grid, basis):
    st = random_state(grid, basis, seed=9, amplitude=0.1)
    assert abs(mean(ScalarField(grid, st.h.values))) <= 1e-12
    st2 = random_state(grid, basis, seed=9, amplitude=0.1)
    assert np.array_equal(st.h.values, st2.h.values)


def test_forcing_component_selects_axis(grid):
    """shape.component 0 forces ux only and 1 forces uy only; anything else
    is refused."""
    def f2(component):
        return Forcing(period=1.0, terms=[
            {"target": "f2", "g": {"a0": 1.0},
             "shape": {"jx": 1, "jy": 1, "component": component}},
        ]).f2(grid, 0.0)

    v0, v1 = f2(0), f2(1)
    assert np.abs(v0.ux).max() > 0 and np.all(v0.uy == 0)
    assert np.abs(v1.uy).max() > 0 and np.all(v1.ux == 0)
    assert np.array_equal(v0.ux, v1.uy)
    for bad in (2, -1, "x", 0.5):
        with pytest.raises(ParameterError):
            f2(bad)


trig = st.fixed_dictionaries({}, optional={
    "a0": positive, "cos": st.lists(positive, max_size=3), "sin": st.lists(positive, max_size=3)})
shape_f1 = {"jx": st.integers(0, 4), "jy": st.integers(0, 4), "amplitude": positive}
terms = st.one_of(
    st.fixed_dictionaries({"target": st.just("f1")}, optional={
        "g": trig, "shape": st.fixed_dictionaries({}, optional=shape_f1)}),
    st.fixed_dictionaries({"target": st.just("f2")}, optional={
        "g": trig, "shape": st.fixed_dictionaries(
            {}, optional={**shape_f1, "component": st.sampled_from([0, 1])})}),
)
parameter_objects = st.one_of(
    st.builds(Grid2D, st.integers(4, 64), st.integers(4, 64), positive, positive),
    random_params,
    st.just(DissipationSpec()),
    st.builds(DissipationSpec, kind=st.just("linear"), alpha=positive, k_c=positive),
    st.builds(DissipationSpec, kind=st.just("power"), alpha=positive, k0=positive,
              k1=positive, p=st.floats(3.0, 4.0), r_rho=positive, k_c=positive),
    st.builds(Forcing, period=positive, terms=st.lists(terms, max_size=3)),
    st.builds(StepperConfig, dt=positive, scheme=st.sampled_from(list(SCHEMES)),
              sample_every=st.integers(1, 1000)),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(parameter_objects)
def test_params_json_roundtrip(x):
    """Every parameter type reads back what its to_dict writes, through JSON."""
    d = json.loads(json.dumps(x.to_dict()))
    assert type(x).from_dict(d) == x
    if isinstance(x, MaterialParams):
        assert "lambda" in d and "lam" not in d


@pytest.mark.parametrize("cls, doc, key", [
    (Grid2D, {"nx": 8, "nxx": 8}, "nxx"),
    (MaterialParams, {"lam": 0.5}, "lam"),
    (DissipationSpec, {"kind": "linear", "alpha": 1.0, "alfa": 1.0}, "alfa"),
    (StepperConfig, {"dt": 0.1, "newton_tol": 1e-12}, "newton_tol"),
    (Forcing, {"period": 1.0, "term": []}, "term"),
    (Forcing, {"period": 1.0, "terms": [{"target": "f1", "gg": {}}]}, "gg"),
    (Forcing, {"period": 1.0, "terms": [{"target": "f1", "g": {"a1": 1.0}}]}, "a1"),
    (Forcing, {"period": 1.0, "terms": [{"target": "f1", "shape": {"component": 0}}]},
     "component"),
])
def test_from_dict_refuses_unknown_key(cls, doc, key):
    with pytest.raises(ParameterError, match=repr(key)):
        cls.from_dict(doc)


def test_from_dict_fills_defaults_and_checks_types():
    assert Grid2D.from_dict({}) == Grid2D(32, 32, 1.0, 1.0)
    assert MaterialParams.from_dict({}) == MaterialParams(lam=0.5, nu1=0.1)
    assert StepperConfig.from_dict({"dt": 1}).dt == 1.0
    for cls, doc in [(StepperConfig, {}), (Grid2D, {"nx": "8"}), (Grid2D, {"nx": 8.5}),
                     (MaterialParams, {"mu": True}), (Forcing, {"period": 1.0, "terms": {}}),
                     (Grid2D, []), (Forcing, {"period": 1.0, "terms": [{"g": {}}]})]:
        with pytest.raises(ParameterError):
            cls.from_dict(doc)
