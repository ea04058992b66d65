import json
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from specx import mesh as meshmod
from specx import spectra
from specx.cli import main
from specx.harmonic import energy_density, torus_collapse_map
from specx.mesh import (MeshError, build_sphere_mesh, build_torus_mesh,
                        curve_measure, hole_centers, puncture, volume_measure)
from specx.spectra import (RankError, SolverError, _spd_factor,
                           laplace_eigs, maximize_lambda1_conformal,
                           multiplicity, solve_pencil, steklov_eigs,
                           steklov_hole_sweep)

from conftest import build_annulus_mesh


def test_torus_spectrum(torus32):
    spec = laplace_eigs(torus32, k=6)
    lam1 = 4 * np.pi ** 2
    assert abs(spec.values[1] - lam1) < 0.01 * lam1
    assert multiplicity(spec, spec.values[1]) == 4
    assert abs(spec.values[0]) < 1e-8
    # constant kernel vector
    v0 = spec.vectors[:, 0]
    assert np.std(v0) / np.abs(v0).mean() < 1e-6


def test_sphere_spectrum(sphere4):
    spec = laplace_eigs(sphere4, k=6)
    assert abs(spec.values[1] - 2.0) < 0.01 * 2.0
    assert multiplicity(spec, 2.0) == 3


def test_density_scaling(sphere3):
    base = laplace_eigs(sphere3, k=3)
    c = 2.5
    f = np.full(sphere3.num_vertices, c)
    scaled = laplace_eigs(sphere3, f, k=3)
    assert np.allclose(scaled.values[1:], base.values[1:] / c, rtol=1e-9)
    assert np.isclose(scaled.normalized()[1], base.normalized()[1],
                      rtol=1e-9)


def test_residual_invariant(sphere3, torus32, disk):
    for spec in (laplace_eigs(sphere3, k=5), laplace_eigs(torus32, k=5),
                 steklov_eigs(disk, k=4)):
        assert spec.residuals.max() < 1e-8


def test_measure_volume_matches_laplace(sphere3):
    direct = laplace_eigs(sphere3, k=4)
    mu = volume_measure(sphere3)
    via_measure = solve_pencil(sphere3, mu, 4)
    assert np.allclose(direct.values, via_measure.values, rtol=1e-10)


def test_measure_energy_density_eigenvalue_two(sphere4):
    from specx.harmonic import energy_shares, identity_sphere_map
    mu = np.maximum(energy_shares(sphere4, identity_sphere_map(sphere4)), 0)
    spec = solve_pencil(sphere4, mu, 6)
    assert multiplicity(spec, 2.0) >= 3


def test_measure_point_mass(torus32):
    w = np.zeros(torus32.num_vertices)
    w[7] = 1.0
    spec = solve_pencil(torus32, w, 0)
    assert abs(spec.values[0]) < 1e-10
    with pytest.raises(RankError):
        solve_pencil(torus32, w, 1)


def test_zero_form_is_rank_error(torus32):
    with pytest.raises(RankError, match="identically zero"):
        solve_pencil(torus32, np.zeros(torus32.num_vertices), 1)


def test_split_support_warns(torus32):
    # two disjoint patches around vertices 0 and 16 * 32 + 16
    dist = meshmod.geodesic_distances(torus32, [0, 528])
    b = (dist.min(axis=0) < 0.1).astype(float)
    with pytest.warns(UserWarning, match="splits into 2 components"):
        solve_pencil(torus32, b, 1)
    # Steklov pencils of several boundary loops expect the split
    holed = puncture(torus32, [0, 528], 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        steklov_eigs(holed, k=1)


def test_measure_scaling_invariance(torus32):
    mu = volume_measure(torus32)
    s1 = solve_pencil(torus32, mu, 3)
    s2 = solve_pencil(torus32, 4.0 * mu, 3)
    assert np.allclose(s2.values[1:], s1.values[1:] / 4.0, rtol=1e-9)
    assert np.allclose(s2.normalized()[1:], s1.normalized()[1:], rtol=1e-9)


def test_steklov_disk(disk):
    spec = steklov_eigs(disk, k=4)
    sigma_bar = spec.normalized()
    assert abs(spec.values[0]) < 1e-9
    assert abs(spec.values[1] - 1.0) < 0.02
    assert abs(spec.values[2] - 1.0) < 0.02
    assert abs(sigma_bar[1] - 2 * np.pi) < 0.02 * 2 * np.pi


def annulus_steklov_oracle(r_in):
    """Smallest positive Steklov eigenvalue of the flat annulus [r_in, 1]
    by separation of variables: independent 2x2 pencils per mode."""
    best = np.inf
    # radial mode: u = A + B log r
    pencil_a = np.array([[0.0, 1.0], [0.0, -1.0 / r_in]])
    pencil_b = np.array([[1.0, 0.0], [1.0, np.log(r_in)]])
    vals = [v for v in np.linalg.eigvals(np.linalg.solve(pencil_b, pencil_a))
            if v.imag == 0 and v.real > 1e-12]
    best = min([best] + [float(v.real) for v in vals])
    for k in (1, 2, 3):
        # u = (A r^k + B r^-k) * angular; outer normal derivative at r=1,
        # inner (pointing to decreasing r) at r=r_in
        A = np.array([[k, -k],
                      [-k * r_in ** (k - 1), k * r_in ** (-k - 1)]])
        B = np.array([[1.0, 1.0],
                      [r_in ** k, r_in ** (-k)]])
        vals = np.linalg.eigvals(np.linalg.solve(B, A))
        vals = [float(v.real) for v in vals
                if abs(v.imag) < 1e-12 and v.real > 1e-12]
        best = min([best] + vals)
    return best


def test_steklov_annulus_against_oracle():
    r_in = 0.4
    mesh = build_annulus_mesh(r_in=r_in, n_rings=16, n_around=96)
    spec = steklov_eigs(mesh, k=2)
    oracle = annulus_steklov_oracle(r_in)
    assert oracle < 1.0
    assert abs(spec.values[1] - oracle) < 0.02 * oracle
    assert spec.values[1] < 1.0


def test_steklov_scaling(disk):
    base = steklov_eigs(disk, k=2)
    scaled = steklov_eigs(disk.scaled(2.0), k=2)
    assert np.allclose(scaled.values[1:], base.values[1:] / 2.0, rtol=1e-9)
    assert np.allclose(scaled.normalized()[1:], base.normalized()[1:],
                       rtol=1e-9)


def test_steklov_closed_mesh_error(sphere3):
    with pytest.raises(MeshError):
        steklov_eigs(sphere3, k=2)


def test_multiplicity_edges(sphere3):
    spec = laplace_eigs(sphere3, k=6)
    assert multiplicity(spec, 0.0) == 1
    assert multiplicity(spec, 1.0) == 0  # between clusters


def test_maximizer_sphere(sphere3):
    rep = maximize_lambda1_conformal(sphere3, iters=80)
    target = 8 * np.pi
    assert abs(rep.lambda_bar - target) < 0.02 * target
    assert rep.stationarity_gap < 1e-3
    assert rep.converged


def test_maximizer_torus_multistart(torus32):
    target = 4 * np.pi ** 2
    rng_seeds = range(3)
    for seed in rng_seeds:
        rng = np.random.default_rng(seed)
        f0 = rng.uniform(0.3, 3.0, torus32.num_vertices)
        rep = maximize_lambda1_conformal(torus32, iters=120, f0=f0)
        assert abs(rep.lambda_bar - target) < 0.02 * target
        # density converges to the flat metric
        assert rep.density.std() < 0.05 * rep.density.mean()


def test_maximizer_fixed_point(torus32):
    rep = maximize_lambda1_conformal(torus32, iters=40)
    again = maximize_lambda1_conformal(torus32, iters=1, f0=rep.density)
    assert abs(again.lambda_bar - rep.lambda_bar) < 1e-6 * rep.lambda_bar


def test_maximizer_builds_its_heat_step_at_the_first_update(
        torus32, sphere3, monkeypatch):
    # the flat density of a flat torus is stationary, so the ascent stops
    # at iteration 1 without smoothing; a sphere ascent builds the step once
    calls = []
    real = spectra._heat_factor
    monkeypatch.setattr(spectra, "_heat_factor",
                        lambda *args: calls.append(1) or real(*args))
    rep = maximize_lambda1_conformal(torus32)
    assert rep.iterations == 1 and calls == []
    maximize_lambda1_conformal(sphere3, iters=3)
    assert calls == [1]


@pytest.mark.parametrize("subdiv, stretch, iters", [
    (3, (1.0, 1.0, 1.0), 50),  # the conformal-max workload
    (2, (3.0, 1.0, 0.5), 30),
], ids=["sphere3", "ellipsoid"])
def test_maximizer_never_returns_less_than_its_start(subdiv, stretch, iters):
    # an iterate of lower lambda_bar but smaller gap replaced a better
    # one: 25.012884 at the start fell to 25.012881 on sphere3, and
    # 0.3417 * 8 pi to 0.2350 * 8 pi on the 3:1:0.5 ellipsoid
    sphere = build_sphere_mesh(subdiv)
    mesh = meshmod.TriMesh(sphere.vertices * stretch, sphere.triangles)
    start = maximize_lambda1_conformal(mesh, iters=1)
    rep = maximize_lambda1_conformal(mesh, iters=iters)
    assert rep.lambda_bar >= start.lambda_bar
    if rep.lambda_bar == start.lambda_bar:  # the start's own report
        assert rep.stationarity_gap == start.stationarity_gap
        assert rep.converged == start.converged


def test_maximizer_requires_closed(disk):
    with pytest.raises(MeshError):
        maximize_lambda1_conformal(disk, iters=2)


def test_conical_zeros_sparse_path():
    # isolated density zeros on a large mesh: the Lanczos solve with a
    # singular right-hand form
    torus = build_torus_mesh(1j, 64)
    f = np.ones(torus.num_vertices)
    f[[5, 600, 2000]] = 0.0
    spec = laplace_eigs(torus, f, k=5)
    assert spec.residuals.max() < 1e-8
    assert np.all(np.isfinite(spec.vectors))
    assert abs(spec.values[1] - 4 * np.pi ** 2) < 0.01 * 4 * np.pi ** 2
    _check_against_oracle(torus, volume_measure(torus, f), spec)


def test_k_bounds(sphere3):
    with pytest.raises(MeshError):
        laplace_eigs(sphere3, k=sphere3.num_vertices)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_density_is_mesh_error(sphere3, value):
    f = np.ones(sphere3.num_vertices)
    f[7] = value  # must be refused before it reaches the factorisation
    with pytest.raises(MeshError, match="finite"):
        laplace_eigs(sphere3, f, k=3)


@pytest.fixture
def no_factorisation(monkeypatch):
    def refuse(A):
        raise AssertionError("a non-finite input reached a factorisation")

    monkeypatch.setattr(spectra, "_spd_factor", refuse)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_pencil_weights_are_mesh_error(value, no_factorisation):
    mesh = build_sphere_mesh(1)
    b = volume_measure(mesh)
    b[3] = value
    with pytest.raises(MeshError, match="finite"):
        solve_pencil(mesh, b, 2)


def test_negative_pencil_weights_are_mesh_error(no_factorisation):
    # with 5 weights negated the solve returned lambda_0 = -1.19e-3 and
    # lambda_1 = 2.017 for the true 2, at a worst residual of 0.96
    mesh = build_sphere_mesh(2)
    b = volume_measure(mesh)
    b[:5] *= -1.0
    with pytest.raises(MeshError,
                       match="^right-hand form must be nonnegative$"):
        solve_pencil(mesh, b, 2)


def test_density_within_roundoff_of_zero_still_runs(sphere3):
    # validate_density lets -1e-12 through; laplace_eigs clips it to zero
    f = np.ones(sphere3.num_vertices)
    f[7] = -1e-12
    clipped = f.copy()
    clipped[7] = 0.0
    np.testing.assert_array_equal(laplace_eigs(sphere3, f, k=2).values,
                                  laplace_eigs(sphere3, clipped, k=2).values)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_start_density_is_mesh_error(value, no_factorisation):
    mesh = build_sphere_mesh(1)
    f = np.ones(mesh.num_vertices)
    f[3] = value
    with pytest.raises(MeshError, match="finite"):
        maximize_lambda1_conformal(mesh, f0=f)


def test_courant_bound_genus0(sphere3, sphere4):
    for mesh in (sphere3, sphere4):
        spec = laplace_eigs(mesh, k=6)
        assert multiplicity(spec, spec.values[1]) <= 3


def test_puncture_domain_monotonicity_logged(torus32, capsys):
    # Neumann eigenvalue drift under puncturing is reported, not asserted:
    # there is no monotonicity claim to check against
    from specx.mesh import puncture
    base = laplace_eigs(torus32, k=1).normalized()[1]
    sub = puncture(torus32, [0], 0.08)
    mu = volume_measure(sub)
    spec = solve_pencil(sub, mu, 1)
    lam_bar = spec.values[1] * mu.sum()
    print(f"puncture Neumann drift: closed={base:.4f} "
          f"punctured={lam_bar:.4f} delta={lam_bar - base:+.4f}")
    assert np.isfinite(lam_bar)


def test_spectrum_json(sphere3):
    spec = laplace_eigs(sphere3, k=3)
    doc = spec.to_json_dict()
    assert set(doc) == {"values", "residuals", "mass", "normalized"}
    assert len(doc["values"]) == len(doc["normalized"]) == 4
    assert np.isclose(doc["normalized"][1],
                      doc["values"][1] * doc["mass"])


# ---------------------------------------------------------------------------
# the pencil solver against a dense oracle
# ---------------------------------------------------------------------------

def _dense_pencil(K, b, kk):
    """The kk lowest eigenvalues of K v = lambda diag(b) v by dense
    generalized eigh, restricted to supp(b) by the Schur complement when b
    is rank-deficient (the solver this package used before the single
    shift-invert path)."""
    s_idx = np.flatnonzero(b > 0.0)
    c_idx = np.flatnonzero(b <= 0.0)
    K = K.tocsr()
    Kss = K[s_idx][:, s_idx].toarray()
    if len(c_idx):
        Ksc = K[s_idx][:, c_idx]
        lu = spla.splu(K[c_idx][:, c_idx].tocsc())
        Kss = Kss - Ksc @ lu.solve(Ksc.T.toarray())
        Kss = 0.5 * (Kss + Kss.T)
    return sla.eigh(Kss, np.diag(b[s_idx]), eigvals_only=True,
                    subset_by_index=[0, kk - 1])


def _check_against_oracle(mesh, b, spec):
    """Eigenvalues within 1e-10 relative of the oracle, residuals at most
    1e-8, vectors B-orthonormal and discrete-harmonic off supp(b). The zero
    eigenvalue is measured against the largest eigenvalue computed or, if
    that is zero too, against the solver's shift 1e-3 tr K / sum b."""
    K = mesh.stiffness
    kk = len(spec.values)
    ref = _dense_pencil(K, b, kk)
    floor = max(abs(ref[-1]), 1e-3 * K.diagonal().sum() / b.sum())
    err = np.abs(spec.values - ref)
    assert np.all(err <= 1e-10 * np.maximum(np.abs(ref), floor)), err
    assert spec.residuals.max() <= 1e-8
    vecs = spec.vectors
    assert np.allclose(vecs.T @ (b[:, None] * vecs), np.eye(kk), atol=1e-9)
    off = b <= 0.0
    if off.any():
        scale = K.diagonal().max() * np.abs(vecs).max()
        assert np.abs((K @ vecs)[off]).max() <= 1e-9 * scale


def test_matches_dense_oracle(sphere3, torus32, disk):
    f = np.random.default_rng(11).uniform(0.3, 3.0, sphere3.num_vertices)
    _check_against_oracle(sphere3, volume_measure(sphere3, f),
                          laplace_eigs(sphere3, f, k=6))
    _check_against_oracle(torus32, volume_measure(torus32),
                          laplace_eigs(torus32, k=6))
    _check_against_oracle(disk, curve_measure(disk),
                          steklov_eigs(disk, k=4))


@pytest.mark.parametrize("holes", [1, 4, 9])
def test_punctured_torus_steklov_matches_dense_oracle(holes):
    torus = build_torus_mesh(1j, 48)
    mesh = puncture(torus, hole_centers(torus, holes, 0),
                    0.2 / np.sqrt(holes))
    _check_against_oracle(mesh, curve_measure(mesh),
                          steklov_eigs(mesh, k=5))


@pytest.mark.parametrize("k", [1, 2])
def test_k_cutting_a_degenerate_cluster(sphere3, k):
    # lambda_1 of the round sphere has multiplicity 3; asking for part of
    # the cluster must return cluster members, not skip to lambda_2
    spec = laplace_eigs(sphere3, k=k)
    _check_against_oracle(sphere3, volume_measure(sphere3), spec)
    assert np.allclose(spec.values[1:], 2.0, rtol=1e-3)


@pytest.mark.parametrize("masses", [{7: 1.0}, {7: 1.0, 400: 2.5}])
def test_rank_equals_pair_count(torus32, masses):
    b = np.zeros(torus32.num_vertices)
    b[list(masses)] = list(masses.values())
    spec = solve_pencil(torus32, b, len(masses) - 1,
                        expect_disconnected=True)
    assert len(spec.values) == len(masses)
    _check_against_oracle(torus32, b, spec)


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("rank, lanczos", [(40, False), (600, True)])
def test_both_diagonalisation_branches(torus32, monkeypatch, rank,
                                       lanczos):
    # supp(b) is the first `rank` vertices, a band of the torus grid
    b = np.zeros(torus32.num_vertices)
    b[:rank] = torus32.vertex_areas[:rank]
    dense = _count_calls(monkeypatch, sla, "eigh")
    arpack = _count_calls(monkeypatch, spla, "eigsh")
    factor = _count_calls(monkeypatch, spla, "splu")
    spec = solve_pencil(torus32, b, 4)
    assert (len(dense), len(arpack), len(factor)) == \
        ((0, 1, 1) if lanczos else (1, 0, 1))
    _check_against_oracle(torus32, b, spec)


def test_arpack_failure_is_solver_error(torus32, monkeypatch):
    def stalled(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.empty(0),
                                       np.empty((0, 0)))

    monkeypatch.setattr(spla, "eigsh", stalled)
    with pytest.raises(SolverError, match="eigensolver failed"):
        laplace_eigs(torus32, k=4)


def _unmemoised(fn):
    """fn with the mesh's geodesic memo emptied first, so that each call
    runs Dijkstra from all its sources, as before the memo existed."""
    def call(mesh, *args):
        mesh._cache.pop("geodesic_rows", None)
        return fn(mesh, *args)
    return call


_loop_geodesic = _unmemoised(meshmod.geodesic_distances)
_loop_puncture = _unmemoised(puncture)


def _loop_hole_centers(mesh, count, seed):
    """The earlier hole layout, kept as an oracle for `hole_centers`."""
    if not mesh.chart_meta:
        rng = np.random.default_rng(seed)
        centers = [int(rng.integers(mesh.num_vertices))]
        dist = _loop_geodesic(mesh, [centers[0]])[0]
        while len(centers) < count:
            nxt = int(np.argmax(dist))
            centers.append(nxt)
            dist = np.minimum(dist, _loop_geodesic(mesh, [nxt])[0])
        return centers
    res = int(mesh.chart_meta["res"])

    def grid_id(x, y):
        return (int(round(y * res)) % res) * res + int(round(x * res)) % res

    k = int(round(np.sqrt(count)))
    if k * k == count:
        return [grid_id((i + 0.5) / k, (j + 0.5) / k)
                for j in range(k) for i in range(k)]
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    return [grid_id((i + 0.5) / count, (i * golden) % 1.0)
            for i in range(count)]


def _loop_hole_sweep(mesh, counts, seed=0, fracs=(0.3, 0.4, 0.5, 0.7)):
    """The earlier sweep, kept as an oracle: it writes the radius rule out
    twice and reruns Dijkstra from every centre of every candidate."""
    floor = 2.1 * mesh.mean_edge_length
    rows = []
    prev = None

    def evaluate(centers, radii):
        sub = _loop_puncture(mesh, centers, radii)
        spec = steklov_eigs(sub, k=1, seed=seed)
        return float(spec.values[1] * spec.mass)

    for holes in counts:
        spacing = np.sqrt(meshmod.area(mesh) / holes)
        best = None
        centers = _loop_hole_centers(mesh, holes, seed)
        for frac in fracs:
            radius = max(frac * 0.5 * spacing, floor)
            try:
                val = evaluate(centers, radius)
            except MeshError:
                continue
            if best is None or val > best[0]:
                best = (val, centers, [radius] * holes)
        if prev is not None and len(prev[0]) == holes - 1:
            dist = _loop_geodesic(mesh, prev[0]).min(axis=0)
            extra = int(np.argmax(dist))
            try:
                cand = (prev[0] + [extra], prev[1] + [floor])
                val = evaluate(*cand)
                if best is None or val > best[0]:
                    best = (val, cand[0], cand[1])
            except MeshError:
                pass
        if best is None:
            raise SolverError(f"no feasible puncturing with {holes} holes")
        rows.append((holes, best[0], best[1], best[2]))
        prev = (list(best[1]), list(best[2]))
    return rows


@pytest.mark.parametrize("build, counts, sources", [
    (lambda: build_torus_mesh(0.3 + 1.1j, 24), range(1, 7), (119, 24)),
    (lambda: build_sphere_mesh(2), range(1, 5), (65, 4)),
])
def test_hole_sweep_matches_loop_oracle(monkeypatch, build, counts, sources):
    # rows equal to the last bit (repr); the sweep runs Dijkstra once from
    # each distinct source that the loop ran it from
    ran = []
    dijkstra = meshmod.dijkstra

    def counted(*args, indices, **kwargs):
        ran.extend(np.atleast_1d(indices).tolist())
        return dijkstra(*args, indices=indices, **kwargs)

    monkeypatch.setattr(meshmod, "dijkstra", counted)
    want = _loop_hole_sweep(build(), counts)
    loop_sources = list(ran)
    ran.clear()
    got = steklov_hole_sweep(build(), counts)
    assert repr(got) == repr(want)
    assert (len(loop_sources), len(ran)) == sources
    assert sorted(ran) == sorted(set(loop_sources))


def test_hole_centers_match_loop_oracle():
    for mesh in (build_torus_mesh(1j, 48), build_torus_mesh(0.3 + 1.1j, 37),
                 build_sphere_mesh(2)):
        for count in range(1, 41):
            assert hole_centers(mesh, count, 3) == \
                _loop_hole_centers(mesh, count, 3)


@pytest.mark.parametrize("counts", [[], [0, 1], [2, -1]])
def test_hole_sweep_rejects_counts_below_one(torus32, counts):
    with pytest.raises(MeshError, match="hole counts"):
        steklov_hole_sweep(torus32, counts)


def _pencil_shift(A, m, sigma):
    return (A - sigma * sp.diags(m)).tocsc()


def _stiffness_shift(mesh, m):
    # the shift solve_pencil takes
    K = mesh.stiffness
    return _pencil_shift(K, m, -1e-3 * K.diagonal().sum() / m.sum())


def _spd_matrices(torus32, sphere3):
    from specx.harmonic import embed_map, identity_sphere_map
    from specx.index import _second_variation
    yield "torus32", _stiffness_shift(torus32, torus32.vertex_areas)
    torus = build_torus_mesh(1j, 48)
    holed = puncture(torus, hole_centers(torus, 5, 0),
                     meshmod.hole_radius(torus, 5, 0.5))
    yield "punctured torus48", _stiffness_shift(holed,
                                                curve_measure(holed))
    # the shift energy_index takes for the Morse form at m = 5
    Q, b = _second_variation(
        sphere3, embed_map(identity_sphere_map(sphere3), 6))
    va = sphere3.vertex_areas
    yield "sphere3 Morse m=5", _pencil_shift(
        Q, np.repeat(va, 5), -np.max(b / va) - b.sum() / va.sum())


def test_spd_factor_against_default_ordering(torus32, sphere3):
    rng = np.random.default_rng(5)
    for name, A in _spd_matrices(torus32, sphere3):
        lu = _spd_factor(A)
        ref = spla.splu(A)
        rhs = rng.standard_normal((A.shape[0], 3))
        x = lu.solve(rhs)
        assert np.linalg.norm(x - ref.solve(rhs)) <= \
            1e-12 * np.linalg.norm(x), name
        # diagonal pivoting: rows are permuted as the columns are, and an
        # SPD matrix gives positive pivots
        assert np.array_equal(lu.perm_r, lu.perm_c), name
        assert lu.U.diagonal().min() > 0.0, name
        assert lu.L.nnz + lu.U.nnz <= ref.L.nnz + ref.U.nnz, name
        # lu.nnz also counts the stored zeros, which lu.L and lu.U drop
        assert lu.nnz <= ref.L.nnz + ref.U.nnz, name


def test_spd_factor_relaxes_no_supernodes(sphere4):
    # SuperLU's default supernode relaxation (relax=10, panel_size=20) pads
    # L and U with explicit zeros; with the same ordering and pivots, the
    # factor without it holds no more entries, and on sphere4 fewer
    torus = build_torus_mesh(1j, 48)
    holed = puncture(torus, hole_centers(torus, 9, 0),
                     meshmod.hole_radius(torus, 9, 0.5))
    pencils = [("sphere4", _stiffness_shift(sphere4, volume_measure(sphere4))),
               ("punctured torus48", _stiffness_shift(holed,
                                                      curve_measure(holed)))]
    for name, A in pencils:
        relaxed = spla.splu(A, permc_spec="MMD_AT_PLUS_A",
                            diag_pivot_thresh=0.0,
                            options={"SymmetricMode": True})
        nnz = _spd_factor(A).nnz
        assert nnz <= relaxed.nnz, name
        if name == "sphere4":
            assert nnz < relaxed.nnz


def test_spd_factor_pivots_give_inertia(torus32):
    # an indefinite shift above lambda_1 of the square torus: with
    # diagonal pivots, A = P^T L D L^T P, so the negative pivots count the
    # eigenvalues below sigma (Sylvester's law of inertia)
    sigma = 1.5 * 4 * np.pi ** 2
    spec = laplace_eigs(torus32, k=8)
    below = int(np.sum(spec.values < sigma))
    assert below == 5 and spec.values[-1] > sigma
    lu = _spd_factor(_pencil_shift(torus32.stiffness, torus32.vertex_areas,
                                   sigma))
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert int(np.sum(lu.U.diagonal() < 0.0)) == below
    assert spectra.count_below(torus32.stiffness, torus32.vertex_areas,
                               sigma) == below


def test_count_below_guards():
    # a zero diagonal makes SuperLU swap rows (perm_r = [0, 1] against
    # perm_c = [1, 0]), after which the pivots say nothing of the inertia
    swap = sp.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(SolverError, match="row interchange"):
        spectra.count_below(swap, np.ones(2), 0.0)
    # tiny diagonal pivots are taken without interchange, and the second
    # pivot grows to -1e20: the solve's backward error is 0.5
    tiny = sp.csc_matrix(np.array([[1e-20, 1.0], [1.0, 1e-20]]))
    assert np.array_equal(_spd_factor(tiny).perm_r, _spd_factor(tiny).perm_c)
    with pytest.raises(SolverError, match="pivot growth"):
        spectra.count_below(tiny, np.ones(2), 0.0)
    # a benign indefinite form passes both guards
    sign = sp.diags([2.0, -3.0, 5.0]).tocsc()
    assert spectra.count_below(sign, np.ones(3), 0.0) == 1
    assert spectra.count_below(sign, np.ones(3), 3.0) == 2


def test_count_below_on_a_singular_form_is_solver_error():
    # the inertia is undefined at an exact eigenvalue, and a zero row of A
    # where m vanishes leaves a zero row in every shift; SuperLU's
    # RuntimeError surfaces as the SolverError the CLI reports
    with pytest.raises(SolverError, match="Factor is exactly singular"):
        spectra.count_below(sp.diags([1.0, 2.0, 3.0]).tocsc(), np.ones(3),
                            2.0)
    zero_row = sp.csc_matrix(np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, 0.0],
                                       [0.0, 0.0, 0.0]]))
    with pytest.raises(SolverError, match="Factor is exactly singular"):
        spectra.count_below(zero_row, np.array([1.0, 1.0, 0.0]), 0.5)


def _residuals_loop(K, b, vals, vecs):
    # the per-pair loop `_residuals` replaced, kept as its oracle
    scale = float(np.abs(K.diagonal()).max())
    out = np.empty(len(vals))
    for i, lam in enumerate(vals):
        v = vecs[:, i]
        kv = K @ v
        r = kv - lam * (b * v)
        denom = max(np.linalg.norm(kv), 1e-6 * scale * np.linalg.norm(v))
        out[i] = np.linalg.norm(r) / max(denom, 1e-300)
    return out


def test_residuals_match_loop_oracle(sphere3):
    torus = build_torus_mesh(1j, 48)
    holed = puncture(torus, hole_centers(torus, 5, 0),
                     meshmod.hole_radius(torus, 5, 0.5))
    cases = [(sphere3, volume_measure(sphere3),
              laplace_eigs(sphere3, k=6)),
             (holed, curve_measure(holed), steklov_eigs(holed, k=5))]
    for mesh, b, spec in cases:
        want = _residuals_loop(mesh.stiffness, b, spec.values, spec.vectors)
        np.testing.assert_allclose(spec.residuals, want, rtol=0, atol=1e-12)
    # the kernel pair (lambda = 0, Kv ~ roundoff) meets the denominator floor
    assert np.isfinite(cases[0][2].residuals).all()


# ---------------------------------------------------------------------------
# warm-started solves: the maximiser in lockstep with cold solves, and the
# acceptance and fallback rules of the block Krylov path
# ---------------------------------------------------------------------------

def _lockstep(monkeypatch):
    """Make every warm-started `solve_pencil` also solve its pencil cold
    and compare: values to 1e-10 relative (the kernel value against
    lambda_1), residuals <= 1e-8, and a fallback equal to the cold solve
    bit for bit. Returns the warm flags of the started solves."""
    flags = []
    original = spectra.solve_pencil

    def solve(mesh, b, k, *args, start=None, **kwargs):
        spec = original(mesh, b, k, *args, start=start, **kwargs)
        if start is not None:
            cold = original(mesh, b, k, *args, **kwargs)
            assert not cold.warm
            np.testing.assert_allclose(spec.values, cold.values, rtol=1e-10,
                                       atol=1e-10 * cold.values[1])
            assert spec.residuals.max() <= 1e-8
            if not spec.warm:
                assert np.array_equal(spec.values, cold.values)
                assert np.array_equal(spec.vectors, cold.vectors)
            flags.append(spec.warm)
        return spec

    monkeypatch.setattr(spectra, "solve_pencil", solve)
    return flags


def _cold_maximiser(mesh, monkeypatch, **kwargs):
    """The maximiser with every start dropped, as before warm starts."""
    original = spectra.solve_pencil

    def cold(*args, start=None, **kw):
        return original(*args, **kw)

    with monkeypatch.context() as patch:
        patch.setattr(spectra, "solve_pencil", cold)
        return maximize_lambda1_conformal(mesh, **kwargs)


def _check_lockstep(mesh, monkeypatch, **kwargs):
    cold = _cold_maximiser(mesh, monkeypatch, **kwargs)
    flags = _lockstep(monkeypatch)
    rep = maximize_lambda1_conformal(mesh, **kwargs)
    monkeypatch.undo()
    assert rep.warm_solves == sum(flags)
    assert rep.warm_solves + rep.cold_solves == rep.iterations
    assert (rep.iterations, rep.converged) == (cold.iterations,
                                               cold.converged)
    assert abs(rep.lambda_bar - cold.lambda_bar) <= 1e-10 * cold.lambda_bar
    assert cold.warm_solves == 0
    # the solve counts are telemetry: the payload holds the other fields
    assert set(rep.to_json_dict()) == {
        "density", "lambda_bar", "iterations", "stationarity_gap",
        "converged", "weak_gap", "measure_rank"}
    return rep


def test_warm_lockstep_sphere(sphere3, monkeypatch):
    # the conformal-max benchmark pass: most steps take the warm path
    rep = _check_lockstep(sphere3, monkeypatch, iters=50)
    assert rep.iterations == 50
    assert rep.warm_solves > rep.cold_solves


def test_warm_lockstep_torus_multistart(torus32, monkeypatch):
    # far from the fixed point the warm starts fall back; each fallback
    # doubles the wait to the next attempt
    for seed in range(3):
        rng = np.random.default_rng(seed)
        f0 = rng.uniform(0.3, 3.0, torus32.num_vertices)
        _check_lockstep(torus32, monkeypatch, iters=120, f0=f0)


def test_warm_lockstep_long_torus_nonflat(monkeypatch):
    # tau = 2i from the collapse map's energy density, a slow drift away
    # from a density with zeros (rank-deficient pencils)
    mesh = build_torus_mesh(2j, 48)
    f0 = energy_density(mesh, torus_collapse_map(mesh))
    assert f0.min() == 0.0
    rep = _check_lockstep(mesh, monkeypatch, iters=40, f0=f0)
    assert rep.warm_solves > 0


def _tilted_pencil(sphere3):
    # a non-round metric on the sphere splits the lambda_1 cluster
    f = np.exp(0.5 * sphere3.vertices[:, 2])
    return volume_measure(sphere3, f)


@pytest.mark.parametrize("missing", [1, 2, 3])
def test_warm_start_missing_a_cluster_vector(sphere3, monkeypatch, missing):
    # a start frame without one eigenvector of the lambda_1 cluster: the
    # random columns bring it in, or the solve falls back; either way the
    # values are the cold ones
    b = _tilted_pencil(sphere3)
    cold = solve_pencil(sphere3, b, 6)
    start = np.delete(cold.vectors, missing, axis=1)
    spec = solve_pencil(sphere3, b, 6, start=start)
    np.testing.assert_allclose(spec.values, cold.values, rtol=1e-10,
                               atol=1e-10 * cold.values[1])
    # with room for enough blocks the warm path itself finds it
    monkeypatch.setattr(spectra, "WARM_BLOCKS", 30)
    spec = solve_pencil(sphere3, b, 6, start=start)
    assert spec.warm
    np.testing.assert_allclose(spec.values, cold.values, rtol=1e-10,
                               atol=1e-10 * cold.values[1])
    assert spec.residuals.max() <= 1e-8


@pytest.mark.parametrize("start", ["random", "round"])
def test_warm_start_fallback_is_cold_bit_for_bit(sphere3, start):
    # a start too far from the pencil cannot converge within WARM_BLOCKS
    # blocks; the seeded ARPACK solve then runs as without a start
    b = _tilted_pencil(sphere3)
    if start == "random":
        vecs = np.random.default_rng(5).standard_normal(
            (sphere3.num_vertices, 7))
    else:
        vecs = laplace_eigs(sphere3, k=6).vectors
    cold = solve_pencil(sphere3, b, 6)
    spec = solve_pencil(sphere3, b, 6, start=vecs)
    assert not spec.warm
    assert np.array_equal(spec.values, cold.values)
    assert np.array_equal(spec.vectors, cold.vectors)
    assert np.array_equal(spec.residuals, cold.residuals)


def test_warm_start_ignored_at_small_rank(torus32):
    # rank <= 2 ncv takes the dense branch, which never reads the start:
    # a start of NaNs changes nothing
    b = np.zeros(torus32.num_vertices)
    b[:40] = torus32.vertex_areas[:40]
    cold = solve_pencil(torus32, b, 4)
    spec = solve_pencil(torus32, b, 4,
                        start=np.full((torus32.num_vertices, 5), np.nan))
    assert not spec.warm
    assert np.array_equal(spec.values, cold.values)
    assert np.array_equal(spec.vectors, cold.vectors)


@pytest.mark.parametrize("eps", [1e-6, 1e-3])
def test_warm_start_near_the_lanczos_rank_floor(torus32, eps):
    # rank 85 is just above 2 ncv = 80, where WARM_BLOCKS blocks of 11
    # columns would outgrow the space; the block count is capped by the
    # rank, and warm or cold the values are the cold ones
    b = np.zeros(torus32.num_vertices)
    b[:85] = torus32.vertex_areas[:85]
    near = b * (1.0 + eps * np.sin(np.arange(len(b))))
    cold = solve_pencil(torus32, b, 6)
    start = solve_pencil(torus32, near, 6).vectors
    spec = solve_pencil(torus32, b, 6, start=start)
    assert spec.warm or eps > 1e-6
    np.testing.assert_allclose(spec.values, cold.values, rtol=1e-10,
                               atol=1e-10 * cold.values[1])
    assert spec.residuals.max() <= 1e-8


def test_sweep_recipe_returns_what_main_writes(tmp_path):
    mesh = build_torus_mesh(1j, 16)
    payload, ledger, tables, flags = spectra.sweep_recipe(mesh, [1, 2], 0)
    assert main(["sweep", "steklov-holes", "--surface", "torus", "--res",
                 "16", "--holes", "1..2", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "sweep.json") as fh:
        doc = json.load(fh)["payload"]
    assert payload["rows"] == doc["rows"]
    assert payload["nondecreasing_trend"] is doc["nondecreasing_trend"]
    assert payload["lambda_bar_ref"] == doc["lambda_bar_ref"]
    assert ledger == [(f"sigma_bar_1_holes{h}", s) for h, s in doc["rows"]]
    table = tables["steklov_holes.csv"]
    assert [row[:2] for row in table[1:]] == doc["rows"]
    assert flags == []
