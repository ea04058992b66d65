import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from specx import harmonic as hm
from specx import index as ix
from specx import spectra
from specx.harmonic import SphereMap, embed_map, power_map
from specx.mesh import MeshError, build_torus_mesh
from specx.spectra import SolverError, solve_pencil


@pytest.fixture(scope="module")
def flowed_deg2(sphere3):
    return hm.harmonic_flow(sphere3, power_map(sphere3), steps=800)


def test_identity_indices(sphere3, flowed_identity3):
    ind_s, nul_s, _ = ix.spectral_index(sphere3, flowed_identity3)
    assert (ind_s, nul_s) == (1, 3)
    ind_e, _ = ix.energy_index(sphere3, flowed_identity3)
    assert ind_e == 0


def test_equatorial_embedding_same_spectral(sphere3, flowed_identity3):
    five = embed_map(flowed_identity3, 5)
    ind_s, nul_s, _ = ix.spectral_index(sphere3, five)
    assert (ind_s, nul_s) == (1, 3)


def test_constant_map_errors(sphere3):
    const = SphereMap(np.tile([1.0, 0.0, 0.0], (sphere3.num_vertices, 1)))
    with pytest.raises(MeshError):
        ix.spectral_index(sphere3, const)
    with pytest.raises(MeshError):
        ix.energy_index(sphere3, const)


def test_composition_law(sphere3, flowed_identity3):
    for m in (2, 3, 4, 5):
        out = ix.check_composition_law(sphere3, flowed_identity3, m)
        assert out["equal"]
        assert out["lhs"] == m - 2  # saturates the ambient lower bound
    with pytest.raises(MeshError):
        ix.check_composition_law(sphere3, flowed_identity3, 1)


def _count_calls(monkeypatch, name):
    calls = []
    func = getattr(ix, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return func(*args, **kwargs)

    monkeypatch.setattr(ix, name, counted)
    return calls


def test_composition_law_degree2(sphere3, flowed_deg2):
    out = ix.check_composition_law(sphere3, flowed_deg2, 4)
    assert out["equal"]
    assert out["lhs"] == out["ind_E"] + 2 * out["ind_S"]


def test_degree2_spectral_index(sphere3, flowed_deg2):
    ind_s, nul_s, margins = ix.spectral_index(sphere3, flowed_deg2)
    assert nul_s == 3
    assert ind_s >= 2  # the induced metric exceeds the first-eigenvalue cap
    # the induced metric's gap around eigenvalue 2: twice the nearer of
    # the margins below and above the cluster
    assert 2.0 * min(margins[1:]) == pytest.approx(1.244, abs=1e-3)


def test_scaling_invariance(sphere3, flowed_identity3):
    doubled = sphere3.scaled(2.0)
    assert ix.spectral_index(doubled, flowed_identity3)[:2] == (1, 3)
    assert ix.energy_index(doubled, flowed_identity3)[0] == 0


def test_frame_rotation_invariance(sphere3, flowed_identity3, monkeypatch):
    frames = ix.tangent_frames(flowed_identity3)
    rng = np.random.default_rng(0)
    th = rng.uniform(0, 2 * np.pi, sphere3.num_vertices)
    c, s = np.cos(th), np.sin(th)
    rotated = np.empty_like(frames)
    rotated[:, 0, :] = c[:, None] * frames[:, 0, :] \
        + s[:, None] * frames[:, 1, :]
    rotated[:, 1, :] = -s[:, None] * frames[:, 0, :] \
        + c[:, None] * frames[:, 1, :]
    base = ix.energy_index(sphere3, flowed_identity3)[0]
    calls = []

    def rotated_frames(phi):
        calls.append(phi)
        return rotated

    monkeypatch.setattr(ix, "tangent_frames", rotated_frames)
    rot = ix.energy_index(sphere3, flowed_identity3)[0]
    # the rotated frames were used
    assert len(calls) == 1 and calls[0] is flowed_identity3
    assert base == rot == 0


def test_counts_stable_under_tol_halving(sphere3, flowed_identity3,
                                         monkeypatch):
    thresholds = []
    count_below = spectra.count_below

    def recorded(A, m, t):
        thresholds.append(t)
        return count_below(A, m, t)

    monkeypatch.setattr(spectra, "count_below", recorded)
    a = ix.spectral_index(sphere3, flowed_identity3)[:2]
    monkeypatch.setattr(spectra, "CLUSTER_TOL", 5e-4)
    b = ix.spectral_index(sphere3, flowed_identity3)[:2]
    assert thresholds == [1.0 - 1e-3, 1.0 + 1e-3, 1.0 - 5e-4, 1.0 + 5e-4]
    assert a == b


def test_normalized_eigenvalue_identity(sphere3, flowed_identity3):
    # 2 E(Phi) equals the ind_S-th normalized eigenvalue of the induced
    # metric (threshold-1 normalization carries mass 2E)
    b = 2.0 * hm.energy_shares(sphere3, flowed_identity3)
    ind_s, _, _ = ix.spectral_index(sphere3, flowed_identity3)
    spec = solve_pencil(sphere3, b, ind_s + 1)
    lam_bar = spec.values[ind_s] * spec.mass
    two_e = 2.0 * hm.energy(sphere3, flowed_identity3)
    assert abs(lam_bar - two_e) < 0.02 * two_e


def _dense_spectral_counts(mesh, b, cluster_tol=1e-3):
    vals = sla.eigh(mesh.stiffness.toarray(), np.diag(b), eigvals_only=True)
    return (int(np.sum(vals < 1.0 - cluster_tol)),
            int(np.sum(np.abs(vals - 1.0) <= cluster_tol)))


def test_nonharmonic_map_counts_and_residual(sphere3):
    rng = np.random.default_rng(1)
    sloppy = SphereMap(hm.normalize_rows(
        rng.standard_normal((sphere3.num_vertices, 3))))
    # no index function warns; the composition law carries the residual.
    # The huge induced density pushes the threshold far down the spectrum,
    # where the counts must still be those of the dense generalized
    # eigenproblem
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ind_s, nul_s, margins = ix.spectral_index(sphere3, sloppy)
        law = ix.check_composition_law(sphere3, sloppy, 3)
    _, agg = hm.tension_residual(sphere3, sloppy)
    assert law["tension_residual"] == agg > ix.RESIDUAL_WARN
    assert law["ind_S"] == ind_s
    b = 2.0 * hm.energy_shares(sphere3, sloppy)
    assert b.min() > 0.0
    want = _dense_spectral_counts(sphere3, b)
    assert (ind_s, nul_s) == want
    assert want[0] > 48  # far past the lowest few dozen pairs
    assert min(margins) > 0.0


def test_spectral_counts_with_semidefinite_mass(sphere3, flowed_identity3):
    # b vanishing on a vertex patch Z makes B semidefinite; K_ZZ is
    # positive definite on the connected mesh, so the inertia still counts
    # the finite eigenvalues of (K, B), which solve_pencil returns
    b = 2.0 * hm.energy_shares(sphere3, flowed_identity3)
    patch = sphere3.adjacency[0].indices
    b[np.append(patch, 0)] = 0.0
    assert 0 < np.sum(b == 0.0) < 10
    ind_s, nul_s, margins = ix._spectral_index(sphere3, b)
    vals = solve_pencil(sphere3, b, ind_s + nul_s + 4).values
    assert (ind_s, nul_s) == (int(np.sum(vals < 1.0 - 1e-3)),
                              int(np.sum(np.abs(vals - 1.0) <= 1e-3)))
    assert min(margins) > 0.0


def test_index_report_json(sphere3, flowed_identity3, monkeypatch):
    calls = _count_calls(monkeypatch, "tension_residual")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # harmonic enough: no warning
        rep = ix.index_report(sphere3, flowed_identity3)
    doc = rep.to_json_dict()
    assert doc["ind_S"] == 1 and doc["nul_S"] == 3 and doc["ind_E"] == 0
    assert doc["normalization"] == "density |dPhi|^2, threshold 1"
    assert len(doc["margins"]) >= 2
    # the tension residual is computed once and written to the payload
    assert len(calls) == 1
    _, agg = hm.tension_residual(sphere3, flowed_identity3)
    assert doc["tension_residual"] == agg < ix.RESIDUAL_WARN


def test_index_report_residual_once_torus(monkeypatch):
    # the flowed collapse map of a torus is far from harmonic (no
    # degree-one harmonic map T^2 -> S^2 exists); the report and the
    # composition law each carry its residual, computed once, and nothing
    # warns. The counts come from spectral_index and energy_index, which
    # compute no residual
    mesh = build_torus_mesh(1j, 16)
    phi = hm.harmonic_flow(mesh, hm.torus_collapse_map(mesh), steps=400)
    _, agg = hm.tension_residual(mesh, phi)
    assert agg > ix.RESIDUAL_WARN
    calls = _count_calls(monkeypatch, "tension_residual")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = ix.index_report(mesh, phi)
        assert len(calls) == 1
        assert rep.to_json_dict()["tension_residual"] == agg
        assert ix.spectral_index(mesh, phi)[:2] == (rep.ind_S, rep.nul_S)
        assert ix.energy_index(mesh, phi)[0] == rep.ind_E
        assert len(calls) == 1
        law = ix.check_composition_law(mesh, phi, 3)
    assert len(calls) == 2
    assert law["tension_residual"] == agg
    assert (law["ind_S"], law["ind_E"]) == (rep.ind_S, rep.ind_E)


# ---------------------------------------------------------------------------
# oracles: the per-vertex frame loop, and the dense second variation
# assembled entry by entry and diagonalized by eigvalsh
# ---------------------------------------------------------------------------

def _loop_tangent_frames(vals):
    v, d = vals.shape
    drop = np.argmax(np.abs(vals), axis=1)
    frames = np.empty((v, d - 1, d))
    for i in range(v):
        cols = [c for c in range(d) if c != drop[i]]
        basis = np.eye(d)[cols]
        normal = vals[i]
        out = []
        for vec in basis:
            w = vec - (vec @ normal) * normal
            for prev in out:
                w = w - (w @ prev) * prev
            nrm = np.linalg.norm(w)
            if nrm < 1e-10:
                raise MeshError("tangent frame construction failed")
            out.append(w / nrm)
        frames[i] = np.asarray(out)
    return frames


def _dense_energy_hessian(mesh, phi):
    frames = _loop_tangent_frames(phi.values)
    v, n, d = frames.shape
    dim = v * n
    K = mesh.stiffness.tocoo()
    b = 2.0 * hm.energy_shares(mesh, phi)
    Q = np.zeros((dim, dim))
    G = np.einsum("ead,ebd->eab", frames[K.row], frames[K.col])
    blocks = K.data[:, None, None] * G
    for e in range(len(K.data)):
        i, j = K.row[e], K.col[e]
        Q[i * n:(i + 1) * n, j * n:(j + 1) * n] += blocks[e]
    Q[np.arange(dim), np.arange(dim)] -= np.repeat(b, n)
    return 0.5 * (Q + Q.T)


def _dense_energy_index(mesh, phi, margin_factor=0.05):
    Q = _dense_energy_hessian(mesh, phi)
    msec = np.repeat(mesh.vertex_areas, phi.ambient_dim - 1)
    wh = 1.0 / np.sqrt(msec)
    Qw = wh[:, None] * Q * wh[None, :]
    evals = np.linalg.eigvalsh(0.5 * (Qw + Qw.T))
    e_scale = 2.0 * float(hm.energy_shares(mesh, phi).sum()) \
        / float(mesh.vertex_areas.sum())
    margin = margin_factor * e_scale
    kept = evals[evals < -margin]
    rest = evals[evals >= -margin]
    margins = []
    if len(kept):
        margins.append(float(-margin - kept.max()))
    if len(rest):
        margins.append(float(rest.min() + margin))
    return len(kept), margins


@pytest.fixture(scope="module", params=["identity", "degree2"])
def harmonic3(request, flowed_identity3, flowed_deg2):
    return flowed_identity3 if request.param == "identity" else flowed_deg2


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_energy_index_matches_dense_oracle(sphere3, harmonic3, m):
    phi = embed_map(harmonic3, m + 1)
    ind, margins = ix.energy_index(sphere3, phi)
    want_ind, want_margins = _dense_energy_index(sphere3, phi)
    assert ind == want_ind
    assert len(margins) == len(want_margins)
    np.testing.assert_allclose(margins, want_margins, rtol=1e-10, atol=0)


def test_energy_hessian_matches_dense_oracle(sphere3, harmonic3):
    phi = embed_map(harmonic3, 5)
    Q = ix.energy_hessian(sphere3, phi)
    assert isinstance(Q, np.ndarray)
    assert np.array_equal(Q, Q.T)
    assert np.abs(Q - _dense_energy_hessian(sphere3, phi)).max() <= 1e-14


@pytest.mark.parametrize("ambient", [3, 4, 6])
def test_tangent_frames_match_loop(harmonic3, ambient):
    vals = embed_map(harmonic3, ambient).values
    frames = ix.tangent_frames(SphereMap(vals))
    assert np.abs(frames - _loop_tangent_frames(vals)).max() <= 1e-15
    # ties and exact axes take the same drop rule as the loop
    axes = np.vstack([np.eye(ambient), -np.eye(ambient),
                      np.full((1, ambient), ambient ** -0.5)])
    assert np.abs(ix.tangent_frames(SphereMap(axes))
                  - _loop_tangent_frames(axes)).max() <= 1e-15


def test_tangent_frame_failure_is_mesh_error():
    # rows of norm 2e8 cancel the second Gram-Schmidt vector to roundoff
    phi = SphereMap(np.tile(np.eye(4)[0], (3, 1)))
    phi.values = np.full((3, 4), 1e8)
    with pytest.raises(MeshError, match="tangent frame construction failed"):
        _loop_tangent_frames(phi.values)
    with pytest.raises(MeshError, match="tangent frame construction failed"):
        ix.tangent_frames(phi)


@pytest.fixture(scope="module")
def flowed_identity4(sphere4):
    return hm.harmonic_flow(sphere4, hm.identity_sphere_map(sphere4),
                            steps=400)


@pytest.mark.parametrize("m", [4, 5])
def test_composition_law_sphere4(sphere4, flowed_identity4, m):
    # dimension 4 * 2562 and 5 * 2562 second variations
    out = ix.check_composition_law(sphere4, flowed_identity4, m)
    assert out["lhs"] == out["rhs"] == m - 2


def test_energy_index_arpack_failure_is_solver_error(sphere3,
                                                    flowed_identity3,
                                                    monkeypatch):
    def stalled(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.empty(0),
                                       np.empty((0, 0)))

    monkeypatch.setattr(spla, "eigsh", stalled)
    with pytest.raises(SolverError, match="eigensolver failed"):
        ix.energy_index(sphere3, flowed_identity3)


def test_non_unit_map_is_mesh_error(sphere3, flowed_identity3):
    phi = SphereMap(flowed_identity3.values.copy())
    phi.values = 1.01 * phi.values
    with pytest.raises(MeshError, match="unit-norm"):
        ix.energy_hessian(sphere3, phi)
    with pytest.raises(MeshError, match="unit-norm"):
        ix.energy_index(sphere3, phi)


def test_index_recipe_flags_the_flowed_torus_collapse_map():
    # the recipe flows the map 400 steps and flags, without a warning,
    # the residual that stays far above RESIDUAL_WARN
    mesh = build_torus_mesh(1j, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        payload, ledger, tables, flags = ix.index_recipe(
            mesh, hm.torus_collapse_map(mesh))
    residual = payload["tension_residual"]
    assert residual > ix.RESIDUAL_WARN
    assert flags == [("index", f"map has tension residual {residual:.3g} "
                      f"(above {ix.RESIDUAL_WARN}); index counts assume an "
                      "approximately harmonic map")]
    assert ledger == [("ind_S", payload["ind_S"])] and tables == {}
