import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specx import glminmax as gl
from specx import harmonic as hm
from specx import mobius as mb
from specx import spectra as sx
from specx.glminmax import (FamilyError, FamilySpec, VectorMap,
                            balanced_point, balanced_point_second,
                            eigen_lower_from_family, embedded_member,
                            extract_critical, family_first, family_second,
                            gl_descend, gl_energy, gl_gradient, gl_inner,
                            gl_second_variation, make_family_spec,
                            minmax_upper, mollify, sandwich_holds,
                            sweep_to_csv)
from specx.mesh import (MeshMeasure, area, build_sphere_mesh,
                        build_torus_mesh, curve_measure, puncture,
                        volume_measure)


@pytest.fixture(scope="module")
def unit_sphere3(sphere3):
    return sphere3.scaled(1.0 / np.sqrt(area(sphere3)))


@pytest.fixture(scope="module")
def sphere_spec(unit_sphere3, identity3):
    return make_family_spec(unit_sphere3, identity3, mollify_time=1e-4,
                            eps=0.1)


def test_gl_energy_cases(sphere3, identity3):
    n = sphere3.num_vertices
    const = np.tile([1.0, 0.0, 0.0], (n, 1))
    assert abs(gl_energy(sphere3, const, 0.1)) < 1e-12
    zero = np.zeros((n, 3))
    expected = area(sphere3) / (4 * 0.1 ** 2)
    assert np.isclose(gl_energy(sphere3, zero, 0.1), expected)
    for eps in (0.3, 0.1, 0.03):
        e = gl_energy(sphere3, identity3, eps)
        assert abs(e - 4 * np.pi) < 0.01 * 4 * np.pi


def test_gl_energy_equivariance(sphere3):
    rng = np.random.default_rng(0)
    u = rng.standard_normal((sphere3.num_vertices, 4))
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    assert gl_energy(sphere3, u @ q.T, 0.2) == pytest.approx(
        gl_energy(sphere3, u, 0.2), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(0.05, 0.5))
def test_gradient_consistency_property(seed, eps):
    mesh = build_sphere_mesh(1)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((mesh.num_vertices, 3))
    v = rng.standard_normal((mesh.num_vertices, 3))
    h = 1e-5
    de = (gl_energy(mesh, u + h * v, eps)
          - gl_energy(mesh, u - h * v, eps)) / (2 * h)
    pair = gl_inner(mesh, gl_gradient(mesh, u, eps), v)
    assert abs(de - pair) <= 1e-6 * max(1.0, abs(de))


def test_gradient_matches_finite_differences(sphere3):
    rng = np.random.default_rng(1)
    mesh = build_sphere_mesh(1)
    h = 1e-5
    for trial in range(100):
        eps = rng.uniform(0.05, 0.5)
        u = rng.standard_normal((mesh.num_vertices, 3))
        v = rng.standard_normal((mesh.num_vertices, 3))
        de = (gl_energy(mesh, u + h * v, eps)
              - gl_energy(mesh, u - h * v, eps)) / (2 * h)
        pair = gl_inner(mesh, gl_gradient(mesh, u, eps), v)
        assert abs(de - pair) < 1e-6 * max(1.0, abs(de))


def test_hessian_matches_finite_differences(sphere3):
    rng = np.random.default_rng(2)
    mesh = build_sphere_mesh(1)
    h = 1e-4
    for trial in range(100):
        eps = rng.uniform(0.05, 0.5)
        u = rng.standard_normal((mesh.num_vertices, 3))
        v = rng.standard_normal((mesh.num_vertices, 3))
        d2 = (gl_energy(mesh, u + h * v, eps) - 2 * gl_energy(mesh, u, eps)
              + gl_energy(mesh, u - h * v, eps)) / h ** 2
        q = gl_second_variation(mesh, u, eps, v)
        assert abs(d2 - q) < 1e-4 * max(1.0, abs(q))


def test_gradient_unit_constant_and_radial(sphere3):
    n = sphere3.num_vertices
    const = np.tile([0.0, 1.0, 0.0], (n, 1))
    g = gl_gradient(sphere3, const, 0.1)
    assert np.abs(g.values).max() < 1e-10
    inflated = 1.1 * const
    g2 = gl_gradient(sphere3, inflated, 0.1).values
    # gradient is parallel to u and pushes |u| back toward 1
    cos = np.sum(g2 * inflated, axis=1) / (
        np.linalg.norm(g2, axis=1) * np.linalg.norm(inflated, axis=1))
    assert np.allclose(cos, 1.0, atol=1e-9)


def test_second_variation_cases(sphere3):
    n = sphere3.num_vertices
    u = np.tile([1.0, 0.0, 0.0], (n, 1))
    v = np.tile([0.0, 1.0, 0.0], (n, 1))
    assert abs(gl_second_variation(sphere3, u, 0.2, v)) < 1e-12
    q_uu = gl_second_variation(sphere3, u, 0.2, u)
    assert q_uu > 0.0
    # bilinear symmetry
    rng = np.random.default_rng(3)
    w = rng.standard_normal((n, 3))
    z = rng.standard_normal((n, 3))
    assert gl_second_variation(sphere3, u, 0.2, w, z) == pytest.approx(
        gl_second_variation(sphere3, u, 0.2, z, w), rel=1e-10)


def test_descend_cases(sphere3, identity3):
    n = sphere3.num_vertices
    const = np.tile([1.0, 0.0, 0.0], (n, 1))
    out = gl_descend(sphere3, const, 0.1, tol=1e-8)
    assert out["converged"] and out["E_eps"] < 1e-12
    out2 = gl_descend(sphere3, identity3, 0.05, tol=1e-5)
    assert abs(out2["E_eps"] - 4 * np.pi) < 0.01 * 4 * np.pi
    rng = np.random.default_rng(4)  # records the symmetry-breaking seed
    near_zero = 1e-3 * rng.standard_normal((n, 3))
    out3 = gl_descend(sphere3, near_zero, 0.2, tol=1e-6, max_iters=5000)
    norms = np.linalg.norm(out3["u"].values, axis=1)
    assert out3["E_eps"] < 1e-3
    assert np.abs(norms - 1.0).max() < 1e-2


def _difference_armijo_descend(mesh, u0, eps, tol=1e-6, max_iters=2000,
                               step0=None):
    """The earlier gl_descend, kept as an oracle: its Armijo test subtracts
    two gl_energy values, one energy evaluation per trial step."""
    vals = gl._values(u0).copy()
    va = mesh.vertex_areas
    rate = float((mesh.stiffness.diagonal() / va).max())
    if step0 is None:
        step0 = 0.9 / (rate + 2.0 / eps ** 2)
    e = gl_energy(mesh, vals, eps)
    converged = False
    it = 0
    gnorm = np.inf
    for it in range(1, max_iters + 1):
        g = gl_gradient(mesh, vals, eps).values
        gnorm = gl.gl_norm(mesh, g)
        if gnorm < tol:
            converged = True
            break
        step = step0
        g2 = gnorm ** 2
        for _ in range(40):
            cand = vals - step * g
            e_new = gl_energy(mesh, cand, eps)
            if e_new <= e - 0.5 * step * g2:
                break
            step *= 0.5
        else:
            break
        vals = cand
        e = e_new
    return {"u": VectorMap(vals), "gradient_norm": gnorm, "E_eps": e,
            "iterations": it, "converged": converged}


def test_line_quartic_matches_energy_difference():
    mesh = build_sphere_mesh(2)
    K = mesh.stiffness
    va = mesh.vertex_areas
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(20):
        eps = rng.uniform(0.05, 0.5)
        u = rng.uniform(0.2, 1.5) * rng.standard_normal(
            (mesh.num_vertices, 3))
        g = gl_gradient(mesh, u, eps).values
        g2 = gl.gl_norm(mesh, g) ** 2
        # the linear coefficient of the expansion is -|g|^2
        d = 1.0 - np.sum(u * u, axis=1)
        c1 = -np.sum(g * (K @ u)) + np.sum(
            va * d * np.sum(u * g, axis=1)) / eps ** 2
        assert c1 == pytest.approx(-g2, rel=1e-12)
        c2, c3, c4 = gl._line_quartic(mesh, u, g, eps)
        e0 = gl_energy(mesh, u, eps)
        for s in np.geomspace(1e-6, 1.0, 13):
            direct = gl_energy(mesh, u - s * g, eps) - e0
            if abs(direct) < 1e-4 * e0:
                continue  # the difference itself is rounding-dominated
            phi = s * (-g2 + s * (c2 + s * (c3 + s * c4)))
            assert phi == pytest.approx(direct, rel=1e-10)
            checked += 1
    assert checked > 100


@pytest.fixture(scope="module")
def recipe_eps02(unit_sphere3, identity3):
    """The glminmax recipe's first stage: eps = 0.2 from the argmax."""
    spec = make_family_spec(unit_sphere3, identity3, eps=0.2)
    start = spec.member(minmax_upper(spec).argmax)
    return start, gl_descend(unit_sphere3, start, 0.2)


def test_descend_matches_difference_oracle(unit_sphere3, recipe_eps02):
    # at eps = 0.2 every first trial step is accepted, so both line
    # searches walk the same path to the iteration cap
    start, out = recipe_eps02
    ref = _difference_armijo_descend(unit_sphere3, start, 0.2)
    assert out["backtracks"] == 0
    assert out["iterations"] == ref["iterations"] == 2000
    assert not out["converged"] and not ref["converged"]
    assert out["E_eps"] == pytest.approx(ref["E_eps"], rel=1e-10)
    assert out["gradient_norm"] == pytest.approx(ref["gradient_norm"],
                                                 rel=1e-10)


def test_descend_converges_below_energy_rounding(unit_sphere3, recipe_eps02):
    # at eps = 0.1 the gradient falls to ~1e-6, where the Armijo decrease
    # is below the rounding error of E ~ 11; a test that subtracts two
    # energies stalls there at the cap, the quartic one converges
    _, warm = recipe_eps02
    out = gl_descend(unit_sphere3, warm["u"], 0.1, tol=1e-6, max_iters=2000)
    assert out["converged"]
    assert out["iterations"] < 2000
    assert out["gradient_norm"] < 1e-6
    assert out["E_eps"] <= gl_energy(unit_sphere3, warm["u"], 0.1)


def test_descend_stall_break():
    # a first trial step 1e15 times the default is still about 1800 times
    # the default after 39 halvings, too long for the Armijo test: the line
    # search gives up after 40 halvings and leaves the map as it was
    mesh = build_sphere_mesh(2)
    u0 = hm.identity_sphere_map(mesh).values
    eps = 0.2
    rate = float((mesh.stiffness.diagonal() / mesh.vertex_areas).max())
    step0 = 1e15 * 0.9 / (rate + 2.0 / eps ** 2)
    out = gl_descend(mesh, u0, eps, step0=step0)
    assert not out["converged"]
    assert (out["iterations"], out["backtracks"]) == (1, 40)
    assert np.array_equal(out["u"].values, u0)


def test_mollify_properties(sphere3, identity3):
    vals = identity3.values
    out = mollify(sphere3, vals, 1e-8)
    assert np.abs(out.values - vals).max() < 1e-6
    const = VectorMap(np.tile([0.2, -0.4, 1.0], (sphere3.num_vertices, 1)))
    fixed = mollify(sphere3, const, 5.0)
    assert np.abs(fixed.values - const.values).max() < 1e-12
    rng = np.random.default_rng(5)
    rough = rng.standard_normal(vals.shape)
    K = sphere3.stiffness
    smoothed = mollify(sphere3, rough, 1e-2).values
    assert np.sum(smoothed * (K @ smoothed)) < np.sum(rough * (K @ rough))
    with pytest.raises(FamilyError):
        mollify(sphere3, vals, 0.0)


def test_family_first_members(sphere_spec, unit_sphere3, identity3):
    a0 = family_first(sphere_spec, np.zeros(3))
    tiny = make_family_spec(unit_sphere3, identity3, mollify_time=1e-9,
                            eps=0.1)
    near_base = family_first(tiny, np.zeros(3))
    assert np.abs(near_base.values - identity3.values).max() < 1e-6
    boundary = family_first(sphere_spec, np.array([0.0, 1.0, 0.0]))
    assert np.allclose(boundary.values, [0.0, 1.0, 0.0])
    assert gl_energy(unit_sphere3, boundary, sphere_spec.eps) < 1e-12
    a9 = family_first(sphere_spec, np.array([0.9, 0.0, 0.0]))
    parts = gl_energy(unit_sphere3, a9, sphere_spec.eps, parts=True)
    assert parts["E_eps"] <= 4 * np.pi * 1.03
    assert np.linalg.norm(a9.values, axis=1).max() <= 1.0 + 1e-9


def test_family_grid_validation(unit_sphere3, identity3):
    with pytest.raises(FamilyError):
        FamilySpec(mesh=unit_sphere3, base_map=identity3, mollify_time=1e-4,
                   eps=0.1, grid=np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(FamilyError):
        make_family_spec(unit_sphere3, identity3, mollify_time=0.0, eps=0.1)


def test_family_second_members(unit_sphere3, identity3):
    spec2 = make_family_spec(unit_sphere3, identity3, mollify_time=1e-4,
                             eps=0.1, family="second")
    spec1 = make_family_spec(unit_sphere3, identity3, mollify_time=1e-4,
                             eps=0.1)
    rng = np.random.default_rng(6)
    a = np.array([0.3, 0.1, 0.0])
    assert np.allclose(family_second(spec2, a, np.zeros(3)).values,
                       family_first(spec1, a).values)
    boundary = family_second(spec2, np.array([0.0, 1.0, 0.0]),
                             rng.uniform(-0.5, 0.5, 3))
    assert np.allclose(boundary.values, [0.0, 1.0, 0.0])
    for _ in range(3):
        b = rng.standard_normal(3)
        b /= np.linalg.norm(b)
        a = rng.standard_normal(3)
        a *= rng.uniform(0, 0.9) / np.linalg.norm(a)
        lhs = family_second(spec2, a, b).values
        rhs = mb.linear_reflection(
            b, family_second(spec2, mb.linear_reflection(b, a), -b).values)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_minmax_upper_sphere(sphere_spec):
    rep = minmax_upper(sphere_spec)
    assert abs(rep.sup_energy - 4 * np.pi) < 0.03 * 4 * np.pi
    assert rep.grid_size == len(sphere_spec.grid)
    assert len(rep.refinement) == sphere_spec.refine_rounds + 1
    # refinement history is monotone
    assert all(b >= a for a, b in zip(rep.refinement, rep.refinement[1:]))


def test_minmax_single_point_grid(unit_sphere3, identity3):
    spec = make_family_spec(unit_sphere3, identity3, mollify_time=1e-4,
                            eps=0.1, grid=np.zeros((1, 3)),
                            refine_rounds=0)
    rep = minmax_upper(spec)
    member = family_first(spec, np.zeros(3))
    assert rep.sup_energy == pytest.approx(
        gl_energy(unit_sphere3, member, 0.1))


def test_sweep_csv(tmp_path, sphere_spec):
    rep = minmax_upper(sphere_spec)
    path = tmp_path / "sweep.csv"
    sweep_to_csv(rep, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "p0,p1,p2,E_eps,dirichlet,potential,avg_norm"
    assert len(lines) == 1 + len(rep.sweep_rows)


def test_report_json(sphere_spec):
    rep = extract_critical(sphere_spec, tol=1e-4, max_iters=500)
    doc = rep.to_json_dict()
    for key in ("sup_energy", "argmax", "eps", "mollify_time", "family",
                "seed", "grid_size", "critical"):
        assert key in doc


def test_balanced_point_symmetric(sphere_spec):
    a_star, res = balanced_point(sphere_spec)
    assert np.linalg.norm(a_star) < 1e-6
    assert res < 1e-6 * area(sphere_spec.mesh)


def test_balanced_point_shifted(unit_sphere3, identity3):
    shifted = hm.SphereMap(hm.normalize_rows(
        mb.mobius_apply(np.array([0.5, 0.0, 0.0]), identity3.values)))
    spec = make_family_spec(unit_sphere3, shifted, mollify_time=1e-4,
                            eps=0.1)
    a_star, res = balanced_point(spec)
    assert res < 1e-6 * area(unit_sphere3)
    # the balancing parameter undoes the shift along the same axis
    assert abs(a_star[0] + 0.5) < 0.05
    assert np.abs(a_star[1:]).max() < 1e-3


def test_balanced_point_wrong_family(unit_sphere3, identity3):
    spec2 = make_family_spec(unit_sphere3, identity3, mollify_time=1e-4,
                             eps=0.1, family="second")
    with pytest.raises(FamilyError):
        balanced_point(spec2)


def test_balanced_point_second_sphere(unit_sphere3, identity3):
    w = volume_measure(unit_sphere3).weights
    w = w / w.sum()
    mu = MeshMeasure("volume", w)
    phi1 = sx.measure_eigs(unit_sphere3, mu, k=1).vectors[:, 1]
    spec2 = make_family_spec(unit_sphere3, identity3, mollify_time=1e-4,
                             eps=0.1, family="second")
    (a_star, b_star), res = balanced_point_second(spec2, phi1, mu=mu)
    assert res < 1e-6
    # b lands on the symmetry axis of the chosen first eigenfunction
    axis = np.linalg.lstsq(
        unit_sphere3.vertices
        / np.linalg.norm(unit_sphere3.vertices, axis=1, keepdims=True),
        phi1, rcond=None)[0]
    axis /= np.linalg.norm(axis)
    align = abs(b_star @ axis) / max(np.linalg.norm(b_star), 1e-12)
    assert align > 0.999
    # homogeneity: scaling the measure leaves the root unchanged
    (a2, b2), _ = balanced_point_second(spec2, phi1,
                                        mu=MeshMeasure("volume", 3.0 * w))
    assert np.abs(a_star - a2).max() < 1e-6
    assert np.abs(b_star - b2).max() < 1e-6


def test_balanced_point_second_dim_error(unit_sphere3, identity3):
    spec2 = make_family_spec(unit_sphere3, identity3, mollify_time=1e-4,
                             eps=0.1, family="second")
    with pytest.raises(FamilyError):
        balanced_point_second(spec2, np.ones(7))


def test_balanced_point_point_mass_has_no_root(sphere_spec, unit_sphere3,
                                              identity3):
    # mu = delta at one vertex: |F(v)| stays near 1 there for every
    # parameter, so no balanced point exists and neither solver may
    # return a non-root
    w = np.zeros(unit_sphere3.num_vertices)
    w[0] = 1.0
    mu = MeshMeasure("volume", w)
    with pytest.raises(FamilyError, match="^balanced point not found"):
        balanced_point(sphere_spec, mu=mu)
    spec2 = make_family_spec(unit_sphere3, identity3, mollify_time=1e-4,
                             eps=0.1, family="second")
    phi1 = unit_sphere3.vertices[:, 2]
    with pytest.raises(FamilyError, match="^second balanced point not found"):
        balanced_point_second(spec2, phi1, mu=mu)


def test_eigen_lower_sphere_equality(sphere_spec, unit_sphere3):
    w = volume_measure(unit_sphere3).weights
    mu = MeshMeasure("volume", w / w.sum())
    ratio = eigen_lower_from_family(sphere_spec, mu=mu)
    target = 8 * np.pi
    assert abs(ratio - target) < 0.02 * target


def test_eigen_lower_torus_inequality():
    torus = build_torus_mesh(1j, 24)
    base = hm.torus_clifford_map(torus)
    spec = make_family_spec(torus, base, mollify_time=1e-4, eps=0.1)
    w = volume_measure(torus).weights
    mu = MeshMeasure("volume", w / w.sum())
    ratio = eigen_lower_from_family(spec, mu=mu)
    lam1 = sx.measure_eigs(torus, mu, k=1).values[1]
    assert lam1 <= ratio * (1 + 1e-9)
    rep = minmax_upper(spec)
    assert ratio <= 2 * rep.sup_energy / (
        1 - 2 * spec.eps * np.sqrt(rep.sup_energy)) + 1e-9


def test_eigen_lower_steklov_measure(unit_sphere3, identity3):
    sub = puncture(unit_sphere3, [0], 0.07)
    w = np.zeros(unit_sphere3.num_vertices)
    cm = curve_measure(sub)
    w[sub.orig_vertex_ids] = cm.weights
    mu = MeshMeasure("curve", w / w.sum())
    spec = make_family_spec(unit_sphere3, identity3, mollify_time=1e-4,
                            eps=0.1)
    ratio = eigen_lower_from_family(spec, mu=mu)
    st = sx.steklov_eigs(sub, k=1)
    # sigma_bar = sigma_1 * Length equals the eigenvalue of the unit-mass
    # boundary measure scaled consistently, so it is dominated by the
    # balanced Rayleigh quotient
    sigma_bar = st.values[1] * st.mass
    rep = minmax_upper(spec)
    bound = 2 * rep.sup_energy / (1 - 2 * spec.eps
                                  * np.sqrt(rep.sup_energy))
    assert sigma_bar <= ratio * (1 + 1e-9)
    assert sigma_bar <= bound + 1e-9


def test_eigen_lower_needs_unit_mass(sphere_spec):
    w = volume_measure(sphere_spec.mesh).weights
    with pytest.raises(FamilyError):
        eigen_lower_from_family(sphere_spec, mu=MeshMeasure("volume", 2 * w))


def test_extract_critical_sphere(sphere3, identity3):
    # on the area-4pi sphere eps=0.1 is deep in the rigid regime, so the
    # descended critical point stays near the identity level
    spec = make_family_spec(sphere3, identity3, mollify_time=1e-4, eps=0.1)
    rep = extract_critical(spec, tol=1e-5)
    crit = rep.critical
    assert crit["E_eps"] <= rep.sup_energy + 1e-12
    assert abs(crit["E_eps"] - 4 * np.pi) < 0.03 * 4 * np.pi
    assert crit["tension_residual"] < 1e-2


def test_extract_critical_eps_monotone(unit_sphere3, identity3):
    es = []
    for eps in (0.2, 0.1, 0.05):
        spec = make_family_spec(unit_sphere3, identity3, mollify_time=1e-4,
                                eps=eps)
        rep = extract_critical(spec, tol=1e-5)
        es.append(rep.critical["E_eps"])
    for a, b in zip(es, es[1:]):
        assert b >= a - 0.01 * abs(a)


def test_sandwich_consistency(unit_sphere3, identity3):
    lam1 = sx.laplace_eigs(unit_sphere3, k=1).values[1]
    for eps in (0.2, 0.1, 0.05):
        spec = make_family_spec(unit_sphere3, identity3, mollify_time=1e-4,
                                eps=eps)
        ok, lhs, rhs = sandwich_holds(spec, lam1)
        assert ok


def test_dimensional_monotonicity(sphere_spec):
    eps = sphere_spec.eps
    mesh = sphere_spec.mesh
    for a in sphere_spec.grid[:12]:
        base_e = gl_energy(mesh, sphere_spec.member(a), eps)
        for s in (0.0, 0.4, 0.8):
            emb = embedded_member(sphere_spec, a * np.sqrt(1 - s * s), s)
            assert gl_energy(mesh, emb, eps) <= base_e + 1e-9


def test_vector_map_validation():
    with pytest.raises(FamilyError):
        VectorMap(np.array([[np.nan, 0.0, 0.0]]))


def test_specx_import_leaves_scipy_optimize_unloaded():
    # a fresh interpreter: this one may have loaded scipy.optimize already;
    # both balanced-point solvers run there too
    src = os.path.dirname(os.path.dirname(gl.__file__))
    code = ("import sys, specx.cli\n"
            "from specx import glminmax as gl, harmonic as hm, spectra as sx\n"
            "from specx.mesh import build_sphere_mesh, volume_measure\n"
            "mesh = build_sphere_mesh(2)\n"
            "phi = hm.identity_sphere_map(mesh)\n"
            "gl.balanced_point(gl.make_family_spec(mesh, phi))\n"
            "phi1 = sx.measure_eigs(mesh, volume_measure(mesh), k=1)"
            ".vectors[:, 1]\n"
            "gl.balanced_point_second(\n"
            "    gl.make_family_spec(mesh, phi, family='second'), phi1)\n"
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                             [src, os.environ.get("PYTHONPATH", "")])))
    assert out.stdout.strip() == "False"
