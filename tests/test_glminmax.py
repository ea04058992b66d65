import csv
import json
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
from specx.cli import main
from specx.glminmax import (FamilyError, FamilySpec, balanced_point,
                            balanced_point_second, eigen_lower_from_family,
                            extract_critical, family_first, family_second,
                            gl_descend, gl_energy, gl_gradient, gl_inner,
                            gl_second_variation, minmax_upper, mollify,
                            sandwich_holds, sweep_table)
from specx.mesh import (area, build_sphere_mesh, build_torus_mesh,
                        curve_measure, puncture, volume_measure)


@pytest.fixture(scope="module")
def unit_sphere3(sphere3):
    return sphere3.scaled(1.0 / np.sqrt(area(sphere3)))


@pytest.fixture(scope="module")
def sphere_spec(unit_sphere3, identity3):
    return FamilySpec(unit_sphere3, identity3)


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
    assert np.abs(g).max() < 1e-10
    inflated = 1.1 * const
    g2 = gl_gradient(sphere3, inflated, 0.1)
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


def test_descend_cases(sphere3, identity3, monkeypatch):
    n = sphere3.num_vertices
    const = np.tile([1.0, 0.0, 0.0], (n, 1))
    monkeypatch.setattr(gl, "DESCENT_TOL", 1e-8)
    out = gl_descend(sphere3, const, 0.1)
    assert out["converged"] and out["E_eps"] < 1e-12
    monkeypatch.setattr(gl, "DESCENT_TOL", 1e-5)
    out2 = gl_descend(sphere3, identity3, 0.05)
    assert abs(out2["E_eps"] - 4 * np.pi) < 0.01 * 4 * np.pi
    rng = np.random.default_rng(4)  # records the symmetry-breaking seed
    near_zero = 1e-3 * rng.standard_normal((n, 3))
    monkeypatch.setattr(gl, "DESCENT_TOL", 1e-6)
    monkeypatch.setattr(gl, "DESCENT_MAX_ITERS", 5000)
    out3 = gl_descend(sphere3, near_zero, 0.2)
    norms = np.linalg.norm(out3["u"], axis=1)
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
        g = gl_gradient(mesh, vals, eps)
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
    return {"u": vals, "gradient_norm": gnorm, "E_eps": e,
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
        g = gl_gradient(mesh, u, eps)
        g2 = gl.gl_norm(mesh, g) ** 2
        # the linear coefficient of the expansion is -|g|^2
        d = 1.0 - np.sum(u * u, axis=1)
        c1 = -np.sum(g * (K @ u)) + np.sum(
            va * d * np.sum(u * g, axis=1)) / eps ** 2
        assert c1 == pytest.approx(-g2, rel=1e-12)
        (c2, c3, c4), kg = gl._line_quartic(
            K, va, g, np.sum(u * g, axis=1), np.sum(g * g, axis=1),
            np.sum(u * u, axis=1), eps)
        assert np.array_equal(kg, K @ g)
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
    spec = FamilySpec(unit_sphere3, identity3)
    start = spec.member(minmax_upper(spec, 0.2).argmax)
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
    # the oracle reports the gradient of the map before its last step
    assert out["gradient_norm"] == pytest.approx(
        gl.gl_norm(unit_sphere3, gl_gradient(unit_sphere3, ref["u"], 0.2)),
        rel=1e-10)


def test_descend_converges_below_energy_rounding(unit_sphere3, recipe_eps02,
                                                 monkeypatch):
    # at eps = 0.1 the gradient falls to ~1e-6, where the Armijo decrease
    # is below the rounding error of E ~ 11; a test that subtracts two
    # energies stalls there at the cap, the quartic one converges
    _, warm = recipe_eps02
    monkeypatch.setattr(gl, "DESCENT_TOL", 1e-6)
    monkeypatch.setattr(gl, "DESCENT_MAX_ITERS", 2000)
    out = gl_descend(unit_sphere3, warm["u"], 0.1)
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
    assert np.array_equal(out["u"], u0)


def _einsum_line_quartic(mesh, u, g, eps):
    """The earlier _line_quartic, kept for _two_product_descend."""
    va = mesh.vertex_areas
    p = np.einsum("ij,ij->i", u, g)
    q = np.einsum("ij,ij->i", g, g)
    d = 1.0 - np.einsum("ij,ij->i", u, u)
    aq = va * q
    inv = 1.0 / eps ** 2
    c2 = 0.5 * float(np.vdot(g, mesh.stiffness @ g)) \
        + inv * float(va @ (p * p) - 0.5 * (aq @ d))
    c3 = -inv * float(aq @ p)
    c4 = 0.25 * inv * float(aq @ q)
    return c2, c3, c4


def _two_product_descend(mesh, u0, eps, tol=1e-6, max_iters=2000,
                         step0=None):
    """The earlier gl_descend, kept as an oracle: two stiffness products a
    step, K u for the gradient and K g for the quartic. At the cap it
    reports the gradient norm of the map before the last step."""
    vals = gl._values(u0).copy()
    va = mesh.vertex_areas
    rate = float((mesh.stiffness.diagonal() / va).max())
    if step0 is None:
        step0 = 0.9 / (rate + 2.0 / eps ** 2)
    converged = False
    it = 0
    backtracks = 0
    gnorm = np.inf
    for it in range(1, max_iters + 1):
        g = gl_gradient(mesh, vals, eps)
        gnorm = gl.gl_norm(mesh, g)
        if gnorm < tol:
            converged = True
            break
        c2, c3, c4 = _einsum_line_quartic(mesh, vals, g, eps)
        half_g2 = 0.5 * gnorm ** 2
        step = step0
        for _ in range(40):
            if step * (c2 + step * (c3 + step * c4)) <= half_g2:
                break
            step *= 0.5
            backtracks += 1
        else:
            break  # line search stalled at numerical floor
        vals = vals - step * g
    return {"u": vals, "gradient_norm": gnorm,
            "E_eps": gl_energy(mesh, vals, eps), "iterations": it,
            "converged": converged, "backtracks": backtracks}


def _recipe_descents(descend, mesh, start):
    """The glminmax recipe's descents: eps = 0.2 from `start`, then 0.1
    and 0.05, each warm-started from the last."""
    outs = []
    for eps in (0.2, 0.1, 0.05):
        outs.append(descend(mesh, start, eps))
        start = outs[-1]["u"]
    return outs


@pytest.mark.parametrize("dim", [3, 4])
def test_descend_lockstep_with_two_product_oracle(unit_sphere3, identity3,
                                                  dim):
    # dim 4 is the base of `glminmax --n 3`
    base = hm.embed_map(identity3, dim)
    spec = FamilySpec(unit_sphere3, base)
    start = spec.member(minmax_upper(spec, 0.2).argmax)
    outs = _recipe_descents(gl_descend, unit_sphere3, start)
    refs = _recipe_descents(_two_product_descend, unit_sphere3, start)
    assert [o["iterations"] for o in outs] == [2000, 492, 97]
    for out, ref in zip(outs, refs):
        for key in ("iterations", "backtracks", "converged"):
            assert out[key] == ref[key]
        assert out["E_eps"] == pytest.approx(ref["E_eps"], rel=1e-10)
        # the carried K u differs from an exact product by rounding, and
        # the descent from the saddle amplifies rounding: a one-ulp change
        # of the start alone moves the oracle's maps by up to 1e-10
        u, v = out["u"], ref["u"]
        assert np.linalg.norm(u - v) <= 1e-8 * np.linalg.norm(v)


def test_descend_reports_gradient_of_returned_map(unit_sphere3,
                                                  recipe_eps02):
    _, capped = recipe_eps02
    converged = gl_descend(unit_sphere3, capped["u"], 0.1)
    assert not capped["converged"] and converged["converged"]
    for out, eps in ((capped, 0.2), (converged, 0.1)):
        g = gl_gradient(unit_sphere3, out["u"], eps)
        assert out["gradient_norm"] == pytest.approx(
            gl.gl_norm(unit_sphere3, g), rel=1e-12)


def test_descend_converged_at_the_cap(unit_sphere3, recipe_eps02,
                                      monkeypatch):
    # capped one step before it would stop, the descent returns the same
    # map, whose gradient is below tol: converged, although the cap ended it
    _, warm = recipe_eps02
    full = gl_descend(unit_sphere3, warm["u"], 0.1)
    monkeypatch.setattr(gl, "DESCENT_MAX_ITERS", full["iterations"] - 1)
    capped = gl_descend(unit_sphere3, warm["u"], 0.1)
    assert np.array_equal(capped["u"], full["u"])
    assert capped["gradient_norm"] < 1e-6
    assert capped["converged"] and full["converged"]


def test_descend_rejects_non_finite_start(sphere3, identity3):
    u0 = identity3.values.copy()
    u0[5, 1] = np.nan
    with pytest.raises(FamilyError, match="non-finite"):
        gl_descend(sphere3, u0, 0.1)


def _mollify_at(mesh, f, t):
    return mollify(mesh, f, sx._heat_factor(mesh, t))


def test_mollify_properties(sphere3, identity3):
    vals = identity3.values
    out = _mollify_at(sphere3, vals, 1e-8)
    assert np.abs(out - vals).max() < 1e-6
    const = np.tile([0.2, -0.4, 1.0], (sphere3.num_vertices, 1))
    fixed = _mollify_at(sphere3, const, 5.0)
    assert np.abs(fixed - const).max() < 1e-12
    rng = np.random.default_rng(5)
    rough = rng.standard_normal(vals.shape)
    K = sphere3.stiffness
    smoothed = _mollify_at(sphere3, rough, 1e-2)
    assert np.sum(smoothed * (K @ smoothed)) < np.sum(rough * (K @ rough))


def test_family_first_members(sphere_spec, unit_sphere3, identity3):
    a0 = family_first(sphere_spec, np.zeros(3))
    near_base = _mollify_at(unit_sphere3, identity3, 1e-9)
    assert np.abs(near_base - identity3.values).max() < 1e-6
    boundary = family_first(sphere_spec, np.array([0.0, 1.0, 0.0]))
    assert np.allclose(boundary, [0.0, 1.0, 0.0])
    assert gl_energy(unit_sphere3, boundary, 0.1) < 1e-12
    a9 = family_first(sphere_spec, np.array([0.9, 0.0, 0.0]))
    assert gl_energy(unit_sphere3, a9, 0.1) <= 4 * np.pi * 1.03
    assert np.linalg.norm(a9, axis=1).max() <= 1.0 + 1e-9


def test_family_second_members(unit_sphere3, identity3):
    spec2 = FamilySpec(unit_sphere3, identity3, family="second")
    spec1 = FamilySpec(unit_sphere3, identity3)
    rng = np.random.default_rng(6)
    a = np.array([0.3, 0.1, 0.0])
    assert np.allclose(family_second(spec2, a, np.zeros(3)),
                       family_first(spec1, a))
    boundary = family_second(spec2, np.array([0.0, 1.0, 0.0]),
                             rng.uniform(-0.5, 0.5, 3))
    assert np.allclose(boundary, [0.0, 1.0, 0.0])
    for _ in range(3):
        b = rng.standard_normal(3)
        b /= np.linalg.norm(b)
        a = rng.standard_normal(3)
        a *= rng.uniform(0, 0.9) / np.linalg.norm(a)
        lhs = family_second(spec2, a, b)
        rhs = mb.linear_reflection(
            b, family_second(spec2, mb.linear_reflection(b, a), -b))
        assert np.abs(lhs - rhs).max() < 1e-12


def test_minmax_upper_sphere(sphere_spec):
    rep = minmax_upper(sphere_spec, 0.1)
    assert abs(rep.sup_energy - 4 * np.pi) < 0.03 * 4 * np.pi
    assert rep.grid_size == len(sphere_spec.grid)
    assert len(rep.refinement) == gl.REFINE_ROUNDS + 1
    # refinement history is monotone
    assert all(b >= a for a, b in zip(rep.refinement, rep.refinement[1:]))


def test_eps_schedule_lockstep_with_fresh_families():
    # one family swept at three eps values reuses its members; every
    # report must be the one a fresh family gives at that eps alone
    mesh = build_sphere_mesh(2)
    mesh = mesh.scaled(1.0 / np.sqrt(area(mesh)))
    phi = hm.identity_sphere_map(mesh)
    shared = FamilySpec(mesh, phi)
    for eps in (0.2, 0.1, 0.05):
        rep = minmax_upper(shared, eps)
        ref = minmax_upper(FamilySpec(mesh, phi), eps)
        assert rep.eps == ref.eps == eps
        assert rep.sup_energy == ref.sup_energy
        assert rep.argmax.tobytes() == ref.argmax.tobytes()
        assert rep.refinement == ref.refinement
        assert rep.sweep_rows == ref.sweep_rows
        for row in rep.sweep_rows:
            vals = shared.member(np.array(row[:3]))
            assert row[3] == gl_energy(mesh, vals, eps)
            assert row[3:] == gl._parts_at(*gl._eps_free_parts(mesh, vals),
                                           eps)
    with pytest.raises(FamilyError):
        minmax_upper(shared, 0.0)


def test_sweep_csv(sphere_spec):
    rep = minmax_upper(sphere_spec, 0.1)
    rows = sweep_table(rep)
    assert rows[0] == ["p0", "p1", "p2", "E_eps", "dirichlet", "potential",
                       "avg_norm"]
    assert rows[1:] == [list(row) for row in rep.sweep_rows]
    assert all(type(x) is float for row in rows[1:] for x in row)


def test_report_json(sphere_spec):
    rep = extract_critical(sphere_spec, minmax_upper(sphere_spec, 0.1))
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
    spec = FamilySpec(unit_sphere3, shifted)
    a_star, res = balanced_point(spec)
    assert res < 1e-6 * area(unit_sphere3)
    # the balancing parameter undoes the shift along the same axis
    assert abs(a_star[0] + 0.5) < 0.05
    assert np.abs(a_star[1:]).max() < 1e-3


def test_balanced_point_wrong_family(unit_sphere3, identity3):
    spec2 = FamilySpec(unit_sphere3, identity3, family="second")
    with pytest.raises(FamilyError):
        balanced_point(spec2)


def test_balanced_point_second_sphere(unit_sphere3, identity3):
    w = volume_measure(unit_sphere3)
    mu = w / w.sum()
    phi1 = sx.solve_pencil(unit_sphere3, mu, 1).vectors[:, 1]
    spec2 = FamilySpec(unit_sphere3, identity3, family="second")
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
    (a2, b2), _ = balanced_point_second(spec2, phi1, mu=3.0 * mu)
    assert np.abs(a_star - a2).max() < 1e-6
    assert np.abs(b_star - b2).max() < 1e-6


def test_balanced_point_second_dim_error(unit_sphere3, identity3):
    spec2 = FamilySpec(unit_sphere3, identity3, family="second")
    with pytest.raises(FamilyError):
        balanced_point_second(spec2, np.ones(7))


def test_balanced_point_point_mass_has_no_root(sphere_spec, unit_sphere3,
                                              identity3):
    # mu = delta at one vertex: |F(v)| stays near 1 there for every
    # parameter, so no balanced point exists and neither solver may
    # return a non-root
    mu = np.zeros(unit_sphere3.num_vertices)
    mu[0] = 1.0
    with pytest.raises(FamilyError, match="^balanced point not found"):
        balanced_point(sphere_spec, mu=mu)
    spec2 = FamilySpec(unit_sphere3, identity3, family="second")
    phi1 = unit_sphere3.vertices[:, 2]
    with pytest.raises(FamilyError, match="^second balanced point not found"):
        balanced_point_second(spec2, phi1, mu=mu)


def test_eigen_lower_sphere_equality(sphere_spec, unit_sphere3):
    w = volume_measure(unit_sphere3)
    mu = w / w.sum()
    ratio = eigen_lower_from_family(sphere_spec, mu=mu)
    target = 8 * np.pi
    assert abs(ratio - target) < 0.02 * target


def test_eigen_lower_torus_inequality():
    torus = build_torus_mesh(1j, 24)
    base = hm.torus_clifford_map(torus)
    spec = FamilySpec(torus, base)
    w = volume_measure(torus)
    mu = w / w.sum()
    ratio = eigen_lower_from_family(spec, mu=mu)
    lam1 = sx.solve_pencil(torus, mu, 1).values[1]
    assert lam1 <= ratio * (1 + 1e-9)
    rep = minmax_upper(spec, 0.1)
    assert ratio <= 2 * rep.sup_energy / (
        1 - 2 * 0.1 * np.sqrt(rep.sup_energy)) + 1e-9


def test_eigen_lower_steklov_measure(unit_sphere3, identity3):
    sub = puncture(unit_sphere3, [0], 0.07)
    w = np.zeros(unit_sphere3.num_vertices)
    w[sub.orig_vertex_ids] = curve_measure(sub)
    mu = w / w.sum()
    spec = FamilySpec(unit_sphere3, identity3)
    ratio = eigen_lower_from_family(spec, mu=mu)
    st = sx.steklov_eigs(sub, k=1)
    # sigma_bar = sigma_1 * Length equals the eigenvalue of the unit-mass
    # boundary measure scaled consistently, so it is dominated by the
    # balanced Rayleigh quotient
    sigma_bar = st.values[1] * st.mass
    rep = minmax_upper(spec, 0.1)
    bound = 2 * rep.sup_energy / (1 - 2 * 0.1 * np.sqrt(rep.sup_energy))
    assert sigma_bar <= ratio * (1 + 1e-9)
    assert sigma_bar <= bound + 1e-9


def test_eigen_lower_needs_unit_mass(sphere_spec):
    w = volume_measure(sphere_spec.mesh)
    with pytest.raises(FamilyError):
        eigen_lower_from_family(sphere_spec, mu=2 * w)


def test_extract_critical_sphere(sphere3, identity3):
    # on the area-4pi sphere eps=0.1 is deep in the rigid regime, so the
    # descended critical point stays near the identity level
    spec = FamilySpec(sphere3, identity3)
    rep = extract_critical(spec, minmax_upper(spec, 0.1))
    crit = rep.critical
    assert crit["E_eps"] <= rep.sup_energy + 1e-12
    assert abs(crit["E_eps"] - 4 * np.pi) < 0.03 * 4 * np.pi
    assert crit["tension_residual"] < 1e-2


def test_extract_critical_eps_monotone(unit_sphere3, identity3):
    es = []
    spec = FamilySpec(unit_sphere3, identity3)
    for eps in (0.2, 0.1, 0.05):
        rep = extract_critical(spec, minmax_upper(spec, eps))
        es.append(rep.critical["E_eps"])
    for a, b in zip(es, es[1:]):
        assert b >= a - 0.01 * abs(a)


def test_sandwich_consistency(unit_sphere3, identity3):
    lam1 = sx.laplace_eigs(unit_sphere3, k=1).values[1]
    spec = FamilySpec(unit_sphere3, identity3)
    for eps in (0.2, 0.1, 0.05):
        ok, lhs, rhs = sandwich_holds(minmax_upper(spec, eps), lam1)
        assert ok


def test_specx_import_leaves_scipy_optimize_unloaded():
    # a fresh interpreter: this one may have loaded scipy.optimize already;
    # both balanced-point solvers run there too
    src = os.path.dirname(os.path.dirname(gl.__file__))
    code = ("import sys, specx.cli\n"
            "from specx import glminmax as gl, harmonic as hm, spectra as sx\n"
            "from specx.mesh import build_sphere_mesh, volume_measure\n"
            "mesh = build_sphere_mesh(2)\n"
            "phi = hm.identity_sphere_map(mesh)\n"
            "gl.balanced_point(gl.FamilySpec(mesh, phi))\n"
            "phi1 = sx.solve_pencil(mesh, volume_measure(mesh), 1)"
            ".vectors[:, 1]\n"
            "gl.balanced_point_second(\n"
            "    gl.FamilySpec(mesh, phi, family='second'), phi1)\n"
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                             [src, os.environ.get("PYTHONPATH", "")])))
    assert out.stdout.strip() == "False"


def _bad_measures(mesh):
    w = volume_measure(mesh)
    mu = w / w.sum()
    nan, inf, negative = mu.copy(), mu.copy(), mu.copy()
    nan[3] = np.nan
    inf[3] = np.inf
    negative[3] = -0.5
    return {"nan": nan, "inf": inf, "short": mu[:5], "negative": negative}


@pytest.mark.parametrize("kind", ["nan", "inf", "short", "negative"])
def test_balanced_points_reject_bad_measures(kind):
    # a nan weight made LAPACK fail to converge, a short one raised a raw
    # numpy error, and a negative one gave a "balanced point" back
    mesh = build_sphere_mesh(1)
    phi = hm.identity_sphere_map(mesh)
    mu = _bad_measures(mesh)[kind]
    spec = FamilySpec(mesh, phi)
    spec2 = FamilySpec(mesh, phi, family="second")
    message = "^mu must"
    with pytest.raises(FamilyError, match=message):
        balanced_point(spec, mu=mu)
    with pytest.raises(FamilyError, match=message):
        balanced_point_second(spec2, mesh.vertices[:, 2], mu=mu)
    with pytest.raises(FamilyError, match=message):
        eigen_lower_from_family(spec, mu=mu)


@pytest.mark.parametrize("eps", [np.inf, np.nan, 0.0, -0.1])
def test_eps_must_be_finite_and_positive(sphere_spec, identity3, eps):
    mesh = sphere_spec.mesh
    message = "^eps must be positive and finite"
    with pytest.raises(FamilyError, match=message):
        gl_energy(mesh, identity3, eps)
    with pytest.raises(FamilyError, match=message):
        gl_descend(mesh, identity3, eps)
    with pytest.raises(FamilyError, match=message):
        minmax_upper(sphere_spec, eps)


def test_glminmax_recipe_returns_what_main_writes(tmp_path):
    mesh = build_sphere_mesh(2)
    payload, ledger, tables, flags = gl.glminmax_recipe(
        mesh, hm.identity_sphere_map(mesh), [0.1], 0, 14)
    assert main(["glminmax", "--surface", "sphere", "--subdiv", "2", "--eps",
                 "0.1", "--n", "2", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "glminmax.json") as fh:
        assert json.load(fh)["payload"] == json.loads(json.dumps(payload))
    assert ledger == [("sup_energy_eps0.1", payload[0]["sup_energy"])]
    with open(tmp_path / "glminmax_sweep_eps0.1.csv") as fh:
        assert [[float(x) for x in row] for row in
                list(csv.reader(fh))[1:]] == tables[
                    "glminmax_sweep_eps0.1.csv"][1:]
    assert payload[0]["sandwich"]["holds"] and flags == []
