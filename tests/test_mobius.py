import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specx import _kernels
from specx import harmonic as hm
from specx import mobius as mb
from specx.mesh import build_torus_mesh


def unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def test_mobius_identity_at_zero():
    rng = np.random.default_rng(0)
    x = unit_rows(rng, 50, 3)
    assert np.allclose(mb.mobius_apply(np.zeros(3), x), x)


def test_mobius_fixed_points():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = rng.standard_normal(4)
        a *= rng.uniform(0.1, 0.95) / np.linalg.norm(a)
        u = (a / np.linalg.norm(a))[None, :]
        assert np.allclose(mb.mobius_apply(a, u), u, atol=1e-12)
        assert np.allclose(mb.mobius_apply(a, -u), -u, atol=1e-12)


def test_mobius_boundary_constant():
    rng = np.random.default_rng(2)
    a = np.array([0.0, 1.0, 0.0])
    x = np.vstack([unit_rows(rng, 20, 3), -a])
    y = mb.mobius_apply(a, x)
    assert np.allclose(y, a)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(3, 5))
def test_unit_norm_invariants(seed, dim):
    rng = np.random.default_rng(seed)
    x = unit_rows(rng, 30, dim)
    a = rng.standard_normal(dim)
    a *= rng.uniform(0.0, 0.97) / np.linalg.norm(a)
    b = rng.standard_normal(dim)
    b *= rng.uniform(0.05, 1.0) / np.linalg.norm(b)
    assert np.abs(np.linalg.norm(mb.mobius_apply(a, x), axis=1) - 1).max() \
        < 1e-12
    assert np.abs(np.linalg.norm(mb.cap_reflection(b, x), axis=1) - 1).max() \
        < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(3, 6),
       st.floats(0.0, 0.97))
def test_mobius_batch_unit_norm(seed, dim, radius):
    rng = np.random.default_rng(seed)
    x = unit_rows(rng, 20, dim)
    a = rng.standard_normal(dim)
    a *= radius / max(np.linalg.norm(a), 1e-12)
    y = _kernels.mobius_batch(x, a)
    assert np.abs(np.linalg.norm(y, axis=1) - 1.0).max() < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(3, 6),
       st.floats(0.05, 1.0))
def test_cap_reflect_involution_and_norm(seed, dim, radius):
    rng = np.random.default_rng(seed)
    x = unit_rows(rng, 20, dim)
    b = rng.standard_normal(dim)
    b *= radius / max(np.linalg.norm(b), 1e-12)
    y = _kernels.cap_reflect_raw(x, b)
    assert np.abs(np.linalg.norm(y, axis=1) - 1.0).max() < 1e-10
    # involution away from the projection pole
    pole = -b / np.linalg.norm(b)
    away = (x @ pole) < 0.9
    z = _kernels.cap_reflect_raw(y, b)
    assert np.abs(z[away] - x[away]).max() < 1e-10


def test_cap_zero_is_identity():
    rng = np.random.default_rng(3)
    x = unit_rows(rng, 40, 3)
    assert np.allclose(mb.cap_reflection(np.zeros(3), x), x)


def test_cap_boundary_fixed():
    rng = np.random.default_rng(4)
    for _ in range(5):
        b = rng.standard_normal(3)
        b *= rng.uniform(0.2, 0.99) / np.linalg.norm(b)
        beta = np.linalg.norm(b)
        n = b / beta
        h = 1.0 - beta
        perp = np.cross(n, [0.3, 1.0, 0.2])
        perp /= np.linalg.norm(perp)
        point = (h * n + np.sqrt(1 - h * h) * perp)[None, :]
        assert np.allclose(mb.cap_reflection(b, point), point, atol=1e-12)


def test_cap_involutive_on_complement():
    rng = np.random.default_rng(5)
    x = unit_rows(rng, 200, 3)
    b = np.array([0.1, -0.5, 0.3])
    beta = np.linalg.norm(b)
    outside = (x @ (b / beta)) > 1.0 - beta
    y = mb.cap_reflection(b, x)
    z = _kernels.cap_reflect_raw(y[outside], b)
    assert np.abs(z - x[outside]).max() < 1e-10


def test_cap_unit_b_is_linear_reflection():
    rng = np.random.default_rng(6)
    x = unit_rows(rng, 100, 3)
    b = np.array([0.0, 0.0, 1.0])
    y = mb.cap_reflection(b, x)
    upper = x[:, 2] > 0
    assert np.allclose(y[upper], mb.linear_reflection(b, x[upper]),
                       atol=1e-12)
    assert np.allclose(y[~upper], x[~upper])


def test_upsilon_degenerations():
    rng = np.random.default_rng(7)
    x = unit_rows(rng, 30, 3)
    a = np.array([0.3, 0.0, 0.1])
    assert np.allclose(mb.upsilon(a, np.zeros(3), x),
                       mb.mobius_apply(a, x))
    assert np.allclose(mb.upsilon(np.zeros(3), np.zeros(3), x), x)


def test_upsilon_boundary_identity():
    rng = np.random.default_rng(8)
    x = unit_rows(rng, 100, 3)
    for _ in range(5):
        b = rng.standard_normal(3)
        b /= np.linalg.norm(b)
        a = rng.standard_normal(3)
        a *= rng.uniform(0.0, 0.9) / np.linalg.norm(a)
        lhs = mb.mobius_apply(mb.linear_reflection(b, a),
                              mb.cap_reflection(-b, x))
        rhs = mb.linear_reflection(b, mb.upsilon(a, b, x))
        assert np.abs(lhs - rhs).max() < 1e-12


def test_conformal_volume_identity(sphere3, identity3):
    out = mb.conformal_volume(sphere3, identity3, n_dirs=16, seed=0)
    assert abs(out["V_c_estimate"] - 4 * np.pi) < 0.01 * 4 * np.pi


def test_conformal_volume_degree2(sphere3):
    deg2 = hm.power_map(sphere3)
    out = mb.conformal_volume(sphere3, deg2, n_dirs=16, seed=0)
    assert abs(out["V_c_estimate"] - 8 * np.pi) < 0.02 * 8 * np.pi


def test_conformal_volume_scale_invariance(sphere3, identity3):
    base = mb.conformal_volume(sphere3, identity3, n_dirs=16, seed=0)
    doubled = mb.conformal_volume(sphere3.scaled(2.0), identity3, n_dirs=16,
                                  seed=0)
    assert doubled["V_c_estimate"] == base["V_c_estimate"]
    tripled = mb.conformal_volume(sphere3.scaled(3.0), identity3, n_dirs=16,
                                  seed=0)
    assert np.isclose(tripled["V_c_estimate"], base["V_c_estimate"],
                      rtol=1e-9)


def test_energy_multiplicity_degree(sphere4):
    # energy of G_a composed with a degree-d map stays 4 pi d
    deg2 = hm.power_map(sphere4)
    for a in ([0.4, 0.1, 0.0], [0.0, -0.6, 0.2]):
        y = mb.mobius_apply(np.asarray(a), deg2.values)
        e = hm.energy(sphere4, y)
        assert abs(e - 8 * np.pi) < 0.02 * 8 * np.pi


def test_composed_hopf_refines():
    # G_a is conformal: the composed Hopf magnitude is pure discretization
    # error and halves per refinement level (first order at the crease-free
    # Clifford base)
    a = np.array([0.3, 0.1, -0.2, 0.05])
    maxes = []
    for res in (16, 32, 64):
        torus = build_torus_mesh(1j, res)
        cl = hm.torus_clifford_map(torus)
        y = hm.SphereMap(hm.normalize_rows(mb.mobius_apply(a, cl.values)))
        maxes.append(np.abs(hm.hopf_differential(torus, y)).max())
    assert maxes[1] < 0.65 * maxes[0]
    assert maxes[2] < 0.65 * maxes[1]


def test_li_yau_chain(sphere3, torus32, identity3):
    from specx.spectra import maximize_lambda1_conformal
    rep = maximize_lambda1_conformal(sphere3, iters=60)
    vc = mb.conformal_volume(sphere3, identity3, n_dirs=16,
                             seed=0)["V_c_estimate"]
    assert rep.lambda_bar <= 2 * vc * 1.02
    rep_t = maximize_lambda1_conformal(torus32, iters=60)
    vc_t = mb.conformal_volume(torus32, hm.torus_clifford_map(torus32),
                               n_dirs=16, seed=0)["V_c_estimate"]
    assert rep_t.lambda_bar <= 2 * vc_t * 1.02


def test_param_validation():
    x = np.array([[0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="Mobius parameter must lie"):
        mb.mobius_apply(np.array([1.2, 0.0, 0.0]), x)
    with pytest.raises(ValueError, match="cap parameter must lie"):
        mb.cap_reflection(np.array([0.0, 1.2, 0.0]), x)
