import numpy as np
import pytest

from specx import harmonic as hm
from specx import index as ix
from specx import mobius as mb
from specx.harmonic import (MapError, SphereMap, energy, energy_density,
                            energy_shares, harmonic_flow, hopf_differential,
                            identity_sphere_map, normalize_rows, power_map,
                            tension_residual, torus_clifford_map,
                            torus_collapse_map)
from specx.mesh import (MeshError, TriMesh, area, build_sphere_mesh,
                        build_torus_mesh, puncture, validate_density)


def random_sphere_map(mesh, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return SphereMap(normalize_rows(rng.standard_normal(
        (mesh.num_vertices, dim))))


def test_sphere_map_validation(sphere3):
    with pytest.raises(MapError):
        SphereMap(2.0 * sphere3.vertices)
    with pytest.raises(MapError):
        SphereMap(sphere3.vertices[:, :2])  # ambient dim below 3


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_rows_are_refused(sphere3, identity3, bad):
    # NaN fails every comparison, so a NaN row passed the unit-norm and
    # zero-norm checks, and the flow returned a non-finite map
    vals = identity3.values.copy()
    vals[7, 1] = bad
    with pytest.raises(MapError, match="unit vectors"):
        SphereMap(vals)
    with pytest.raises(MapError, match="row 7 to the sphere: it is zero "
                       "or not finite"):
        normalize_rows(vals)
    with pytest.raises(MapError, match="zero or not finite"):
        harmonic_flow(sphere3, vals, steps=3)


def test_energy_constant_and_identity(sphere4):
    const = SphereMap(np.tile([0.0, 0.0, 1.0], (sphere4.num_vertices, 1)))
    assert energy(sphere4, const) < 1e-20
    phi = identity_sphere_map(sphere4)
    assert abs(energy(sphere4, phi) - 4 * np.pi) < 0.01 * 4 * np.pi


def test_energy_mobius_invariance_fine():
    mesh = build_sphere_mesh(6)
    phi = identity_sphere_map(mesh)
    for a in ([0.5, 0, 0], [0, -0.75, 0.3], [0.6, 0.6, 0.25],
              [0.0, 0.0, 0.9]):
        a = np.asarray(a)
        assert np.linalg.norm(a) <= 0.9 + 1e-12
        composed = mb.mobius_apply(a, phi.values)
        e = energy(mesh, composed)
        assert abs(e - 4 * np.pi) < 0.01 * 4 * np.pi


def test_energy_rotation_invariance_exact(sphere3, identity3):
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rotated = SphereMap(normalize_rows(identity3.values @ q.T))
    assert energy(sphere3, rotated) == pytest.approx(
        energy(sphere3, identity3), rel=1e-12)


def test_energy_density_identity(sphere4):
    phi = identity_sphere_map(sphere4)
    f = energy_density(sphere4, phi)
    # an isometry has density 0.5*|dPhi|^2 = 1; the lumping is off only at
    # the 12 valence-five vertices, which carry negligible mass
    dev = np.abs(f - 1.0)
    assert np.quantile(dev, 0.99) < 0.02
    va = sphere4.vertex_areas
    assert np.sqrt(np.sum(va * dev ** 2) / va.sum()) < 0.02
    assert np.isclose(area(sphere4, f), energy(sphere4, phi))
    assert np.isclose(np.maximum(energy_shares(sphere4, phi), 0).sum(),
                      energy(sphere4, phi))


def test_energy_density_constant_flags(sphere3):
    const = SphereMap(np.tile([1.0, 0.0, 0.0], (sphere3.num_vertices, 1)))
    f = energy_density(sphere3, const)
    assert f.max() == 0.0
    with pytest.raises(MeshError):
        validate_density(sphere3, f)  # zero total mass is not a usable metric


def test_density_vanishes_at_branch_points(sphere4):
    deg2 = power_map(sphere4)
    f = energy_density(sphere4, deg2)
    poles = np.where(np.abs(np.abs(sphere4.vertices[:, 2]) - 1.0) < 1e-9)[0]
    assert len(poles) == 2
    assert f[poles].max() < 0.05 * f.mean()


def test_tension_residual_cases(sphere4):
    phi = identity_sphere_map(sphere4)
    const = SphereMap(np.tile([0.0, 0.0, 1.0], (sphere4.num_vertices, 1)))
    pv, agg = tension_residual(sphere4, const)
    assert np.allclose(pv, 0.0, atol=1e-12)
    _, agg_id = tension_residual(sphere4, phi)
    assert agg_id < 1e-2
    _, agg_rnd = tension_residual(sphere4, random_sphere_map(sphere4))
    assert agg_rnd > 1e-1


def test_tension_residual_refines():
    aggs = [tension_residual(m, identity_sphere_map(m))[1]
            for m in (build_sphere_mesh(2), build_sphere_mesh(3),
                      build_sphere_mesh(4))]
    assert aggs[1] < aggs[0] and aggs[2] < aggs[1]


def test_flow_fixed_point(sphere3, flowed_identity3):
    e0 = energy(sphere3, flowed_identity3)
    again = harmonic_flow(sphere3, flowed_identity3, steps=100)
    assert abs(energy(sphere3, again) - e0) < 1e-8


def test_flow_recovers_identity(sphere3, identity3):
    rng = np.random.default_rng(3)
    pert = SphereMap(normalize_rows(
        identity3.values + 0.1 * rng.standard_normal(identity3.values.shape)))
    out = harmonic_flow(sphere3, pert, steps=500)
    assert tension_residual(sphere3, out)[1] < 1e-2
    assert abs(energy(sphere3, out) - 4 * np.pi) < 0.02 * 4 * np.pi


def test_flow_trivial_class_collapses():
    torus = build_torus_mesh(1j, 16)
    rnd = random_sphere_map(torus, seed=11)
    cur = rnd
    for _ in range(6):
        cur = harmonic_flow(torus, cur, steps=400)
    assert energy(torus, cur) < 1e-6


def test_flow_monotone_and_unit(sphere3, identity3):
    rng = np.random.default_rng(5)
    cur = SphereMap(normalize_rows(
        identity3.values + 0.2 * rng.standard_normal(identity3.values.shape)))
    e_prev = energy(sphere3, cur)
    for _ in range(50):
        cur = harmonic_flow(sphere3, cur, steps=1)
        e = energy(sphere3, cur)
        assert e <= e_prev + 1e-10
        e_prev = e
        assert np.abs(np.linalg.norm(cur.values, axis=1) - 1.0).max() < 1e-12


def _np_sum_flow(mesh, phi0, steps):
    """The earlier harmonic_flow loop, kept as an oracle: np.sum for the
    coupling and np.linalg.norm for the projection, a fresh array for
    each term."""
    vals = hm._values(phi0).copy()
    K = mesh.stiffness
    va = mesh.vertex_areas
    dt = 0.5 * (1.0 / (K.diagonal() / va).max())
    for _ in range(steps):
        kphi = K @ vals
        coupling = np.sum(kphi * vals, axis=1)
        r = (kphi - coupling[:, None] * vals) / va[:, None]
        vals = vals - dt * r
        vals = vals / np.linalg.norm(vals, axis=1, keepdims=True)
    return vals


@pytest.mark.parametrize("case", ["identity-3", "identity-4", "power",
                                  "random-5", "collapse-3", "collapse-4"])
def test_flow_matches_np_sum_loop_bit_for_bit(sphere3, identity3, case):
    # the flow from the non-harmonic collapse map and from a random map
    # amplifies any change of rounding, so equality pins the summation
    # order of every step
    torus = build_torus_mesh(1j, 16)
    mesh, phi = {
        "identity-3": (sphere3, identity3),
        "identity-4": (sphere3, hm.embed_map(identity3, 4)),
        "power": (sphere3, power_map(sphere3)),
        "random-5": (sphere3, random_sphere_map(sphere3, dim=5, seed=2)),
        "collapse-3": (torus, torus_collapse_map(torus)),
        "collapse-4": (torus, hm.embed_map(torus_collapse_map(torus), 4)),
    }[case]
    assert np.array_equal(harmonic_flow(mesh, phi, steps=400).values,
                          _np_sum_flow(mesh, phi, 400))


def test_eigenvalue_two_identity(sphere4):
    # criterion 7 through index.spectral_index: eigenvalue 1 of the
    # |dPhi|^2 pencil is eigenvalue 2 of the induced metric 0.5*|dPhi|^2 g,
    # whose gaps are twice the margins below and above the cluster
    phi = identity_sphere_map(sphere4)
    ind_s, nul_s, margins = ix.spectral_index(sphere4, phi)
    assert (ind_s, nul_s) == (1, 3) and len(margins) == 3
    assert 2.0 * min(margins[1:]) > 1.0


def test_eigenvalue_two_identity_family():
    # multiplicity >= number of non-constant coordinates across refinements
    for s in (2, 3, 4):
        mesh = build_sphere_mesh(s)
        assert ix.spectral_index(mesh, identity_sphere_map(mesh))[1] >= 3


def test_eigenvalue_two_errors(sphere3):
    const = SphereMap(np.tile([1.0, 0.0, 0.0], (sphere3.num_vertices, 1)))
    with pytest.raises(MeshError, match="zero-energy map"):
        ix.spectral_index(sphere3, const)


def test_eigenvalue_two_equatorial(sphere4):
    phi5 = hm.embed_map(identity_sphere_map(sphere4), 5)
    # constant extra coordinates drop out
    assert ix.spectral_index(sphere4, phi5)[1] == 3


def test_hopf_identity_and_constant(sphere3, identity3):
    h = hopf_differential(sphere3, identity3)
    assert np.abs(h).max() < 1e-12
    const = SphereMap(np.tile([0.0, 0.0, 1.0], (sphere3.num_vertices, 1)))
    assert np.abs(hopf_differential(sphere3, const)).max() == 0.0


def test_hopf_anisotropic_map_constant_magnitude():
    torus = build_torus_mesh(1j, 16)
    # geodesic traversed at speed 2pi in x only: |H| = (2pi)^2 on every face
    x = torus.vertices[:, 0]
    ang = 2 * np.pi * x
    vals = np.stack([np.cos(ang), np.sin(ang), np.zeros_like(ang)], axis=1)
    h = hopf_differential(torus, SphereMap(vals))
    mags = np.abs(h)
    # piecewise-linear interpolation of the circle leaves a uniform bias;
    # the magnitude must be constant across faces
    assert mags.std() < 1e-10 * mags.mean()
    assert abs(mags.mean() - (2 * np.pi) ** 2) < 0.05 * (2 * np.pi) ** 2


def test_power_map_energy(sphere4):
    deg2 = power_map(sphere4)
    assert abs(energy(sphere4, deg2) - 8 * np.pi) < 0.01 * 8 * np.pi
    assert tension_residual(sphere4, deg2)[1] < 1e-2


def test_torus_maps():
    torus = build_torus_mesh(1j, 32)
    cl = torus_clifford_map(torus)
    assert abs(energy(torus, cl) - 2 * np.pi ** 2) < 0.01 * 2 * np.pi ** 2
    assert tension_residual(torus, cl)[1] < 1e-10
    assert np.abs(hopf_differential(torus, cl)).max() < 1e-10
    col = torus_collapse_map(torus)
    assert energy(torus, col) > 4 * np.pi  # covers the sphere once


def test_torus_maps_on_a_scaled_torus():
    # both maps read the lattice coordinates off the vertex positions, so
    # on a rescaled torus they did not close up across the seam (energy
    # 55.0 and 39.5 against 24.5 and 19.5)
    torus = build_torus_mesh(2j, 24)
    scaled = torus.scaled(1.0 / np.sqrt(2.0))
    for f in (torus_clifford_map, torus_collapse_map):
        assert np.array_equal(f(scaled).values, f(torus).values)


def test_torus_maps_on_a_punctured_torus():
    torus = build_torus_mesh(2j, 24)
    holed = puncture(torus, [0], 0.2)
    for f in (torus_clifford_map, torus_collapse_map):
        assert np.array_equal(f(holed).values,
                              f(torus).values[holed.orig_vertex_ids])


def test_base_map_follows_the_mesh(sphere3):
    torus = build_torus_mesh(1j, 12)
    assert np.array_equal(hm.base_map(torus, 2).values,
                          torus_collapse_map(torus).values)
    assert np.array_equal(hm.base_map(sphere3, 3).values,
                          hm.embed_map(identity_sphere_map(sphere3), 4).values)


def test_radial_maps_need_a_sphere_centred_at_the_origin(sphere3):
    # radial projection is conformal only there; the identity map ran on
    # any mesh
    shifted = TriMesh(sphere3.vertices + [0.1, 0.0, 0.0], sphere3.triangles)
    for f in (identity_sphere_map, power_map):
        with pytest.raises(MapError, match="centred at the origin; their "
                           "radii spread by 0.182 relative"):
            f(shifted)
    small = sphere3.scaled(0.25)
    assert np.allclose(identity_sphere_map(small).values,
                       identity_sphere_map(sphere3).values, atol=1e-15)
    assert np.allclose(power_map(small).values, power_map(sphere3).values,
                       atol=1e-12)
