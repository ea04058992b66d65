"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with -s to see them inline). Tolerances are pinned here and match
the module contracts; shared expensive artifacts are module-scoped
fixtures.
"""

import contextlib
import json
import math
import time

import numpy as np
import pytest

from specx import glminmax as gl
from specx import harmonic as hm
from specx import index as ix
from specx import mobius as mb
from specx import spectra as sx
from specx.cli import main
from specx.mesh import (area, build_sphere_mesh, build_torus_mesh,
                        hole_centers, puncture)
from specx.spectra import TREND_SLACK, steklov_hole_sweep


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>4} FAIL: {description}", flush=True)
        raise
    print(f"ACCEPTANCE {number:>4} PASS: {description}", flush=True)


@pytest.fixture(scope="module")
def torus64():
    return build_torus_mesh(1j, 64)


@pytest.fixture(scope="module")
def sphere_max_report(sphere3):
    return sx.maximize_lambda1_conformal(sphere3, iters=100)


@pytest.fixture(scope="module")
def torus_max_report(torus32):
    return sx.maximize_lambda1_conformal(torus32, iters=100)


@pytest.fixture(scope="module")
def unit_sphere3(sphere3):
    return sphere3.scaled(1.0 / np.sqrt(area(sphere3)))


@pytest.fixture(scope="module")
def sphere_minmax(unit_sphere3, identity3):
    spec = gl.FamilySpec(unit_sphere3, identity3)
    return spec, gl.minmax_upper(spec, 0.1)


def test_criterion_1_analytic_spectra(sphere4, torus64, disk):
    with criterion(1, "analytic spectra: sphere, square torus, unit disk"):
        t0 = time.perf_counter()
        spec = sx.laplace_eigs(sphere4, k=6)
        assert abs(spec.values[1] - 2.0) <= 0.01 * 2.0
        assert sx.multiplicity(spec, spec.values[1]) == 3
        assert time.perf_counter() - t0 < 30.0

        t0 = time.perf_counter()
        spec_t = sx.laplace_eigs(torus64, k=6)
        lam_bar = spec_t.normalized()[1]  # unit area
        assert abs(lam_bar - 4 * np.pi ** 2) <= 0.01 * 4 * np.pi ** 2
        assert sx.multiplicity(spec_t, spec_t.values[1]) == 4
        assert time.perf_counter() - t0 < 30.0

        t0 = time.perf_counter()
        spec_d = sx.steklov_eigs(disk, k=3)
        sigma_bar = spec_d.normalized()[1]
        assert abs(sigma_bar - 2 * np.pi) <= 0.02 * 2 * np.pi
        assert time.perf_counter() - t0 < 30.0


def test_criterion_2_conformal_maximization(sphere_max_report,
                                            torus_max_report):
    with criterion(2, "conformal maximization reaches 8pi and 4pi^2"):
        rep = sphere_max_report
        assert abs(rep.lambda_bar - 8 * np.pi) <= 0.02 * 8 * np.pi
        assert rep.stationarity_gap < 1e-3  # sum(phi_i^2) ~ constant
        rep_t = torus_max_report
        assert abs(rep_t.lambda_bar - 4 * np.pi ** 2) \
            <= 0.02 * 4 * np.pi ** 2
        f = rep_t.density
        assert f.std() <= 0.05 * f.mean()  # density converges to constant


def test_criterion_3_gl_derivative_checks():
    with criterion(3, "relaxed-energy gradient/Hessian match finite "
                      "differences (100 instances)"):
        t0 = time.perf_counter()
        mesh = build_sphere_mesh(1)
        rng = np.random.default_rng(2024)
        h1, h2 = 1e-5, 1e-4
        for _ in range(100):
            eps = rng.uniform(0.05, 0.5)
            u = rng.standard_normal((mesh.num_vertices, 3))
            v = rng.standard_normal((mesh.num_vertices, 3))
            de = (gl.gl_energy(mesh, u + h1 * v, eps)
                  - gl.gl_energy(mesh, u - h1 * v, eps)) / (2 * h1)
            pair = gl.gl_inner(mesh, gl.gl_gradient(mesh, u, eps), v)
            assert abs(de - pair) <= 1e-6 * max(1.0, abs(de))
            d2 = (gl.gl_energy(mesh, u + h2 * v, eps)
                  - 2 * gl.gl_energy(mesh, u, eps)
                  + gl.gl_energy(mesh, u - h2 * v, eps)) / h2 ** 2
            q = gl.gl_second_variation(mesh, u, eps, v)
            assert abs(d2 - q) <= 1e-4 * max(1.0, abs(q))
        assert time.perf_counter() - t0 < 10.0


def test_criterion_4_minmax_upper_chain(sphere_minmax, sphere_max_report):
    with criterion(4, "sphere min-max upper bound matches the conformal "
                      "volume and half the maximal eigenvalue"):
        _, rep = sphere_minmax
        assert abs(rep.sup_energy - 4 * np.pi) <= 0.03 * 4 * np.pi
        lam_bar = sphere_max_report.lambda_bar
        assert abs(lam_bar - 2 * rep.sup_energy) <= 0.02 * 8 * np.pi


def test_criterion_5_eigenvalue_sandwich(unit_sphere3, identity3):
    with criterion(5, "relaxation sandwich holds on sphere and torus for "
                      "eps in {0.2, 0.1, 0.05}"):
        torus = build_torus_mesh(1j, 24)
        cases = [
            (unit_sphere3, identity3),
            (torus, hm.torus_clifford_map(torus)),
        ]
        for mesh, base in cases:
            lam1 = sx.laplace_eigs(mesh, k=1).values[1]
            spec = gl.FamilySpec(mesh, base)
            for eps in (0.2, 0.1, 0.05):
                ok, lhs, rhs = gl.sandwich_holds(gl.minmax_upper(spec, eps),
                                                 lam1)
                print(f"    sandwich eps={eps}: 2*sup={lhs:.3f} "
                      f"vs (1-2 eps sup^0.5)*lam1={rhs:.3f} "
                      f"slack={lhs - rhs:.3f}", flush=True)
                assert ok


def test_criterion_6_second_family(unit_sphere3, identity3, sphere_minmax):
    with criterion(6, "two-parameter family: exact boundary symmetries, "
                      "sup <= twice the conformal volume"):
        spec2 = gl.FamilySpec(unit_sphere3, identity3, family="second")
        rng = np.random.default_rng(99)
        bdry = gl.family_second(spec2, np.array([0.0, 0.0, 1.0]),
                                rng.uniform(-0.5, 0.5, 3))
        assert np.abs(bdry - [0.0, 0.0, 1.0]).max() <= 1e-12
        for _ in range(4):
            b = rng.standard_normal(3)
            b /= np.linalg.norm(b)
            a = rng.standard_normal(3)
            a *= rng.uniform(0, 0.9) / np.linalg.norm(a)
            lhs = gl.family_second(spec2, a, b)
            rhs = mb.linear_reflection(
                b, gl.family_second(spec2, mb.linear_reflection(b, a), -b))
            assert np.abs(lhs - rhs).max() <= 1e-12
        rep2 = gl.minmax_upper(spec2, 0.1)
        assert rep2.sup_energy <= 8 * np.pi * 1.03
        # with criterion 4 this instantiates the second-eigenvalue bound by
        # four conformal volumes on the sphere
        vc = mb.conformal_volume(unit_sphere3, identity3, n_dirs=16,
                                 seed=0)["V_c_estimate"]
        assert 2 * rep2.sup_energy <= 4 * vc * 1.03


def test_criterion_7_harmonic_eigenstructure(sphere3, flowed_identity3):
    with criterion(7, "harmonic maps carry eigenvalue two with the right "
                      "multiplicity and normalized eigenvalue"):
        deg2 = hm.harmonic_flow(sphere3, hm.power_map(sphere3),
                                steps=800)
        for phi in (flowed_identity3, deg2):
            # eigenvalue 1 of the |dPhi|^2 pencil is eigenvalue 2 of the
            # induced metric
            ind_s, nul_s, _ = ix.spectral_index(sphere3, phi)
            assert nul_s >= 3
            b = 2.0 * hm.energy_shares(sphere3, phi)
            spec = sx.solve_pencil(sphere3, b, ind_s + 1)
            lam_bar = spec.values[ind_s] * spec.mass
            two_e = 2.0 * hm.energy(sphere3, phi)
            assert abs(lam_bar - two_e) <= 0.02 * two_e


def test_criterion_8_index_suite(sphere3, flowed_identity3):
    with criterion(8, "index suite: spectral/energy indices and the "
                      "composition law"):
        t0 = time.perf_counter()
        ind_s, nul_s, _ = ix.spectral_index(sphere3, flowed_identity3)
        assert (ind_s, nul_s) == (1, 3)
        assert ix.energy_index(sphere3, flowed_identity3)[0] == 0
        for m in (3, 4, 5):
            out = ix.check_composition_law(sphere3, flowed_identity3, m)
            assert out["equal"]
            assert out["lhs"] == m - 2  # saturates the ambient lower bound
        assert time.perf_counter() - t0 < 60.0


def test_criterion_9_steklov_inequality(sphere3, torus32,
                                        sphere_max_report,
                                        torus_max_report):
    with criterion(9, "Steklov eigenvalues of punctured subdomains stay "
                      "strictly below the maximized eigenvalue"):
        cases = []
        for holes, radius in ((1, 0.3), (1, 0.45), (2, 0.35), (3, 0.3),
                              (4, 0.28)):
            centers = hole_centers(sphere3, holes, seed=1)
            cases.append((sphere3, centers, radius,
                          sphere_max_report.lambda_bar))
        for holes, radius in ((1, 0.12), (2, 0.1), (4, 0.08), (6, 0.06),
                              (9, 0.05)):
            centers = hole_centers(torus32, holes, seed=1)
            cases.append((torus32, centers, radius,
                          torus_max_report.lambda_bar))
        assert len(cases) == 10
        for mesh, centers, radius, lam_max in cases:
            sub = puncture(mesh, centers, radius)
            spec = sx.steklov_eigs(sub, k=1)
            sigma_bar = spec.values[1] * spec.mass
            assert sigma_bar < lam_max


@pytest.fixture(scope="module")
def hole_sweep_96():
    """Best sigma_bar_1 per hole count on the res-96 torus."""
    torus = build_torus_mesh(1j, 96)
    rows = steklov_hole_sweep(torus, range(1, 17), seed=0)
    return [(holes, val) for holes, val, _, _ in rows]


def test_criterion_9_hole_sweep_trend(hole_sweep_96, torus_max_report):
    with criterion("9b", "hole sweep: sigma_bar_1 nondecreasing toward the "
                         "maximized eigenvalue"):
        lam_ref = torus_max_report.lambda_bar
        values = [v for _, v in hole_sweep_96]
        for holes, val in hole_sweep_96:
            print(f"    holes={holes:>2} sigma_bar_1={val:.3f} "
                  f"({100 * val / lam_ref:.1f}%)", flush=True)
        for a, b in zip(values, values[1:]):
            assert b >= a - TREND_SLACK * lam_ref
        assert values[-1] > values[0]


def _torus_green(x, y, terms=400):
    """Mean-zero Green's function of the unit square flat torus,
    -Laplace G = delta - 1, at (x, y) with 0 < x < 1:

        G = B2(x)/2 + sum_m cos(2 pi m y) cosh(pi m (1-2x))
                                  / (2 pi m sinh(pi m)),

    B2(x) = x^2 - x + 1/6. The series is summed in the equivalent form
    cosh(pi m (1-2x)) / sinh(pi m) = (q^(mx) + q^(m(1-x))) / (1 - q^m),
    q = exp(-2 pi), which does not overflow.
    """
    m = np.arange(1, terms + 1)
    decay = ((np.exp(-2 * np.pi * m * x) + np.exp(-2 * np.pi * m * (1 - x)))
             / (1 - np.exp(-2 * np.pi * m)))
    return ((x * x - x + 1 / 6) / 2
            + np.sum(np.cos(2 * np.pi * m * y) * decay / (2 * np.pi * m)))


def _torus_robin_constant(terms=40):
    """R = lim_{x->0} G(x, 0) + log(x)/(2 pi). At y = 0 the m-sum of
    q^(mx)/(2 pi m) is -log(1 - q^x)/(2 pi) ~ -log(2 pi x)/(2 pi), so
    R = B2(0)/2 - log(2 pi)/(2 pi) + sum_m q^m / (pi m (1 - q^m)), the
    last sum being the rest of the series, regular at x = 0."""
    m = np.arange(1, terms + 1)
    q = np.exp(-2 * np.pi * m)
    return (1 / 12 - np.log(2 * np.pi) / (2 * np.pi)
            + np.sum(q / (np.pi * m * (1 - q))))


def perforation_ceiling(n):
    """C_N = max_r P_N(r) for N = n^2 disk holes of radius r on the n x n
    lattice of the unit square torus (see criterion 9c). Returns (C_N, r).
    """
    s = _torus_robin_constant()
    for a in range(n):
        for b in range(n):
            if (a, b) == (0, 0):
                continue
            # G is symmetric under x <-> y; keep its first argument in (0, 1)
            x, y = (a / n, b / n) if a else (b / n, 0.0)
            s += _torus_green(x, y) * np.cos(2 * np.pi * a / n)
    holes = n * n
    radii = np.geomspace(1e-4, 1 / np.sqrt(2 * np.pi * holes), 200001)
    model = (2 * np.pi * holes / (np.log(1 / radii) + 2 * np.pi * s)
             * (1 - 2 * np.pi * holes * radii ** 2))
    best = int(np.argmax(model))
    return float(model[best]), float(radii[best])


#: Share of C_16 the sweep must reach; covers the terms the model drops.
PERFORATION_MODEL_SLACK = 0.05


def test_criterion_9c_perforation_model():
    # The Robin constant of the square torus in closed form,
    # -log(2 pi eta(i)^2) / (2 pi), with eta(i) = Gamma(1/4) / (2 pi^(3/4)).
    eta = math.gamma(0.25) / (2 * np.pi ** 0.75)
    assert abs(_torus_robin_constant()
               + np.log(2 * np.pi * eta ** 2) / (2 * np.pi)) < 1e-12
    # The series form of G against its cosh form at an interior point.
    m = np.arange(1, 60)
    cosh_form = (0.3 ** 2 - 0.3 + 1 / 6) / 2 + np.sum(
        np.cos(2 * np.pi * m * 0.2) * np.cosh(np.pi * m * 0.4)
        / (2 * np.pi * m * np.sinh(np.pi * m)))
    assert abs(_torus_green(0.3, 0.2) - cosh_form) < 1e-12
    assert abs(_torus_green(0.3, 0.2) - _torus_green(0.2, 0.3)) < 1e-12
    ceilings = [perforation_ceiling(n)[0] for n in (3, 4, 6)]
    assert abs(ceilings[0] / (4 * np.pi ** 2) - 0.579) < 0.001
    assert abs(ceilings[1] - 26.97) < 0.01
    assert abs(perforation_ceiling(4)[1] - 0.0365) < 0.0005
    assert abs(ceilings[2] - 31.42) < 0.01
    assert ceilings[0] < ceilings[1] < ceilings[2] < 4 * np.pi ** 2


def test_criterion_9_hole_sweep_saturation(hole_sweep_96,
                                           torus_max_report):
    """By 16 holes the res-96 sweep reaches the saturation level that
    homogenisation by perforation predicts for 16 holes.

    sigma_bar_1 of Omega = M minus N holes tends to lambda_bar_1 only as
    N -> infinity with vanishing holes (Girouard-Lagace, Invent. Math.
    2021; Girouard-Karpukhin-Lagace, GAFA 2021); neither gives a rate. For
    N = n^2 disks of radius r on the n x n lattice of the unit square torus,
    dilute-perforation asymptotics give

        P_N(r) = 2 pi N / (log(1/r) + 2 pi S_N) * (1 - 2 pi N r^2).

    The first factor is the capacity (monopole) term; the second is the
    Maxwell-Garnett energy loss of insulating holes. S_N = R +
    sum_{j != 0} G(x_j) cos(2 pi x_{j,1}) over the lattice points x_j,
    with G the mean-zero Green's function of the torus (`_torus_green`)
    and R = lim G + log|x|/(2 pi) = -0.20858 its Robin constant. The
    ceiling C_N = max_r P_N(r) (`perforation_ceiling`), as a share of
    4 pi^2, against the sweep's best, as a share of lambda_bar_1 = 39.352
    from the conformal maximiser:

        N    model ceiling              measured
        9    57.9%                      60.8%
        16   68.3% (26.97, r = 0.0365)  69.6% (27.38)
        36   79.6% (31.42)              80.1% (31.54, r = 0.02-0.025,
                                              res 192)

    The measured level is h-converged. For 16 disks on the 4 x 4 lattice,
    sigma_bar_1 is 26.53, 27.25, 27.42 at r = 0.035, 0.04, 0.045 on
    res 96, and 26.91, 27.30, 27.35, 27.20 at r = 0.035, 0.04, 0.045, 0.05
    on res 192; the best of each is about 69.6%. Holes cut along mesh
    edges with no area removed do worse on res 96 (arm lengths of 2-8
    edges): slits peak at 63.4%, crosses at 66.0%, six-armed stars at
    63.9%. So 80% of lambda_bar_1 is out of reach at 16 holes; both the
    model and the sweep place it near 36 holes.

    The assertion is values[16] >= (1 - 0.05) C_16 = 25.63 (65.1% of
    lambda_bar_1). The 5% covers what the model drops: O(f^2) in the
    Maxwell-Garnett factor (f = N pi r^2 ~ 0.07), the boundary-variation
    term (2 pi r)^2 / 2 ~ 0.03, and polygonal holes 3-4 edges across. It
    still rejects the 15-hole value (24.67), the best slit layout (24.96),
    and 16 disks of the sweep's largest radius, r = 0.0875 (20.81); the
    next radius, r = 0.0625, gives 25.79 and passes narrowly.
    """
    ceiling, _ = perforation_ceiling(4)
    threshold = (1 - PERFORATION_MODEL_SLACK) * ceiling
    with criterion("9c", f"hole sweep reaches {1 - PERFORATION_MODEL_SLACK:.0%}"
                         " of the perforation-model ceiling C_16 by 16 "
                         "holes"):
        lam_ref = torus_max_report.lambda_bar
        values = dict(hole_sweep_96)
        print(f"    sigma_bar_1 at 16 holes: {values[16]:.3f} = "
              f"{values[16] / ceiling:.3f} C_16 (C_16 = {ceiling:.3f}) = "
              f"{100 * values[16] / lam_ref:.1f}% of {lam_ref:.3f}; "
              f"threshold {threshold:.3f}", flush=True)
        assert values[16] >= threshold


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "fixed seeds give byte-identical numeric payloads"):
        payloads = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["glminmax", "--surface", "sphere", "--subdiv",
                         "2", "--eps", "0.1", "--seed", "11",
                         "--out", str(out)]) == 0
            assert main(["eigs", "--surface", "torus", "--res", "16",
                         "--seed", "11", "--out", str(out)]) == 0
            docs = []
            for name in ("glminmax.json", "eigs.json"):
                with open(out / name) as fh:
                    docs.append(json.dumps(json.load(fh)["payload"],
                                           sort_keys=True))
            payloads.append(tuple(docs))
        assert payloads[0] == payloads[1]
