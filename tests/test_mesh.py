import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from specx import _kernels, mesh as meshmod
from specx.mesh import (DegenerateTriangleError, MeshError, NonManifoldError,
                        OrientationError, TriMesh, area, build_sphere_mesh,
                        build_torus_mesh, curve_measure, geodesic_distances,
                        hole_centers, hole_radius, load_mesh, puncture,
                        save_mesh, validate_density, volume_measure)

from conftest import build_annulus_mesh, build_disk_mesh


TET_OFF = """OFF
4 4 0
1 1 1
1 -1 -1
-1 1 -1
-1 -1 1
3 0 1 2
3 0 3 1
3 0 2 3
3 1 3 2
"""


def test_load_tetrahedron(tmp_path):
    path = tmp_path / "tet.off"
    path.write_text(TET_OFF)
    mesh = load_mesh(path)
    assert mesh.num_vertices == 4
    assert len(mesh.triangles) == 4
    assert mesh.genus == 0
    assert mesh.is_closed


def test_load_single_triangle(tmp_path):
    path = tmp_path / "tri.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    mesh = load_mesh(path)
    assert len(mesh.boundary_loops) == 1
    assert len(mesh.boundary_loops[0]) == 3


def test_nonmanifold_edge_rejected():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                      [0, -1, 0]], dtype=float)
    tris = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    with pytest.raises(NonManifoldError,
                       match=r"^edge shared by more than 2 triangles$"):
        TriMesh(verts, tris)


def test_inconsistent_orientation_rejected():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],
                     dtype=float)
    tris = np.array([[0, 1, 2], [1, 3, 2]])
    TriMesh(verts, tris)  # consistent version is fine
    with pytest.raises(OrientationError,
                       match=r"^directed edge \(1,2\) appears twice: "
                             r"inconsistent face orientation$"):
        TriMesh(verts, np.array([[0, 1, 2], [1, 2, 3]]))


def _points(n):
    return np.zeros((n, 3))


def test_degenerate_face_rejected():
    # face 1 repeats vertex 2 at its closing edge, before face 2 repeats 4
    tris = np.array([[0, 1, 2], [2, 3, 2], [4, 4, 5]])
    with pytest.raises(MeshError,
                       match=r"^degenerate face 1 repeats vertex 2$"):
        TriMesh(_points(6), tris)
    # the degenerate-face check runs before the edge-count check
    tris = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4], [5, 6, 6]])
    with pytest.raises(MeshError,
                       match=r"^degenerate face 3 repeats vertex 6$"):
        TriMesh(_points(7), tris)


def test_first_repeated_directed_edge_reported():
    # (5,6) repeats at face 2, before (1,2) repeats at face 3
    tris = np.array([[0, 1, 2], [5, 6, 7], [5, 6, 8], [1, 2, 9]])
    with pytest.raises(OrientationError,
                       match=r"^directed edge \(5,6\) appears twice"):
        TriMesh(_points(10), tris)


def test_bow_tie_vertex_rejected():
    with pytest.raises(NonManifoldError,
                       match=r"^vertex 0 has multiple boundary fans$"):
        TriMesh(_points(5), np.array([[0, 1, 2], [0, 3, 4]]))
    # two bow-ties: the second boundary fan of 5 closes before that of 0
    tris = np.array([[5, 1, 2], [5, 3, 4], [0, 6, 7], [0, 8, 9]])
    with pytest.raises(NonManifoldError,
                       match=r"^vertex 5 has multiple boundary fans$"):
        TriMesh(_points(10), tris)


@pytest.mark.parametrize("res, radius", [(5, 0.6), (6, 0.6), (8, 0.6)])
def test_puncture_refuses_a_hole_that_covers_a_handle(res, radius):
    # the disk covers all but one vertex star: one boundary loop, as for a
    # hole, but what is left is a disk, not a holed torus
    with pytest.raises(MeshError,
                       match=r"^puncture changed the genus from 1 to 0; "):
        puncture(build_torus_mesh(1j, res), [0], radius)


@pytest.mark.parametrize("res, radius", [(6, 0.50), (6, 0.55), (8, 0.50),
                                         (8, 0.51), (8, 0.52), (8, 0.53),
                                         (8, 0.54), (8, 0.55)])
def test_puncture_names_a_radius_that_pinches(res, radius):
    # the disk reaches the grid point (0, 1/2) from both sides, so the kept
    # faces meet at that one vertex: the error names the hole, its radius
    # and that vertex, not a defect of the mesh
    message = (rf"^puncture at centres \[0\] with radii \[{radius}\] "
               rf"pinches vertex {res * res // 2} \(radius too large\)$")
    with pytest.raises(MeshError, match=message) as info:
        puncture(build_torus_mesh(1j, res), [0], radius)
    assert type(info.value) is MeshError


def test_parse_errors(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("not an off file\n")
    with pytest.raises(MeshError):
        load_mesh(path)
    path.write_text("OFF\n2 1 0\n0 0 0\n")
    with pytest.raises(MeshError):
        load_mesh(path)
    path.write_text("OFF\nfour 1 0\n")
    with pytest.raises(MeshError, match="^bad OFF counts line$"):
        load_mesh(path)
    quad = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
    path.write_text(quad)
    with pytest.raises(MeshError, match="^only triangle faces are supported$"):
        load_mesh(path)
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 3\n")
    with pytest.raises(MeshError, match="^face index out of range$"):
        load_mesh(path)


def test_off_roundtrip(tmp_path, sphere3):
    path = tmp_path / "s3.off"
    save_mesh(sphere3, path)
    back = load_mesh(path)
    assert back.num_vertices == sphere3.num_vertices
    assert np.array_equal(back.triangles, sphere3.triangles)
    assert np.allclose(back.vertices, sphere3.vertices, atol=0)


def test_torus_sidecar_roundtrip(tmp_path):
    torus = build_torus_mesh(0.3 + 1.1j, 8)
    path = tmp_path / "t.off"
    save_mesh(torus, path)
    assert (tmp_path / "t.off.chart").exists()
    back = load_mesh(path)
    assert back.chart_meta == torus.chart_meta
    assert np.allclose(back.corners, torus.corners, atol=0)


def test_bad_torus_sidecar(tmp_path):
    path = tmp_path / "t.off"
    save_mesh(build_torus_mesh(1j, 8), path)
    sidecar = tmp_path / "t.off.chart"
    good = sidecar.read_text()
    for text in ("tau_re=0.0\ntau_im=1.0\n", good.replace("res=8", "res=x")):
        sidecar.write_text(text)
        with pytest.raises(MeshError, match="^bad chart sidecar"):
            load_mesh(path)
    sidecar.write_text(good.replace("res=8", "res=9"))
    with pytest.raises(MeshError, match="does not match its chart sidecar"):
        load_mesh(path)


def test_off_file_that_is_not_the_sidecar_grid(tmp_path):
    # the grid's counts, its vertices in reverse order and every face
    # flipped: another triangulation, which the sidecar must not replace
    torus = build_torus_mesh(1j, 8)
    path = tmp_path / "t.off"
    save_mesh(torus, path)
    last = torus.num_vertices - 1
    faces = (last - torus.triangles)[:, ::-1]
    path.write_text(f"OFF\n{torus.num_vertices} {len(faces)} 0\n"
                    + "".join(f"{x} {y} {z}\n"
                              for x, y, z in torus.vertices[::-1])
                    + "".join(f"3 {a} {b} {c}\n" for a, b, c in faces))
    with pytest.raises(MeshError, match="does not match its chart sidecar"):
        load_mesh(path)


def _punctured_torus():
    torus = build_torus_mesh(1j, 16)
    return puncture(torus, [0], 2.1 * torus.mean_edge_length)


def test_punctured_torus_is_not_saved(tmp_path):
    path = tmp_path / "holed.off"
    with pytest.raises(MeshError, match="punctured flat torus"):
        save_mesh(_punctured_torus(), path)
    assert list(tmp_path.iterdir()) == []


def test_scaled_torus_is_not_saved(tmp_path):
    # the chart sidecar rebuilds the unit-scale torus, so a scaled one
    # would load back with area 1 instead of 4
    path = tmp_path / "big.off"
    with pytest.raises(MeshError, match="scaled flat torus"):
        save_mesh(build_torus_mesh(1j, 8).scaled(2.0), path)
    assert list(tmp_path.iterdir()) == []


def test_hole_centers_on_punctured_torus():
    # the grid lattice names vertices of the whole torus, so a punctured one
    # gets the farthest-point sample of a mesh without a chart
    holed = _punctured_torus()
    plain = TriMesh(holed.vertices, holed.triangles, corners=holed.corners)
    for count in (1, 2, 4, 5):
        assert hole_centers(holed, count, 0) == hole_centers(plain, count, 0)


def test_sphere_counts():
    m0 = build_sphere_mesh(0)
    assert m0.num_vertices == 12 and len(m0.triangles) == 20
    assert build_sphere_mesh(2).num_vertices == 10 * 4 ** 2 + 2


def test_sphere_area_converges(sphere4):
    assert abs(area(sphere4) - 4 * np.pi) < 0.01 * 4 * np.pi


def test_torus_counts_and_area():
    torus = build_torus_mesh(1j, 16)
    assert torus.num_vertices == 256
    assert len(torus.triangles) == 512
    assert abs(area(torus) - 1.0) < 1e-12
    hexa = build_torus_mesh(np.exp(1j * np.pi / 3), 8)
    assert abs(area(hexa) - np.sin(np.pi / 3)) < 1e-12


def test_torus_argument_errors():
    with pytest.raises(MeshError):
        build_torus_mesh(1j, 2)
    with pytest.raises(MeshError):
        build_torus_mesh(0.5 - 0.1j, 8)


def test_stiffness_right_isoceles_triangle():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    mesh = TriMesh(verts, np.array([[0, 1, 2]]))
    K = mesh.stiffness.toarray()
    # legs get half-cot(45deg) = 1/2, hypotenuse half-cot(90deg) = 0
    assert np.isclose(K[0, 1], -0.5)
    assert np.isclose(K[0, 2], -0.5)
    assert np.isclose(K[1, 2], 0.0)
    assert np.allclose(K.sum(axis=1), 0.0, atol=1e-15)


def test_stiffness_kernel_and_scaling(sphere3, torus32):
    for mesh in (sphere3, torus32):
        K = mesh.stiffness
        ones = np.ones(mesh.num_vertices)
        assert np.abs(K @ ones).max() < 1e-12
    K1 = sphere3.stiffness
    K2 = sphere3.scaled(2.0).stiffness
    assert (K1 != K2).nnz == 0  # bit-identical under power-of-two scaling
    K3 = sphere3.scaled(3.0).stiffness
    assert np.allclose(K1.toarray(), K3.toarray(), rtol=1e-12, atol=1e-14)


def _stiffness_with_zeros(mesh):
    """The cotangent assembly, keeping the exact-zero entries."""
    cots, _ = mesh.face_geometry
    tri = mesh.triangles
    ii, jj, vv = [], [], []
    for k in range(3):
        a, b = tri[:, (k + 1) % 3], tri[:, (k + 2) % 3]
        w = 0.5 * cots[:, k]
        ii += [a, b, a, b]
        jj += [b, a, a, b]
        vv += [-w, -w, w, w]
    n = mesh.num_vertices
    mat = sp.coo_matrix((np.concatenate(vv), (np.concatenate(ii),
                                              np.concatenate(jj))),
                        shape=(n, n)).tocsr()
    mat.sum_duplicates()
    return mat


def test_stiffness_drops_exact_zeros():
    # the right angles of the flat res-48 torus give exact-zero cotangent
    # weights; dropping them changes no product
    mesh = build_torus_mesh(1j, 48)
    K = mesh.stiffness
    full = _stiffness_with_zeros(mesh)
    assert full.nnz == 16128
    assert K.nnz == 11520 and np.all(K.data != 0.0)
    rng = np.random.default_rng(0)
    for v in (rng.standard_normal(mesh.num_vertices),
              rng.standard_normal((mesh.num_vertices, 3))):
        assert np.array_equal(K @ v, full @ v)


def test_degenerate_triangle_rejected():
    verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
    mesh = TriMesh(verts, np.array([[0, 1, 2]]))
    with pytest.raises(MeshError):
        _ = mesh.face_geometry


def test_volume_measure_mass_is_area(torus32):
    assert np.isclose(volume_measure(torus32).sum(), 1.0)
    f = np.full(torus32.num_vertices, 3.0)
    assert np.isclose(volume_measure(torus32, f).sum(), 3.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_mass_area_consistency_random_density(seed):
    mesh = build_torus_mesh(1j, 8)
    rng = np.random.default_rng(seed)
    f = rng.uniform(0.0, 2.0, mesh.num_vertices)
    assert volume_measure(mesh, f).sum() == area(mesh, f)


def test_mass_single_star():
    mesh = build_torus_mesh(1j, 8)
    f = np.zeros(mesh.num_vertices)
    f[10] = 2.0
    star_area = sum(mesh.face_geometry[1][t] / 3.0
                    for t in range(len(mesh.triangles))
                    if 10 in mesh.triangles[t])
    assert np.isclose(area(mesh, f), 2.0 * star_area)


def test_curve_measure_polygon_mass(disk):
    mu = curve_measure(disk)
    n_seg = len(disk.boundary_loops[0])
    expected = n_seg * 2 * np.sin(np.pi / n_seg)
    assert np.isclose(mu.sum(), expected)
    assert abs(mu.sum() - 2 * np.pi) < 0.02 * 2 * np.pi


def test_curve_measure_convergence_rate():
    errs = []
    for n in (8, 16, 32):
        mu = curve_measure(build_disk_mesh(n))
        errs.append(abs(mu.sum() - 2 * np.pi))
    # inscribed polygon perimeter error is O(N^-2)
    assert errs[1] < errs[0] / 3.0
    assert errs[2] < errs[1] / 3.0


def test_curve_measure_additive_and_errors(sphere3):
    ann = __import__("conftest").build_annulus_mesh()
    both = curve_measure(ann)
    first = _loop_curve_weights(ann, [0])
    second = _loop_curve_weights(ann, [1])
    assert np.isclose(both.sum(), first.sum() + second.sum())
    with pytest.raises(MeshError):
        curve_measure(sphere3)


def test_puncture_identity_and_topology(sphere3):
    assert puncture(sphere3, [], 0.1) is sphere3
    sub = puncture(sphere3, [0], 0.25)
    assert len(sub.boundary_loops) == 1
    v, e, f = sub.num_vertices, sub.num_edges, len(sub.triangles)
    assert v - e + f == 1  # chi drops from 2 by one hole
    # labels retained
    assert set(sub.orig_vertex_ids) <= set(range(sphere3.num_vertices))


def test_puncture_errors(sphere3):
    with pytest.raises(MeshError):
        puncture(sphere3, [0, 1], 0.6)  # overlapping disks
    with pytest.raises(MeshError):
        puncture(sphere3, [0], 1e-4)  # below mesh resolution


def test_puncture_names_the_first_centre_below_resolution(torus32):
    centers, radii = [0, 520, 300], [0.1, 1e-3, 1e-3]
    for order in ([0, 1, 2], [0, 2, 1], [2, 1, 0]):
        c = [centers[p] for p in order]
        r = [radii[p] for p in order]
        first = next(p for p in range(3) if r[p] < 0.1)
        with pytest.raises(MeshError) as err:
            puncture(torus32, c, r)
        assert str(err.value) == (f"radius {r[first]} below mesh resolution "
                                  f"at vertex {c[first]}")


def test_puncture_overlap_message(sphere3):
    with pytest.raises(MeshError) as err:
        puncture(sphere3, [0, 1], 0.6)
    assert str(err.value) == "puncture disks at 0 and 1 overlap"


def test_puncture_loop_count_guard(disk):
    # a hole that reaches the rim merges with the outer loop: the subdomain
    # passes the edge checks, with one loop where two were expected
    rim = int(np.argmin(np.linalg.norm(disk.vertices - [15 / 16, 0, 0],
                                       axis=1)))
    with pytest.raises(MeshError) as err:
        puncture(disk, [rim], 0.15)
    assert str(err.value) == ("puncture produced 1 boundary loops, expected "
                              "2; holes may merge (radius too large)")


def test_puncture_euler_drop_torus(torus32):
    sub = puncture(torus32, [0, 520], 0.08)
    v, e, f = sub.num_vertices, sub.num_edges, len(sub.triangles)
    assert v - e + f == -2  # chi(T^2) = 0 minus two holes
    assert len(sub.boundary_loops) == 2


def test_density_validation(torus32):
    n = torus32.num_vertices
    with pytest.raises(MeshError):
        validate_density(torus32, -np.ones(n))
    with pytest.raises(MeshError):
        validate_density(torus32, np.zeros(n))
    ok = np.ones(n)
    ok[5] = 0.0  # isolated zero is allowed
    validate_density(torus32, ok)
    bad = np.ones(n)
    bad[torus32.triangles[0]] = 0.0  # a whole dead triangle is not
    with pytest.raises(MeshError):
        validate_density(torus32, bad)
    for value in (np.nan, np.inf):
        bad = np.ones(n)
        bad[5] = value
        with pytest.raises(MeshError, match="finite"):
            validate_density(torus32, bad)


# ---------------------------------------------------------------------------
# Loop reference implementations. The array code in specx.mesh must match
# them bit for bit and raise the same error for the same input.
# ---------------------------------------------------------------------------

def _loop_edge_tables(tri):
    """(num_edges, boundary successor map) or the error the mesh raises."""
    undirected = {}
    for t in range(len(tri)):
        for k in range(3):
            i, j = int(tri[t, k]), int(tri[t, (k + 1) % 3])
            if i == j:
                raise MeshError(f"degenerate face {t} repeats vertex {i}")
            key = (min(i, j), max(i, j))
            undirected[key] = undirected.get(key, 0) + 1
    if any(c > 2 for c in undirected.values()):
        raise NonManifoldError("edge shared by more than 2 triangles")
    directed = {}
    for t in range(len(tri)):
        for k in range(3):
            i, j = int(tri[t, k]), int(tri[t, (k + 1) % 3])
            if (i, j) in directed:
                raise OrientationError(
                    f"directed edge ({i},{j}) appears twice: "
                    f"inconsistent face orientation")
            directed[(i, j)] = (t, k)
    boundary_next = {}
    for (i, j) in directed:
        if (j, i) not in directed:
            if j in boundary_next:
                raise NonManifoldError(
                    f"vertex {j} has multiple boundary fans")
            boundary_next[j] = i
    return len(undirected), boundary_next


def _loop_trace(nxt):
    seen = set()
    loops = []
    for start in sorted(nxt):
        if start in seen:
            continue
        loop = [start]
        seen.add(start)
        cur = nxt[start]
        while cur != start:
            loop.append(cur)
            seen.add(cur)
            cur = nxt[cur]
        loops.append(np.asarray(loop, dtype=np.int64))
    loops.sort(key=lambda ring: int(ring.min()))
    return loops


def _loop_subdivide(verts, faces):
    verts = list(map(tuple, verts))
    cache = {}

    def midpoint(i, j):
        key = (min(i, j), max(i, j))
        if key not in cache:
            p = np.asarray(verts[i]) + np.asarray(verts[j])
            p /= np.linalg.norm(p)
            cache[key] = len(verts)
            verts.append(tuple(p))
        return cache[key]

    out = []
    for (a, b, c) in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        out.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
    return np.asarray(verts, dtype=float), np.asarray(out, dtype=np.int64)


def _loop_sphere(subdivisions):
    from specx.mesh import _ICO_FACES, _ICO_VERTS
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS, axis=1, keepdims=True)
    faces = _ICO_FACES.copy()
    for _ in range(subdivisions):
        verts, faces = _loop_subdivide(verts, faces)
    return verts / np.linalg.norm(verts, axis=1, keepdims=True), faces


def _loop_torus(tau, res):
    basis = np.array([[1.0, 0.0, 0.0], [tau.real, tau.imag, 0.0]])

    def pos(i, j):
        return (i / res) * basis[0] + (j / res) * basis[1]

    verts = np.array([pos(i, j) for j in range(res) for i in range(res)])

    def vid(i, j):
        return (j % res) * res + (i % res)

    faces = []
    corner_idx = []
    for j in range(res):
        for i in range(res):
            faces.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            corner_idx.append(((i, j), (i + 1, j), (i + 1, j + 1)))
            faces.append((vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)))
            corner_idx.append(((i, j), (i + 1, j + 1), (i, j + 1)))
    corners = np.array([[pos(i, j) for (i, j) in tri] for tri in corner_idx])
    return verts, np.asarray(faces, dtype=np.int64), corners


def _loop_curve_weights(mesh, loop_ids):
    lengths = mesh.edge_lengths
    w = np.zeros(mesh.num_vertices)
    for lid in loop_ids:
        loop = mesh.boundary_loops[lid]
        for k in range(len(loop)):
            i, j = int(loop[k]), int(loop[(k + 1) % len(loop)])
            ell = lengths[i, j]
            w[i] += 0.5 * ell
            w[j] += 0.5 * ell
    return w


def _assert_same_combinatorics(mesh):
    num_edges, nxt = _loop_edge_tables(mesh.triangles)
    assert mesh.num_edges == num_edges
    loops = _loop_trace(nxt)
    assert len(mesh.boundary_loops) == len(loops)
    for got, want in zip(mesh.boundary_loops, loops):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("subdivisions", [0, 1, 2, 3, 4])
def test_sphere_matches_loop_reference(subdivisions):
    mesh = build_sphere_mesh(subdivisions)
    verts, faces = _loop_sphere(subdivisions)
    assert np.array_equal(mesh.vertices, verts)
    assert np.array_equal(mesh.triangles, faces)
    assert np.array_equal(mesh.corners, verts[faces])
    _assert_same_combinatorics(mesh)


@pytest.mark.parametrize("tau", [1j, 0.3 + 1.1j])
@pytest.mark.parametrize("res", [3, 7, 48])
def test_torus_matches_loop_reference(tau, res):
    mesh = build_torus_mesh(tau, res)
    verts, faces, corners = _loop_torus(tau, res)
    assert np.array_equal(mesh.vertices, verts)
    assert np.array_equal(mesh.triangles, faces)
    assert np.array_equal(mesh.corners, corners)
    _assert_same_combinatorics(mesh)


@pytest.mark.parametrize("tau", [1j, 0.3 + 1.1j])
@pytest.mark.parametrize("holes", [1, 4, 9])
def test_punctured_torus_matches_loop_reference(tau, holes):
    torus = build_torus_mesh(tau, 48)
    radius = 0.2 * np.sqrt(area(torus) / holes)
    mesh = puncture(torus, hole_centers(torus, holes, 0), radius)
    assert len(mesh.boundary_loops) == holes
    _assert_same_combinatorics(mesh)
    assert np.array_equal(curve_measure(mesh),
                          _loop_curve_weights(mesh, range(holes)))


def test_open_meshes_match_loop_reference(disk):
    for mesh in (disk, build_annulus_mesh()):
        _assert_same_combinatorics(mesh)
        assert np.array_equal(curve_measure(mesh),
                              _loop_curve_weights(
                                  mesh, range(len(mesh.boundary_loops))))


def _matrix_curve_weights(mesh, loop_ids):
    """The earlier `curve_measure`, kept as an oracle: it reads the
    boundary edge lengths from the whole `edge_lengths` matrix."""
    loops = [mesh.boundary_loops[lid] for lid in loop_ids]
    i = np.concatenate(loops)
    j = np.concatenate([np.roll(loop, -1) for loop in loops])
    half = 0.5 * np.asarray(mesh.edge_lengths[i, j]).ravel()
    # edge by edge, both ends in turn: the order of a sequential sum
    w = np.zeros(mesh.num_vertices)
    np.add.at(w, np.stack([i, j], axis=1).ravel(), np.repeat(half, 2))
    return w


def _punctured(mesh, holes):
    _ = mesh.face_geometry  # cached, so that puncture seeds the subdomain
    return puncture(mesh, hole_centers(mesh, holes, 0),
                    hole_radius(mesh, holes, 0.5))


_PUNCTURED = [(tau, holes) for tau in (1j, 2j) for holes in (1, 5, 9)]


@pytest.mark.parametrize("tau, holes", _PUNCTURED)
def test_punctured_torus_geometry_and_lengths_are_bit_identical(tau, holes):
    mesh = _punctured(build_torus_mesh(tau, 48), holes)
    assert "geometry" in mesh._cache
    for seeded, own in zip(mesh.face_geometry,
                           _kernels.tri_geometry(mesh.corners)):
        assert seeded.dtype == own.dtype and np.array_equal(seeded, own)
    assert np.array_equal(curve_measure(mesh),
                          _matrix_curve_weights(mesh, range(holes)))


def test_punctured_sphere_and_open_meshes_are_bit_identical(sphere3, disk):
    holed = _punctured(sphere3, 2)
    assert "geometry" in holed._cache
    for seeded, own in zip(holed.face_geometry,
                           _kernels.tri_geometry(holed.corners)):
        assert np.array_equal(seeded, own)
    for mesh in (holed, disk, build_annulus_mesh()):
        ids = range(len(mesh.boundary_loops))
        assert np.array_equal(curve_measure(mesh),
                              _matrix_curve_weights(mesh, ids))


def test_puncture_removes_a_degenerate_face_of_an_unmeasured_parent():
    torus = build_torus_mesh(1j, 12)
    corners = torus.corners.copy()
    face = int(np.flatnonzero(np.any(torus.triangles == 0, axis=1))[0])
    corners[face, 2] = 0.5 * (corners[face, 0] + corners[face, 1])
    parent = TriMesh(torus.vertices, torus.triangles, corners=corners,
                     chart_meta=torus.chart_meta)
    sub = puncture(parent, [0], 2.5 / 12)
    assert len(sub.boundary_loops) == 1
    assert "geometry" not in parent._cache
    with pytest.raises(DegenerateTriangleError):
        _ = parent.face_geometry
    assert np.all(sub.face_geometry[1] > 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_corners_fail_the_area_check(bad):
    # a NaN area fails every comparison, so the check let it through
    torus = build_torus_mesh(1j, 6)
    corners = torus.corners.copy()
    corners[5, 1, 0] = bad
    mesh = TriMesh(torus.vertices, torus.triangles, corners=corners)
    with pytest.raises(DegenerateTriangleError,
                       match="triangle 5 has zero or non-finite area"):
        _ = mesh.face_geometry


def _outcome(fn):
    try:
        return fn()
    except MeshError as exc:
        return type(exc), str(exc)


def test_face_subsets_match_loop_reference():
    """Random face subsets of a res-4 torus, some faces flipped and some
    vertex labels merged, raise what the loop raises or give the same edge
    count and boundary loops. Every error kind and open and closed valid
    meshes all occur among the 300 seeds."""
    base = build_torus_mesh(1j, 4).triangles
    kinds = set()
    for seed in range(300):
        rng = np.random.default_rng(seed)
        tri = base[rng.random(32) < rng.choice([0.6, 0.9, 0.97])]
        flip = rng.random(len(tri)) < rng.choice([0.0, 0.0, 0.05])
        tri = np.where(flip[:, None], tri[:, ::-1], tri)
        if rng.random() < 0.3:
            tri = np.where(tri == rng.integers(16), rng.integers(16), tri)

        def vectorised():
            mesh = TriMesh(_points(16), tri)
            return mesh.num_edges, mesh.boundary_loops

        def loop():
            num_edges, nxt = _loop_edge_tables(tri)
            return num_edges, _loop_trace(nxt)

        got, want = _outcome(vectorised), _outcome(loop)
        if isinstance(want[1], list):
            kinds.add(min(len(want[1]), 1))
            assert got[0] == want[0]
            assert len(got[1]) == len(want[1])
            assert all(np.array_equal(a, b)
                       for a, b in zip(got[1], want[1]))
        else:
            kinds.add(want[1].split()[0])
            assert got == want
    assert kinds == {0, 1, "degenerate", "edge", "directed", "vertex"}


def test_geodesic_rows_are_memoised_copies(monkeypatch):
    mesh = build_sphere_mesh(2)
    want = dijkstra(mesh.edge_lengths, directed=False, indices=[5, 9, 5])
    ran = []

    def counted(*args, indices, **kwargs):
        ran.append(list(indices))
        return dijkstra(*args, indices=indices, **kwargs)

    monkeypatch.setattr(meshmod, "dijkstra", counted)
    one = geodesic_distances(mesh, [9])
    rows = geodesic_distances(mesh, [5, 9, 5])
    assert one.shape == (1, mesh.num_vertices)
    assert np.array_equal(one, want[[1]]) and np.array_equal(rows, want)
    assert ran == [[9], [5]]  # each source once, batched or not
    one[:] = 0.0
    rows[:] = 0.0
    assert np.array_equal(geodesic_distances(mesh, [9, 5]), want[[1, 0]])
    assert geodesic_distances(mesh, []).shape == (0, mesh.num_vertices)
    assert len(ran) == 2


@pytest.mark.parametrize("build", [lambda: build_sphere_mesh(1),
                                   lambda: build_torus_mesh(1j, 8)])
@pytest.mark.parametrize("count", [0, -2])
def test_hole_centers_reject_counts_below_one(build, count):
    with pytest.raises(MeshError, match="hole count"):
        hole_centers(build(), count, 0)
