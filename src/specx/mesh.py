"""Triangle meshes, differential-geometric matrices, subdomains, and OFF I/O.

Meshes are immutable after construction: geometry caches (stiffness, vertex
areas, edge tables) are built lazily and shared between readers. Flat tori
keep their exact metric in a per-face chart (`corners`) with periodic
identification, so the stored vertex positions are only combinatorial
anchors for them.
"""

from __future__ import annotations

import math
import os

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

from . import _kernels


class MeshError(ValueError):
    pass


class NonManifoldError(MeshError):
    pass


class OrientationError(MeshError):
    pass


class DegenerateTriangleError(MeshError):
    pass


def _half_edges(faces):
    """(src, dst, integer key of the undirected edge) of each half-edge;
    half-edge 3 t + k runs from corner k of face t to corner k + 1."""
    src = faces.ravel()
    dst = faces[:, [1, 2, 0]].ravel()
    lo = src.min(initial=0)
    n = int(src.max(initial=0) - lo) + 1
    key = (np.minimum(src, dst) - lo) * n + (np.maximum(src, dst) - lo)
    return src, dst, key


class TriMesh:
    """Oriented triangle mesh, possibly with boundary.

    vertices: (V, 3) positions; triangles: (F, 3) vertex indices with
    consistent orientation; corners: (F, 3, 3) per-face corner positions
    (defaults to vertex lookup; flat tori store the unwrapped chart here);
    orig_vertex_ids keeps labels across subdomain extraction.

    The constructor checks the edges (degenerate faces, non-manifold
    edges, inconsistent orientation) and traces the boundary loops. The
    genus is derived, never told: V - E + F = 2 - 2g - b gives it for a
    connected mesh. Connectedness is not checked here; `load_mesh` checks
    it for OFF files.
    """

    def __init__(self, vertices, triangles, corners=None,
                 orig_vertex_ids=None, chart_meta=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError("vertices must be (V, 3)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be (F, 3)")
        if corners is None:
            corners = self.vertices[self.triangles]
        self.corners = np.ascontiguousarray(corners, dtype=float)
        if orig_vertex_ids is None:
            orig_vertex_ids = np.arange(len(self.vertices))
        self.orig_vertex_ids = np.asarray(orig_vertex_ids, dtype=np.int64)
        self.chart_meta = dict(chart_meta) if chart_meta else None
        self._cache = {}
        self.boundary_loops = self._trace_boundary()

    # -- combinatorics ------------------------------------------------------

    def _edge_tables(self):
        if "edges" in self._cache:
            return self._cache["edges"]
        # each check reports the offence met first in half-edge order
        src, dst, undirected = _half_edges(self.triangles)
        degenerate = np.flatnonzero(src == dst)
        if len(degenerate):
            p = degenerate[0]
            raise MeshError(
                f"degenerate face {p // 3} repeats vertex {src[p]}")
        order = np.argsort(undirected)
        pair = undirected[order[1:]] == undirected[order[:-1]]
        if np.any(pair[1:] & pair[:-1]):
            raise NonManifoldError("edge shared by more than 2 triangles")
        if np.any(pair & (src[order[1:]] == src[order[:-1]])):
            directed = 2 * undirected + (src < dst)
            _, first = np.unique(directed, return_index=True)
            p = np.setdiff1d(np.arange(len(directed)), first)[0]
            raise OrientationError(
                f"directed edge ({src[p]},{dst[p]}) appears twice: "
                f"inconsistent face orientation")
        # a boundary half-edge (i, j) has no twin (j, i), so its edge key
        # stands alone
        lone = np.ones(len(order), dtype=bool)
        lone[1:] &= ~pair
        lone[:-1] &= ~pair
        bnd = np.sort(order[lone])
        fans, fan_first = np.unique(dst[bnd], return_index=True)
        if len(fans) < len(bnd):
            q = np.setdiff1d(np.arange(len(bnd)), fan_first)[0]
            raise NonManifoldError(
                f"vertex {dst[bnd[q]]} has multiple boundary fans")
        into = np.full(len(self.vertices), -1, dtype=np.int64)
        into[dst[bnd]] = bnd
        self._cache["edges"] = {
            "num_edges": len(order) - int(pair.sum()),
            # the boundary half-edge ending at each vertex, -1 off the boundary
            "boundary_in": into}
        return self._cache["edges"]

    def _trace_boundary(self):
        into = self._edge_tables()["boundary_in"]
        ends = np.flatnonzero(into >= 0)
        starts = self.triangles.ravel()[into[ends]]
        # the boundary successor map sends j to i along each half-edge (i, j)
        nxt = dict(zip(ends.tolist(), starts.tolist()))
        seen = set()
        loops = []
        for start in sorted(nxt):
            if start in seen:
                continue
            loop = [start]
            seen.add(start)
            cur = nxt[start]
            while cur != start:
                if cur in seen:
                    raise NonManifoldError("boundary loops intersect")
                loop.append(cur)
                seen.add(cur)
                cur = nxt[cur]
            loops.append(np.asarray(loop, dtype=np.int64))
        loops.sort(key=lambda ring: int(ring.min()))
        return loops

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_edges(self):
        return self._edge_tables()["num_edges"]

    @property
    def is_closed(self):
        return len(self.boundary_loops) == 0

    @property
    def genus(self):
        """(2 - b - (V - E + F)) / 2: the genus of a connected mesh."""
        chi = self.num_vertices - self.num_edges + len(self.triangles)
        return (2 - len(self.boundary_loops) - chi) // 2

    @property
    def adjacency(self):
        if "adjacency" not in self._cache:
            tri = self.triangles
            i = np.concatenate([tri[:, 0], tri[:, 1], tri[:, 2]])
            j = np.concatenate([tri[:, 1], tri[:, 2], tri[:, 0]])
            n = self.num_vertices
            a = sp.coo_matrix((np.ones(len(i)), (i, j)), shape=(n, n))
            self._cache["adjacency"] = ((a + a.T) > 0).tocsr()
        return self._cache["adjacency"]

    # -- metric quantities --------------------------------------------------

    @property
    def face_geometry(self):
        """(cotangents (F,3), areas (F,)) computed from the face charts."""
        if "geometry" not in self._cache:
            # non-finite corners make invalid cotangents; the area check
            # below refuses them
            with np.errstate(invalid="ignore"):
                cots, areas = _kernels.tri_geometry(self.corners)
            ok = (areas > 0.0) & (areas < np.inf)  # NaN fails both
            if not np.all(ok):
                bad = int(np.argmin(ok))
                raise DegenerateTriangleError(
                    f"triangle {bad} has zero or non-finite area")
            self._cache["geometry"] = (cots, areas)
        return self._cache["geometry"]

    @property
    def vertex_areas(self):
        """Barycentric vertex areas: one third of incident face areas."""
        if "vertex_areas" not in self._cache:
            _, areas = self.face_geometry
            va = np.zeros(self.num_vertices)
            np.add.at(va, self.triangles.ravel(),
                      np.repeat(areas / 3.0, 3))
            self._cache["vertex_areas"] = va
        return self._cache["vertex_areas"]

    @property
    def stiffness(self):
        """Cotangent Dirichlet form as a CSR matrix; row sums are zero."""
        if "stiffness" not in self._cache:
            cots, _ = self.face_geometry
            tri = self.triangles
            ii, jj, vv = [], [], []
            for k in range(3):
                a = tri[:, (k + 1) % 3]
                b = tri[:, (k + 2) % 3]
                w = 0.5 * cots[:, k]
                ii.extend([a, b, a, b])
                jj.extend([b, a, a, b])
                vv.extend([-w, -w, w, w])
            n = self.num_vertices
            mat = sp.coo_matrix(
                (np.concatenate(vv),
                 (np.concatenate(ii), np.concatenate(jj))),
                shape=(n, n)).tocsr()
            mat.sum_duplicates()
            mat.eliminate_zeros()  # cotangent weights of right angles
            self._cache["stiffness"] = mat
        return self._cache["stiffness"]

    @property
    def edge_lengths(self):
        """Sparse symmetric matrix of metric edge lengths (from face charts)."""
        if "edge_lengths" not in self._cache:
            tri = self.triangles
            co = self.corners
            ii, jj, vv = [], [], []
            for k in range(3):
                a = tri[:, k]
                b = tri[:, (k + 1) % 3]
                ln = np.linalg.norm(co[:, (k + 1) % 3] - co[:, k], axis=1)
                ii.append(a)
                jj.append(b)
                vv.append(ln)
            n = self.num_vertices
            mat = sp.coo_matrix(
                (np.concatenate(vv),
                 (np.concatenate(ii), np.concatenate(jj))),
                shape=(n, n)).tocsr()
            mat = mat.maximum(mat.T)
            self._cache["edge_lengths"] = mat
        return self._cache["edge_lengths"]

    @property
    def mean_edge_length(self):
        el = self.edge_lengths
        return float(el.sum() / el.nnz)

    def scaled(self, factor):
        """Uniformly scaled copy (same conformal class)."""
        return TriMesh(self.vertices * factor, self.triangles,
                       corners=self.corners * factor,
                       orig_vertex_ids=self.orig_vertex_ids,
                       chart_meta=self.chart_meta)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

_ICO_T = (1.0 + math.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array([
    (-1, _ICO_T, 0), (1, _ICO_T, 0), (-1, -_ICO_T, 0), (1, -_ICO_T, 0),
    (0, -1, _ICO_T), (0, 1, _ICO_T), (0, -1, -_ICO_T), (0, 1, -_ICO_T),
    (_ICO_T, 0, -1), (_ICO_T, 0, 1), (-_ICO_T, 0, -1), (-_ICO_T, 0, 1),
], dtype=float)
_ICO_FACES = np.array([
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
], dtype=np.int64)


def build_sphere_mesh(subdivisions):
    """Icosahedron subdivided and projected to the unit sphere.

    V = 10 * 4**subdivisions + 2.
    """
    if subdivisions < 0:
        raise MeshError("subdivisions must be >= 0")
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS, axis=1, keepdims=True)
    faces = _ICO_FACES.copy()
    for _ in range(subdivisions):
        verts, faces = _subdivide(verts, faces)
    verts = verts / np.linalg.norm(verts, axis=1, keepdims=True)
    return TriMesh(verts, faces)


def _subdivide(verts, faces):
    """Split each face in four; edge midpoints are numbered in the order
    the face edges (a, b), (b, c), (c, a) first meet them."""
    src, dst, key = _half_edges(faces)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    label = np.empty_like(order)
    label[order] = len(verts) + np.arange(len(order))
    ab, bc, ca = label[inverse].reshape(-1, 3).T
    a, b, c = faces.T
    out = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1)
    p = verts[src[first[order]]] + verts[dst[first[order]]]
    # row dot products through matmul round like the 1-D np.linalg.norm
    p /= np.sqrt(p[:, None, :] @ p[:, :, None])[:, 0]
    return np.vstack([verts, p]), out.reshape(-1, 3)


def build_torus_mesh(modulus, resolution):
    """Flat torus for the lattice Z + modulus*Z on a resolution^2 grid.

    Vertex positions store the wrapped 2D chart (third coordinate 0); the
    exact flat metric lives in the per-face unwrapped chart, so triangles
    crossing the periodic seam carry correct geometry.
    """
    tau = complex(modulus)
    if tau.imag <= 0.0:
        raise MeshError("modulus must satisfy Im tau > 0")
    res = int(resolution)
    if res < 3:
        raise MeshError("resolution must be >= 3")
    basis = np.array([[1.0, 0.0, 0.0], [tau.real, tau.imag, 0.0]])
    g = (np.arange(res + 1) / res)[:, None]
    pos = g[None, :] * basis[0] + g[:, None] * basis[1]  # pos[j, i]
    verts = pos[:res, :res].reshape(-1, 3)
    # grid square (i, j), j-major, splits into the two faces whose corners
    # sit at these (i, j) offsets
    j, i = np.divmod(np.arange(res * res), res)
    ci = i[:, None, None] + np.array([[0, 1, 1], [0, 1, 0]])
    cj = j[:, None, None] + np.array([[0, 0, 1], [0, 1, 1]])
    faces = ((cj % res) * res + ci % res).reshape(-1, 3)
    corners = pos[cj, ci].reshape(-1, 3, 3)
    return TriMesh(verts, faces, corners=corners,
                   chart_meta={"tau_re": tau.real, "tau_im": tau.imag,
                               "res": res})


def torus_chart(mesh):
    """(tau, coords) of a mesh with a flat chart, None for any other mesh.

    coords holds each vertex's lattice coordinates in [0, 1)^2, read from
    its index in the res x res grid of `build_torus_mesh`
    (`orig_vertex_ids`, which `scaled` and `puncture` carry), so they do
    not depend on the mesh's scale or on the vertices it has lost.
    """
    meta = mesh.chart_meta
    if not meta:
        return None
    j, i = np.divmod(mesh.orig_vertex_ids, meta["res"])
    return (complex(meta["tau_re"], meta["tau_im"]),
            np.stack([i, j], axis=1) / meta["res"])


# ---------------------------------------------------------------------------
# spec operations
# ---------------------------------------------------------------------------

def area(mesh, density=None):
    """Total area of the metric density*g0 (the mass of `volume_measure`);
    density is None (the background metric) or a vertex array."""
    return float(np.sum(volume_measure(mesh, density)))


def validate_density(mesh, f):
    """Raise MeshError unless f, a vertex array, is a usable conformal
    density: finite, nonnegative, of positive total mass, and with zeros
    isolated (not vanishing on a whole triangle). Returns f."""
    if f.shape != (mesh.num_vertices,):
        raise MeshError("density shape mismatch")
    if not np.all(np.isfinite(f)):
        raise MeshError("density must be finite")
    if np.any(f < -1e-12):
        raise MeshError("density must be nonnegative")
    if area(mesh, f) <= 0.0:
        raise MeshError("density has zero total mass")
    zero = f <= 0.0
    if np.any(np.all(zero[mesh.triangles], axis=1)):
        raise MeshError("density vanishes on a whole triangle; "
                        "zeros must be isolated")
    return f


def curve_measure(mesh):
    """Length measure of the boundary.

    Vertex weights are half-sums of incident boundary edge lengths; total
    mass equals the boundary length. Each length comes from the face chart
    of the edge's one half-edge, as in `edge_lengths`.
    """
    loops = mesh.boundary_loops
    if not loops:
        raise MeshError("mesh has no boundary to measure")
    i = np.concatenate(loops)
    j = np.concatenate([np.roll(loop, -1) for loop in loops])
    # edge (i, j) is the boundary half-edge j -> i, the one ending at i
    t, k = np.divmod(mesh._edge_tables()["boundary_in"][i], 3)
    co = mesh.corners
    half = 0.5 * np.linalg.norm(co[t, (k + 1) % 3] - co[t, k], axis=1)
    # edge by edge, both ends in turn: the order of a sequential sum
    w = np.zeros(mesh.num_vertices)
    np.add.at(w, np.stack([i, j], axis=1).ravel(), np.repeat(half, 2))
    return w


def volume_measure(mesh, density=None):
    """Vertex weights of the lumped area measure of density*g0; density is
    None (the background metric) or a vertex array."""
    if density is None:
        return mesh.vertex_areas.copy()
    return density * mesh.vertex_areas


def geodesic_distances(mesh, sources):
    """Graph geodesic distances (Dijkstra on metric edge lengths) from a
    list of source vertices, as a (len(sources), V) array. Each source
    runs Dijkstra once per mesh (rows are memoised; results are copies)."""
    memo = mesh._cache.setdefault("geodesic_rows", {})
    keys = [int(s) for s in sources]
    missing = [s for s in dict.fromkeys(keys) if s not in memo]
    if missing:
        memo.update(zip(missing, dijkstra(mesh.edge_lengths, directed=False,
                                          indices=missing)))
    return np.array([memo[s] for s in keys]).reshape(len(keys),
                                                     mesh.num_vertices)


def puncture(mesh, centers, radius):
    """Remove metric disks around center vertices; returns the subdomain.

    radius is a scalar or one value per center. Whole triangles inside each
    disk are removed (no remeshing). Original vertex labels are kept in
    orig_vertex_ids, and the subdomain is a full `TriMesh`, so its edges
    are checked again. Each hole must remove a disk: the subdomain has one
    new boundary loop per center and the genus of the mesh, else
    MeshError. A hole that covers a handle leaves one loop but lowers the
    genus.
    """
    centers = [int(c) for c in centers]
    if not centers:
        return mesh
    radii = np.broadcast_to(np.asarray(radius, dtype=float),
                            (len(centers),))
    if np.any(radii <= 0.0):
        raise MeshError("puncture radius must be positive")
    dist = geodesic_distances(mesh, centers)
    for p in range(len(centers)):
        for q in range(p + 1, len(centers)):
            if dist[p, centers[q]] <= radii[p] + radii[q]:
                raise MeshError(
                    f"puncture disks at {centers[p]} and {centers[q]} overlap")
    # the overlap check makes the disks disjoint: label each vertex with
    # the disk that holds it, and remove the faces inside one disk
    inside = dist <= radii[:, None]
    label = np.where(inside.any(axis=0), np.argmax(inside, axis=0), -1)
    lab = label[mesh.triangles]
    keep = (lab[:, 0] < 0) | (lab.min(axis=1) != lab.max(axis=1))
    new_tri_old = mesh.triangles[keep]
    kept = np.zeros(mesh.num_vertices, dtype=bool)
    kept[new_tri_old] = True
    low = np.flatnonzero(kept[centers])  # a centre left on a kept face
    if len(low):
        p = low[0]
        raise MeshError(
            f"radius {radii[p]} below mesh resolution at vertex "
            f"{centers[p]}")
    used = np.flatnonzero(kept)
    remap = -np.ones(mesh.num_vertices, dtype=np.int64)
    remap[used] = np.arange(len(used))
    sub = TriMesh(mesh.vertices[used], remap[new_tri_old],
                  corners=mesh.corners[keep],
                  orig_vertex_ids=mesh.orig_vertex_ids[used],
                  chart_meta=mesh.chart_meta)
    if "geometry" in mesh._cache:  # tri_geometry works face by face
        sub._cache["geometry"] = tuple(g[keep]
                                       for g in mesh._cache["geometry"])
    expected = len(mesh.boundary_loops) + len(centers)
    if len(sub.boundary_loops) != expected:
        raise MeshError(
            f"puncture produced {len(sub.boundary_loops)} boundary loops, "
            f"expected {expected}; holes may merge (radius too large)")
    if sub.genus != mesh.genus:
        raise MeshError(
            f"puncture changed the genus from {mesh.genus} to {sub.genus}; "
            f"a hole covers a handle (radius too large)")
    return sub


def hole_centers(mesh, count, seed):
    """Hole centers: exact lattice on flat tori for square counts, a
    golden-ratio lattice for other counts (both homogenisation-friendly),
    farthest-point sampling on other meshes, punctured tori included."""
    if count < 1:
        raise MeshError(f"hole count must be >= 1, got {count}")
    if not _whole_chart(mesh):
        return _spread_centers(mesh, count, seed)
    k = int(round(np.sqrt(count)))
    if k * k == count:
        xy = [((i + 0.5) / k, (j + 0.5) / k)
              for j in range(k) for i in range(k)]
    else:
        xy = [((i + 0.5) / count, (i * _ICO_T) % 1.0) for i in range(count)]
    res = int(mesh.chart_meta["res"])
    return [(int(round(y * res)) % res) * res + int(round(x * res)) % res
            for x, y in xy]


def _spread_centers(mesh, count, seed):
    """Deterministic farthest-point sample of vertex indices."""
    centers = [int(np.random.default_rng(seed).integers(mesh.num_vertices))]
    dist = geodesic_distances(mesh, centers)[0]
    while len(centers) < count:
        centers.append(int(np.argmax(dist)))
        dist = np.minimum(dist, geodesic_distances(mesh, centers[-1:])[0])
    return centers


def hole_radius(mesh, holes, frac):
    """Radius of each of `holes` equal holes: frac times half their spacing
    sqrt(area / holes), floored at 2.1 h (h the mean edge length) to stay
    above the resolution `puncture` accepts; frac = 0 gives the floor."""
    return max(frac * 0.5 * np.sqrt(area(mesh) / holes),
               2.1 * mesh.mean_edge_length)


# ---------------------------------------------------------------------------
# OFF file I/O
# ---------------------------------------------------------------------------

def _whole_chart(mesh):
    """Whether mesh is a whole flat torus, the res x res grid that its
    chart_meta describes; `puncture` keeps chart_meta on a subdomain."""
    if not mesh.chart_meta:
        return False
    res = int(mesh.chart_meta["res"])
    return mesh.num_vertices == res * res \
        and len(mesh.triangles) == 2 * res * res


def save_mesh(mesh, path):
    """Write ASCII OFF; flat tori get a sidecar `<path>.chart` with tau/res.

    A punctured or scaled flat torus is refused (MeshError, nothing
    written): its chart sidecar could only restore the whole unit-scale
    torus.
    """
    meta = mesh.chart_meta
    if meta and not _whole_chart(mesh):
        raise MeshError("cannot save a punctured flat torus: its chart "
                        "sidecar describes only the whole torus")
    if meta and not np.array_equal(mesh.vertices, build_torus_mesh(
            complex(meta["tau_re"], meta["tau_im"]), meta["res"]).vertices):
        raise MeshError("cannot save a scaled flat torus: its chart "
                        "sidecar describes only the unit-scale torus")
    path = str(path)
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{mesh.num_vertices} {len(mesh.triangles)} 0\n")
        for p in mesh.vertices:
            fh.write(f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r}\n")
        for t in mesh.triangles:
            fh.write(f"3 {t[0]} {t[1]} {t[2]}\n")
    if mesh.chart_meta:
        with open(path + ".chart", "w") as fh:
            fh.write(f"tau_re={float(mesh.chart_meta['tau_re'])!r}\n")
            fh.write(f"tau_im={float(mesh.chart_meta['tau_im'])!r}\n")
            fh.write(f"res={int(mesh.chart_meta['res'])}\n")


def load_mesh(path):
    """Read an ASCII OFF file of one connected surface (else MeshError); a
    `<path>.chart` sidecar restores a flat torus."""
    path = str(path)
    sidecar = path + ".chart"
    if os.path.exists(sidecar):
        with open(sidecar) as fh:  # key=value lines; others are skipped
            meta = dict(map(str.strip, line.split("=", 1))
                        for line in fh if "=" in line)
        try:
            tau = complex(float(meta["tau_re"]), float(meta["tau_im"]))
            res = int(meta["res"])
        except (KeyError, ValueError) as exc:
            raise MeshError(f"bad chart sidecar {sidecar}: {exc}") from exc
        torus = build_torus_mesh(tau, res)
        nv, nf, _ = _read_off(path)
        if nv != torus.num_vertices or nf != len(torus.triangles):
            raise MeshError("OFF file does not match its chart sidecar")
        return torus
    mesh = TriMesh(*_parse_off(path))
    # a vertex that no face uses is a component of its own
    ncomp = connected_components(mesh.adjacency, directed=False)[0]
    if ncomp != 1:
        raise MeshError(f"OFF mesh must be one connected surface; it has "
                        f"{ncomp} connected components")
    return mesh


def _read_off(path):
    """Vertex and face counts of an ASCII OFF file, and the lines after its
    counts line, with comments and blank lines dropped."""
    with open(path) as fh:
        lines = [ln.split("#", 1)[0].strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != "OFF":
        raise MeshError("not an OFF file (missing OFF header)")
    if len(lines) < 2:
        raise MeshError("OFF file truncated")
    counts = lines[1].split()
    try:
        nv, nf = int(counts[0]), int(counts[1])
    except (ValueError, IndexError) as exc:
        raise MeshError("bad OFF counts line") from exc
    return nv, nf, lines[2:]


def _parse_off(path):
    nv, nf, body = _read_off(path)
    if len(body) < nv + nf:
        raise MeshError("OFF file truncated")
    try:
        verts = np.array([[float(x) for x in body[i].split()[:3]]
                          for i in range(nv)])
        # vertex count and three indices; a short line fails the reshape
        faces = np.array([[int(x) for x in body[i].split()[:4]]
                          for i in range(nv, nv + nf)],
                         dtype=np.int64).reshape(nf, 4)
    except ValueError as exc:
        raise MeshError(f"OFF parse error: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(verts).all(axis=-1))
    if len(bad):
        raise MeshError(f"OFF vertex {bad[0]} has a non-finite coordinate")
    if np.any(faces[:, 0] != 3):
        raise MeshError("only triangle faces are supported")
    faces = faces[:, 1:]
    if nf and (faces.min() < 0 or faces.max() >= nv):
        raise MeshError("face index out of range")
    return verts, faces
