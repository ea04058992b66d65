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
from dataclasses import dataclass

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

    The edge checks (degenerate faces, non-manifold edges, inconsistent
    orientation) always run. validate=False skips only the boundary trace,
    which leaves boundary_loops empty even on an open mesh, and the Euler
    check.
    """

    def __init__(self, vertices, triangles, genus_hint=None, corners=None,
                 orig_vertex_ids=None, chart_meta=None, validate=True):
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
        if validate:
            self.boundary_loops = self._trace_boundary()
        else:
            self.boundary_loops = []
        v = len(self.vertices)
        e = self.num_edges
        f = len(self.triangles)
        b = len(self.boundary_loops)
        if genus_hint is None:
            genus_hint = (2 - b - (v - e + f)) // 2 if self.is_connected else 0
        self.genus_hint = int(genus_hint)
        if validate and self.is_connected:
            if v - e + f != 2 - 2 * self.genus_hint - b:
                raise MeshError(
                    f"Euler formula violated: V-E+F={v - e + f}, "
                    f"expected {2 - 2 * self.genus_hint - b}")

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
        # stands alone; the boundary successor map sends j to i
        lone = np.ones(len(order), dtype=bool)
        lone[1:] &= ~pair
        lone[:-1] &= ~pair
        bnd = np.sort(order[lone])
        fans, fan_first = np.unique(dst[bnd], return_index=True)
        if len(fans) < len(bnd):
            q = np.setdiff1d(np.arange(len(bnd)), fan_first)[0]
            raise NonManifoldError(
                f"vertex {dst[bnd[q]]} has multiple boundary fans")
        self._cache["edges"] = {
            "num_edges": len(order) - int(pair.sum()),
            "boundary_next": dict(zip(dst[bnd].tolist(), src[bnd].tolist()))}
        return self._cache["edges"]

    def _trace_boundary(self):
        nxt = self._edge_tables()["boundary_next"]
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
    def is_connected(self):
        if "connected" not in self._cache:
            adj = self.adjacency
            ncomp, _ = connected_components(adj, directed=False)
            self._cache["connected"] = ncomp == 1
        return self._cache["connected"]

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
            cots, areas = _kernels.tri_geometry(self.corners)
            if np.any(areas <= 0.0):
                bad = int(np.argmin(areas))
                raise DegenerateTriangleError(
                    f"triangle {bad} has zero area")
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
                       genus_hint=self.genus_hint,
                       corners=self.corners * factor,
                       orig_vertex_ids=self.orig_vertex_ids,
                       chart_meta=self.chart_meta)


@dataclass
class ConformalDensity:
    """Nonnegative per-vertex density multiplying the background metric."""

    f: np.ndarray

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=float)

    def validate(self, mesh):
        if self.f.shape != (mesh.num_vertices,):
            raise MeshError("density shape mismatch")
        if np.any(self.f < -1e-12):
            raise MeshError("density must be nonnegative")
        if area(mesh, self) <= 0.0:
            raise MeshError("density has zero total mass")
        zero = self.f <= 0.0
        if np.any(np.all(zero[mesh.triangles], axis=1)):
            raise MeshError("density vanishes on a whole triangle; "
                            "zeros must be isolated")
        return self


@dataclass
class MeshMeasure:
    """Vertex-lumped Radon measure (volume-type or boundary-curve-type)."""

    kind: str  # "volume" | "curve"
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.kind not in ("volume", "curve"):
            raise MeshError(f"unknown measure kind {self.kind!r}")

    @property
    def mass(self):
        return float(self.weights.sum())

    def scaled(self, c):
        return MeshMeasure(self.kind, self.weights * c)


@dataclass
class SymmetricForm:
    """Sparse symmetric quadratic form on vertex functions."""

    matrix: sp.spmatrix

    @property
    def dimension(self):
        return self.matrix.shape[0]

    @property
    def diagonal(self):
        return self.matrix.diagonal()

    def __call__(self, u):
        return float(u @ (self.matrix @ u))


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
    return TriMesh(verts, faces, genus_hint=0)


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
    return TriMesh(verts, faces, genus_hint=1,
                   corners=corners,
                   chart_meta={"tau_re": tau.real, "tau_im": tau.imag,
                               "res": res})


# ---------------------------------------------------------------------------
# spec operations
# ---------------------------------------------------------------------------

def stiffness_matrix(mesh):
    """Cotangent Dirichlet form; depends only on the conformal class."""
    return SymmetricForm(mesh.stiffness)


def mass_matrix(mesh, density=None):
    """Lumped (diagonal) mass matrix for the metric density*g0."""
    f = _density_values(mesh, density)
    w = f * mesh.vertex_areas
    if w.sum() <= 0.0:
        raise MeshError("mass matrix has zero total mass")
    return SymmetricForm(sp.diags(w).tocsr())


def area(mesh, density=None):
    """Total area of the metric density*g0 (equals mass-matrix trace)."""
    f = _density_values(mesh, density)
    return float(np.sum(f * mesh.vertex_areas))


def _density_values(mesh, density):
    if density is None:
        return np.ones(mesh.num_vertices)
    if isinstance(density, ConformalDensity):
        return density.f
    return np.asarray(density, dtype=float)


def curve_measure(mesh, loop_ids=None):
    """Length measure of selected boundary loops.

    Vertex weights are half-sums of incident boundary edge lengths; total
    mass equals the length of the selected loops.
    """
    if loop_ids is None:
        loop_ids = list(range(len(mesh.boundary_loops)))
    loop_ids = list(loop_ids)
    if not loop_ids:
        raise MeshError("empty boundary loop selection")
    if any(i < 0 or i >= len(mesh.boundary_loops) for i in loop_ids):
        raise MeshError("loop id out of range (interior loops do not exist)")
    loops = [mesh.boundary_loops[lid] for lid in loop_ids]
    i = np.concatenate(loops)
    j = np.concatenate([np.roll(loop, -1) for loop in loops])
    half = 0.5 * np.asarray(mesh.edge_lengths[i, j]).ravel()
    # edge by edge, both ends in turn: the order of a sequential sum
    w = np.zeros(mesh.num_vertices)
    np.add.at(w, np.stack([i, j], axis=1).ravel(), np.repeat(half, 2))
    return MeshMeasure("curve", w)


def volume_measure(mesh, density=None):
    """Vertex-lumped area measure of density*g0."""
    f = _density_values(mesh, density)
    return MeshMeasure("volume", f * mesh.vertex_areas)


def geodesic_distances(mesh, sources):
    """Graph geodesic distances (Dijkstra on metric edge lengths): a row
    for a scalar source, a (len(sources), V) array for a list. Each source
    runs Dijkstra once per mesh (rows are memoised; results are copies)."""
    memo = mesh._cache.setdefault("geodesic_rows", {})
    keys = np.atleast_1d(sources).tolist()
    missing = [s for s in dict.fromkeys(keys) if s not in memo]
    if missing:
        memo.update(zip(missing, dijkstra(mesh.edge_lengths, directed=False,
                                          indices=missing)))
    rows = np.array([memo[s] for s in keys]).reshape(len(keys),
                                                     mesh.num_vertices)
    return rows[0] if np.ndim(sources) == 0 else rows


def puncture(mesh, centers, radius):
    """Remove metric disks around center vertices; returns the subdomain.

    radius is a scalar or one value per center. Whole triangles inside each
    disk are removed (no remeshing); one new boundary loop appears per
    center and the Euler characteristic drops by one per hole. Original
    vertex labels are kept in orig_vertex_ids.
    """
    centers = [int(c) for c in centers]
    if not centers:
        return mesh
    radii = np.broadcast_to(np.asarray(radius, dtype=float),
                            (len(centers),))
    if np.any(radii <= 0.0):
        raise MeshError("puncture radius must be positive")
    dist = np.atleast_2d(geodesic_distances(mesh, centers))
    for p in range(len(centers)):
        for q in range(p + 1, len(centers)):
            if dist[p, centers[q]] <= radii[p] + radii[q]:
                raise MeshError(
                    f"puncture disks at {centers[p]} and {centers[q]} overlap")
    tri = mesh.triangles
    removed = np.zeros(len(tri), dtype=bool)
    for p in range(len(centers)):
        inside = dist[p] <= radii[p]
        rm = np.all(inside[tri], axis=1)
        star = np.any(tri == centers[p], axis=1)
        if not np.all(rm[star]):
            raise MeshError(
                f"radius {radii[p]} below mesh resolution at vertex "
                f"{centers[p]}")
        removed |= rm
    keep = ~removed
    new_tri_old = tri[keep]
    used = np.unique(new_tri_old)
    remap = -np.ones(mesh.num_vertices, dtype=np.int64)
    remap[used] = np.arange(len(used))
    sub = TriMesh(mesh.vertices[used], remap[new_tri_old],
                  genus_hint=mesh.genus_hint,
                  corners=mesh.corners[keep],
                  orig_vertex_ids=mesh.orig_vertex_ids[used],
                  chart_meta=mesh.chart_meta)
    expected = len(mesh.boundary_loops) + len(centers)
    if len(sub.boundary_loops) != expected:
        raise MeshError(
            f"puncture produced {len(sub.boundary_loops)} boundary loops, "
            f"expected {expected}; holes may merge (radius too large)")
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
    dist = geodesic_distances(mesh, centers[0])
    while len(centers) < count:
        centers.append(int(np.argmax(dist)))
        dist = np.minimum(dist, geodesic_distances(mesh, centers[-1]))
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
    """Read an ASCII OFF file; a `<path>.chart` sidecar restores a flat torus."""
    path = str(path)
    sidecar = path + ".chart"
    if os.path.exists(sidecar):
        meta = {}
        with open(sidecar) as fh:
            for line in fh:
                line = line.strip()
                if not line or "=" not in line:
                    continue
                key, val = line.split("=", 1)
                meta[key.strip()] = val.strip()
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
    verts, faces = _parse_off(path)
    return TriMesh(verts, faces)


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
    if np.any(faces[:, 0] != 3):
        raise MeshError("only triangle faces are supported")
    faces = faces[:, 1:]
    if nf and (faces.min() < 0 or faces.max() >= nv):
        raise MeshError("face index out of range")
    return verts, faces
