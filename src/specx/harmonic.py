"""Sphere-valued maps: Dirichlet energy, tension residuals, projected flow,
induced conformal densities, and conformality diagnostics.

The discrete energy density at a vertex is the cotangent-split lumping of
the incident face Dirichlet contributions, e_i = (K Phi . Phi)_i / A_i.
With this choice the identities energy == total density mass and
<residual_i, Phi_i> == 0 hold exactly, and the second variation assembled
in the index module is the exact Hessian of the constrained discrete
energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import torus_chart


class MapError(ValueError):
    pass


@dataclass
class SphereMap:
    """Per-vertex unit vectors in R^(n+1), a discrete map into the sphere."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] < 3:
            raise MapError("sphere map needs ambient dimension >= 3")
        norms = np.linalg.norm(self.values, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-12):  # NaN fails too
            raise MapError("sphere map values must be unit vectors")

    @property
    def ambient_dim(self):
        return self.values.shape[1]


def _row_sum(x, y):
    """Row-wise inner products of two (V, d) arrays, summed column by
    column. Below 8 columns this rounds exactly as np.sum(x * y, axis=1)
    and np.linalg.norm do, at a third of their cost on (642, 3) arrays."""
    s = x[:, 0] * y[:, 0]
    for k in range(1, x.shape[1]):
        s += x[:, k] * y[:, k]
    return s


def normalize_rows(values):
    """Each row divided by its Euclidean norm; MapError on a zero or
    non-finite row."""
    n2 = _row_sum(values, values)
    ok = (n2 > 0.0) & (n2 < np.inf)  # NaN fails both
    if not np.all(ok):
        raise MapError(f"cannot normalize row {int(np.argmin(ok))} to the "
                       "sphere: it is zero or not finite")
    return values / np.sqrt(n2)[:, None]


def _sphere_directions(mesh, what):
    """The unit directions of the vertices from the origin; MapError unless
    the vertices lie on one sphere centred there, their radii spreading by
    at most 1e-9 relative."""
    r = np.linalg.norm(mesh.vertices, axis=1)
    spread = float(np.ptp(r) / r.max())
    if not spread <= 1e-9:
        raise MapError(f"{what} needs vertices on one sphere centred at the "
                       f"origin; their radii spread by {spread:.3g} relative")
    return normalize_rows(mesh.vertices)


def identity_sphere_map(mesh):
    """Vertex directions as a map to the 2-sphere in R^3 (`embed_map` pads
    it into a larger sphere): radial projection, which is conformal only
    when the vertices lie on one sphere centred at the origin, so any
    other mesh is refused (MapError)."""
    return SphereMap(_sphere_directions(mesh, "identity map"))


def embed_map(phi: SphereMap, ambient_dim):
    """Totally geodesic embedding into a sphere of at least phi's dimension
    (zero padding; a copy at the same dimension)."""
    if ambient_dim < phi.ambient_dim:
        raise MapError("target ambient dimension too small")
    pad = np.zeros((len(phi.values), ambient_dim - phi.ambient_dim))
    return SphereMap(np.hstack([phi.values, pad]))


def base_map(mesh, n):
    """The base map of the `vc`, `glminmax` and `index` recipes, into S^n:
    the collapse map on a mesh with a flat chart (`mesh.torus_chart`), the
    identity elsewhere, each embedded in R^(n+1) when n > 2."""
    base = (identity_sphere_map(mesh) if torus_chart(mesh) is None
            else torus_collapse_map(mesh))
    return embed_map(base, n + 1) if n > 2 else base


def _lattice(mesh):
    """`mesh.torus_chart` of a torus map's mesh, which must have one."""
    chart = torus_chart(mesh)
    if chart is None:
        raise MapError("torus map needs a mesh with a flat chart")
    return chart


def torus_clifford_map(mesh):
    """Conformal immersion of the square torus into the 3-sphere,
    (cos 2pi x, sin 2pi x, cos 2pi y, sin 2pi y)/sqrt(2).

    Exactly conformal for the square class (tau = i); for other moduli it
    is still a valid sphere-valued map but no longer conformal.
    """
    ang = 2.0 * np.pi * _lattice(mesh)[1]
    vals = np.stack([np.cos(ang[:, 0]), np.sin(ang[:, 0]),
                     np.cos(ang[:, 1]), np.sin(ang[:, 1])], axis=1)
    return SphereMap(vals / np.sqrt(2.0))


def torus_collapse_map(mesh):
    """Degree-one Lipschitz map from a flat torus to the sphere.

    The inscribed disk of the fundamental cell wraps once over the sphere
    (colatitude proportional to the chart radius); the complement collapses
    to the north pole, so the map descends to the torus.
    """
    tau, coords = _lattice(mesh)
    basis = np.array([[1.0, tau.real], [0.0, tau.imag]])
    center = coords - 0.5
    r = np.linalg.norm(center @ basis.T, axis=1)
    r_max = 0.5 * min(1.0, abs(tau))  # inscribed radius in the chart metric
    # 0 at the cell center, pi on the collapsed region
    theta = np.pi * np.minimum(r / r_max, 1.0)
    alpha = np.arctan2(center[:, 1], center[:, 0])
    vals = np.stack([np.sin(theta) * np.cos(alpha),
                     np.sin(theta) * np.sin(alpha),
                     np.cos(theta)], axis=1)
    return SphereMap(normalize_rows(vals))


def power_map(mesh):
    """Degree-2 branched conformal self-map of the sphere (z to z^2 in a
    stereographic chart), evaluated with pole-stable half-angle formulas.

    Vertices must lie on one sphere centred at the origin; the two poles
    are branch points and map to themselves.
    """
    v = _sphere_directions(mesh, "power map")
    theta = np.arccos(np.clip(v[:, 2], -1.0, 1.0))
    half = np.tan(0.5 * theta)
    theta_new = 2.0 * np.arctan(half ** 2)
    phi_az = np.arctan2(v[:, 1], v[:, 0])
    s = np.sin(theta_new)
    out = np.stack([s * np.cos(2 * phi_az), s * np.sin(2 * phi_az),
                    np.cos(theta_new)], axis=1)
    return SphereMap(normalize_rows(out))


# ---------------------------------------------------------------------------
# energy and density
# ---------------------------------------------------------------------------

def energy(mesh, phi):
    """Dirichlet energy 0.5 * sum_a v_a^T K v_a; conformally invariant."""
    vals = _values(phi)
    K = mesh.stiffness
    return 0.5 * float(np.sum(vals * (K @ vals)))


def _values(phi):
    """The (V, d) array of a SphereMap or of an array."""
    return np.asarray(getattr(phi, "values", phi), dtype=float)


def energy_shares(mesh, phi):
    """Per-vertex lumped 0.5*|dPhi|^2 shares; sums exactly to energy().

    Roundoff-level shares are snapped to zero so constant maps yield an
    exactly degenerate density.
    """
    vals = _values(phi)
    shares = 0.5 * np.sum(vals * (mesh.stiffness @ vals), axis=1)
    shares[np.abs(shares) <= 1e-12] = 0.0
    return shares


def energy_density(mesh, phi):
    """Energy density 0.5*|dPhi|^2 as vertex values of a conformal density.

    Total lumped mass equals energy(mesh, phi) exactly. The result may
    vanish (constant map) or have isolated zeros (branch points); callers
    using it as a metric must check it with `mesh.validate_density`.
    """
    shares = energy_shares(mesh, phi)
    return np.maximum(shares / mesh.vertex_areas, 0.0)


def tension_residual(mesh, phi):
    """Residual of the discrete harmonic map equation.

    Returns (per_vertex, aggregate): per-vertex norms of the tangentially
    projected (K Phi - diag(e) M Phi) divided by the vertex areas, and the
    dimensionless aggregate L2 norm relative to the L2 size of the energy
    density e = |dPhi|^2.
    """
    vals = _values(phi)
    K = mesh.stiffness
    va = mesh.vertex_areas
    kphi = K @ vals
    coupling = np.sum(kphi * vals, axis=1)  # (K Phi . Phi)_i = e_i A_i
    r = kphi - coupling[:, None] * vals
    # exact tangential projection (coupling already removes the normal part
    # for unit maps; re-project to guard against roundoff)
    r -= np.sum(r * vals, axis=1)[:, None] * vals
    per_vertex = np.linalg.norm(r, axis=1) / va
    e = coupling / va
    norm_e = np.sqrt(np.sum(va * e * e))
    aggregate = float(np.sqrt(np.sum(va * per_vertex ** 2))
                      / max(norm_e, 1e-300))
    return per_vertex, aggregate


def harmonic_flow(mesh, phi0, steps=100):
    """Explicit projected tension-field flow toward discrete harmonic maps.

    Phi <- normalize(Phi - dt * M^{-1}(K Phi - diag(e) M Phi)) with dt half
    the stability bound 1 / max(K_ii / A_i). The update is exactly
    tangential, so the pointwise norm can only grow before the projection
    and the unit constraint is restored exactly each step.

    A step is one stiffness product and in-place updates in the order of
    the formula; the coupling (K Phi . Phi)_i and the squared norms are
    `_row_sum`s, so below 8 columns every step rounds as the same formula
    written with np.sum and np.linalg.norm does.
    """
    vals = _values(phi0).copy()
    K = mesh.stiffness
    va = mesh.vertex_areas
    rate = K.diagonal() / va
    dt = 0.5 * (1.0 / rate.max())
    # a non-finite start makes invalid steps, which normalize_rows refuses
    with np.errstate(invalid="ignore"):
        for _ in range(steps):
            step = K @ vals
            step -= _row_sum(step, vals)[:, None] * vals
            step /= va[:, None]
            step *= dt
            vals -= step
            vals = normalize_rows(vals)
    return SphereMap(vals)


# ---------------------------------------------------------------------------
# Hopf differential
# ---------------------------------------------------------------------------

def _face_charts(mesh):
    """Isometric 2D chart per face with the first edge on the real axis."""
    co = mesh.corners
    e1 = co[:, 1] - co[:, 0]
    e2 = co[:, 2] - co[:, 0]
    l1 = np.linalg.norm(e1, axis=1)
    xhat = e1 / l1[:, None]
    x2 = np.sum(e2 * xhat, axis=1)
    yvec = e2 - x2[:, None] * xhat
    y2 = np.linalg.norm(yvec, axis=1)
    return l1, x2, y2


def hopf_differential(mesh, phi):
    """Per-face Hopf differential |Phi_x|^2 - |Phi_y|^2 - 2i<Phi_x, Phi_y>
    in the deterministic face chart (first edge = real axis), as a complex
    array of length F."""
    vals = _values(phi)
    tri = mesh.triangles
    l1, x2, y2 = _face_charts(mesh)
    v0 = vals[tri[:, 0]]
    v1 = vals[tri[:, 1]]
    v2 = vals[tri[:, 2]]
    # gradient of the linear interpolant in chart coordinates
    dx = (v1 - v0) / l1[:, None]
    dy = (v2 - v0 - x2[:, None] * dx) / y2[:, None]
    return (np.sum(dx * dx, axis=1) - np.sum(dy * dy, axis=1)
            - 2.0j * np.sum(dx * dy, axis=1))
