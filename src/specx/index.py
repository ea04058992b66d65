"""Spectral and energy index/nullity of discrete harmonic maps, and the
index composition law under totally geodesic embeddings.

Both quadratic forms are assembled against the lumped energy-density mass
B = diag((K Phi . Phi)_i), i.e. the |dPhi|^2 measure; in that normalization
the spectral threshold sits at eigenvalue 1 (the induced-metric eigenvalue
2 for the half-density convention). The energy form is restricted to
pointwise-orthogonal sections through an explicit per-vertex orthonormal
tangent frame, which makes it the exact Hessian of the constrained
discrete energy at a discrete critical point. It is assembled as one
sparse matrix and its negative directions are counted on the pencil with
the lumped section mass, through the shift-invert solver of `spectra`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import spectra
from .harmonic import SphereMap, embed_map, energy_shares, tension_residual
from .mesh import MeshError


NORMALIZATION = "density |dPhi|^2, threshold 1"

RESIDUAL_WARN = 1e-2

MAX_PAIRS = 48  # eigenpair budget of the growing index solves

MARGIN_FACTOR = 0.05  # energy-index margin, in units of the mean density


@dataclass
class IndexReport:
    ind_S: int
    nul_S: int
    ind_E: int
    margins: list
    tension_residual: float  # of the indexed map; above RESIDUAL_WARN the
    # counts assume a harmonicity the map lacks

    def to_json_dict(self):
        return {
            "ind_S": int(self.ind_S),
            "nul_S": int(self.nul_S),
            "ind_E": int(self.ind_E),
            "margins": [float(m) for m in self.margins],
            "normalization": NORMALIZATION,
            "tension_residual": float(self.tension_residual),
        }


def _warn_if_not_harmonic(mesh, phi):
    _, agg = tension_residual(mesh, phi)
    if agg > RESIDUAL_WARN:
        warnings.warn(
            f"map has tension residual {agg:.3g}; index counts assume an "
            "approximately harmonic map", stacklevel=3)
    return agg


def _lowest_until(solve, bound, rank):
    """Ascending lowest eigenvalues from solve(k), which returns k+1 of
    them; k starts at 12 and doubles until the top value exceeds bound or
    the rank is used up."""
    k = min(12, rank - 1)
    while True:
        vals = solve(k)
        if vals[-1] > bound or k == rank - 1:
            return vals
        k = min(2 * k, rank - 1)
        if k > MAX_PAIRS:
            raise spectra.SolverError(
                "threshold eigenvalue not reached within MAX_PAIRS")


def spectral_index(mesh, phi: SphereMap, cluster_tol=1e-3):
    """(ind_S, nul_S): position and multiplicity of the threshold eigenvalue.

    Counts generalized eigenvalues of (K, B) with B the |dPhi|^2 lumped
    mass: ind_S is the number strictly below 1 (outside the threshold
    cluster), nul_S the multiplicity at 1 within cluster_tol.
    """
    _warn_if_not_harmonic(mesh, phi)
    return _spectral_index(mesh, phi, cluster_tol)


def _spectral_index(mesh, phi, cluster_tol):
    b = 2.0 * energy_shares(mesh, phi)
    if b.sum() <= 0.0:
        raise MeshError("zero-energy map has no induced spectral problem")
    b = np.maximum(b, 0.0)
    vals = _lowest_until(
        lambda k: spectra.solve_pencil(mesh, b, k,
                                       cluster_tol=cluster_tol).values,
        1.0 + 10 * cluster_tol, int(np.sum(b > 0)))
    in_cluster = np.abs(vals - 1.0) <= cluster_tol
    ind_s = int(np.sum(vals < 1.0 - cluster_tol))
    nul_s = int(np.sum(in_cluster))
    below = vals[vals < 1.0 - cluster_tol]
    above = vals[vals > 1.0 + cluster_tol]
    margins = []
    if len(vals[in_cluster]):
        margins.append(float(np.abs(vals[in_cluster] - 1.0).max()))
    if len(below):
        margins.append(float(1.0 - below.max()))
    if len(above):
        margins.append(float(above.min() - 1.0))
    return ind_s, nul_s, margins


def tangent_frames(phi: SphereMap):
    """Per-vertex orthonormal frames spanning the orthogonal complement of
    Phi(x), built by Gram-Schmidt from the canonical basis with the most
    Phi-parallel axis dropped (deterministic)."""
    vals = phi.values
    v, d = vals.shape
    rows = np.arange(v)
    drop = np.argmax(np.abs(vals), axis=1)
    # kept axes in increasing order: a, or a + 1 from the dropped one on
    axes = np.arange(d - 1) + (np.arange(d - 1) >= drop[:, None])
    frames = np.empty((v, d - 1, d))
    for a in range(d - 1):
        axis = axes[:, a]
        w = np.eye(d)[axis] - vals[rows, axis][:, None] * vals
        for j in range(a):
            prev = frames[:, j]
            w = w - np.einsum("vd,vd->v", w, prev)[:, None] * prev
        nrm = np.sqrt(np.einsum("vd,vd->v", w, w))
        if np.any(nrm < 1e-10):
            raise MeshError("tangent frame construction failed")
        frames[:, a] = w / nrm[:, None]
    return frames


def _second_variation(mesh, phi, frames):
    """Sparse second variation over pointwise-orthogonal sections in
    tangent-frame coordinates, and the potential b = |dPhi|^2 shares.

    Each stiffness entry K_ij gives the n x n block K_ij <t_i^a, t_j^b>;
    -b_i sits on the diagonal of vertex i's block. The matrix is exactly
    symmetric, since K is and block (j, i) is the transpose of block
    (i, j) term by term."""
    vals = phi.values
    norms = np.linalg.norm(vals, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise MeshError("energy index needs a unit-norm sphere map")
    if frames is None:
        frames = tangent_frames(phi)
    v, n, _ = frames.shape
    K = mesh.stiffness
    b = 2.0 * energy_shares(mesh, phi)
    G = np.einsum("ead,ebd->eab", frames[K.tocoo().row], frames[K.indices])
    blocks = sp.bsr_matrix((K.data[:, None, None] * G, K.indices, K.indptr),
                           shape=(v * n, v * n))
    Q = blocks.tocsr() - sp.diags(np.repeat(b, n))
    # the overlaps of a map's tangent directions with unused ambient axes
    # are exact zeros; stored, they would enter the LU as fill
    Q.eliminate_zeros()
    return Q, b


def energy_hessian(mesh, phi: SphereMap, frames=None):
    """Dense matrix of the second variation of energy over sections
    pointwise orthogonal to Phi, in tangent-frame coordinates."""
    return _second_variation(mesh, phi, frames)[0].toarray()


def energy_index(mesh, phi: SphereMap, frames=None):
    """Morse index of the energy at phi: negative directions of the second
    variation over pointwise-orthogonal sections.

    The sparse form Q is diagonalized against the lumped L2 product on
    sections, M = diag(vertex areas, repeated per frame vector), so
    eigenvalues carry PDE units: genuine negative directions of the
    Schroedinger-type operator sit at O(1) (e.g. -2 for extra coordinates
    of an embedded map) while the discretely broken Moebius null modes sit
    at -O(h^2). The margin is MARGIN_FACTOR times the area-mean e of the
    energy density (the operator's potential scale); eigenvalues below
    -margin are counted and the distances of the nearest kept/discarded
    eigenvalues to the threshold are reported.

    The stiffness part of Q is positive semidefinite, so Q >= -diag(b) and
    no eigenvalue lies below -max(b_i / m_i). The pencil (Q, M) is solved
    by shift-invert Lanczos with the shift sigma = -max(b_i / m_i) - e
    below that bound, so the lowest eigenvalues come first; more pairs are
    taken until the top one clears -margin.
    """
    _warn_if_not_harmonic(mesh, phi)
    return _energy_index(mesh, phi, frames)


def _energy_index(mesh, phi, frames):
    Q, b = _second_variation(mesh, phi, frames)
    va = mesh.vertex_areas
    e_scale = float(b.sum()) / float(va.sum())
    if e_scale <= 0.0:
        raise MeshError("zero-energy map has no energy index scale")
    margin = MARGIN_FACTOR * e_scale
    msec = np.repeat(va, phi.ambient_dim - 1)
    sigma = -float(np.max(b / va)) - e_scale
    evals = _lowest_until(
        lambda k: spectra._shift_invert(Q, msec, sigma, k + 1)[0],
        -margin, len(msec))
    ind_e = int(np.sum(evals < -margin))
    kept = evals[evals < -margin]
    rest = evals[evals >= -margin]
    margins = []
    if len(kept):
        margins.append(float(-margin - kept.max()))
    if len(rest):
        margins.append(float(rest.min() + margin))
    return ind_e, margins


def index_report(mesh, phi: SphereMap) -> IndexReport:
    """Both indices of phi and its tension residual, which is computed
    (and warned about) once."""
    residual = _warn_if_not_harmonic(mesh, phi)
    ind_s, nul_s, margins_s = _spectral_index(mesh, phi, 1e-3)
    ind_e, margins_e = _energy_index(mesh, phi, None)
    return IndexReport(ind_S=ind_s, nul_S=nul_s, ind_E=ind_e,
                       margins=margins_s + margins_e,
                       tension_residual=residual)


def check_composition_law(mesh, phi: SphereMap, m):
    """Both sides of ind_E(i . Phi) = ind_E(Phi) + (m - n) ind_S(Phi) for
    the totally geodesic embedding into the m-sphere, computed
    independently.

    The base indices (ind_E, ind_S) of phi do not depend on m; they are
    solved once per mesh and map values and memoised on the mesh, so checking several m repeats only the embedded solve.
    """
    n = phi.ambient_dim - 1
    if m < n:
        raise MeshError("embedding target dimension below the map's")
    embedded = embed_map(phi, m + 1)
    lhs, _ = energy_index(mesh, embedded)
    memo = mesh._cache.setdefault("composition_base", {})
    key = (phi.values.tobytes(), phi.values.shape)
    if key not in memo:
        memo[key] = (energy_index(mesh, phi)[0], spectral_index(mesh, phi)[0])
    ind_e, ind_s = memo[key]
    rhs = ind_e + (m - n) * ind_s
    return {"lhs": int(lhs), "rhs": int(rhs), "equal": lhs == rhs,
            "ind_E": int(ind_e), "ind_S": int(ind_s)}
