"""Spectral and energy index/nullity of discrete harmonic maps, the index
composition law under totally geodesic embeddings, and the `index` recipe
of the CLI.

Both quadratic forms are assembled against the lumped energy-density mass
B = diag((K Phi . Phi)_i), i.e. the |dPhi|^2 measure; in that normalization
the spectral threshold sits at eigenvalue 1 (the induced-metric eigenvalue
2 for the half-density convention). The energy form is restricted to
pointwise-orthogonal sections through an explicit per-vertex orthonormal
tangent frame, which makes it the exact Hessian of the constrained
discrete energy at a discrete critical point. It is assembled as one
sparse matrix.

Every count is the inertia of one sparse factorisation
(`spectra.count_below`): the eigenvalues of a pencil (A, M) below t are
the negative pivots of A - t M. The margins of the reports then come from
one shift-invert solve of just the lowest count + 1 pairs.

The counts assume a harmonic map. `index_report` and
`check_composition_law` return the tension residual they were judged by;
`spectral_index` and `energy_index` leave it to their caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import spectra
from .harmonic import (SphereMap, embed_map, energy_shares, harmonic_flow,
                       tension_residual)
from .mesh import MeshError


NORMALIZATION = "density |dPhi|^2, threshold 1"

RESIDUAL_WARN = 1e-2

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
        return dict(vars(self), normalization=NORMALIZATION)


def _density(mesh, phi):
    """The lumped |dPhi|^2 mass b of the spectral problem."""
    b = 2.0 * energy_shares(mesh, phi)
    if b.sum() <= 0.0:
        raise MeshError("zero-energy map has no induced spectral problem")
    return np.maximum(b, 0.0)


def spectral_index(mesh, phi: SphereMap):
    """(ind_S, nul_S, margins): position and multiplicity of the threshold
    eigenvalue.

    Counts generalized eigenvalues of (K, B) with B the |dPhi|^2 lumped
    mass: ind_S is the number strictly below 1 (outside the threshold
    cluster), nul_S the multiplicity at 1 within spectra.CLUSTER_TOL.
    For a harmonic map the threshold is the induced-metric eigenvalue 2
    (criterion 7); the counts assume phi harmonic, and `index_report`
    carries the tension residual they were judged by.
    """
    return _spectral_index(mesh, _density(mesh, phi))


def _spectral_index(mesh, b):
    """(ind_S, nul_S, margins) of the pencil (K, diag(b)), b >= 0.

    With tol = spectra.CLUSTER_TOL, ind_S is the inertia count of
    K - (1 - tol) B, and nul_S that of K - (1 + tol) B less ind_S
    (`spectra.count_below`). Where b vanishes on a vertex set Z, B is only
    semidefinite. Haynsworth's inertia additivity over the Schur
    complement onto s = supp(b) then gives
    inertia(K - t B) = inertia(K_ZZ) + inertia(S - t B_ss), with
    S = K_ss - K_sZ K_ZZ^-1 K_Zs, and the pencil (S, B_ss) has exactly the
    finite eigenvalues of (K, B). K_ZZ is positive definite when every
    component of Z touches supp(b): a vector x on Z with x^T K x = 0 lies
    in ker K, so it is constant on each component of the mesh, and each
    mesh component that meets Z then meets supp(b), where x is zero. So
    the negative pivots count exactly the finite eigenvalues below t; on
    a connected mesh that holds for any b != 0.

    The margins come from one solve of the lowest ind_S + nul_S + 1
    pairs, or of all of them if the rank is smaller: the half-width of the
    threshold cluster, the gap below it and the gap above it.
    """
    K = mesh.stiffness
    tol = spectra.CLUSTER_TOL
    ind_s = spectra.count_below(K, b, 1.0 - tol)
    nul_s = spectra.count_below(K, b, 1.0 + tol) - ind_s
    kk = min(ind_s + nul_s + 1, int(np.sum(b > 0)))
    vals = spectra.solve_pencil(mesh, b, kk - 1).values
    below, cluster, above = np.split(vals, [ind_s, ind_s + nul_s])
    margins = []
    if len(cluster):
        margins.append(float(np.abs(cluster - 1.0).max()))
    if len(below):
        margins.append(float(1.0 - below[-1]))
    if len(above):
        margins.append(float(above[0] - 1.0))
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


def _second_variation(mesh, phi):
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


def energy_hessian(mesh, phi: SphereMap):
    """Dense matrix of the second variation of energy over sections
    pointwise orthogonal to Phi, in tangent-frame coordinates."""
    return _second_variation(mesh, phi)[0].toarray()


def energy_index(mesh, phi: SphereMap):
    """Morse index of the energy at phi: negative directions of the second
    variation over pointwise-orthogonal sections, and margins.

    The sparse form Q is diagonalized against the lumped L2 product on
    sections, M = diag(vertex areas, repeated per frame vector), so
    eigenvalues carry PDE units: genuine negative directions of the
    Schroedinger-type operator sit at O(1) (e.g. -2 for extra coordinates
    of an embedded map) while the discretely broken Moebius null modes sit
    at -O(h^2). The margin is MARGIN_FACTOR times the area-mean e of the
    energy density (the operator's potential scale); the eigenvalues below
    -margin are counted, as the negative pivots of Q + margin M
    (`spectra.count_below`), and the distances of the nearest kept and
    discarded eigenvalues to the threshold are reported.

    The stiffness part of Q is positive semidefinite, so Q >= -diag(b) and
    no eigenvalue lies below -max(b_i / m_i). The margins come from one
    shift-invert Lanczos solve of the lowest ind_E + 1 pairs of (Q, M),
    with the shift sigma = -max(b_i / m_i) - e below that bound. Like
    `spectral_index`, it assumes phi harmonic.
    """
    ind_e, Q, msec, margin, sigma = _energy_count(mesh, phi)
    kk = min(ind_e + 1, len(msec))
    evals = spectra._shift_invert(Q, msec, sigma, kk)[0]
    margins = []
    if ind_e:
        margins.append(float(-margin - evals[ind_e - 1]))
    if kk > ind_e:
        margins.append(float(evals[ind_e] + margin))
    return ind_e, margins


def _energy_count(mesh, phi):
    """ind_E, and what the margins solve needs: Q, the section mass M's
    diagonal, the margin and a shift below the spectrum of (Q, M), as
    `energy_index` describes them."""
    Q, b = _second_variation(mesh, phi)
    va = mesh.vertex_areas
    e_scale = float(b.sum()) / float(va.sum())
    if e_scale <= 0.0:
        raise MeshError("zero-energy map has no energy index scale")
    margin = MARGIN_FACTOR * e_scale
    msec = np.repeat(va, phi.ambient_dim - 1)
    sigma = -float(np.max(b / va)) - e_scale
    return spectra.count_below(Q, msec, -margin), Q, msec, margin, sigma


def index_report(mesh, phi: SphereMap) -> IndexReport:
    """Both indices of phi and the tension residual they were judged by."""
    residual = tension_residual(mesh, phi)[1]
    ind_s, nul_s, margins_s = spectral_index(mesh, phi)
    ind_e, margins_e = energy_index(mesh, phi)
    return IndexReport(ind_S=ind_s, nul_S=nul_s, ind_E=ind_e,
                       margins=margins_s + margins_e,
                       tension_residual=residual)


def index_recipe(mesh, phi: SphereMap):
    """The `specx index` run: phi flowed 400 steps toward a harmonic map,
    then `index_report` of the flowed map. Returns (payload, ledger,
    tables, flags), with a flag when the tension residual exceeds
    RESIDUAL_WARN."""
    rep = index_report(mesh, harmonic_flow(mesh, phi, steps=400))
    flags = []
    if rep.tension_residual > RESIDUAL_WARN:
        flags.append(("index", f"map has tension residual "
                      f"{rep.tension_residual:.3g} (above {RESIDUAL_WARN}); "
                      "index counts assume an approximately harmonic map"))
    return rep.to_json_dict(), [("ind_S", int(rep.ind_S))], {}, flags


def check_composition_law(mesh, phi: SphereMap, m):
    """Both sides of ind_E(i . Phi) = ind_E(Phi) + (m - n) ind_S(Phi) for
    the totally geodesic embedding into the m-sphere, computed
    independently.

    Each index is one inertia count (`spectra.count_below`), so no
    eigenpair is solved for. The result carries phi's tension residual,
    which the counts were judged by.
    """
    n = phi.ambient_dim - 1
    if m < n:
        raise MeshError("embedding target dimension below the map's")
    lhs = _energy_count(mesh, embed_map(phi, m + 1))[0]
    ind_e = _energy_count(mesh, phi)[0]
    ind_s = spectra.count_below(mesh.stiffness, _density(mesh, phi),
                                1.0 - spectra.CLUSTER_TOL)
    rhs = ind_e + (m - n) * ind_s
    return {"lhs": int(lhs), "rhs": int(rhs), "equal": lhs == rhs,
            "ind_E": int(ind_e), "ind_S": int(ind_s),
            "tension_residual": tension_residual(mesh, phi)[1]}
