"""Generalized eigenvalue computations, conformal maximization of the
first normalized eigenvalue, and the Steklov perforation sweep.

All solves are of pencil type K v = lambda B v with the cotangent stiffness
K and a diagonal nonnegative right-hand form B, and all go through one
shift-invert path (`_shift_invert`, behind `solve_pencil`; the energy
index of `index` runs its sparse second variation through it too): one
sparse LU of K - sigma B, then the symmetric standard form on the support
of B. Rank-deficient B (boundary measures, point masses, conical zeros)
needs no special case: the eigenvectors come back discrete-harmonic off
supp(B), as from the Schur complement onto supp(B).

Every sparse matrix factored here is symmetric positive definite: K - sigma
B with sigma below the spectrum, and the lumped heat step diag(A) + t K.
So all factorisations go through `_spd_factor`, which orders on the
pattern of A + A^T and pivots on the diagonal; on these meshes that about
halves the LU fill of SuperLU's unsymmetric defaults.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .mesh import (ConformalDensity, MeshError, MeshMeasure, area,
                   curve_measure, geodesic_distances, hole_centers,
                   hole_radius, puncture, volume_measure)


class SolverError(RuntimeError):
    pass


class RankError(SolverError):
    pass


CLUSTER_MARGIN = 3  # Lanczos pairs beyond k+1, so a cluster is not cut


@dataclass
class Spectrum:
    """Ascending eigenvalues with B-orthonormal eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray  # (V, k+1), harmonically extended off supp(B)
    residuals: np.ndarray
    mass: float
    cluster_tol: float = 1e-3

    def normalized(self):
        return self.values * self.mass

    def to_json_dict(self):
        return {
            "values": [float(v) for v in self.values],
            "residuals": [float(r) for r in self.residuals],
            "mass": float(self.mass),
            "normalized": [float(v) for v in self.normalized()],
        }


@dataclass
class MaximizerReport:
    density: ConformalDensity
    lambda_bar: float
    iterations: int
    stationarity_gap: float
    converged: bool = True
    weak_gap: float = 0.0
    measure_rank: int = 0

    def to_json_dict(self):
        return {
            "lambda_bar": float(self.lambda_bar),
            "iterations": int(self.iterations),
            "stationarity_gap": float(self.stationarity_gap),
            "converged": bool(self.converged),
            "weak_gap": float(self.weak_gap),
            "measure_rank": int(self.measure_rank),
            "density": [float(x) for x in self.density.f],
        }


# ---------------------------------------------------------------------------
# pencil solver
# ---------------------------------------------------------------------------

def _check_support(mesh, b, expect_disconnected=False):
    support = b > 0.0
    ns = int(support.sum())
    if ns == 0:
        raise RankError("right-hand form is identically zero")
    if ns < mesh.num_vertices and not expect_disconnected:
        sub = mesh.adjacency[support][:, support]
        ncomp, _ = connected_components(sub, directed=False)
        if ncomp > 1:
            warnings.warn(
                f"measure support splits into {ncomp} components; "
                "eigenvectors may localize", stacklevel=3)
    return ns


def solve_pencil(mesh, b, k, cluster_tol=1e-3, seed=0,
                 expect_disconnected=False):
    """First k+1 eigenpairs of K v = lambda diag(b) v.

    One shift-invert solve (`_shift_invert`) for every pencil, with
    sigma = -1e-3 tr K / sum b < 0, so that K - sigma B is positive
    definite. The vectors are B-orthonormal and discrete-harmonic off
    supp(b), so a rank-deficient b (boundary measures, point masses,
    conical zeros) needs no separate restriction.
    """
    K = mesh.stiffness
    b = np.asarray(b, dtype=float)
    n = mesh.num_vertices
    if b.shape != (n,):
        raise MeshError("right-hand form shape mismatch")
    rank = _check_support(mesh, b, expect_disconnected)
    kk = k + 1
    if kk > rank:
        raise RankError(
            f"requested {kk} eigenpairs but the form has rank {rank}")
    sigma = -1e-3 * float(K.diagonal().sum() / b.sum())
    vals, vecs = _shift_invert(K, b, sigma, kk, seed)
    resid = _residuals(K, b, vals, vecs)
    return Spectrum(values=vals, vectors=vecs, residuals=resid,
                    mass=float(b.sum()), cluster_tol=cluster_tol)


def _spd_factor(A):
    """Sparse LU of a symmetric positive definite A, in SuperLU's symmetric
    mode: a minimum-degree ordering of the pattern of A + A^T, applied to
    rows and columns alike, and pivots taken on the diagonal.

    The caller must pass an SPD matrix. Its diagonal pivots are then all
    positive and the factorisation is stable without row interchanges;
    nothing here checks this, since reading the factors back would cost
    memory on every call.
    """
    return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


def _shift_invert(A, m, sigma, kk, seed=0):
    """Lowest kk eigenpairs of the pencil A v = lambda diag(m) v.

    A is sparse symmetric, m >= 0 and the shift sigma lies below the
    spectrum, so that A - sigma diag(m) is positive definite; that is the
    precondition of `_spd_factor`, which factors it. `solve_pencil` meets it
    with sigma < 0 against the semidefinite stiffness, `index.energy_index`
    with sigma below the lower bound -max(b_i / m_i) of its Morse form.
    One sparse LU of A - sigma diag(m), then
    C = M_s^{1/2} [(A - sigma M)^{-1}]_{ss} M_s^{1/2} on s = supp(m) is
    diagonalized for its largest mu:
    lambda = sigma + 1/mu, v = (lambda - sigma) (A - sigma M)^{-1} M^{1/2} x.
    The vectors are M-orthonormal and A-harmonic off supp(m). Lanczos
    (ARPACK) takes a few pairs beyond kk so that a degenerate cluster is not
    cut; a dense eigh of C takes over when the rank is too small for Lanczos
    to save work. Returns ascending values and their vectors.
    """
    n = A.shape[0]
    shifted = A.tocsc(copy=True)
    shifted.setdiag(A.diagonal() - sigma * m)
    lu = _spd_factor(shifted)
    s_idx = np.flatnonzero(m > 0.0)
    rank = len(s_idx)
    root = np.sqrt(m[s_idx])

    def lift(x):  # M^{1/2} x as full-length columns
        out = np.zeros((n, x.shape[1]))
        out[s_idx] = root[:, None] * x
        return out

    nev = kk + CLUSTER_MARGIN
    # ncv >= 40: with ARPACK's default of 20 the solve stalled for minutes
    # on a multiplicity-3 cluster of a res-192 torus
    ncv = max(40, 2 * nev + 1)
    # ARPACK needs rank > ncv, and up to about twice that materializing C
    # costs less than the Lanczos restarts
    if rank <= 2 * ncv:
        X = lu.solve(lift(np.eye(rank)))  # (A - sigma M)^{-1} M^{1/2}
        C = root[:, None] * X[s_idx]
        mu, x = sla.eigh(0.5 * (C + C.T),
                         subset_by_index=[rank - kk, rank - 1])
        vecs = X @ x
    else:
        buf = np.zeros(n)  # zero off supp(m); one buffer for all matvecs

        def apply_c(y):
            buf[s_idx] = root * y
            return root * lu.solve(buf)[s_idx]

        op = spla.LinearOperator((rank, rank), matvec=apply_c, dtype=float)
        v0 = np.random.default_rng(seed).standard_normal(rank)
        try:
            mu, x = spla.eigsh(op, k=nev, which="LA", ncv=ncv, v0=v0)
        except spla.ArpackError as exc:
            raise SolverError(f"eigensolver failed: {exc}") from exc
        top = np.argsort(mu)[-kk:]
        mu = mu[top]
        vecs = lu.solve(lift(x[:, top]))
    order = np.argsort(-mu)  # ascending lambda
    mu = mu[order]
    return sigma + 1.0 / mu, vecs[:, order] / mu


def _residuals(K, b, vals, vecs):
    # floor the denominator so the kernel pair (lambda=0, Kv~roundoff) does
    # not report a 0/0 residual
    scale = float(np.abs(K.diagonal()).max())
    kv = K @ vecs
    r = kv - vals * (b[:, None] * vecs)

    def norms(x):
        # column norms without the squared temporary of norm(x, axis=0),
        # which made this slower than a per-pair loop on large meshes
        return np.sqrt(np.einsum("ij,ij->j", x, x))

    denom = np.maximum(norms(kv), 1e-6 * scale * norms(vecs))
    return norms(r) / np.maximum(denom, 1e-300)


# ---------------------------------------------------------------------------
# spec operations
# ---------------------------------------------------------------------------

def laplace_eigs(mesh, density=None, k=5, cluster_tol=1e-3, seed=0):
    """Eigenpairs of the Laplacian for the conformal metric density*g0."""
    if k >= mesh.num_vertices:
        raise MeshError("k must be below the vertex count")
    if isinstance(density, ConformalDensity):
        density.validate(mesh)
    mu = volume_measure(mesh, density)
    return solve_pencil(mesh, mu.weights, k, cluster_tol, seed)


def measure_eigs(mesh, mu: MeshMeasure, k=5, cluster_tol=1e-3, seed=0):
    """Eigenpairs of the Radon-measure Rayleigh quotient for mu."""
    if mu.mass <= 0.0:
        raise MeshError("measure has zero total mass")
    return solve_pencil(mesh, mu.weights, k, cluster_tol, seed)


def steklov_eigs(mesh, k=5, cluster_tol=1e-3, seed=0):
    """Steklov eigenvalues: pencil with the boundary length measure."""
    if mesh.is_closed:
        raise MeshError("Steklov problem needs a nonempty boundary")
    mu = curve_measure(mesh)
    return solve_pencil(mesh, mu.weights, k, cluster_tol, seed,
                        expect_disconnected=len(mesh.boundary_loops) > 1)


TREND_SLACK = 0.025  # a dip of up to this fraction of the reference still
# counts as rising; the res-96 torus sweep dips 2.49% of it from 9 to 10
# holes and 2.9% from 13 to 15, in steps of 1.71% and 1.17%


def steklov_hole_sweep(mesh, counts, seed=0):
    """Best sigma_bar_1 per hole count, as rows
    [(holes, sigma_bar_1, centers, radii)].

    Candidates per count: the `hole_centers` layout at each `hole_radius`
    fraction, plus the previous best configuration with one extra hole of
    the floor radius. That extra hole is not small on the meshes swept
    here, so the values are not nondecreasing (see TREND_SLACK).
    """
    counts = list(counts)
    if not counts or min(counts) < 1:
        raise MeshError(f"hole counts must be >= 1, got {counts}")
    floor = hole_radius(mesh, 1, 0.0)
    rows = []
    for holes in counts:
        layout = hole_centers(mesh, holes, seed)
        cands = [(layout, [hole_radius(mesh, holes, frac)] * holes)
                 for frac in (0.3, 0.4, 0.5, 0.7)]
        if rows and len(rows[-1][2]) == holes - 1:
            _, _, centers, radii = rows[-1]
            far = geodesic_distances(mesh, centers).min(axis=0)
            cands.append((centers + [int(np.argmax(far))], radii + [floor]))
        best = None
        for centers, radii in cands:
            try:
                spec = steklov_eigs(puncture(mesh, centers, radii), k=1,
                                    seed=seed)
            except MeshError:
                continue
            val = float(spec.values[1] * spec.mass)
            if best is None or val > best[0]:
                best = (val, centers, radii)
        if best is None:
            raise SolverError(f"no feasible puncturing with {holes} holes")
        rows.append((holes, *best))
    return rows


def nondecreasing_trend(values, lambda_ref):
    """Whether sweep values rise: no step falls by more than
    TREND_SLACK * lambda_ref, and the last value exceeds the first."""
    return (all(b >= a - TREND_SLACK * lambda_ref
                for a, b in zip(values, values[1:]))
            and values[-1] > values[0])


def normalized(value, mesh, boundary=False):
    """Scale-invariant normalization: eigenvalue times area (or boundary
    length for the Steklov problem)."""
    if boundary:
        return float(value) * curve_measure(mesh).mass
    return float(value) * area(mesh)


def multiplicity(spec: Spectrum, value):
    """Number of eigenvalues within cluster_tol (relative) of value."""
    tol = spec.cluster_tol * max(1.0, abs(value))
    return int(np.sum(np.abs(spec.values - value) <= tol))


def eigenvalue_cluster(spec: Spectrum, index, width):
    """Indices of the near-degenerate cluster containing eigenvalue `index`;
    width is the relative half-width of the cluster."""
    vals = spec.values
    lam = vals[index]
    tol = width * max(1.0, abs(lam))
    members = [index]
    for j in range(index + 1, len(vals)):
        if abs(vals[j] - lam) <= tol:
            members.append(j)
        else:
            break
    return members


# ---------------------------------------------------------------------------
# conformal maximization of the first normalized eigenvalue
# ---------------------------------------------------------------------------

def _heat_factor(mesh, t):
    """Sparse LU of the lumped heat step diag(vertex areas) + t K.

    For t > 0 the step is SPD (positive vertex areas plus a semidefinite
    stiffness), the precondition of `_spd_factor`. The maximiser passes
    t = h^2, and `glminmax.mollify` and `FamilySpec` reject t <= 0.
    """
    return _spd_factor((sp.diags(mesh.vertex_areas)
                        + t * mesh.stiffness).tocsc())


GAP_TOL = 1e-4  # stationarity gap ||f - u|| that ends the ascent; the
# report is `converged` below 10 * GAP_TOL


def maximize_lambda1_conformal(mesh, iters=200, seed=0, f0=None):
    """Projected ascent on the conformal density for the first normalized
    eigenvalue.

    Update: f <- (f + u) / 2 with u = sum(phi_i^2) over an orthonormal
    eigenframe of the near-degenerate lambda_1 cluster (relative width 0.1,
    from 7 eigenpairs), renormalized to unit area, with one lumped
    heat-flow smoothing step of time h^2 per iteration. The ascent stops
    once the stationarity gap ||f - u|| falls below GAP_TOL. The returned
    lambda_bar is a certified lower bound for the conformal supremum.
    """
    if not mesh.is_closed:
        raise MeshError("conformal maximization expects a closed mesh")
    n = mesh.num_vertices
    if f0 is None:
        f = np.ones(n)
    else:
        f = np.asarray(f0, dtype=float).copy()
    f = np.maximum(f, 0.0)
    f /= area(mesh, f)
    va = mesh.vertex_areas
    smooth = _heat_factor(mesh, mesh.mean_edge_length ** 2)
    best = (-np.inf, f.copy(), np.inf, np.inf)
    it = 0
    for it in range(1, iters + 1):
        spec = laplace_eigs(mesh, f, k=6, seed=seed)
        lam1 = float(spec.values[1])
        frame = spec.vectors[:, eigenvalue_cluster(spec, 1, 0.1)]
        u = np.sum(frame * frame, axis=1)
        u_area = float(np.sum(u * va))
        if u_area <= 0.0:
            raise SolverError("degenerate eigenframe")
        u /= u_area
        gap = float(np.sqrt(np.sum(va * (f - u) ** 2)))
        weak = float(abs(np.sum(va * (f - u))))
        lambda_bar = lam1  # area(f) == 1
        if lambda_bar > best[0] or gap < best[2]:
            best = (lambda_bar, f.copy(), gap, weak)
        if gap < GAP_TOL:
            break
        f = 0.5 * f + 0.5 * u
        f = smooth.solve(va * f)
        f = np.maximum(f, 0.0)
        f /= area(mesh, f)
    lambda_bar, f, gap, weak = best
    density = ConformalDensity(np.maximum(f, 0.0))
    return MaximizerReport(
        density=density, lambda_bar=lambda_bar, iterations=it,
        stationarity_gap=gap, converged=gap < 10 * GAP_TOL, weak_gap=weak,
        measure_rank=int(np.sum(f * va > 0)))
