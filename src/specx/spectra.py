"""Generalized eigenvalue computations, conformal maximization of the
first normalized eigenvalue, the Steklov perforation sweep, and the
`eigs`, `maximize`, `steklov` and `sweep` recipes of the CLI.

All solves are of pencil type K v = lambda B v with the cotangent stiffness
K and a diagonal nonnegative right-hand form B, and all go through one
shift-invert path (`_shift_invert`, behind `solve_pencil`; the energy
index of `index` runs its sparse second variation through it too): one
sparse LU of K - sigma B, then the symmetric standard form on the support
of B, solved by ARPACK or, warm-started from a nearby pencil's vectors, by
a short block Krylov solve. Rank-deficient B (boundary measures, point
masses, conical zeros) needs no special case: the eigenvectors come back
discrete-harmonic off supp(B), as from the Schur complement onto supp(B).

Every sparse matrix factored for a solve here is symmetric positive
definite: K - sigma B with sigma below the spectrum, and the lumped heat
step diag(A) + t K. So all factorisations go through `_spd_factor`, which
orders on the pattern of A + A^T, pivots on the diagonal and relaxes no
supernodes; on these meshes SuperLU's default supernode relaxation pads
the factor with explicit zeros, up to 8 times the fill on sphere5 (see
`_spd_factor` for the measured table).
The same factorisation of an indefinite A - t M gives, by Sylvester's law
of inertia, the number of eigenvalues below t (`count_below`), which is
how `index` counts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .mesh import (MeshError, area, curve_measure, geodesic_distances,
                   hole_centers, hole_radius, puncture, validate_density,
                   volume_measure)


class SolverError(RuntimeError):
    pass


class RankError(SolverError):
    pass


CLUSTER_MARGIN = 3  # Lanczos pairs beyond k+1, so a cluster is not cut

WARM_RTOL = 1e-12  # x-space residual a warm pair must meet, relative to mu_max

WARM_BLOCKS = 8  # block solves a warm start may take before the ARPACK path

CLUSTER_TOL = 1e-3  # relative half-width of an eigenvalue cluster: of
# `multiplicity` and of `index`'s threshold

INERTIA_RTOL = 1e-10  # relative backward error an inertia count's solve may
# have; the index forms measure 2e-16 to 1e-14


@dataclass
class Spectrum:
    """Ascending eigenvalues with B-orthonormal eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray  # (V, k+1), harmonically extended off supp(B)
    residuals: np.ndarray
    mass: float
    warm: bool  # the warm block solve ran, not the cold path

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
    density: np.ndarray  # vertex values of the returned conformal density
    lambda_bar: float
    iterations: int
    stationarity_gap: float
    converged: bool
    weak_gap: float
    measure_rank: int
    warm_solves: int  # eigensolves taken by the warm block path
    cold_solves: int  # eigensolves taken by the cold path

    def to_json_dict(self):
        return {
            "lambda_bar": float(self.lambda_bar),
            "iterations": int(self.iterations),
            "stationarity_gap": float(self.stationarity_gap),
            "converged": bool(self.converged),
            "weak_gap": float(self.weak_gap),
            "measure_rank": int(self.measure_rank),
            "density": [float(x) for x in self.density],
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


def solve_pencil(mesh, b, k, seed=0, expect_disconnected=False, start=None):
    """First k+1 eigenpairs of K v = lambda diag(b) v.

    One shift-invert solve (`_shift_invert`) for every pencil, with
    sigma = -1e-3 tr K / sum b < 0, so that K - sigma B is positive
    definite. The vectors are B-orthonormal and discrete-harmonic off
    supp(b), so a rank-deficient b (boundary measures, point masses,
    conical zeros) needs no separate restriction. `start`, the vectors of
    a nearby pencil's Spectrum, lets the solve warm-start (`_shift_invert`).
    """
    K = mesh.stiffness
    b = np.asarray(b, dtype=float)
    n = mesh.num_vertices
    if b.shape != (n,):
        raise MeshError("right-hand form shape mismatch")
    if not np.all(np.isfinite(b)):
        raise MeshError("right-hand form must be finite")
    rank = _check_support(mesh, b, expect_disconnected)
    kk = k + 1
    if kk > rank:
        raise RankError(
            f"requested {kk} eigenpairs but the form has rank {rank}")
    sigma = -1e-3 * float(K.diagonal().sum() / b.sum())
    vals, vecs, warm = _shift_invert(K, b, sigma, kk, seed, start)
    resid = _residuals(K, b, vals, vecs)
    return Spectrum(values=vals, vectors=vecs, residuals=resid,
                    mass=float(b.sum()), warm=warm)


def _spd_factor(A):
    """Sparse LU of a symmetric A, in SuperLU's symmetric mode: a
    minimum-degree ordering of the pattern of A + A^T, applied to rows and
    columns alike, pivots taken on the diagonal, and no relaxed supernodes
    (relax=1, panel_size=1).

    SuperLU's default relax=10 and panel_size=20 (Demmel, Eisenstat,
    Gilbert, Li and Liu 1999) merge small columns into supernodes padded
    with explicit zeros; on these meshes the padding can be most of the
    factor. Default -> this setting, one BLAS thread, medians of 15
    factorisations and 200 solves (K - sB is the pencil of `solve_pencil`,
    Morse m the energy form of `index`; entries are `lu.nnz`):

        matrix          n       LU entries      factor ms     one solve us
        sphere3 K - sB  642     30.7k -> 30.7k  1.23 -> 1.05  34 -> 36
        sphere3 Morse5  3,210   245k -> 207k    10.1 -> 6.9   252 -> 218
        sphere4 K - sB  2,562   654k -> 171k    50 -> 5.6     725 -> 190
        sphere4 Morse3  7,686   1.41M -> 0.84M  90 -> 30      1240 -> 861
        torus96 K - sB  9,216   686k -> 560k    29 -> 17      586 -> 493
        sphere5 K - sB  10,242  7.50M -> 0.94M  1350 -> 43    10887 -> 891

    The 43 pencils of the torus48 1..9 hole sweep (n 1,728 to 2,295),
    summed: 3.32M -> 3.00M entries, 173 -> 124 ms of factoring, and 388 ->
    309 ms with 49 solves of each. relax=1 with panel 4 or 20, relax=2..4,
    and the COLAMD and MMD_ATA orders were all slower on those pencils.

    For an SPD A the diagonal pivots are all positive and the factorisation
    is stable without row interchanges; the solvers pass only such
    matrices, and nothing here checks this, since reading the factors back
    would cost memory on every call. `count_below` also factors indefinite
    forms, for their inertia, and checks the factorisation itself. A
    matrix SuperLU finds exactly singular (a form with an eigenvalue at
    the count's threshold, or an all-zero row) raises SolverError.
    """
    try:
        return spla.splu(A, permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.0, relax=1, panel_size=1,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU's "Factor is exactly singular"
        raise SolverError(f"sparse factorisation failed: {exc}") from exc


def _shifted(A, m, t):
    """A - t diag(m), as a new CSC matrix."""
    out = A.tocsc(copy=True)
    out.setdiag(A.diagonal() - t * m)
    return out


def count_below(A, m, t):
    """Number of negative pivots of A - t diag(m), for a sparse symmetric A
    and m >= 0.

    Where m > 0 this is, by Sylvester's law of inertia, the number of
    eigenvalues of A v = lambda diag(m) v below t; for an m that vanishes
    somewhere see `index._spectral_index`. One `_spd_factor`: without a
    row interchange it is P (A - t M) P^T = L U with L unit lower
    triangular and U = D L^T, so the signs of diag(U) are those of an
    LDL^T. Nothing bounds pivot growth in an indefinite factorisation, so
    two guards raise SolverError, there being no other count to fall back
    on: SuperLU must have kept the rows in the columns' order
    (perm_r == perm_c), and one solve must have a relative backward error
    of at most INERTIA_RTOL.
    """
    shifted = _shifted(A, m, t)
    lu = _spd_factor(shifted)
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError("row interchange in an inertia factorisation")
    x = lu.solve(np.ones(A.shape[0]))  # backward error for rhs = 1
    scale = spla.norm(shifted, np.inf) * np.abs(x).max() + 1.0
    if np.abs(1.0 - shifted @ x).max() > INERTIA_RTOL * scale:
        raise SolverError("pivot growth in an inertia factorisation")
    # lu.U is a copy as large as the fill: read its diagonal and drop it
    return int(np.sum(lu.U.diagonal() < 0.0))


def _shift_invert(A, m, sigma, kk, seed=0, start=None):
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
    The vectors are M-orthonormal and A-harmonic off supp(m). Every
    strategy below applies C through one operator, `apply_c`, which
    returns z = (A - sigma M)^{-1} M^{1/2} x and C x for a block x. A dense
    eigh of C (`apply_c` on the identity) is taken when the rank is too
    small for Lanczos to save work; above it Lanczos (ARPACK, one column
    per matvec) takes a few pairs beyond kk so that a degenerate cluster is
    not cut, and the vectors are recovered by one more `apply_c`.

    On the Lanczos branch, `start` (n x kk vectors of a nearby pencil) is
    tried first by `_block_krylov`, from x = m^{1/2} v on supp(m); if it
    does not meet its acceptance rule, the seeded ARPACK solve runs as
    without a start. Returns ascending values, their vectors, and whether
    the warm block solve gave them.
    """
    n = A.shape[0]
    lu = _spd_factor(_shifted(A, m, sigma))
    s_idx = np.flatnonzero(m > 0.0)
    rank = len(s_idx)
    root = np.sqrt(m[s_idx])

    def apply_c(x):  # z = (A - sigma M)^{-1} M^{1/2} x and C x, for a block x
        rhs = np.zeros((n, x.shape[1]))
        rhs[s_idx] = root[:, None] * x
        z = lu.solve(rhs)
        return z, root[:, None] * z.take(s_idx, axis=0)

    nev = kk + CLUSTER_MARGIN
    # ncv >= 40: with ARPACK's default of 20 the solve stalled for minutes
    # on a multiplicity-3 cluster of a res-192 torus
    ncv = max(40, 2 * nev + 1)
    # ARPACK needs rank > ncv, and up to about twice that materializing C
    # costs less than the Lanczos restarts
    warm = None
    if rank <= 2 * ncv:
        X, C = apply_c(np.eye(rank))
        mu, x = sla.eigh(0.5 * (C + C.T),
                         subset_by_index=[rank - kk, rank - 1])
        vecs = X @ x
    elif start is not None and (warm := _block_krylov(
            apply_c, root[:, None] * start[s_idx], kk, seed)) is not None:
        mu, vecs = warm
    else:
        op = spla.LinearOperator(
            (rank, rank), matvec=lambda y: apply_c(y.reshape(-1, 1))[1],
            dtype=float)
        v0 = np.random.default_rng(seed).standard_normal(rank)
        try:
            mu, x = spla.eigsh(op, k=nev, which="LA", ncv=ncv, v0=v0)
        except spla.ArpackError as exc:
            raise SolverError(f"eigensolver failed: {exc}") from exc
        top = np.argsort(mu)[-kk:]
        mu = mu[top]
        vecs = apply_c(x[:, top])[0]
    order = np.argsort(-mu)  # ascending lambda
    mu = mu[order]
    return sigma + 1.0 / mu, vecs[:, order] / mu, warm is not None


def _block_krylov(apply_c, start, kk, seed):
    """Largest kk eigenpairs (mu, (A - sigma M)^{-1} M^{1/2} x) of the
    standard form C from a warm start, or None.

    The start block is `start` (x-space columns from a nearby pencil) plus
    CLUSTER_MARGIN + 1 seeded random columns, through which a direction
    that the old frame lacks can still enter. Block Lanczos with full
    reorthogonalisation: each block costs one multi-right-hand-side solve
    `apply_c`, then Rayleigh-Ritz by a small eigh. From the second block on
    (so that the random columns have grown once), the top kk Ritz pairs
    are accepted when each has residual ||C x - mu x|| <= WARM_RTOL mu_max:
    first by the Lanczos estimate ||R_j s_j|| (R_j the triangular factor of
    the next block), then by the explicit residual. None, and so the cold
    solve, follows after WARM_BLOCKS blocks (fewer where the basis would
    outgrow the rank), or sooner once the estimate, falling at its last
    rate, would still miss the tolerance at the last block.
    """
    rank, kept = start.shape
    width = kept + CLUSTER_MARGIN + 1
    blocks = min(WARM_BLOCKS, rank // width)  # the basis must stay in R^rank
    q = np.empty((rank, blocks * width))  # orthonormal Krylov basis
    w = np.empty_like(q)  # C q
    h = np.zeros((blocks * width,) * 2)  # q^T C q, lower triangle
    lifted = []
    rng = np.random.default_rng(seed)
    block = _orth(np.hstack([start, rng.standard_normal(
        (rank, width - kept))]))[0]
    for j in range(blocks):
        lo, hi = j * width, (j + 1) * width
        q[:, lo:hi] = block
        z, w[:, lo:hi] = apply_c(block)
        lifted.append(z)
        basis = q[:, :hi]
        coef = basis.T @ w[:, lo:hi]
        h[lo:hi, :hi] = coef.T
        # the next block: C q_j orthogonalised against the basis, twice
        # ("twice is enough", Kahan), each pass followed by a QR
        block, r = _orth(w[:, lo:hi] - basis @ coef)
        block = _orth(block - basis @ (basis.T @ block))[0]
        mu, s = sla.eigh(h[:hi, :hi], subset_by_index=[hi - kk, hi - 1],
                         check_finite=False)
        tol = WARM_RTOL * mu[-1]
        est = float(_column_norms(r @ s[lo:]).max())
        if j and est <= tol:
            resid = _column_norms(w[:, :hi] @ s - (basis @ s) * mu)
            if np.all(resid <= tol):
                return mu, np.hstack(lifted) @ s
        # a direction missing from the start enters the top kk during the
        # first growth, so rates count from the third block
        rate = min(est / last, 1.0) if j > 1 else 0.0
        if est * rate ** (blocks - 1 - j) > tol:
            return None
        last = est
    return None


def _orth(x):
    """Thin QR of a tall block."""
    return sla.qr(x, mode="economic", check_finite=False)


def _column_norms(x):
    # column norms without the squared temporary of norm(x, axis=0), which
    # made the residuals slower than a per-pair loop on large meshes
    return np.sqrt(np.einsum("ij,ij->j", x, x))


def _residuals(K, b, vals, vecs):
    # floor the denominator so the kernel pair (lambda=0, Kv~roundoff) does
    # not report a 0/0 residual
    scale = float(np.abs(K.diagonal()).max())
    kv = K @ vecs
    r = kv - vals * (b[:, None] * vecs)
    denom = np.maximum(_column_norms(kv), 1e-6 * scale * _column_norms(vecs))
    return _column_norms(r) / np.maximum(denom, 1e-300)


# ---------------------------------------------------------------------------
# spec operations
# ---------------------------------------------------------------------------

def laplace_eigs(mesh, density=None, k=5, seed=0):
    """Eigenpairs of the Laplacian for the conformal metric density*g0;
    density is None or a vertex array, checked by `validate_density`."""
    if k >= mesh.num_vertices:
        raise MeshError("k must be below the vertex count")
    if density is not None:
        validate_density(mesh, density)
    return solve_pencil(mesh, volume_measure(mesh, density), k, seed)


def steklov_eigs(mesh, k=5, seed=0):
    """Steklov eigenvalues: pencil with the boundary length measure."""
    if mesh.is_closed:
        raise MeshError("Steklov problem needs a nonempty boundary")
    return solve_pencil(mesh, curve_measure(mesh), k, seed,
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


def multiplicity(spec: Spectrum, value):
    """Number of eigenvalues within CLUSTER_TOL (relative) of value."""
    tol = CLUSTER_TOL * max(1.0, abs(value))
    return int(np.sum(np.abs(spec.values - value) <= tol))


# ---------------------------------------------------------------------------
# conformal maximization of the first normalized eigenvalue
# ---------------------------------------------------------------------------

def _heat_factor(mesh, t):
    """Sparse LU of the lumped heat step diag(vertex areas) + t K.

    For t > 0 the step is SPD (positive vertex areas plus a semidefinite
    stiffness), the precondition of `_spd_factor`. Its callers pass a
    positive t: the maximiser h^2 and `FamilySpec` glminmax.MOLLIFY_TIME,
    whose factor `glminmax.mollify` applies.
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
    once the stationarity gap ||f - u|| falls below GAP_TOL. It returns
    the iterate of largest lambda_bar with that iterate's gap, so never
    less than its start. The returned lambda_bar is lambda_1 of the
    returned discrete density (unit area); nothing here shows that it
    reaches the conformal supremum.

    From the second iteration on, each pencil is warm-started from the
    previous eigenvectors (`solve_pencil`'s `start`). A warm start that
    falls back to the cold solve doubles the wait before the next attempt,
    so where warm starts do not pay (far from a fixed point) they cost
    little. The report counts the warm and cold solves.
    """
    if not mesh.is_closed:
        raise MeshError("conformal maximization expects a closed mesh")
    n = mesh.num_vertices
    if f0 is None:
        f = np.ones(n)
    else:
        f = np.asarray(f0, dtype=float).copy()
        if not np.all(np.isfinite(f)):
            raise MeshError("initial density must be finite")
    f = np.maximum(f, 0.0)
    f /= area(mesh, f)
    va = mesh.vertex_areas
    smooth = None  # the heat step, built at the first update
    best = (-np.inf, f.copy(), np.inf, np.inf)
    it = 0
    spec = None
    warm_solves = 0
    wait, retry = 1, 2  # each failed warm start doubles the wait to the next
    for it in range(1, iters + 1):
        start = spec.vectors if it >= retry else None
        spec = solve_pencil(mesh, volume_measure(mesh, f), 6,
                            seed=seed, start=start)
        warm_solves += spec.warm
        if start is not None:
            wait = 1 if spec.warm else 2 * wait
            retry = it + wait
        # the lambda_1 cluster: the values ascend, so it is those at most
        # 0.1 max(1, |lambda_1|) above lambda_1
        lam = spec.values[1]
        near = spec.values[1:] - lam <= 0.1 * max(1.0, abs(lam))
        frame = spec.vectors[:, 1:][:, near]
        u = np.sum(frame * frame, axis=1)
        u_area = float(np.sum(u * va))
        if u_area <= 0.0:
            raise SolverError("degenerate eigenframe")
        u /= u_area
        gap = float(np.sqrt(np.sum(va * (f - u) ** 2)))
        weak = float(abs(np.sum(va * (f - u))))
        lambda_bar = float(spec.values[1])  # area(f) == 1
        if lambda_bar > best[0]:
            best = (lambda_bar, f.copy(), gap, weak)
        if gap < GAP_TOL:
            break
        f = 0.5 * f + 0.5 * u
        if smooth is None:
            smooth = _heat_factor(mesh, mesh.mean_edge_length ** 2)
        f = smooth.solve(va * f)
        f = np.maximum(f, 0.0)
        f /= area(mesh, f)
    lambda_bar, f, gap, weak = best
    return MaximizerReport(
        density=np.maximum(f, 0.0), lambda_bar=lambda_bar, iterations=it,
        stationarity_gap=gap, converged=gap < 10 * GAP_TOL, weak_gap=weak,
        measure_rank=int(np.sum(f * va > 0)), warm_solves=warm_solves,
        cold_solves=it - warm_solves)


# ---------------------------------------------------------------------------
# the spectral recipes; each returns (payload, ledger, tables, flags)
# ---------------------------------------------------------------------------

def _ascent_flags(stage, rep: MaximizerReport):
    """A flag for a maximiser report that did not converge."""
    if rep.converged:
        return []
    return [(stage, f"ascent not converged after {rep.iterations} "
             f"iterations (stationarity gap {rep.stationarity_gap:.3e})")]


def eigs_recipe(mesh, density, count, seed):
    """The `specx eigs` run: the Laplace spectrum of a closed mesh (with
    the density, if not None), else the Steklov spectrum."""
    if mesh.is_closed:
        spec = laplace_eigs(mesh, density, k=count, seed=seed)
        kind = "laplace"
    else:
        spec = steklov_eigs(mesh, k=count, seed=seed)
        kind = "steklov"
    payload = spec.to_json_dict()
    payload["kind"] = kind
    return payload, [(f"{kind}_lambda1", float(spec.values[1]))], {}, []


def maximize_recipe(mesh, density, seed):
    """The `specx maximize` run: the conformal ascent from the density (the
    flat one for None)."""
    rep = maximize_lambda1_conformal(mesh, seed=seed, f0=density)
    return (rep.to_json_dict(), [("lambda_bar_1", float(rep.lambda_bar))],
            {}, _ascent_flags("maximize", rep))


def steklov_recipe(mesh, holes, count, seed):
    """The `specx steklov` run: the Steklov spectrum of mesh, which, if
    closed, first gets `holes` holes at `hole_centers` of `hole_radius`
    fraction 0.5."""
    if mesh.is_closed:
        mesh = puncture(mesh, hole_centers(mesh, holes, seed),
                        hole_radius(mesh, holes, 0.5))
    spec = steklov_eigs(mesh, k=count, seed=seed)
    payload = spec.to_json_dict()
    payload["boundary_length"] = spec.mass  # the boundary measure's mass
    return (payload, [("sigma_bar_1", float(spec.values[1] * spec.mass))],
            {}, [])


def sweep_recipe(mesh, counts, seed):
    """The `specx sweep steklov-holes` run: `steklov_hole_sweep` over the
    hole counts, and its trend against the maximised lambda_bar_1 of the
    closed mesh."""
    ref = maximize_lambda1_conformal(mesh, seed=seed)
    lam_ref = ref.lambda_bar
    rows = steklov_hole_sweep(mesh, counts, seed=seed)
    trend = nondecreasing_trend([row[1] for row in rows], lam_ref)
    table = [["holes", "sigma_bar_1", "lambda_bar_1_ref",
              "nondecreasing_trend"]]
    table += [[holes, sig, lam_ref, trend] for holes, sig, _, _ in rows]
    payload = {"rows": [[int(h), float(s)] for h, s, _, _ in rows],
               "nondecreasing_trend": bool(trend),
               "lambda_bar_ref": float(lam_ref)}
    ledger = [(f"sigma_bar_1_holes{holes}", sig) for holes, sig, _, _ in rows]
    return (payload, ledger, {"steklov_holes.csv": table},
            _ascent_flags("sweep lambda_bar_ref", ref))
