"""Relaxed sphere-valued energy, explicit admissible families, sampled
min-max energies, balanced points, and critical-point extraction.

The relaxed functional on vector-valued maps is

    E_eps(u) = 0.5 * integral |du|^2 + (1/(4 eps^2)) integral (1-|u|^2)^2,

discretized with the cotangent Dirichlet form and lumped vertex areas. The
two explicit families are the mollified compositions G_a . phi and
G_a . T_b . phi of a base sphere map with the closed-form conformal
transformations; mollification is one implicit lumped heat step, which
contracts the Dirichlet energy and fixes constants exactly. A balanced
point, the parameter whose member has vanishing mu-average (and, for the
second family, vanishing phi1-weighted average), is found by one damped
Newton solve shared by both families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _kernels, mobius, spectra
from ._ballopt import BALL_EDGE, ball_grid, clip_to_ball, maximize_over_ball
from .harmonic import SphereMap, normalize_rows, tension_residual
from .mesh import MeshMeasure, TriMesh, volume_measure


class FamilyError(ValueError):
    pass


# the parameter-ball search of every family: grid shells, their outer
# radius, and samples per refinement round (reported in MinMaxReport.grid)
GRID_RADII = 5
GRID_MAX_RADIUS = 0.9
REFINE_SAMPLES = 12


@dataclass
class VectorMap:
    """Per-vertex vectors in R^(n+1) with unconstrained norm."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise FamilyError("vector map has non-finite entries")

    @property
    def ambient_dim(self):
        return self.values.shape[1]


def _values(u):
    if isinstance(u, (VectorMap, SphereMap)):
        return u.values
    return np.asarray(u, dtype=float)


# ---------------------------------------------------------------------------
# relaxed energy, gradient, second variation
# ---------------------------------------------------------------------------

def gl_energy(mesh, u, eps, parts=False):
    """Dirichlet part plus lumped potential integral."""
    if eps <= 0.0:
        raise FamilyError("eps must be positive")
    vals = _values(u)
    dirichlet = 0.5 * float(np.sum(vals * (mesh.stiffness @ vals)))
    potential, avg = _kernels.gl_pointwise(
        np.ascontiguousarray(vals), mesh.vertex_areas, float(eps))
    if parts:
        return {"E_eps": dirichlet + potential, "dirichlet": dirichlet,
                "potential": potential, "avg_norm": avg}
    return dirichlet + potential


def gl_gradient(mesh, u, eps):
    """Mass-normalized gradient M^{-1} K u - eps^{-2} (1-|u|^2) u.

    Pairs with directions through the lumped L2 inner product: the
    directional derivative of gl_energy equals gl_inner(mesh, grad, v).
    """
    if eps <= 0.0:
        raise FamilyError("eps must be positive")
    vals = _values(u)
    va = mesh.vertex_areas
    n2 = np.sum(vals * vals, axis=1)
    g = (mesh.stiffness @ vals) / va[:, None] \
        - (1.0 - n2)[:, None] * vals / eps ** 2
    return VectorMap(g)


def gl_inner(mesh, u, v):
    """Lumped L2 inner product of two vector maps."""
    return float(np.sum(mesh.vertex_areas[:, None] * _values(u) * _values(v)))


def gl_norm(mesh, u):
    return float(np.sqrt(gl_inner(mesh, u, u)))


def gl_second_variation(mesh, u, eps, v, w=None):
    """Second-variation quadratic form (bilinear if w given):

    Q(v, w) = int <dv, dw> + 2 eps^-2 <u,v><u,w> - eps^-2 (1-|u|^2) <v,w>.
    """
    if eps <= 0.0:
        raise FamilyError("eps must be positive")
    uu = _values(u)
    vv = _values(v)
    ww = vv if w is None else _values(w)
    va = mesh.vertex_areas
    n2 = np.sum(uu * uu, axis=1)
    dir_part = float(np.sum(vv * (mesh.stiffness @ ww)))
    uv = np.sum(uu * vv, axis=1)
    uw = np.sum(uu * ww, axis=1)
    vw = np.sum(vv * ww, axis=1)
    pot = float(np.sum(va * (2.0 * uv * uw - (1.0 - n2) * vw))) / eps ** 2
    return dir_part + pot


def _line_quartic(mesh, u, g, eps):
    """Coefficients (c2, c3, c4) of the energy change along u - s g.

    gl_energy(u - s g) - gl_energy(u) = c1 s + c2 s^2 + c3 s^3 + c4 s^4
    exactly, and c1 = -gl_norm(g)^2 when g is gl_gradient(u). With
    p = <u, g>, q = |g|^2 and d = 1 - |u|^2 per vertex:
    c2 = <g, K g>/2 + eps^-2 sum A (p^2 - d q/2), c3 = -eps^-2 sum A p q,
    c4 = eps^-2 sum A q^2 / 4.
    """
    va = mesh.vertex_areas
    p = np.einsum("ij,ij->i", u, g)
    q = np.einsum("ij,ij->i", g, g)
    d = 1.0 - np.einsum("ij,ij->i", u, u)
    aq = va * q
    inv = 1.0 / eps ** 2
    c2 = 0.5 * float(np.vdot(g, mesh.stiffness @ g)) \
        + inv * float(va @ (p * p) - 0.5 * (aq @ d))
    c3 = -inv * float(aq @ p)
    c4 = 0.25 * inv * float(aq @ q)
    return c2, c3, c4


def gl_descend(mesh, u0, eps, tol=1e-6, max_iters=2000, step0=None):
    """Gradient descent with Armijo backtracking until the lumped-L2
    gradient norm drops below tol (or the iteration cap, flagged).

    The Armijo test E(u - s g) <= E(u) - s |g|^2 / 2 is evaluated on the
    exact quartic of _line_quartic, s (c2 + s (c3 + s c4)) <= |g|^2 / 2,
    which subtracts no two energies: it stays decisive when the decrease
    is below the rounding error of E. `backtracks` counts the halvings.
    """
    vals = _values(u0).copy()
    va = mesh.vertex_areas
    rate = float((mesh.stiffness.diagonal() / va).max())
    if step0 is None:
        step0 = 0.9 / (rate + 2.0 / eps ** 2)
    converged = False
    it = 0
    backtracks = 0
    gnorm = np.inf
    for it in range(1, max_iters + 1):
        g = gl_gradient(mesh, vals, eps).values
        gnorm = gl_norm(mesh, g)
        if gnorm < tol:
            converged = True
            break
        c2, c3, c4 = _line_quartic(mesh, vals, g, eps)
        half_g2 = 0.5 * gnorm ** 2
        step = step0
        for _ in range(40):
            if step * (c2 + step * (c3 + step * c4)) <= half_g2:
                break
            step *= 0.5
            backtracks += 1
        else:
            break  # line search stalled at numerical floor
        vals = vals - step * g
    return {"u": VectorMap(vals), "gradient_norm": gnorm,
            "E_eps": gl_energy(mesh, vals, eps), "iterations": it,
            "converged": converged, "backtracks": backtracks}


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

def mollify(mesh, f, t, _factor=None):
    """One implicit lumped heat step (I + t M^{-1} K)^{-1} per coordinate.

    Contracts the Dirichlet energy, fixes constants exactly, and converges
    to the identity as t -> 0.
    """
    if t <= 0.0:
        raise FamilyError("mollification time must be positive")
    vals = _values(f)
    lu = _factor if _factor is not None else spectra._heat_factor(mesh, t)
    out = lu.solve(mesh.vertex_areas[:, None] * vals)
    return VectorMap(out)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

@dataclass
class FamilySpec:
    """Explicit admissible family: mollified conformal deformations of a
    base sphere map, with a deterministic parameter grid."""

    mesh: TriMesh
    base_map: SphereMap
    mollify_time: float
    eps: float
    family: str = "first"  # "first" (G_a . phi) | "second" (G_a . T_b . phi)
    grid: np.ndarray | None = None
    seed: int = 0
    n_dirs: int = 14
    refine_rounds: int = 3

    def __post_init__(self):
        if self.mollify_time <= 0.0:
            raise FamilyError("mollify_time must be positive")
        if self.eps <= 0.0:
            raise FamilyError("eps must be positive")
        if self.family not in ("first", "second"):
            raise FamilyError(f"unknown family {self.family!r}")
        if self.grid is None:
            dim = self.param_dim
            g = ball_grid(self.ambient_dim, self.n_dirs, GRID_RADII,
                          GRID_MAX_RADIUS, self.seed)
            if self.family == "second":
                rng = np.random.default_rng(self.seed + 1)
                pairs = [np.concatenate([p, np.zeros(self.ambient_dim)])
                         for p in g]
                n_extra = len(g) * 2
                for _ in range(n_extra):
                    q = rng.standard_normal(dim)
                    q *= rng.uniform(0, GRID_MAX_RADIUS) / np.linalg.norm(q)
                    pairs.append(q)
                self.grid = np.asarray(pairs)
            else:
                self.grid = g
        self.grid = np.asarray(self.grid, dtype=float)
        if self.grid.ndim != 2 or self.grid.shape[1] != self.param_dim:
            raise FamilyError(
                f"grid must be (P, {self.param_dim}) for the {self.family} "
                f"family in ambient dimension {self.ambient_dim}")
        interior = np.linalg.norm(
            self.grid.reshape(len(self.grid), -1, self.ambient_dim),
            axis=2) <= BALL_EDGE
        if not interior.all():
            raise FamilyError("grid points must lie strictly inside the ball")

    @property
    def ambient_dim(self):
        return self.base_map.ambient_dim

    @property
    def param_dim(self):
        return self.ambient_dim * (2 if self.family == "second" else 1)

    @cached_property
    def _factor(self):
        return spectra._heat_factor(self.mesh, self.mollify_time)

    def split(self, p):
        d = self.ambient_dim
        p = np.asarray(p, dtype=float)
        if self.family == "second":
            return p[:d], p[d:]
        return p, None

    def member(self, p):
        a, b = self.split(p)
        if b is None:
            return family_first(self, a)
        return family_second(self, a, b)


def make_family_spec(mesh, base_map, mollify_time=1e-4, eps=0.1,
                     family="first", **kwargs):
    return FamilySpec(mesh=mesh, base_map=base_map,
                      mollify_time=mollify_time, eps=eps, family=family,
                      **kwargs)


def family_first(spec: FamilySpec, a):
    """Mollified G_a . phi; for |a| = 1 the constant map a, exactly."""
    a = np.asarray(a, dtype=float)
    if np.linalg.norm(a) >= BALL_EDGE:
        const = a / np.linalg.norm(a)
        return VectorMap(np.tile(const, (spec.mesh.num_vertices, 1)))
    vals = mobius.mobius_apply(a, spec.base_map.values)
    return mollify(spec.mesh, vals, spec.mollify_time, _factor=spec._factor)


def family_second(spec: FamilySpec, a, b):
    """Mollified G_a . T_b . phi with the boundary identities exact."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.linalg.norm(a) >= BALL_EDGE:
        const = a / np.linalg.norm(a)
        return VectorMap(np.tile(const, (spec.mesh.num_vertices, 1)))
    vals = mobius.upsilon(a, b, spec.base_map.values)
    return mollify(spec.mesh, vals, spec.mollify_time, _factor=spec._factor)


def embedded_member(spec: FamilySpec, a_prime, s):
    """Member of the one-dimension-up family built from a first-family spec:
    (sqrt(1-s^2) F_{a'/sqrt(1-s^2)}, s), the explicit construction behind
    the monotonicity of the min-max energies in the target dimension."""
    if spec.family != "first":
        raise FamilyError("embedding construction applies to first families")
    s = float(s)
    if abs(s) >= 1.0:
        const = np.zeros(spec.ambient_dim + 1)
        const[-1] = np.sign(s)
        return VectorMap(np.tile(const, (spec.mesh.num_vertices, 1)))
    root = np.sqrt(1.0 - s * s)
    base = spec.member(np.asarray(a_prime, dtype=float) / root)
    vals = np.hstack([root * base.values,
                      np.full((len(base.values), 1), s)])
    return VectorMap(vals)


# ---------------------------------------------------------------------------
# min-max sweep
# ---------------------------------------------------------------------------

@dataclass
class MinMaxReport:
    sup_energy: float
    argmax: np.ndarray
    eps: float
    mollify_time: float
    family: str
    seed: int
    grid_size: int
    grid_info: dict = field(default_factory=dict)
    refinement: list = field(default_factory=list)
    sweep_rows: list = field(default_factory=list)
    critical: dict | None = None

    def to_json_dict(self):
        doc = {
            "sup_energy": float(self.sup_energy),
            "argmax": [float(x) for x in np.atleast_1d(self.argmax)],
            "eps": float(self.eps),
            "mollify_time": float(self.mollify_time),
            "family": self.family,
            "seed": int(self.seed),
            "grid_size": int(self.grid_size),
            "grid": dict(self.grid_info),
            "refinement": [float(x) for x in self.refinement],
        }
        if self.critical is not None:
            doc["critical"] = {
                "E_eps": float(self.critical["E_eps"]),
                "gradient_norm": float(self.critical["gradient_norm"]),
                "tension_residual": float(self.critical["tension_residual"]),
                "converged": bool(self.critical["converged"]),
            }
        return doc


def minmax_upper(spec: FamilySpec):
    """Sup of E_eps over the family grid with local refinement rounds.

    Estimates the family's min-max level from its sampled maximum; records
    the argmax parameter and one sweep row per evaluated member.
    """
    if len(spec.grid) == 0:
        raise FamilyError("empty parameter grid")
    rows = []

    def objective(p):
        member = spec.member(p)
        parts = gl_energy(spec.mesh, member, spec.eps, parts=True)
        rows.append(tuple(p) + (parts["E_eps"], parts["dirichlet"],
                                parts["potential"], parts["avg_norm"]))
        return parts["E_eps"]

    d = spec.ambient_dim

    def project(p):
        if spec.family == "second":
            return np.concatenate([clip_to_ball(p[:d]), clip_to_ball(p[d:])])
        return clip_to_ball(p)

    best_val, best_p, history = maximize_over_ball(
        objective, spec.param_dim, n_radii=GRID_RADII,
        max_radius=GRID_MAX_RADIUS, rounds=spec.refine_rounds,
        local_samples=REFINE_SAMPLES, seed=spec.seed + 17,
        grid=spec.grid, project=project)
    return MinMaxReport(
        sup_energy=best_val, argmax=best_p, eps=spec.eps,
        mollify_time=spec.mollify_time, family=spec.family, seed=spec.seed,
        grid_size=len(spec.grid),
        grid_info={"dirs": spec.n_dirs, "radii": GRID_RADII,
                   "max_radius": GRID_MAX_RADIUS,
                   "refine_rounds": spec.refine_rounds,
                   "refine_samples": REFINE_SAMPLES},
        refinement=history, sweep_rows=rows)


def sweep_to_csv(report: MinMaxReport, path):
    dim = len(np.atleast_1d(report.argmax))
    header = ",".join([f"p{i}" for i in range(dim)]
                      + ["E_eps", "dirichlet", "potential", "avg_norm"])
    with open(str(path), "w") as fh:
        fh.write(header + "\n")
        for row in report.sweep_rows:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


# ---------------------------------------------------------------------------
# balanced points and eigenvalue bounds
# ---------------------------------------------------------------------------

def _measure_weights(spec, mu):
    if mu is None:
        return volume_measure(spec.mesh).weights
    if isinstance(mu, MeshMeasure):
        return mu.weights
    return np.asarray(mu, dtype=float)


def _balance(avg, starts, project, tol, what):
    """Damped Newton on avg(p) = 0, from each start in turn.

    The Jacobian is a forward difference and the step the least-squares
    solution of J s = -avg(p), so it stays defined where `project` clips
    and J loses rank. The step halves until |avg| falls; a start where 9
    halvings do not reach a fall, or that has taken 50 steps, gives way to
    the next. Returns the first point with |avg| < tol and that norm, else
    raises FamilyError.
    """
    best = np.inf
    for p in starts:
        f = avg(p)
        r = np.linalg.norm(f)
        for _ in range(50):
            if r < tol:
                break
            jac = np.column_stack([(avg(p + 1e-7 * e) - f) / 1e-7
                                   for e in np.eye(len(p))])
            step = np.linalg.lstsq(jac, -f, rcond=None)[0]
            for t in 0.5 ** np.arange(10):
                q = project(p + t * step)
                fq = avg(q)
                rq = np.linalg.norm(fq)
                if rq < r:
                    break
            else:
                break
            p, f, r = q, fq, rq
        if r < tol:
            return p, r
        best = min(best, r)
    raise FamilyError(f"{what} not found: best residual {best:.3e} "
                      f"(tolerance {tol:.3e})")


def balanced_point(spec: FamilySpec, mu=None):
    """Parameter a* with vanishing mu-average of F_a.

    Solves int F_a dmu = 0 by `_balance` from a = 0 and 7 seeded starts in
    the ball of radius 0.7, to a residual below 1e-6 times the mass of mu;
    FamilyError if no start gets there, as when mu has no balanced point.
    Returns (a*, residual_norm). mu defaults to the volume measure.
    """
    if spec.family != "first":
        raise FamilyError("balanced_point expects a first-family spec")
    w = _measure_weights(spec, mu)
    rng = np.random.default_rng(spec.seed + 101)
    d = spec.ambient_dim
    starts = [np.zeros(d)]
    while len(starts) < 8:
        v = rng.standard_normal(d)
        starts.append(v * rng.uniform(0, 0.7) / np.linalg.norm(v))
    return _balance(lambda a: w @ spec.member(a).values, starts,
                    clip_to_ball, 1e-6 * w.sum(), "balanced point")


def balanced_point_second(spec: FamilySpec, phi1, mu=None):
    """Pair (a*, b*) with vanishing mu-averages of F_{a,b} and phi1*F_{a,b}.

    phi1 is the first eigenfunction of the measure pencil. The 2(n+1)
    equations are solved by `_balance` from (0, 0) and 7 seeded starts of
    radius up to 0.8, to the tolerance of `balanced_point`. a is clipped to
    the open ball and b to the closed one, where the root may lie.
    Returns ((a*, b*), residual_norm).
    """
    if spec.family != "second":
        raise FamilyError("balanced_point_second expects a second-family spec")
    w = _measure_weights(spec, mu)
    phi1 = np.asarray(phi1, dtype=float)
    if phi1.shape != (spec.mesh.num_vertices,):
        raise FamilyError("phi1 must be a vertex function")
    d = spec.ambient_dim

    def project(p):
        return np.concatenate([clip_to_ball(p[:d]),
                               clip_to_ball(p[d:], limit=1.0)])

    def avg(p):
        p = project(p)
        vals = family_second(spec, p[:d], p[d:]).values
        return np.concatenate([w @ vals, (w * phi1) @ vals])

    rng = np.random.default_rng(spec.seed + 211)
    starts = [np.zeros(2 * d)]
    while len(starts) < 8:
        v = rng.standard_normal(2 * d)
        starts.append(v * rng.uniform(0, 0.8) / np.linalg.norm(v))
    p, r = _balance(avg, starts, project, 1e-6 * w.sum(),
                    "second balanced point")
    return (p[:d], p[d:]), r


def eigen_lower_from_family(spec: FamilySpec, mu=None):
    """Rayleigh quotient of the balanced family member against mu.

    Returns R = int |dF_{a*}|^2 / int |F_{a*}|^2 dmu at the parameter a*
    of `balanced_point`. For a unit-mass mu this dominates the first
    measure eigenvalue; lambda_1(mu) <= R is verified against the pencil
    solver to a relative 1e-6, and a violation raises FamilyError.
    """
    w = _measure_weights(spec, mu)
    mass = float(w.sum())
    if abs(mass - 1.0) > 1e-9:
        raise FamilyError("eigen_lower_from_family expects a unit-mass mu")
    balanced, _ = balanced_point(spec, mu=mu)
    member = spec.member(balanced)
    vals = member.values
    dirichlet2 = float(np.sum(vals * (spec.mesh.stiffness @ vals)))
    l2mu = float(np.sum(w * np.sum(vals * vals, axis=1)))
    if l2mu <= 0.0:
        raise FamilyError("balanced member vanishes in L2(mu)")
    ratio = dirichlet2 / l2mu
    mm_ = MeshMeasure("volume", w)
    lam1 = float(spectra.measure_eigs(spec.mesh, mm_, k=1).values[1])
    if lam1 > ratio * (1.0 + 1e-6) + 1e-6:
        raise FamilyError(
            f"eigenvalue bound violated: lambda_1={lam1} > R={ratio}")
    return ratio


def sandwich_holds(spec: FamilySpec, lam1, sup_energy=None):
    """Check 2 sup >= (1 - 2 eps sup^(1/2)) lambda_1 (unit-area metric)."""
    if sup_energy is None:
        sup_energy = minmax_upper(spec).sup_energy
    lhs = 2.0 * sup_energy
    rhs = (1.0 - 2.0 * spec.eps * np.sqrt(max(sup_energy, 0.0))) * lam1
    return lhs >= rhs, lhs, rhs


def extract_critical(spec: FamilySpec, report: MinMaxReport | None = None,
                     tol=1e-5, max_iters=4000, start=None):
    """Descend from the sampled argmax, or from `start` (a warm start such
    as the critical map of a larger eps), to an approximate critical point.

    Fills report.critical with the final energy, gradient norm, and the
    tension residual of the normalized map; from the argmax,
    E_eps(u*) <= sup_energy by monotone descent.
    """
    if report is None:
        report = minmax_upper(spec)
    if start is None:
        start = spec.member(report.argmax)
    out = gl_descend(spec.mesh, start, spec.eps, tol=tol,
                     max_iters=max_iters)
    u = out["u"]
    normalized_map = SphereMap(normalize_rows(u.values))
    _, agg = tension_residual(spec.mesh, normalized_map)
    report.critical = {
        "u": u, "E_eps": out["E_eps"],
        "gradient_norm": out["gradient_norm"],
        "tension_residual": agg, "converged": out["converged"],
        "iterations": out["iterations"],
    }
    return report
