"""Relaxed sphere-valued energy, explicit admissible families, sampled
min-max energies, balanced points, critical-point extraction, and the
`glminmax` recipe of the CLI.

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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels, mobius, spectra
from ._kernels import _row_dot
from ._ballopt import BALL_EDGE, ball_grid, clip_to_ball, maximize_over_ball
from .harmonic import (MapError, SphereMap, _values, normalize_rows,
                       tension_residual)
from .mesh import MeshError, TriMesh, area, volume_measure


class FamilyError(ValueError):
    pass


# the errors of a numerical failure (exit code 1 of the CLI), and the stage
# of the flag that records one ending a `glminmax_recipe` run part way
FAILURES = (FamilyError, MapError, MeshError, spectra.SolverError,
            np.linalg.LinAlgError)
FAILED = "numerical failure"


MOLLIFY_TIME = 1e-4  # the heat-step time that mollifies every member

# the parameter-ball search of every family: grid shells, their outer
# radius, refinement rounds and samples per round (reported in
# MinMaxReport.grid)
GRID_RADII = 5
GRID_MAX_RADIUS = 0.9
REFINE_ROUNDS = 3
REFINE_SAMPLES = 12

# gl_descend's gradient-norm tolerance and step cap, read at each call.
# A map whose spread is at most DESCENT_TOL counts as constant: collapsed
# maps spread about 1e-7, genuine ones on sphere3 at least 0.18
DESCENT_TOL = 1e-6
DESCENT_MAX_ITERS = 2000


# ---------------------------------------------------------------------------
# relaxed energy, gradient, second variation
# ---------------------------------------------------------------------------

def _check_eps(eps):
    if not (np.isfinite(eps) and eps > 0.0):
        raise FamilyError(f"eps must be positive and finite, got {eps}")


# the values of `_parts_at`, in the column order of a sweep row
PARTS = ("E_eps", "dirichlet", "potential", "avg_norm")


def _eps_free_parts(mesh, vals):
    """(dirichlet, numerator, avg_norm): the Dirichlet energy 0.5 sum u.Ku,
    the potential's numerator sum A (1 - |u|^2)^2 and the area-averaged
    norm of the (V, d) array vals, none of which depends on eps."""
    dirichlet = 0.5 * float(np.sum(vals * (mesh.stiffness @ vals)))
    # the copy is not redundant: a heat-step member comes from lu.solve in
    # Fortran order, and gl_pointwise's BLAS row sums round such an array
    # differently from a C-ordered one at widths of 4 and more
    numerator, avg = _kernels.gl_pointwise(np.ascontiguousarray(vals),
                                           mesh.vertex_areas)
    return dirichlet, numerator, avg


def _parts_at(dirichlet, numerator, avg, eps):
    """The PARTS values at eps from the eps-free ones: E_eps = dirichlet +
    numerator / (4 eps^2). gl_energy and minmax_upper both form E_eps
    here, so their numbers agree bit for bit."""
    potential = numerator / (4.0 * eps * eps)
    return dirichlet + potential, dirichlet, potential, avg


def gl_energy(mesh, u, eps):
    """Dirichlet part plus lumped potential integral."""
    _check_eps(eps)
    return _parts_at(*_eps_free_parts(mesh, _values(u)), float(eps))[0]


def gl_gradient(mesh, u, eps):
    """Mass-normalized gradient M^{-1} K u - eps^{-2} (1-|u|^2) u.

    Pairs with directions through the lumped L2 inner product: the
    directional derivative of gl_energy equals gl_inner(mesh, grad, v).
    """
    _check_eps(eps)
    vals = _values(u)
    g, _, _ = _gradient_terms(mesh.vertex_areas, vals, mesh.stiffness @ vals,
                              eps)
    return g


def _gradient_terms(va, vals, ku, eps):
    """gl_gradient's values g from the stiffness product ku = K vals, with
    the per-vertex n2 = |vals|^2 and q = |g|^2 that the line quartic and
    the gradient norm share."""
    n2 = _row_dot(vals, vals)
    g = ku / va[:, None] - (1.0 - n2)[:, None] * vals / eps ** 2
    return g, n2, _row_dot(g, g)


def gl_inner(mesh, u, v):
    """Lumped L2 inner product of two vector maps."""
    return float(np.sum(mesh.vertex_areas[:, None] * _values(u) * _values(v)))


def gl_norm(mesh, u):
    return float(np.sqrt(gl_inner(mesh, u, u)))


def gl_second_variation(mesh, u, eps, v, w=None):
    """Second-variation quadratic form (bilinear if w given):

    Q(v, w) = int <dv, dw> + 2 eps^-2 <u,v><u,w> - eps^-2 (1-|u|^2) <v,w>.
    """
    _check_eps(eps)
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


def _line_quartic(K, va, g, p, q, n2, eps):
    """Coefficients (c2, c3, c4) of the energy change along u - s g, and
    the stiffness product K g they need.

    gl_energy(u - s g) - gl_energy(u) = c1 s + c2 s^2 + c3 s^3 + c4 s^4
    exactly, and c1 = -gl_norm(g)^2 when g is gl_gradient(u). It takes
    the per-vertex p = <u, g>, q = |g|^2 and n2 = |u|^2; with
    d = 1 - n2: c2 = <g, K g>/2 + eps^-2 sum A (p^2 - d q/2),
    c3 = -eps^-2 sum A p q, c4 = eps^-2 sum A q^2 / 4.
    """
    kg = K @ g
    aq = va * q
    inv = 1.0 / eps ** 2
    c2 = 0.5 * float(np.vdot(g, kg)) \
        + inv * float(va @ (p * p) - 0.5 * (aq @ (1.0 - n2)))
    c3 = -inv * float(aq @ p)
    c4 = 0.25 * inv * float(aq @ q)
    return (c2, c3, c4), kg


def gl_descend(mesh, u0, eps, step0=None):
    """Gradient descent with Armijo backtracking until the lumped-L2
    gradient norm drops below DESCENT_TOL (or the iteration cap
    DESCENT_MAX_ITERS, flagged); both are read at the call.

    The Armijo test E(u - s g) <= E(u) - s |g|^2 / 2 is evaluated on the
    exact quartic of _line_quartic, s (c2 + s (c3 + s c4)) <= |g|^2 / 2,
    which subtracts no two energies: it stays decisive when the decrease
    is below the rounding error of E. `backtracks` counts the halvings.

    A step costs one stiffness product, the quartic's K g: K u is carried
    as K u - s K g. The carried product drifts by rounding, so when its
    gradient norm first drops below DESCENT_TOL, K u is recomputed and the
    test repeated on the exact product. The returned gradient norm and
    energy are those of the returned map, and `converged` is whether that
    norm is below DESCENT_TOL, however the descent stopped. A non-finite
    gradient raises FamilyError.
    """
    _check_eps(eps)
    vals = _values(u0).copy()
    K = mesh.stiffness
    va = mesh.vertex_areas
    rate = float((K.diagonal() / va).max())
    if step0 is None:
        step0 = 0.9 / (rate + 2.0 / eps ** 2)
    ku = K @ vals
    measured = False  # whether gnorm is of an exact K u at the current map
    it = 0
    backtracks = 0
    for it in range(1, DESCENT_MAX_ITERS + 1):
        g, n2, q = _gradient_terms(va, vals, ku, eps)
        gnorm = float(np.sqrt(va @ q))
        if gnorm < DESCENT_TOL and not measured:  # confirm on an exact product
            ku = K @ vals
            measured = True
            g, n2, q = _gradient_terms(va, vals, ku, eps)
            gnorm = float(np.sqrt(va @ q))
        if not np.isfinite(gnorm):
            raise FamilyError("vector map has non-finite entries")
        if gnorm < DESCENT_TOL:
            break
        (c2, c3, c4), kg = _line_quartic(K, va, g, _row_dot(vals, g), q, n2,
                                         eps)
        half_g2 = 0.5 * gnorm ** 2
        step = step0
        for _ in range(40):
            if step * (c2 + step * (c3 + step * c4)) <= half_g2:
                break
            step *= 0.5
            backtracks += 1
        else:
            break  # line search stalled at numerical floor
        vals -= step * g
        ku -= step * kg
        measured = False
    if not measured:
        gnorm = gl_norm(mesh, gl_gradient(mesh, vals, eps))
    return {"u": vals, "gradient_norm": gnorm,
            "E_eps": gl_energy(mesh, vals, eps), "iterations": it,
            "converged": gnorm < DESCENT_TOL, "backtracks": backtracks}


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

def mollify(mesh, f, lu):
    """One implicit lumped heat step (I + t M^{-1} K)^{-1} per coordinate,
    with lu = spectra._heat_factor(mesh, t) for a time t > 0.

    Contracts the Dirichlet energy, fixes constants exactly, and converges
    to the identity as t -> 0.
    """
    return lu.solve(mesh.vertex_areas[:, None] * _values(f))


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

@dataclass
class FamilySpec:
    """Explicit admissible family: mollified conformal deformations of a
    base sphere map, on the deterministic parameter grid `grid` that seed
    and n_dirs fix. Every member is mollified for time MOLLIFY_TIME.

    The family does not depend on eps: the relaxation parameter is an
    argument of `minmax_upper`, whose report `extract_critical` and
    `sandwich_holds` take, so one spec serves a whole eps schedule. It
    caches its heat factor and each member's eps-free energy parts
    (`_member_parts`), so a schedule builds each member once. Members are
    (V, d) arrays.

    Members are built one parameter at a time, never batched: the
    icosphere is centrally symmetric, so E(a) = E(-a) up to rounding, and
    the different rounding of a batched BLAS product or a multi-column
    SuperLU solve could flip the argmax between mirror points and move
    the reported payload.
    """

    mesh: TriMesh
    base_map: SphereMap
    family: str = "first"  # "first" (G_a . phi) | "second" (G_a . T_b . phi)
    seed: int = 0
    n_dirs: int = 14

    def __post_init__(self):
        if self.family not in ("first", "second"):
            raise FamilyError(f"unknown family {self.family!r}")
        g = ball_grid(self.ambient_dim, self.n_dirs, GRID_RADII,
                      GRID_MAX_RADIUS, self.seed)
        if self.family == "second":
            rng = np.random.default_rng(self.seed + 1)
            pairs = [np.concatenate([p, np.zeros(self.ambient_dim)])
                     for p in g]
            for _ in range(len(g) * 2):
                q = rng.standard_normal(self.param_dim)
                q *= rng.uniform(0, GRID_MAX_RADIUS) / np.linalg.norm(q)
                pairs.append(q)
            g = np.asarray(pairs)
        self.grid = np.asarray(g, dtype=float)

    @property
    def ambient_dim(self):
        return self.base_map.ambient_dim

    @property
    def param_dim(self):
        return self.ambient_dim * (2 if self.family == "second" else 1)

    @cached_property
    def _factor(self):
        return spectra._heat_factor(self.mesh, MOLLIFY_TIME)

    @cached_property
    def _parts(self):
        return {}  # parameter bytes -> _eps_free_parts of its member

    def _member_parts(self, p):
        """`_eps_free_parts` of member(p), memoised by p's bytes."""
        p = np.asarray(p, dtype=float)
        key = p.tobytes()
        if key not in self._parts:
            self._parts[key] = _eps_free_parts(self.mesh, self.member(p))
        return self._parts[key]

    def split(self, p):
        d = self.ambient_dim
        p = np.asarray(p, dtype=float)
        if self.family == "second":
            return p[:d], p[d:]
        return p, None

    def member(self, p):
        """The (V, d) values of the member at parameter p."""
        a, b = self.split(p)
        if b is None:
            return family_first(self, a)
        return family_second(self, a, b)


def family_first(spec: FamilySpec, a):
    """Mollified G_a . phi; for |a| = 1 the constant map a, exactly."""
    return _mollified_member(spec, a, None)


def family_second(spec: FamilySpec, a, b):
    """Mollified G_a . T_b . phi with the boundary identities exact."""
    return _mollified_member(spec, a, b)


def _mollified_member(spec, a, b):
    """The tail both families share: the constant map a / |a| once
    |a| >= BALL_EDGE, else G_a . T_b . phi (G_a . phi for b None)
    mollified with the spec's heat factor."""
    a = np.asarray(a, dtype=float)
    if np.linalg.norm(a) >= BALL_EDGE:
        const = a / np.linalg.norm(a)
        return np.tile(const, (spec.mesh.num_vertices, 1))
    phi = spec.base_map.values
    vals = (mobius.mobius_apply(a, phi) if b is None
            else mobius.upsilon(a, b, phi))
    return mollify(spec.mesh, vals, spec._factor)


# ---------------------------------------------------------------------------
# min-max sweep
# ---------------------------------------------------------------------------

@dataclass
class MinMaxReport:
    sup_energy: float
    argmax: np.ndarray
    eps: float
    family: str
    seed: int
    grid_size: int
    grid_info: dict
    refinement: list
    sweep_rows: list
    critical: dict | None = None

    def to_json_dict(self):
        doc = {
            "sup_energy": float(self.sup_energy),
            "argmax": [float(x) for x in np.atleast_1d(self.argmax)],
            "eps": float(self.eps),
            "mollify_time": MOLLIFY_TIME,
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


def minmax_upper(spec: FamilySpec, eps):
    """Sup of E_eps over the family grid with local refinement rounds.

    Estimates the family's min-max level from its sampled maximum; records
    the argmax parameter and one sweep row per evaluated member. The spec
    is eps-free and keeps each member's eps-free parts, so on a spec that
    has already swept another eps only new parameters build a member;
    E_eps is formed as in gl_energy, and the report is bit for bit the one
    of a fresh spec. Members stay unbatched (see FamilySpec).
    """
    _check_eps(eps)
    rows = []

    def objective(p):
        parts = _parts_at(*spec._member_parts(p), float(eps))
        rows.append(tuple(p) + parts)
        return parts[0]

    d = spec.ambient_dim

    def project(p):
        if spec.family == "second":
            return np.concatenate([clip_to_ball(p[:d]), clip_to_ball(p[d:])])
        return clip_to_ball(p)

    best_val, best_p, history = maximize_over_ball(
        objective, spec.grid, GRID_MAX_RADIUS / GRID_RADII, REFINE_ROUNDS,
        REFINE_SAMPLES, spec.seed + 17, project=project)
    return MinMaxReport(
        sup_energy=best_val, argmax=best_p, eps=eps, family=spec.family,
        seed=spec.seed, grid_size=len(spec.grid),
        grid_info={"dirs": spec.n_dirs, "radii": GRID_RADII,
                   "max_radius": GRID_MAX_RADIUS,
                   "refine_rounds": REFINE_ROUNDS,
                   "refine_samples": REFINE_SAMPLES},
        refinement=history, sweep_rows=rows)


def sweep_table(report: MinMaxReport):
    """The report's sweep as table rows: the header p0, p1, ... and PARTS,
    then one row of floats per evaluated member."""
    dim = len(np.atleast_1d(report.argmax))
    return ([[f"p{i}" for i in range(dim)] + list(PARTS)]
            + [[float(x) for x in row] for row in report.sweep_rows])


# ---------------------------------------------------------------------------
# balanced points and eigenvalue bounds
# ---------------------------------------------------------------------------

def _measure_weights(spec, mu):
    """Vertex weights of mu (None: the volume measure of spec.mesh). A mu
    that is not a finite, nonnegative array of shape (V,) raises
    FamilyError."""
    if mu is None:
        return volume_measure(spec.mesh)
    w = np.asarray(mu, dtype=float)
    if w.shape != (spec.mesh.num_vertices,):
        raise FamilyError(f"mu must have shape ({spec.mesh.num_vertices},), "
                          f"got {w.shape}")
    if not (np.all(np.isfinite(w)) and np.all(w >= 0.0)):
        raise FamilyError("mu must be finite and nonnegative")
    return w


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
    return _balance(lambda a: w @ spec.member(a), starts,
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
        vals = family_second(spec, p[:d], p[d:])
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
    vals = spec.member(balanced)
    dirichlet2 = float(np.sum(vals * (spec.mesh.stiffness @ vals)))
    l2mu = float(np.sum(w * np.sum(vals * vals, axis=1)))
    if l2mu <= 0.0:
        raise FamilyError("balanced member vanishes in L2(mu)")
    ratio = dirichlet2 / l2mu
    lam1 = float(spectra.solve_pencil(spec.mesh, w, 1).values[1])
    if lam1 > ratio * (1.0 + 1e-6) + 1e-6:
        raise FamilyError(
            f"eigenvalue bound violated: lambda_1={lam1} > R={ratio}")
    return ratio


def sandwich_holds(report: MinMaxReport, lam1):
    """Check 2 sup >= (1 - 2 eps sup^(1/2)) lambda_1 (unit-area metric) at
    the sup and eps of a `minmax_upper` report."""
    sup, eps = report.sup_energy, report.eps
    lhs = 2.0 * sup
    rhs = (1.0 - 2.0 * eps * np.sqrt(max(sup, 0.0))) * lam1
    return lhs >= rhs, lhs, rhs


def extract_critical(spec: FamilySpec, report: MinMaxReport, start=None):
    """Descend at report.eps from the report's argmax member, or from
    `start` (a warm start such as the critical map of a larger eps), to an
    approximate critical point of E_eps.

    The report must be minmax_upper's on spec. The descent runs to
    DESCENT_TOL or DESCENT_MAX_ITERS steps. Fills report.critical with the
    final map u (a (V, d) array), its energy and gradient norm, the tension
    residual of the normalized map, the convergence flag, the step count
    and the spread max_i |u_i - u_bar| about the area-weighted mean u_bar
    (zero for a constant map); from the argmax, E_eps(u) <= sup_energy by
    monotone descent.
    """
    if start is None:
        start = spec.member(report.argmax)
    out = gl_descend(spec.mesh, start, report.eps)
    u = out["u"]
    _, agg = tension_residual(spec.mesh, SphereMap(normalize_rows(u)))
    va = spec.mesh.vertex_areas
    dev = u - va @ u / va.sum()
    report.critical = {
        "u": u, "E_eps": out["E_eps"],
        "gradient_norm": out["gradient_norm"],
        "tension_residual": agg, "converged": out["converged"],
        "iterations": out["iterations"],
        "spread": float(np.sqrt(_row_dot(dev, dev).max())),
    }
    return report


# ---------------------------------------------------------------------------
# the glminmax recipe
# ---------------------------------------------------------------------------

def glminmax_recipe(mesh, base_map: SphereMap, eps_list, seed, n_dirs):
    """The `specx glminmax` run: the first family of base_map on mesh
    rescaled to unit area, swept at each eps of the schedule in turn.

    Each eps descends from the critical map of the one before (the first
    from its argmax) and checks the sandwich against lambda_1 of the
    unit-area mesh. Returns (payload, ledger, tables, flags): each eps's
    report with its sandwich, sup E_eps per eps, each eps's sweep table,
    and one flag per unconverged descent and per descent that collapsed to
    a constant map (spread at most DESCENT_TOL). The whole schedule is
    checked before any member is built. A failure after the first report, a
    violated sandwich among them, ends the run with the reports that
    finished and the flag (FAILED, message).
    """
    for eps in eps_list:
        _check_eps(eps)
    unit = mesh.scaled(1.0 / np.sqrt(area(mesh)))
    lam1 = float(spectra.laplace_eigs(unit, k=1, seed=seed).values[1])
    spec = FamilySpec(unit, base_map, seed=seed, n_dirs=n_dirs)
    results, ledger, tables, flags = [], [], {}, []
    warm = None  # track the critical branch across the eps schedule
    try:
        for eps in eps_list:
            rep = extract_critical(spec, minmax_upper(spec, eps), start=warm)
            crit = rep.critical
            warm = crit["u"]
            stage = f"glminmax eps={eps}"
            if not crit["converged"]:
                flags.append((stage, "descent not converged after "
                              f"{crit['iterations']} iterations (gradient "
                              f"norm {crit['gradient_norm']:.3e})"))
            if crit["spread"] <= DESCENT_TOL:
                flags.append((stage, "descent collapsed to a constant map "
                              f"(spread {crit['spread']:.3e}), a trivial "
                              "critical point, not a min-max one"))
            ok, lhs, rhs = sandwich_holds(rep, lam1)
            doc = rep.to_json_dict()
            doc["sandwich"] = {"holds": bool(ok), "lhs": lhs, "rhs": rhs,
                               "lambda1": lam1}
            results.append(doc)
            tables[f"glminmax_sweep_eps{eps}.csv"] = sweep_table(rep)
            ledger.append((f"sup_energy_eps{eps}", float(rep.sup_energy)))
            if not ok:
                raise spectra.SolverError("eigenvalue sandwich violated")
    except FAILURES as exc:
        if not results:
            raise
        flags.append((FAILED, str(exc)))
    return results, ledger, tables, flags
