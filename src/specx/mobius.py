"""Closed-form conformal transformations of the sphere, conformal-volume
estimation, and the `vc` recipe of the CLI.

G_a is the ball-indexed conformal automorphism; T_b the cap reflection that
is the identity on the cap {<x,b> <= |b|-|b|^2} and the conformal
reflection across its boundary on the complement (computed by conjugating a
Euclidean sphere inversion through stereographic projection with pole at
-b/|b|).
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from ._ballopt import ball_grid, maximize_over_ball
from .harmonic import SphereMap, energy


# the conformal-volume search: grid shells, their outer radius,
# refinement rounds and samples per round
VC_RADII = 6
VC_MAX_RADIUS = 0.95
VC_ROUNDS = 3
VC_SAMPLES = 16


def _in_ball(p, what):
    """p as a float array; ValueError unless it lies in the closed ball."""
    p = np.asarray(p, dtype=float)
    if np.linalg.norm(p) > 1.0 + 1e-12:
        raise ValueError(f"{what} parameter must lie in the closed ball")
    return p


def mobius_apply(a, x):
    """Apply G_a to the unit rows of a (V, d) array x.

    For |a| = 1 the family degenerates to the constant map a:
    `_kernels.mobius_batch`'s scale s = (1 - |a|^2) / |x + a|^2 is zero
    there, so every row, x = -a included, maps to a (exactly, once a.a
    rounds to 1).
    """
    return _kernels.mobius_batch(np.asarray(x, dtype=float),
                                 _in_ball(a, "Mobius"))


def cap_reflection(b, x):
    """Apply T_b to the unit rows of a (V, d) array x: identity on the cap,
    conformal reflection outside."""
    b = _in_ball(b, "cap")
    x = np.asarray(x, dtype=float)
    beta = float(np.linalg.norm(b))
    if beta <= 1e-14:
        return x.copy()
    inside = (x @ (b / beta)) <= 1.0 - beta
    return np.where(inside[:, None], x, _kernels.cap_reflect_raw(x, b))


def upsilon(a, b, x):
    """The composition G_a . T_b."""
    return mobius_apply(a, cap_reflection(b, x))


def linear_reflection(b, x):
    """Reflection through the hyperplane perpendicular to b (|b| = 1), of a
    (d,) vector or of the rows of a (V, d) array: criterion 6 reflects
    parameter vectors with it."""
    b = np.asarray(b, dtype=float)
    n = b / np.linalg.norm(b)
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x - 2.0 * float(x @ n) * n
    return x - 2.0 * (x @ n)[:, None] * n[None, :]


def conformal_volume(mesh, phi: SphereMap, n_dirs, seed):
    """Estimate sup_a Area(G_a . phi) = sup_a E(G_a . phi) from below.

    Multistart search over the parameter ball, `maximize_over_ball` on the
    `ball_grid` of n_dirs directions and the VC_* shells and refinement
    (same strategy as the min-max sweeps); the boundary |a| -> 1 is
    excluded beyond 0.999 where the family degenerates to constants.
    """
    dim = phi.ambient_dim

    def objective(a):
        return energy(mesh, mobius_apply(a, phi.values))

    grid = ball_grid(dim, n_dirs, VC_RADII, VC_MAX_RADIUS, seed)
    best_val, best_a, history = maximize_over_ball(
        objective, grid, VC_MAX_RADIUS / VC_RADII, VC_ROUNDS, VC_SAMPLES,
        seed)
    return {"V_c_estimate": best_val, "argmax": best_a,
            "refinement": history}


def vc_recipe(mesh, phi: SphereMap, n_dirs, seed):
    """The `specx vc` run: `conformal_volume` as (payload, ledger, tables,
    flags)."""
    out = conformal_volume(mesh, phi, n_dirs, seed)
    payload = {"V_c_estimate": float(out["V_c_estimate"]),
               "argmax": [float(x) for x in out["argmax"]],
               "refinement": [float(x) for x in out["refinement"]]}
    return payload, [("V_c", payload["V_c_estimate"])], {}, []
