"""Deterministic grid-plus-refinement maximization over a parameter ball.

Shared by the conformal-volume estimator and the min-max sweeps: each
builds its grid with `ball_grid` (or its own, as the second family does)
and hands it to `maximize_over_ball`, which evaluates the grid and then
runs rounds of local sampling around the incumbent, the sampling radius
halving per round.
"""

import numpy as np

BALL_EDGE = 0.999  # parameters beyond this are treated as boundary samples


def ball_directions(dim, n_dirs, rng):
    """n_dirs roughly equidistributed unit vectors (seeded): the 2 dim
    signed axes first, then random ones; fewer than 2 dim keep the leading
    axes."""
    dirs = [np.eye(dim)[k] for k in range(dim)]
    dirs += [-d for d in list(dirs)]
    while len(dirs) < n_dirs:
        v = rng.standard_normal(dim)
        dirs.append(v / np.linalg.norm(v))
    return np.asarray(dirs[:max(n_dirs, 1)])


def ball_grid(dim, n_dirs, n_radii, max_radius, seed):
    """Deterministic grid in the open ball: the center plus n_radii shells
    of n_dirs points, evenly spaced out to max_radius."""
    rng = np.random.default_rng(seed)
    dirs = ball_directions(dim, n_dirs, rng)
    radii = np.linspace(0.0, max_radius, n_radii + 1)[1:]
    pts = [np.zeros(dim)]
    for r in radii:
        pts.extend(r * dirs)
    return np.asarray(pts)


def clip_to_ball(p, limit=BALL_EDGE):
    nrm = np.linalg.norm(p)
    if nrm > limit:
        return p * (limit / nrm)
    return p


def maximize_over_ball(objective, grid, radius, rounds, local_samples, seed,
                       project=clip_to_ball):
    """Grid sup with shrinking-neighborhood refinement around the argmax.

    Each of `rounds` rounds draws `local_samples` Gaussian samples of
    scale `radius` (halved after every round) around the incumbent and
    maps them back into the parameter domain by `project` (the clip to the
    ball by default). Returns (best_value, best_point, history) where
    history records the incumbent value per round (coarse grid first).
    """
    rng = np.random.default_rng(seed)
    best_val = -np.inf
    best_p = np.asarray(grid[0], dtype=float)
    for p in grid:
        v = objective(p)
        if v > best_val:
            best_val, best_p = v, np.asarray(p, dtype=float)
    history = [best_val]
    dim = len(best_p)
    for _ in range(rounds):
        for _ in range(local_samples):
            cand = project(best_p + radius * rng.standard_normal(dim))
            v = objective(cand)
            if v > best_val:
                best_val, best_p = v, cand
        history.append(best_val)
        radius *= 0.5
    return best_val, best_p, history
