import numpy as np
import pytest

from specx._ballopt import (BALL_EDGE, ball_grid, clip_to_ball,
                            maximize_over_ball)


@pytest.mark.parametrize("dim, n_dirs, n_radii", [(3, 14, 5), (4, 16, 6),
                                                  (6, 9, 2)])
def test_ball_grid_shape(dim, n_dirs, n_radii):
    grid = ball_grid(dim, n_dirs, n_radii, 0.9, 3)
    assert grid.shape == (1 + n_radii * n_dirs, dim)
    assert np.array_equal(grid[0], np.zeros(dim))
    norms = np.linalg.norm(grid, axis=1)
    assert norms.max() <= 0.9 + 1e-15
    # each shell holds the same n_dirs unit directions at its radius
    shells = norms[1:].reshape(n_radii, n_dirs)
    assert np.allclose(shells, np.linspace(0.0, 0.9, n_radii + 1)[1:, None])
    units = grid[1:].reshape(n_radii, n_dirs, dim) / shells[:, :, None]
    assert np.allclose(units, units[0])
    # the signed axes come first
    axes = np.vstack([np.eye(dim), -np.eye(dim)])[:n_dirs]
    assert np.array_equal(units[0][:len(axes)], axes)


@pytest.mark.parametrize("n_dirs", [1, 2, 5])
def test_ball_grid_few_directions_keep_leading_axes(n_dirs):
    # below 2 dim directions the grid keeps the first n_dirs signed axes,
    # with no random direction: --grid 1 is the smallest it accepts
    dim = 3
    grid = ball_grid(dim, n_dirs, 2, 0.8, 0)
    axes = np.vstack([np.eye(dim), -np.eye(dim)])[:n_dirs]
    assert grid.shape == (1 + 2 * n_dirs, dim)
    assert np.array_equal(grid[1:1 + n_dirs], 0.4 * axes)
    assert np.array_equal(grid[1 + n_dirs:], 0.8 * axes)


def _bump(center):
    center = np.asarray(center, dtype=float)
    return lambda p: -float(np.sum((np.asarray(p) - center) ** 2))


def test_history_has_one_nondecreasing_entry_per_round():
    grid = ball_grid(3, 14, 5, 0.9, 0)
    for rounds in (0, 1, 4):
        _, _, history = maximize_over_ball(_bump([0.3, -0.2, 0.1]), grid,
                                           0.18, rounds, 8, 2)
        assert len(history) == rounds + 1
        assert all(b >= a for a, b in zip(history, history[1:]))


def test_refinement_points_pass_through_project():
    grid = ball_grid(2, 6, 3, 0.9, 0)
    projected = []

    def project(p):
        out = clip_to_ball(p, limit=0.5)
        projected.append(out.tobytes())
        return out

    seen = []

    def objective(p):
        seen.append(np.asarray(p, dtype=float))
        return float(p[0])  # pushes the refinement against the boundary

    maximize_over_ball(objective, grid, 0.3, 3, 10, 1, project=project)
    refined = seen[len(grid):]
    assert len(refined) == 3 * 10 == len(projected)
    assert [p.tobytes() for p in refined] == projected
    assert max(np.linalg.norm(p) for p in refined) <= 0.5 + 1e-15


def test_default_projection_is_the_ball_edge():
    grid = ball_grid(2, 4, 2, 0.9, 0)
    seen = []

    def objective(p):
        seen.append(np.linalg.norm(p))
        return float(np.linalg.norm(p))  # largest on the boundary

    best, best_p, _ = maximize_over_ball(objective, grid, 0.45, 3, 12, 0)
    assert max(seen) <= BALL_EDGE + 1e-15
    assert best > 0.9 and np.linalg.norm(best_p) == pytest.approx(best)


def test_same_seed_same_result():
    grid = ball_grid(3, 14, 5, 0.9, 0)
    runs = []
    for seed in (7, 7, 8):
        evaluated = []

        def objective(p):
            evaluated.append(np.asarray(p, dtype=float).tobytes())
            return _bump([0.3, -0.2, 0.1])(p)

        best, best_p, history = maximize_over_ball(objective, grid, 0.18, 3,
                                                   12, seed)
        runs.append((best, best_p.tobytes(), history, evaluated))
    assert runs[0] == runs[1]
    assert runs[0][3] != runs[2][3]  # the seed drives the refinement


def test_refinement_beats_the_grid_on_a_smooth_maximum():
    # the maximum sits between the grid points, so the grid's best is
    # strictly below it and the refinement must close part of the gap
    center = np.array([0.31, -0.17, 0.12])
    objective = _bump(center)
    grid = ball_grid(3, 14, 5, 0.9, 0)
    grid_best = max(objective(p) for p in grid)
    best, best_p, history = maximize_over_ball(objective, grid, 0.18, 3, 12,
                                               17)
    assert history[0] == grid_best < 0.0
    assert best >= grid_best
    assert best == objective(best_p)
    assert np.linalg.norm(best_p - center) < np.sqrt(-grid_best)
