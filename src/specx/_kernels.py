"""Hot numeric kernels in numpy.

Everything here operates on plain float64 arrays; callers own shape
validation.
"""

import functools

import numpy as np

HAVE_NUMBA = False  # read by the environment block of specxbench/run.py


def _row_dot(x, y):
    """Row-wise inner products of two (V, d) arrays.

    One matrix-vector product with a ones vector: on (642, 3) arrays it
    costs a third of np.sum(x * y, axis=1).
    """
    return (x * y) @ _ones(x.shape[1])


@functools.lru_cache(maxsize=None)
def _ones(d):
    """A read-only ones vector of length d, made once per width."""
    ones = np.ones(d)
    ones.flags.writeable = False
    return ones


def tri_geometry(corners):
    """Cotangents and areas for a batch of triangles.

    corners: (F, 3, 3) positions. Returns (cots, areas): cots[f, i] is the
    cotangent of the interior angle at corner i (opposite edge i), areas[f]
    the triangle area.
    """
    p0 = corners[:, 0]
    p1 = corners[:, 1]
    p2 = corners[:, 2]
    e0 = p2 - p1  # edge opposite corner 0
    e1 = p0 - p2
    e2 = p1 - p0
    cr = np.cross(e2, -e1)
    double_area = np.sqrt(np.sum(cr * cr, axis=1))
    areas = 0.5 * double_area
    d = np.where(double_area > 0.0, double_area, 1.0)
    cot0 = np.sum(e1 * (-e2), axis=1) / d
    cot1 = np.sum(e2 * (-e0), axis=1) / d
    cot2 = np.sum(e0 * (-e1), axis=1) / d
    return np.stack([cot0, cot1, cot2], axis=1), areas


def mobius_batch(x, a):
    """Ball-indexed conformal automorphism of the unit sphere, row-wise.

    x: (V, d) unit vectors, a: (d,) with |a| <= 1. At |a| = 1 the scale s
    is zero and every row, x = -a included, maps to a: the constant map
    that ends the family.
    """
    u = x + a[None, :]
    d2 = np.maximum(_row_dot(u, u), 1e-300)
    s = (1.0 - float(np.dot(a, a))) / d2
    return s[:, None] * u + a[None, :]


def cap_reflect_raw(x, b):
    """Conformal reflection across the cap boundary, applied to every row.

    Conjugates the Euclidean sphere inversion fixing the projected cap
    boundary through stereographic projection with pole at -b/|b|; it is an
    involution away from the pole. b must be nonzero with 0 < |b| <= 1.
    """
    beta = float(np.sqrt(np.dot(b, b)))
    n = b / beta
    r2 = beta / (2.0 - beta)  # squared radius of the projected cap boundary
    t = x @ n
    denom = 1.0 + t  # 1 - <x, pole>, pole = -n
    out = np.empty_like(x)
    at_pole = denom <= 1e-12
    safe = ~at_pole
    d_s = denom[safe][:, None]
    q = (x[safe] - t[safe][:, None] * n[None, :]) / d_s
    q2 = np.sum(q * q, axis=1)
    near_axis = q2 <= 1e-300
    q2 = np.maximum(q2, 1e-300)
    w = (r2 / q2)[:, None] * q
    w2 = np.sum(w * w, axis=1)
    y = (2.0 * w - (w2 - 1.0)[:, None] * n[None, :]) / (1.0 + w2)[:, None]
    y[near_axis] = -n
    out[safe] = y
    out[at_pole] = n
    return out


def gl_pointwise(values, areas):
    """The relaxed energy's eps-free pointwise sums.

    values: (V, d), areas: (V,). Returns (numerator, avg_norm) with
    numerator = sum_i A_i (1 - |u_i|^2)^2, the potential integral times
    4 eps^2, and avg_norm the area-averaged |u_i|.
    """
    n2 = _row_dot(values, values)
    dev = 1.0 - n2
    num = float(np.sum(areas * dev * dev))
    avg = float(np.sum(areas * np.sqrt(n2)) / np.sum(areas))
    return num, avg
