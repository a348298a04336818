"""Composite Gauss-Legendre quadrature helpers shared by all solvers."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

DEFAULT_ORDER = 4
# the largest quadrature order a forcing may ask for: numpy documents its
# Gauss-Legendre rule as tested up to 100 points, and forms the rule from an
# order x order eigenproblem
MAX_ORDER = 100

# Gauss order and cell count of every Antiderivative
_ANTIDERIVATIVE_ORDER = 12
_ANTIDERIVATIVE_CELLS = 32


@lru_cache(maxsize=None)
def gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the `order`-point Gauss-Legendre rule on [-1, 1]."""
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


# the rule of every Antiderivative, read once, with its nodes shifted to [0, 2]
_NODES, _WEIGHTS = gauss_rule(_ANTIDERIVATIVE_ORDER)
_NODES_PLUS_ONE = (_NODES + 1.0)[None, :]


def as_array_fn(fn):
    """Wrap a scalar expression so it maps float arrays to float arrays.

    The result takes the shape of the first argument, so expressions that
    evaluate to a constant broadcast over the sample points.  The result is a
    new array, never one of the arguments.  A function that is already wrapped
    is returned as it is.
    """
    if getattr(fn, "_maps_arrays", False):
        return fn

    def wrapped(*args):
        args = [np.asarray(a, dtype=float) for a in args]
        out = np.asarray(fn(*args), dtype=float)
        x = args[0]
        if x.ndim and not out.ndim:
            return np.full_like(x, out)  # v * 1.0 is v: the product below, without the ones
        return out * np.ones_like(x)

    wrapped._maps_arrays = True
    return wrapped


def integrate_cells(fn, edges: np.ndarray, *, order: int = DEFAULT_ORDER):
    """Composite Gauss-Legendre integral of `fn` over the cells given by `edges`.

    `edges` of shape (R, cells + 1) holds R rows at once: `fn` then takes the
    (R, k) sample points and the result is an array of R integrals.  One row
    of edges gives a float, and `fn` takes the flat sample points.
    """
    edges = np.asarray(edges, dtype=float)
    t, w = gauss_rule(order)
    lo, hi = edges[..., :-1], edges[..., 1:]
    half = 0.5 * (hi - lo)
    # (..., cells, order) sample grid
    x = lo[..., None] + half[..., None] * (t + 1.0)
    vals = np.asarray(fn(x.reshape(edges.shape[:-1] + (-1,))), dtype=float).reshape(x.shape)
    # (R, cells, order) @ w keeps the per-row product of a single row, bit for bit
    total = np.sum(half * (vals @ w), axis=-1)
    return total if total.ndim else float(total)


class Antiderivative:
    """Cumulative integral x -> int_a^x fn, evaluable anywhere in [a, b].

    Cell boundary values are precomputed; the in-cell remainder is done with a
    fresh Gauss rule per call, so evaluations stay accurate to near machine
    precision for smooth integrands.

    `a` and `b` may be arrays of R row endpoints; the integral then holds R
    rows.  A call takes points of shape (R, m), row r inside row r's interval
    (a scalar is one point per row, giving (R, 1)), and a one-row integral
    takes points of any shape.  `fn` gets the sample points in blocks of the
    call's leading shape: (R, k) for R rows, flat for flat points.
    """

    def __init__(self, fn, a, b):
        a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        if np.any(b <= a):
            raise ValueError(f"need a < b, got [{a}, {b}]")
        self.fn = fn
        self.grid = np.linspace(a, b, _ANTIDERIVATIVE_CELLS + 1, axis=-1)
        lo, hi = self.grid[..., :-1], self.grid[..., 1:]
        half = 0.5 * (hi - lo)
        x = lo[..., None] + half[..., None] * _NODES_PLUS_ONE
        vals = np.asarray(fn(x.reshape(a.shape + (-1,))), dtype=float).reshape(x.shape)
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite integrand sample in Antiderivative")
        cell_ints = half * (vals @ _WEIGHTS)
        self.cum = np.concatenate([np.zeros(a.shape + (1,)), np.cumsum(cell_ints, axis=-1)], axis=-1)
        # flat index of the first grid point of each row
        self._row_start = np.arange(0, self.grid.size, _ANTIDERIVATIVE_CELLS + 1).reshape(a.shape + (1,))

    def __call__(self, x):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        # the count of grid points <= x is searchsorted(side="right") row by row;
        # integer min/max clamp: np.clip costs several times more per call
        count = np.count_nonzero(self.grid[..., None, :] <= x_arr[..., None], axis=-1)
        idx = np.minimum(np.maximum(count - 1, 0), _ANTIDERIVATIVE_CELLS - 1) + self._row_start
        lo = self.grid.ravel()[idx]
        half = 0.5 * (x_arr - lo)
        pts = lo[..., None] + half[..., None] * _NODES_PLUS_ONE
        vals = np.asarray(self.fn(pts.reshape(pts.shape[:-2] + (-1,))), dtype=float).reshape(pts.shape)
        out = self.cum.ravel()[idx] + half * (vals @ _WEIGHTS)
        return out if np.ndim(x) or self.grid.ndim > 1 else float(out[0])


def triangle_rule(degree: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric points and weights (summing to 1) for triangle quadrature."""
    if degree <= 1:
        return np.array([[1 / 3, 1 / 3, 1 / 3]]), np.array([1.0])
    if degree == 2:
        return (
            np.array([[2 / 3, 1 / 6, 1 / 6], [1 / 6, 2 / 3, 1 / 6], [1 / 6, 1 / 6, 2 / 3]]),
            np.array([1 / 3, 1 / 3, 1 / 3]),
        )
    # degree 4, 6-point rule
    a1, b1 = 0.816847572980459, 0.091576213509771
    a2, b2 = 0.108103018168070, 0.445948490915965
    w1, w2 = 0.109951743655322, 0.223381589678011
    pts = np.array(
        [
            [a1, b1, b1], [b1, a1, b1], [b1, b1, a1],
            [a2, b2, b2], [b2, a2, b2], [b2, b2, a2],
        ]
    )
    return pts, np.array([w1, w1, w1, w2, w2, w2])
