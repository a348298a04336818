"""Composite Gauss-Legendre quadrature helpers shared by all solvers."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

DEFAULT_ORDER = 4

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


def integrate_cells(fn, edges: np.ndarray, *, order: int = DEFAULT_ORDER) -> float:
    """Composite Gauss-Legendre integral of `fn` over the cells given by `edges`."""
    edges = np.asarray(edges, dtype=float)
    t, w = gauss_rule(order)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    # (cells, order) sample grid
    x = lo[:, None] + half[:, None] * (t[None, :] + 1.0)
    vals = np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
    return float(np.sum(half * (vals @ w)))


class Antiderivative:
    """Cumulative integral x -> int_a^x fn, evaluable anywhere in [a, b].

    Cell boundary values are precomputed; the in-cell remainder is done with a
    fresh Gauss rule per call, so evaluations stay accurate to near machine
    precision for smooth integrands.
    """

    def __init__(self, fn, a: float, b: float):
        if b <= a:
            raise ValueError(f"need a < b, got [{a}, {b}]")
        self.fn = fn
        self.a = float(a)
        self.b = float(b)
        self.grid = np.linspace(a, b, _ANTIDERIVATIVE_CELLS + 1)
        lo, hi = self.grid[:-1], self.grid[1:]
        half = 0.5 * (hi - lo)
        x = lo[:, None] + half[:, None] * _NODES_PLUS_ONE
        vals = np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite integrand sample in Antiderivative")
        cell_ints = half * (vals @ _WEIGHTS)
        self.cum = np.concatenate([[0.0], np.cumsum(cell_ints)])

    def __call__(self, x):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        # integer min/max clamp: np.clip costs several times more per call
        idx = np.minimum(np.maximum(self.grid.searchsorted(x_arr, side="right") - 1, 0),
                         _ANTIDERIVATIVE_CELLS - 1)
        lo = self.grid[idx]
        half = 0.5 * (x_arr - lo)
        pts = lo[:, None] + half[:, None] * _NODES_PLUS_ONE
        vals = np.asarray(self.fn(pts.ravel()), dtype=float).reshape(pts.shape)
        out = self.cum[idx] + half * (vals @ _WEIGHTS)
        return out if np.ndim(x) else float(out[0])


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
