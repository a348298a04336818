import numpy as np
import pytest

from darcyperturb.quadrature import Antiderivative, gauss_rule, integrate_cells, triangle_rule


def test_gauss_rule_polynomial_exactness():
    for order in (1, 2, 4, 8):
        t, w = gauss_rule(order)
        # exact for polynomials up to degree 2*order - 1
        for deg in range(2 * order):
            exact = (1.0 - (-1.0) ** (deg + 1)) / (deg + 1)
            assert np.dot(w, t**deg) == pytest.approx(exact, abs=1e-14)


def test_gauss_rule_rejects_bad_order():
    with pytest.raises(ValueError):
        gauss_rule(0)


def test_integrate_polynomial():
    assert integrate_cells(lambda x: 3 * x**2, [0.0, 2.0], order=2) == pytest.approx(8.0, abs=1e-13)
    assert integrate_cells(lambda x: x, [1.0, 1.0]) == 0.0


def test_integrate_cells_matches_analytic():
    edges = np.linspace(0.0, np.pi, 9)
    val = integrate_cells(np.sin, edges, order=8)
    assert val == pytest.approx(2.0, abs=1e-13)


def test_antiderivative_accuracy():
    G = Antiderivative(np.cos, -1.0, 1.0)
    xs = np.linspace(-1.0, 1.0, 57)
    assert np.max(np.abs(G(xs) - (np.sin(xs) + np.sin(1.0)))) < 1e-14
    # scalar call form
    assert G(0.5) == pytest.approx(np.sin(0.5) + np.sin(1.0), abs=1e-14)


def test_antiderivative_nested():
    G = Antiderivative(lambda x: np.exp(x), 0.0, 1.0)
    D = Antiderivative(lambda t: G(t), 0.0, 1.0)
    # int_0^1 (e^t - 1) dt = e - 2
    assert D(1.0) == pytest.approx(np.e - 2.0, abs=1e-12)


def test_antiderivative_rejects_nonfinite():
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            Antiderivative(lambda x: 1.0 / (x - x), 0.0, 1.0)


def test_triangle_rules():
    for degree in (1, 2, 4):
        bary, w = triangle_rule(degree)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(np.sum(bary, axis=1), 1.0)
        # integrate x^a y^b over the unit triangle and compare with the exact
        # value a! b! / (a + b + 2)!
        import math

        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        pts = bary @ verts
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                val = 0.5 * np.dot(w, pts[:, 0] ** a * pts[:, 1] ** b)
                exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
                assert val == pytest.approx(exact, abs=1e-14)
