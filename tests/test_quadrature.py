import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from darcyperturb.config import compile_expression
from darcyperturb.quadrature import Antiderivative, as_array_fn, gauss_rule, integrate_cells, triangle_rule
from oracles import antiderivative_clip, bits, broadcast_expression, broadcast_fn


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


# --- shortcuts that must reproduce the plain forms bit for bit (tests/oracles.py)

# name -> (function, number of arguments): fresh arrays, constants, dtype
# changes, views and an argument itself; -0.0 and NaN among the results
FUNCTIONS = {
    "sin": (lambda x: np.sin(3.0 * x), 1),
    "signed-zero": (lambda x: x * 0.0, 1),
    "sqrt": (np.sqrt, 1),
    "constant": (lambda x: 2.5, 1),
    "negative-zero": (lambda x: -0.0, 1),
    "nan": (lambda x: np.nan, 1),
    "float32": (lambda x: np.float32(1.1), 1),
    "compare": (lambda x: x > 0.0, 1),
    "identity": (lambda x: x, 1),
    "view": (lambda x: x[...], 1),
    "length-one": (lambda x: np.full(1, 3.0), 1),
    "product": (lambda x, z: x * z, 2),
    "second": (lambda x, z: z, 2),
    "constant-2d": (lambda x, z: -0.0, 2),
}
EXPRESSIONS = [(e, ("x",)) for e in ("0", "1", "-0.0", "x", "x*0", "sqrt(x)", "sin(pi*x) + x**2",
                                     "1/x", "log(x)", "exp(-x)", "minimum(x, 0.5)", "sign(x)",
                                     "2*pi", "abs(x)**0.5")]
EXPRESSIONS += [(e, ("x", "z")) for e in ("x*z", "z", "sin(pi*x)*z", "1 + 0*z", "0", "x")]


def arguments(n: int):
    """n float arrays of one shape (0 to 2 dimensions): any floats first,
    then values in [-2, 2]."""
    first = arrays(np.float64, array_shapes(min_dims=0, max_dims=2, max_side=6),
                   elements=st.floats(allow_nan=True, allow_infinity=True))
    rest = lambda x: arrays(np.float64, x.shape, elements=st.floats(-2.0, 2.0))
    return first.flatmap(lambda x: st.tuples(st.just(x), *[rest(x)] * (n - 1)))


def _same(new, old):
    assert type(new) is type(old)
    assert np.shape(new) == np.shape(old)
    assert np.array_equal(bits(new), bits(old))


@settings(deadline=None, max_examples=400)
@given(name=st.sampled_from(sorted(FUNCTIONS)), data=st.data())
def test_as_array_fn_matches_broadcast(name, data):
    fn, n = FUNCTIONS[name]
    args = data.draw(arguments(n))
    with np.errstate(all="ignore"):
        _same(as_array_fn(fn)(*args), broadcast_fn(fn)(*args))


@settings(deadline=None, max_examples=400)
@given(case=st.sampled_from(EXPRESSIONS), data=st.data())
def test_compiled_expression_matches_broadcast(case, data):
    expr, variables = case
    args = data.draw(arguments(len(variables)))
    with np.errstate(all="ignore"):
        _same(compile_expression(expr, variables)(*args), broadcast_expression(expr, variables)(*args))


def test_wrapping_twice_returns_the_wrapper():
    fn = as_array_fn(np.cos)
    assert as_array_fn(fn) is fn
    compiled = compile_expression("x + 1", ("x",))
    assert as_array_fn(compiled) is compiled


@pytest.mark.parametrize("fn", [as_array_fn(lambda x: x), compile_expression("x", ("x",))],
                         ids=["identity", "expression-x"])
def test_result_never_aliases_the_argument(fn):
    a = np.linspace(0.0, 1.0, 5)
    out = fn(a)
    assert np.array_equal(out, a)
    out[:] = -1.0
    assert np.array_equal(a, np.linspace(0.0, 1.0, 5))


ANTIDERIVATIVE_FNS = {
    "cos": np.cos,
    "zero-expression": compile_expression("0", ("x",)),
    "square-expression": compile_expression("x**2 - 1/3", ("x",)),
    "signed-zero": lambda x: x * 0.0,
}


@st.composite
def antiderivative_points(draw):
    a = draw(st.floats(-2.0, 1.0))
    b = a + draw(st.floats(1e-3, 2.0))
    G = Antiderivative(ANTIDERIVATIVE_FNS[draw(st.sampled_from(sorted(ANTIDERIVATIVE_FNS)))], a, b)
    inside = st.floats(a, b)
    on_grid = st.sampled_from(list(G.grid))
    outside = st.one_of(st.floats(a - 1.0, a), st.floats(b, b + 1.0))
    xs = draw(st.lists(st.one_of(inside, on_grid, outside), min_size=1, max_size=12))
    return G, np.array(xs)


@settings(deadline=None, max_examples=200)
@given(case=antiderivative_points())
def test_antiderivative_matches_clip_clamp(case):
    G, xs = case
    assert np.array_equal(bits(G(xs)), bits(antiderivative_clip(G, xs)))
    new, old = G(float(xs[0])), antiderivative_clip(G, float(xs[0]))
    assert type(new) is float and bits(new) == bits(old)
