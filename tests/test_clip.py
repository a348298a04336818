"""Property tests of the triangle clip against a Sutherland-Hodgman oracle,
for the flat line z = 0 and for sloped lines z = l(x)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from darcyperturb.fem2d import build_fitted_mesh
from darcyperturb.geometry import _area_below, make_perturbation


def area_below_loop(p: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Reference clip: per-triangle Sutherland-Hodgman against h <= 0, where h
    holds the vertex heights above the cutting line."""
    areas = np.empty(len(p))
    for i, (tri, ht) in enumerate(zip(p, h)):
        out = []
        for k in range(3):
            cur, nxt = tri[k], tri[(k + 1) % 3]
            hc, hn = ht[k], ht[(k + 1) % 3]
            cin, nin = hc <= 0.0, hn <= 0.0
            if cin:
                out.append(cur)
            if cin != nin:
                t = hc / (hc - hn)
                out.append(cur + t * (nxt - cur))
        if len(out) < 3:
            areas[i] = 0.0
            continue
        v = np.asarray(out)
        x, z = v[:, 0], v[:, 1]
        areas[i] = 0.5 * abs(np.dot(x, np.roll(z, -1)) - np.dot(z, np.roll(x, -1)))
    return areas


def full_area(p: np.ndarray) -> np.ndarray:
    return 0.5 * np.abs((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


coord = st.floats(-1.0, 1.0, allow_nan=False)
level = st.one_of(st.just(0.0), coord)  # vertices on z = 0 come up often
point = st.tuples(coord, level)


@st.composite
def special_triangle(draw):
    """Triangles with an edge on z = 0, or of zero area."""
    (xa, za), (xb, zb) = draw(point), draw(point)
    kind = draw(st.sampled_from(["edge_on_axis", "collinear", "repeated", "point"]))
    if kind == "edge_on_axis":
        tri = [(xa, 0.0), (xb, 0.0), draw(point)]
    elif kind == "collinear":
        lam = draw(st.floats(-1.0, 2.0))
        tri = [(xa, za), (xb, zb), (xa + lam * (xb - xa), za + lam * (zb - za))]
    elif kind == "repeated":
        tri = [(xa, za), (xb, zb), (xa, za)]
    else:
        tri = [(xa, za)] * 3
    return draw(st.permutations(tri))


triangles = st.lists(st.one_of(st.tuples(point, point, point), special_triangle()),
                     min_size=1, max_size=24)


@given(triangles)
def test_clip_matches_loop(tris):
    p = np.array(tris, dtype=float)
    below = _area_below(p[..., 1], full_area(p))
    np.testing.assert_allclose(below, area_below_loop(p, p[..., 1]), rtol=0.0, atol=1e-14)


def sloped_triangle(intercept, slope):
    """Triangles with vertices on the line z = intercept + slope * x drawn often."""
    on_line = st.builds(lambda x: (x, intercept + slope * x), coord)
    return st.tuples(*[st.one_of(on_line, point)] * 3)


@given(st.tuples(coord, st.floats(-2.0, 2.0)).flatmap(
    lambda line: st.tuples(st.just(line), st.lists(sloped_triangle(*line), min_size=1, max_size=24))))
def test_clip_matches_loop_for_sloped_line(drawn):
    (intercept, slope), tris = drawn
    p = np.array(tris, dtype=float)
    # the clip never reads x: it sees only the heights above the line
    h = p[..., 1] - (intercept + slope * p[..., 0])
    below = _area_below(h, full_area(p))
    np.testing.assert_allclose(below, area_below_loop(p, h), rtol=0.0, atol=1e-14)
    assert np.all(below >= 0.0) and np.all(below <= full_area(p))


@given(triangles)
def test_clip_within_triangle_area(tris):
    p = np.array(tris, dtype=float)
    area = full_area(p)
    below = _area_below(p[..., 1], area)
    assert np.all(below >= 0.0)
    assert np.all(below <= area)


@settings(deadline=None, max_examples=40)
@given(
    family=st.sampled_from(["sine", "sine2", "bump", "hat"]),
    amplitude=st.floats(0.0, 0.9),
    nx=st.integers(2, 16),
    nz=st.integers(2, 16),
)
def test_clip_partitions_fitted_mesh(family, amplitude, nx, nz):
    params = {"sine": {"wavenumber": 1}, "sine2": {"wavenumber": 2}, "bump": {}, "hat": {"knot": 0.3}}
    zeta = make_perturbation(family.rstrip("2"), params[family], amplitude)
    mesh = build_fitted_mesh(zeta, nx, nz)
    area = mesh.triangle_areas()
    below = _area_below(mesh.nodes[:, 1].take(mesh.triangles), area)
    # the part of (0, 1) x (-1, 1) below z = 0 has area 1
    assert abs(np.sum(below) - 1.0) < 1e-12
    assert np.all(below <= area)
