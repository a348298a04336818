"""Property tests of the flat-split clip against a Sutherland-Hodgman oracle."""

import numpy as np
from hypothesis import given, settings, strategies as st

from darcyperturb.fem2d import _area_below_zero, build_fitted_mesh
from darcyperturb.geometry import make_perturbation


def area_below_zero_loop(p: np.ndarray) -> np.ndarray:
    """Reference clip: per-triangle Sutherland-Hodgman against z <= 0."""
    areas = np.empty(len(p))
    for i, tri in enumerate(p):
        poly = list(tri)
        out = []
        for k in range(len(poly)):
            cur, nxt = poly[k], poly[(k + 1) % len(poly)]
            cin, nin = cur[1] <= 0.0, nxt[1] <= 0.0
            if cin:
                out.append(cur)
            if cin != nin:
                t = cur[1] / (cur[1] - nxt[1])
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
    below = _area_below_zero(p, full_area(p))
    np.testing.assert_allclose(below, area_below_zero_loop(p), rtol=0.0, atol=1e-14)


@given(triangles)
def test_clip_within_triangle_area(tris):
    p = np.array(tris, dtype=float)
    area = full_area(p)
    below = _area_below_zero(p, area)
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
    below = _area_below_zero(mesh.nodes[mesh.triangles], area)
    # the part of (0, 1) x (-1, 1) below z = 0 has area 1
    assert abs(np.sum(below) - 1.0) < 1e-12
    assert np.all(below <= area)
