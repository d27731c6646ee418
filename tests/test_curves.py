import numpy as np
import pytest

from helpers import brute_force_curve_distance, translate_curve, turning_number

from phasefront import errors
from phasefront.acsolver import Grid
from phasefront.curves import (
    FrontCurve,
    circle_curve,
    curve_from_points,
    curve_length,
    ellipse_curve,
    enclosed_area,
    geometry,
    hausdorff,
    is_simple,
    marching_squares,
    points_to_curve_distance,
    resample,
)


@pytest.mark.parametrize("curve", [
    ellipse_curve((0.52, 0.47), 0.25, 0.17, 256),   # benchmark-style front
    circle_curve((0.5, 0.5), 0.05, 64),             # far field beyond 0.5 - Lmax
    circle_curve((0.1, 0.9), 0.03, 64),             # across both seams
    circle_curve((0.0, 0.0), 0.2, 128),             # mod 1 of -tiny x rounds to 1.0
], ids=["ellipse", "small-circle", "seam-circle", "origin-circle"])
def test_distance_kernel_matches_nine_image_brute_force(curve):
    x, y = Grid(128).cell_centers()
    pts = np.stack([x.ravel(), y.ravel()], axis=1)
    exact = brute_force_curve_distance(pts, curve)
    assert np.abs(points_to_curve_distance(pts, curve) - exact).max() <= 1e-14


def test_hausdorff_identical_is_zero():
    c = circle_curve((0.5, 0.5), 0.25, 256)
    assert hausdorff(c, c) == 0.0


def test_hausdorff_concentric_circles():
    a = circle_curve((0.5, 0.5), 0.25, 512)
    b = circle_curve((0.5, 0.5), 0.20, 512)
    assert hausdorff(a, b) == pytest.approx(0.05, abs=1e-4)


def test_hausdorff_translation_by_h():
    h = 1.0 / 256
    a = circle_curve((0.5, 0.5), 0.25, 256)
    b = translate_curve(a, (h, 0.0))
    assert hausdorff(a, b) == pytest.approx(h, abs=1e-6)


def test_hausdorff_periodic_wrap():
    a = circle_curve((0.02, 0.5), 0.25, 256)     # straddles the seam
    b = circle_curve((0.02, 0.5), 0.20, 256)
    assert hausdorff(a, b) == pytest.approx(0.05, abs=1e-4)


def test_enclosed_area_square():
    sq = curve_from_points(np.array([[0.2, 0.2], [0.8, 0.2], [0.8, 0.8], [0.2, 0.8]]))
    assert enclosed_area(sq) == pytest.approx(0.36, abs=1e-15)
    assert enclosed_area(curve_from_points(sq.vertices[::-1])) == pytest.approx(-0.36)


def test_marching_squares_linear_field():
    n = 64
    h = 1.0 / n
    x = (np.arange(n) + 0.5) * h
    u = np.broadcast_to((x - 0.5)[:, None], (n, n)).copy()
    loops = marching_squares(u, h, 0.0)
    assert len(loops) == 2          # the x=0.5 line and the seam transition
    mid = [c for c in loops if np.abs(c.vertices[:, 0] - 0.5).max() < 1e-12][0]
    assert mid.wraps[0] == 0 and abs(mid.wraps[1]) == 1
    assert not mid.is_contractible


def test_marching_squares_orientation_and_sign():
    n = 128
    h = 1.0 / n
    x = (np.arange(n) + 0.5) * h
    X, Y = np.meshgrid(x, x, indexing="ij")
    u = np.sqrt((X - 0.5) ** 2 + (Y - 0.5) ** 2) - 0.25      # high outside
    loop = marching_squares(u, h, 0.0)[0]
    assert enclosed_area(loop) > 0.0                          # CCW: interior low
    inverted = marching_squares(-u, h, 0.0)[0]
    assert enclosed_area(inverted) < 0.0
    assert abs(turning_number(loop)) == pytest.approx(1.0, abs=1e-12)


def test_marching_squares_saddles_close():
    n = 64
    h = 1.0 / n
    x = (np.arange(n) + 0.5) * h
    X, Y = np.meshgrid(x, x, indexing="ij")
    u = np.cos(2 * np.pi * X) * np.cos(2 * np.pi * Y)
    loops = marching_squares(u, h, 0.0)
    assert loops, "checkerboard field must produce contours"
    total = sum(c.n_vertices for c in loops)
    assert total > 4 * n // 2
    for c in loops:
        assert np.isfinite(c.vertices).all()


@pytest.mark.parametrize("peak, n_loops", [(1.0, 2), (3.0, 1)],
                         ids=["low-centre", "high-centre"])
def test_marching_squares_midpoint_rule_splits_saddles(peak, n_loops):
    # cell (1, 1) has high corners (1, 1) and (2, 2); its centre value is the
    # mean of its corners, (peak - 1) / 4
    u = -np.ones((6, 6))
    u[1, 1], u[2, 2] = 1.0, peak
    loops = marching_squares(u, 1.0 / 6, 0.0)
    assert len(loops) == n_loops
    assert sum(c.n_vertices for c in loops) == 8
    assert all(enclosed_area(c) < 0.0 for c in loops)     # high inside: clockwise


def test_marching_squares_subcell_accuracy():
    n = 128
    h = 1.0 / n
    x = (np.arange(n) + 0.5) * h
    X, Y = np.meshgrid(x, x, indexing="ij")
    u = np.sqrt((X - 0.5) ** 2 + (Y - 0.5) ** 2) - 0.25
    loop = marching_squares(u, h, 0.0)[0]
    r = np.linalg.norm(loop.vertices - 0.5, axis=1)
    assert np.abs(r - 0.25).max() <= h     # sub-cell interpolation accuracy


def _periodic_field(rng, n: int) -> np.ndarray:
    """Smooth random periodic field plus white noise, which makes saddles."""
    k = np.fft.fftfreq(n) * n
    modes = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    modes *= np.exp(-(k[:, None] ** 2 + k[None, :] ** 2) / 8.0)
    smooth = np.fft.ifft2(modes).real
    return smooth / smooth.std() + 0.5 * rng.normal(size=(n, n))


def _same_cycle(a: np.ndarray, b: np.ndarray) -> bool:
    """b's vertices are a's, mod 1, from some start vertex on."""
    if a.shape != b.shape:
        return False
    gap = b - a[0]
    starts = np.flatnonzero(np.abs(gap - np.round(gap)).max(axis=1) <= 1e-15)
    for r in starts:
        diff = np.roll(b, -r, axis=0) - a
        if np.abs(diff - np.round(diff)).max() <= 1e-15:
            return True
    return False


@pytest.mark.parametrize("seed", range(6))
def test_marching_squares_negated_field_reverses_loops(seed):
    rng = np.random.default_rng(seed)
    n = (24, 32, 64)[seed % 3]
    u = _periodic_field(rng, n)
    level = 0.2 * rng.normal()
    high = u > level
    c0, c1 = high, np.roll(high, -1, axis=0)
    c2, c3 = np.roll(high, (-1, -1), axis=(0, 1)), np.roll(high, -1, axis=1)
    assert ((c0 == c2) & (c1 == c3) & (c0 != c1)).any(), "no saddle cell"

    loops = marching_squares(u, 1.0 / n, level)
    crossed = (high ^ c1).sum() + (high ^ c3).sum()
    assert sum(c.n_vertices for c in loops) == crossed
    negated = marching_squares(-u, 1.0 / n, -level)
    assert len(negated) == len(loops)
    unmatched = list(loops)
    for c in negated:
        back = c.reversed()
        hit = [k for k, f in enumerate(unmatched)
               if f.wraps == back.wraps and _same_cycle(f.vertices, back.vertices)]
        assert len(hit) == 1
        unmatched.pop(hit[0])


def test_resample_preserves_shape_and_spacing():
    c = circle_curve((0.5, 0.5), 0.25, 300)
    r = resample(c, 128)
    assert r.n_vertices == 128
    radii = np.linalg.norm(r.vertices - 0.5, axis=1)
    assert np.abs(radii - 0.25).max() <= 1e-5
    radial = (r.vertices - 0.5) / radii[:, None]
    assert np.abs(r.normals - radial).max() <= 1e-6
    assert np.abs(r.curvature - 1.0 / 0.25).max() <= 1e-3
    seg = np.linalg.norm(np.diff(r.closed_loop(), axis=0), axis=1)
    assert seg.max() / seg.min() <= 1.01
    assert curve_length(r) == pytest.approx(curve_length(c), rel=1e-3)


def sine_band(m: int, amp: float = 0.05) -> FrontCurve:
    """The graph y = 0.5 + amp sin(2 pi x), wrapping once in x."""
    x = np.arange(m) / m
    pts = np.stack([x, 0.5 + amp * np.sin(2 * np.pi * x)], axis=1)
    return FrontCurve(pts, 1.0 / m, wraps=(1, 0))


def test_wrapping_fit_matches_graph_curvature_and_resamples_on_curve():
    amp, m = 0.05, 128
    c = geometry(sine_band(m, amp))
    x = c.vertices[:, 0]
    fp = 2 * np.pi * amp * np.cos(2 * np.pi * x)
    fpp = -(2 * np.pi) ** 2 * amp * np.sin(2 * np.pi * x)
    assert np.abs(c.curvature - fpp / (1 + fp**2) ** 1.5).max() <= 2e-3
    normals = np.stack([fp, -np.ones(m)], axis=1) / np.sqrt(1 + fp**2)[:, None]
    assert np.abs(c.normals - normals).max() <= 1e-6

    r = resample(c, 100)
    assert r.n_vertices == 100
    assert r.wraps == (1, 0)
    assert np.array_equal(r.vertices[0], c.vertices[0])
    y_graph = 0.5 + amp * np.sin(2 * np.pi * r.vertices[:, 0])
    assert np.abs(r.vertices[:, 1] - y_graph).max() <= 1e-7
    x = r.vertices[:, 0]
    fp = 2 * np.pi * amp * np.cos(2 * np.pi * x)
    fpp = -(2 * np.pi) ** 2 * amp * np.sin(2 * np.pi * x)
    assert np.abs(r.curvature - fpp / (1 + fp**2) ** 1.5).max() <= 2e-3
    normals = np.stack([fp, -np.ones(100)], axis=1) / np.sqrt(1 + fp**2)[:, None]
    assert np.abs(r.normals - normals).max() <= 1e-6
    seg = np.linalg.norm(np.diff(r.closed_loop(), axis=0), axis=1)
    assert seg.max() / seg.min() <= 1.01


@pytest.mark.parametrize("fit", [geometry, lambda c: resample(c, 64)],
                         ids=["geometry", "resample"])
def test_fit_rejects_repeated_vertex_on_wrapping_curve(fit):
    band = sine_band(64)
    band.vertices = np.insert(band.vertices, 10, band.vertices[10], axis=0)
    with pytest.raises(errors.DegenerateCurve):
        fit(band)


def test_is_simple_detects_crossing():
    assert is_simple(circle_curve((0.5, 0.5), 0.2, 64))
    th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    eight = np.stack([0.5 + 0.2 * np.sin(2 * th), 0.5 + 0.1 * np.sin(th)], axis=1)
    assert not is_simple(curve_from_points(eight))


def test_area_undefined_for_wrapping_contour():
    n = 32
    h = 1.0 / n
    x = (np.arange(n) + 0.5) * h
    u = np.broadcast_to((x - 0.5)[:, None], (n, n)).copy()
    wrapping = marching_squares(u, h, 0.0)[0]
    with pytest.raises(errors.DegenerateCurve):
        enclosed_area(wrapping)
